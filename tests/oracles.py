"""Independent high-precision oracles used to freeze expected test values.

Everything here is deliberately decoupled from the package implementation:
mpmath supplies arbitrary-precision Bessel evaluations, the power series and
Gamma-quotient forms are written out directly, and root localization is plain
bisection.  Expected values in the test files were computed with these
routines and then frozen as literals.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30


def mp_besselj(nu, x) -> float:
    return float(mp.besselj(nu, x))


def mp_bessely(nu, x) -> float:
    return float(mp.bessely(nu, x))


def mp_k0(x) -> float:
    return float(mp.besselk(0, x))


def series_besselj(nu, x, terms: int = 120) -> float:
    """Plain power series sum_{k} (-1)^k (x/2)^{2k+nu} / (k! Gamma(nu+k+1))."""
    xh = mp.mpf(x) / 2
    s = mp.mpf(0)
    for k in range(terms):
        s += (-1) ** k * xh ** (2 * k + mp.mpf(nu)) / (mp.factorial(k) * mp.gamma(nu + k + 1))
    return float(s)


def bisect_zero(f, a, b, iters: int = 90) -> float:
    fa = f(a)
    assert fa * f(b) < 0, "oracle bisection needs a sign change"
    a, b = mp.mpf(a), mp.mpf(b)
    for _ in range(iters):
        m = (a + b) / 2
        if fa * f(m) <= 0:
            b = m
        else:
            a, fa = m, f(a)
    return float((a + b) / 2)


def k0_quadrature(x) -> float:
    """K_0(x) from its integral representation int_0^inf exp(-x cosh t) dt."""
    return float(mp.quad(lambda t: mp.exp(-mp.mpf(x) * mp.cosh(t)), [0, 14]))


def _gamma_ratio_terms(m: int, nu) -> list:
    """(c_k, 2k - m) with R_{m,nu}(x) = sum c_k (x/2)^(2k-m), c_k the literal Gamma quotients."""
    nu = mp.mpf(nu)  # the orders nu + k are exact
    return [
        ((-1) ** k * mp.binomial(m - k, k) * mp.gamma(nu + m - k) / mp.gamma(nu + k), 2 * k - m)
        for k in range(m // 2 + 1)
    ]


def gamma_ratio_lommel(m: int, nu, x) -> float:
    """R_{m,nu}(x) evaluated from the literal Gamma-quotient coefficients."""
    xh = mp.mpf(x) / 2
    s = mp.mpf(0)
    for c, e in _gamma_ratio_terms(m, nu):
        s += c * xh**e
    return float(s)


def lommel_sign_changes(m: int, nu, xs, rel: float, assoc: bool = False) -> list:
    """For each x in xs, whether R_{m,nu}, or with `assoc` R*_{m,nu} = (R_{m,nu} -
    R_{m-2,nu+2}) / 2, changes sign between x (1 - rel) and x (1 + rel).  The
    Gamma-quotient form runs at m + 40 digits, which covers its cancellation."""
    with mp.workdps(m + 40):
        terms = _gamma_ratio_terms(m, nu)
        if assoc:
            terms += [(-c, e) for c, e in _gamma_ratio_terms(m - 2, nu + 2)]
        R = lambda x: sum(c * (x / 2) ** e for c, e in terms)
        return [R(x - rel * x) * R(x + rel * x) <= 0 for x in map(mp.mpf, xs)]


def stencil5_derivative(f, x, h) -> float:
    """Five-point central finite-difference first derivative."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def shifted_sign_at_zero(nu, m: int, x0) -> int:
    """The sign of J_{nu+m} at the zero of J_nu that `mp.findroot` reaches from x0,
    which must lie within 1e-8 of x0 (so a start at the k-th zero stays there)."""
    z = mp.findroot(lambda x: mp.besselj(nu, x), mp.mpf(x0))
    assert abs(z - x0) < 1e-8, (nu, x0, z)
    return int(mp.sign(mp.besselj(nu + m, z)))


def slope_polynomial_coeffs(n: int) -> list:
    """Coefficients of the terminating 2F1[(1-n)/2, -n/2; -n; z] in powers of z."""
    a, b, c = (1.0 - n) / 2.0, -n / 2.0, float(-n)
    coeffs = []
    term = 1.0
    k = 0
    while True:
        coeffs.append(term)
        num = (a + k) * (b + k)
        if num == 0.0:
            break
        term = term * num / ((c + k) * (k + 1.0))
        k += 1
        if k > n:
            break
    return coeffs


def slope_polynomial_mp(n: int) -> list:
    """`slope_polynomial_coeffs` at the working precision."""
    a, b, c = mp.mpf(1 - n) / 2, mp.mpf(-n) / 2, mp.mpf(-n)
    coeffs = [mp.mpf(1)]
    while (a + len(coeffs) - 1) * (b + len(coeffs) - 1) != 0:
        k = len(coeffs) - 1
        coeffs.append(coeffs[-1] * (a + k) * (b + k) / ((c + k) * (k + 1)))
    return coeffs


def newton_step_ratio(family: str, mu, alpha, x, tol):
    """|h(x) / h'(x)| / (tol min(1, x)) at 50 digits, for h = J_mu, or C_mu of angle alpha
    (`family` "c"), at the float x: below 1 the common-zero test takes x."""
    with mp.workdps(50):
        mu, alpha, x = mp.mpf(mu), mp.mpf(alpha), mp.mpf(x)

        def h(d):
            if family != "c":
                return mp.besselj(mu, x, d)
            return mp.cos(alpha) * mp.besselj(mu, x, d) - mp.sin(alpha) * mp.bessely(mu, x, d)

        return abs(h(0) / h(1)) / (mp.mpf(tol) * min(1, x))


def order_derivative(nu, x0):
    """(dj/dnu, j) at the zero j of J_nu that `mp.findroot` reaches from x0, at 40 digits:
    -(dJ/dnu) / (dJ/dx) there."""
    with mp.workdps(40):
        nu = mp.mpf(nu)
        j = mp.findroot(lambda x: mp.besselj(nu, x), mp.mpf(x0))
        return float(-mp.diff(lambda v: mp.besselj(v, j), nu) / mp.besselj(nu, j, 1)), float(j)
