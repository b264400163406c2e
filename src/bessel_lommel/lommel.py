"""Lommel polynomials R_{m,nu}, associated polynomials R*_{m,nu}, and their roots.

R_{m,nu} is the polynomial in 1/x generated by iterating the Bessel
three-term recurrence; explicitly

    R_{m,nu}(x) = sum_{k=0}^{floor(m/2)} (-1)^k C(m-k, k)
                  * (nu+k)(nu+k+1)...(nu+m-k-1) * (x/2)^(2k-m),

where the coefficient is the Gamma-function ratio Gamma(nu+m-k)/Gamma(nu+k)
written as a finite product so that no Gamma overflow or pole can occur.
Negative first indices follow the reflection R_{-m,nu} = -R_{m-2,nu-m+1}.

The associated polynomial is R*_{m,nu} = (R_{m,nu} - R_{m-2,nu+2}) / 2; it
links J'_nu to J_{nu+m} the same way R_{m,nu} links J_nu to J_{nu+m}.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .special import DomainError


class PolyKind(enum.Enum):
    PLAIN = "plain"
    ASSOCIATED = "associated"


@dataclass(frozen=True)
class LommelCoefficients:
    """R_{m,nu} (plain) or R*_{m,nu} (associated) by its exact coefficient vector
    c_k multiplying (x/2)^(2k - m), k = 0..floor(m/2).

    Calling it evaluates the polynomial at x and `prime(x)` its derivative, both
    through `_scalar_kernel`, element by element for an array; x = 0 is a
    DomainError.  `roots()`, the one route by which roots reach an answer, takes
    the m // 2 positive roots from `root_positions`; `root_list()` adds residuals.
    Two rules hold there and nowhere else: the order must be nu > 0 (ValueError),
    and a root that is not finite and positive (the Jacobi matrix underflows at
    enormous nu) is a ConvergenceError, as is a residual that is not finite.
    """

    m: int
    nu: float
    kind: PolyKind
    coeffs: tuple

    def as_dict(self) -> dict:
        return {"m": self.m, "nu": self.nu, "kind": self.kind.value, "coeffs": list(self.coeffs)}

    def __call__(self, x):
        return _evaluate(_scalar_kernel(self.coeffs, self.m), x)

    def prime(self, x):
        return _evaluate(_scalar_kernel(self.coeffs, self.m, derivative=True), x)

    def _name(self) -> str:
        return f"R{'*' if self.kind is PolyKind.ASSOCIATED else ''}_{{{self.m},{self.nu:.6g}}}"

    def roots(self) -> np.ndarray:
        """The m // 2 positive roots, ascending."""
        from .zeros import ConvergenceError

        if self.nu <= 0.0:
            raise ValueError(f"Lommel polynomial roots require nu > 0; nu={self.nu:.6g}")
        roots = root_positions(self.m, self.nu, self.kind)
        if not ((0.0 < roots) & (roots < math.inf)).all():
            raise ConvergenceError(f"the roots of {self._name()} are not all finite and positive")
        return roots

    def root_list(self):
        """`roots()` as a ZeroList; `tolerance` is the largest scaled residual
        |R(r)| / max(1, |R'(r)|) reached over the roots."""
        from .zeros import ConvergenceError, ZeroList

        xs = self.roots().tolist()
        vals = [abs(self(x)) for x in xs]
        if not all(map(math.isfinite, vals)):
            raise ConvergenceError(f"the residuals at the roots of {self._name()} are not finite")
        return ZeroList(
            fid=self,
            zeros=tuple(xs),
            residuals=tuple(vals),
            method="Jacobi-matrix eigenvalues + bisection/Newton where the kernel changes sign",
            tolerance=max(
                (v / max(1.0, abs(self.prime(x))) for x, v in zip(xs, vals)), default=0.0
            ),
        )


@dataclass(frozen=True)
class EtaRoot:
    """Large-order slope limits eta of the positive roots of R_{n,nu+1}, ascending.

    They are the n // 2 roots eta > 1 of 2F1[(1-n)/2, -n/2; -n; eta^2] = (eta/2)^n U_n(1/eta)
    (U_n the Chebyshev polynomial of the second kind), so eta_l = sec(l pi / (n+1)).
    """

    n: int
    roots: tuple


def _rising_product(start: float, count: int) -> float:
    out = 1.0
    for i in range(count):
        out *= start + i
    return out


def _plain_coeffs(m: int, nu: float) -> list:
    # c_k = (-1)^k C(m-k, k) * (nu+k)_(m-2k)
    return [
        (-1) ** k * math.comb(m - k, k) * _rising_product(nu + k, m - 2 * k)
        for k in range(m // 2 + 1)
    ]


def _assoc_coeffs(m: int, nu: float) -> list:
    if m == 0:
        return [1.0]
    if m == 1:
        return [nu / 2.0]
    a = _plain_coeffs(m, nu)
    b = _plain_coeffs(m - 2, nu + 2.0)
    return [(a[k] - (b[k - 1] if 1 <= k <= len(b) else 0.0)) / 2.0 for k in range(len(a))]


def lommel_coefficients(m: int, nu: float, kind: PolyKind = PolyKind.PLAIN) -> LommelCoefficients:
    if m < 0:
        raise ValueError("coefficient form requires m >= 0; use lommel_eval for negative m")
    if not math.isfinite(nu):
        raise DomainError(f"Lommel polynomials require a finite nu; got {nu}")
    coeffs = _plain_coeffs(m, nu) if kind is PolyKind.PLAIN else _assoc_coeffs(m, nu)
    return LommelCoefficients(m, nu, kind, tuple(coeffs))


def _evaluate(kernel, x):
    """`kernel` at x, element by element for an array; x = 0 is a DomainError."""
    xs = np.asarray(x, dtype=float)
    if (xs == 0.0).any():
        raise DomainError("Lommel polynomials are evaluated at x != 0")
    if not xs.ndim:
        return kernel(float(xs))
    return np.asarray([kernel(v) for v in xs.ravel().tolist()], dtype=float).reshape(xs.shape)


def lommel_eval(m: int, nu: float, x):
    """R_{m,nu}(x) for any integer m; x > 0."""
    if m == -1:
        return _evaluate(lambda _: 0.0, x)
    if m < 0:
        return -lommel_eval(-m - 2, nu + m + 1.0, x)
    return lommel_coefficients(m, nu)(x)


def lommel_prime(m: int, nu: float, x):
    """d/dx R_{m,nu}(x)."""
    if m == -1:
        return _evaluate(lambda _: 0.0, x)
    if m < 0:
        return -lommel_prime(-m - 2, nu + m + 1.0, x)
    return lommel_coefficients(m, nu).prime(x)


def assoc_eval(m: int, nu: float, x):
    """R*_{m,nu}(x) = (R_{m,nu}(x) - R_{m-2,nu+2}(x)) / 2 for any integer m."""
    if m >= 0:
        return lommel_coefficients(m, nu, PolyKind.ASSOCIATED)(x)
    return 0.5 * (lommel_eval(m, nu, x) - lommel_eval(m - 2, nu + 2.0, x))


def assoc_prime(m: int, nu: float, x):
    if m >= 0:
        return lommel_coefficients(m, nu, PolyKind.ASSOCIATED).prime(x)
    return 0.5 * (lommel_prime(m, nu, x) - lommel_prime(m - 2, nu + 2.0, x))


def _pow(h: float, e: int) -> float:
    """h ** e by libm `pow`; an overflow gives inf, as in numpy, not an error."""
    try:
        return h**e
    except OverflowError:
        return math.inf


def _scalar_kernel(coeffs, m: int, derivative: bool = False):
    """The polynomial with coefficients `coeffs` (or its derivative) at one Python float.

    Horner in u = (x/2)**2, times (x/2)**(-m).  It squares with `**`, libm
    `pow`, as numpy scalars do; `h * h`, or evaluating through numpy arrays
    (whose power loop may use a SIMD `pow`), changes the last bits.
    """
    if derivative:
        coeffs = [c * (2 * k - m) for k, c in enumerate(coeffs)]
    rev = coeffs[::-1]

    def kernel(x):
        h = x / 2.0
        u = _pow(h, 2)
        acc = 0.0
        for c in rev:
            acc = acc * u + c
        out = acc * _pow(h, -m)
        return out / x if derivative else out

    return kernel


def root_positions(n: int, nu: float, kind: PolyKind = PolyKind.PLAIN) -> np.ndarray:
    """Positive roots of R_{n,nu} (plain) or R*_{n,nu} (associated), ascending.

    h(t) = R(1/t) is an orthogonal polynomial (Dickinson 1954), so the n // 2 roots
    are the reciprocals of the top n // 2 eigenvalues of its n x n Jacobi matrix:
    zero diagonal, off-diagonal 1 / (2 sqrt((nu+k)(nu+k+1))), k = 0..n-2, whose first
    entry is sqrt(1 / (2 nu (nu+1))) for R*.  Where `_scalar_kernel` changes sign
    within 1e-13 x0 of such a root x0, bisection (at most 80 steps; each is a
    deterministic map of (a, b, fa, fb), so it stops once a step would leave the state
    as it is) and a Newton polish of at most 4 steps that stops at a fixed point or on
    leaving that band refine it; elsewhere x0 stands.
    """
    if n < 2:
        return np.empty(0)
    nu = float(nu)  # a numpy scalar would make the polish warn where its products overflow
    k = nu + np.arange(n - 1.0)
    off = 0.5 / (np.sqrt(k) * np.sqrt(k + 1.0))
    if kind is PolyKind.ASSOCIATED:
        off[0] = math.sqrt(0.5 / nu) / math.sqrt(nu + 1.0)
    with np.errstate(divide="ignore", over="ignore"):  # an underflowed eigenvalue gives inf
        xs = 1.0 / np.linalg.eigvalsh(np.diag(off, -1))[n - n // 2 :][::-1]
    coeffs = _plain_coeffs(n, nu) if kind is PolyKind.PLAIN else _assoc_coeffs(n, nu)
    f = _scalar_kernel(coeffs, n)
    fp = _scalar_kernel(coeffs, n, derivative=True)
    roots = []
    for x0 in xs.tolist():
        lo, hi = x0 - 1e-13 * x0, x0 + 1e-13 * x0
        a, b, fa, fb = lo, hi, f(lo), f(hi)
        if not fa * fb <= 0.0:
            roots.append(x0)
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            if mid == b and (fa * fb <= 0.0 or a == b):
                break
            if mid == a and (not fa * fa <= 0.0 or a == b):
                break
            fm = f(mid)
            if fa * fm <= 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        x1 = 0.5 * (a + b)
        for _ in range(4):
            d = fp(x1)
            if d == 0.0:
                break
            x2 = x1 - f(x1) / d
            if x2 == x1 or not lo <= x2 <= hi:
                break  # x1 is a fixed point, or the step leaves the band
            x1 = x2
        roots.append(x1)
    return np.asarray(roots)


def lommel_roots(n: int, lam: float, kind: PolyKind = PolyKind.PLAIN):
    """Positive roots of R_{n,lam+1} (plain) or R*_{n,lam} (associated) as a ZeroList
    (see `LommelCoefficients.root_list`)."""
    return lommel_coefficients(n, lam + 1.0 if kind is PolyKind.PLAIN else lam, kind).root_list()


def lommel_wronskian_identity(m: int, nu: float, x: float):
    """Relative residuals of the two closed-form Wronskian identities.

    Plain:      W[R_{m-2,nu+1}, R_{m-1,nu+1}](x)
                  = -(2/x^2) sum_{k=0}^{m-2} (nu+k+1) R_{k,nu+1}^2(x),
    associated: W[R*_{m,nu}, R*_{m-1,nu}](x)
                  = sum_{k=1}^{m-1} (2(nu+k)/x^2) R*_{k,nu}^2(x) + nu/x^2.
    """
    if m < 1:
        raise ValueError("lommel_wronskian_identity requires m >= 1")
    if not 0.0 < x < math.inf:
        raise DomainError("lommel_wronskian_identity requires 0 < x < inf")

    w = lommel_eval(m - 2, nu + 1.0, x) * lommel_prime(m - 1, nu + 1.0, x) - lommel_prime(
        m - 2, nu + 1.0, x
    ) * lommel_eval(m - 1, nu + 1.0, x)
    s = (2.0 / (x * x)) * sum(
        (nu + k + 1.0) * lommel_eval(k, nu + 1.0, x) ** 2 for k in range(0, m - 1)
    )
    plain = abs(w + s) / max(1.0, abs(w), abs(s))

    ws = assoc_eval(m, nu, x) * assoc_prime(m - 1, nu, x) - assoc_prime(m, nu, x) * assoc_eval(
        m - 1, nu, x
    )
    ss = (
        sum((2.0 * (nu + k) / (x * x)) * assoc_eval(k, nu, x) ** 2 for k in range(1, m))
        + nu / (x * x)
    )
    assoc = abs(ws - ss) / max(1.0, abs(ws), abs(ss))
    return plain, assoc


def eta_limit(n: int) -> EtaRoot:
    """Limiting slopes (as the order grows) of the positive roots of R_{n,nu+1}, in closed
    form: sec(l pi / (n+1)) for l = 1..n // 2, written as 1 / sin so that the steep slopes
    keep full precision.  More than `zeros._MAX_ZEROS` slopes is a DomainError."""
    from .zeros import _MAX_ZEROS

    if n < 2:
        raise ValueError("eta_limit requires n >= 2")
    if n // 2 > _MAX_ZEROS:
        raise DomainError(f"eta_limit({n}) would give {n // 2} slopes; at most {_MAX_ZEROS}")
    return EtaRoot(n, tuple(1.0 / math.sin((n + 1 - 2 * l) * math.pi / (2 * (n + 1)))
                            for l in range(1, n // 2 + 1)))


def pochhammer_limit(m: int) -> float:
    """Large-order limit of R_{m,nu+1}(rho)/2^m along a unit-slope root path: the slope
    polynomial at z = 1, U_m(1) / 2^m = (m + 1) / 2^m (0.0 once that underflows, m > 1085)."""
    if m < 0:
        raise ValueError("pochhammer_limit requires m >= 0")
    return math.ldexp(m + 1.0, -m)


def values_at_bessel_zero(nu: float, j: float, count: int) -> np.ndarray:
    """R_{k,nu+1}(j) for k = 0..count-1 where j is a positive zero of J_nu.

    At such points the sequence k -> R_{k,nu+1}(j) is the minimal solution of
    the three-term recurrence, so it is generated by normalized backward
    recurrence (forward recurrence is unstable there).
    """
    K = int(max(count + 10, math.ceil(j) + 60, math.ceil(abs(nu)) + 40))
    vals = np.zeros(K + 2)
    vals[K + 1] = 0.0
    vals[K] = 1e-280
    for k in range(K, 0, -1):
        vals[k - 1] = (2.0 * (nu + 1.0 + k) / j) * vals[k] - vals[k + 1]
        if abs(vals[k - 1]) > 1e250:
            vals[k - 1 :] /= 1e250
    vals /= vals[0]
    return vals[:count]
