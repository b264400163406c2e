"""Reference answers for the benchmark, computed without bessel_lommel.

Double-precision parts use scipy.special directly; final values and residuals
use mpmath at 30 significant digits.  Nothing here runs inside a timed region.

Common-zero orders nu* come from tracking the first K zeros z_k(nu) of the
base function along a fine order grid by Newton continuation and looking for
sign changes of g(nu) = f_{nu+m}(z_k(nu)): g vanishes exactly when the base
zero z_k is also a zero of the shifted function.  This route never touches a
Lommel polynomial, so it is independent of the library's root finder.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import optimize
from scipy import special as sp

DPS = 30
NU_STEP = 0.02  # order step of the zero tracker; crossings closer than this would merge


# --- double-precision family f = cos(a) J - sin(a) Y ---------------------------


def fam(alpha: float, nu, x):
    if alpha == 0.0:
        return sp.jv(nu, x)
    return math.cos(alpha) * sp.jv(nu, x) - math.sin(alpha) * sp.yv(nu, x)


def fam_prime(alpha: float, nu, x):
    return 0.5 * (fam(alpha, nu - 1.0, x) - fam(alpha, nu + 1.0, x))


def first_zeros(alpha: float, nu: float, K: int, derivative: bool = False) -> np.ndarray:
    """First K positive zeros of f_nu (or of f'_nu): scan on a 0.05 grid, then brentq."""
    f = (lambda t: fam_prime(alpha, nu, t)) if derivative else (lambda t: fam(alpha, nu, t))
    # neither J_nu nor J'_nu vanishes below nu; a cylinder zero can sit near the origin
    x = max(0.9 * nu, 1e-4) if alpha == 0.0 else 1e-4
    fx = float(f(x))
    out = []
    while len(out) < K:
        grid = x + 0.05 * np.arange(1, 501)
        vals = f(grid)
        seq = np.concatenate(([fx], vals))
        xs = np.concatenate(([x], grid))
        for i in np.nonzero(np.sign(seq[:-1]) != np.sign(seq[1:]))[0]:
            out.append(optimize.brentq(f, xs[i], xs[i + 1], xtol=1e-15))
            if len(out) == K:
                break
        x, fx = float(grid[-1]), float(vals[-1])
    return np.asarray(out)


def _newton(alpha: float, nu: float, z: np.ndarray, steps: int = 4) -> np.ndarray:
    for _ in range(steps):
        z = z - fam(alpha, nu, z) / fam_prime(alpha, nu, z)
    return z


def track_zeros(alpha: float, nus: np.ndarray, K: int) -> np.ndarray:
    """Z[i, k-1] = z_k(nus[i]); checked against a fresh scan at the last order."""
    Z = np.empty((len(nus), K))
    Z[0] = first_zeros(alpha, float(nus[0]), K)
    for i in range(1, len(nus)):
        Z[i] = _newton(alpha, float(nus[i]), Z[i - 1])
    fresh = first_zeros(alpha, float(nus[-1]), K)
    if not np.allclose(Z[-1], fresh, rtol=1e-11, atol=0.0) or (np.diff(Z, axis=1) <= 0).any():
        raise RuntimeError("reference zero tracker lost a zero")
    return Z


def crossings(alpha: float, nus: np.ndarray, Z: np.ndarray, m: int) -> list:
    """All (k, nu*, x*) with f_nu(x*) = f_{nu+m}(x*) = 0 on the tracked grid."""
    g = fam(alpha, nus[:, None] + m, Z)
    out = []
    for i, k in zip(*np.nonzero(np.sign(g[:-1]) != np.sign(g[1:]))):
        z0 = Z[i, k]

        def G(nu, z0=z0):
            return float(fam(alpha, nu + m, _newton(alpha, nu, np.asarray([z0]), 6)[0]))

        nu_star = optimize.brentq(G, nus[i], nus[i + 1], xtol=1e-15, rtol=8.9e-16)
        x_star = float(_newton(alpha, nu_star, np.asarray([z0]), 6)[0])
        out.append((int(k) + 1, float(nu_star), x_star))
    return out


class CrossingTable:
    """Zeros z_k(nu), k <= K, of one family tracked over an order range, with
    the common-zero crossings for every order gap in `gaps`."""

    def __init__(self, alpha: float, nu_lo: float, nu_hi: float, K: int, gaps):
        nus = np.linspace(nu_lo, nu_hi, int(math.ceil((nu_hi - nu_lo) / NU_STEP)) + 1)
        Z = track_zeros(alpha, nus, K)
        self.by_gap = {m: crossings(alpha, nus, Z, m) for m in gaps}

    def within(self, m: int, lo: float, hi: float, k_max: int) -> list:
        return [c for c in self.by_gap[m] if lo <= c[1] <= hi and c[0] <= k_max]


def bracket_crossings(alpha: float, m: int, lo: float, hi: float, K: int) -> list:
    """Crossings with k <= K inside a narrow order bracket."""
    nus = np.linspace(lo, hi, max(3, int(math.ceil((hi - lo) / NU_STEP)) + 1))
    return crossings(alpha, nus, track_zeros(alpha, nus, K), m)


# --- mpmath values ----------------------------------------------------------------


def residual(alpha: float, nu: float, x: float) -> float:
    """|f_nu(x)| at 30 digits."""
    with mp.workdps(DPS):
        nu, x = mp.mpf(nu), mp.mpf(x)
        if alpha == 0.0:
            return float(abs(mp.besselj(nu, x)))
        return float(abs(mp.cos(alpha) * mp.besselj(nu, x) - mp.sin(alpha) * mp.bessely(nu, x)))


def lommel_mp(m: int, nu, x):
    """R_{m,nu}(x) by the three-term recurrence in mpmath (any integer m >= -2)."""
    if m == -1:
        return mp.mpf(0)
    if m == -2:  # R_{-2,nu} = -R_{0,nu-1}
        return mp.mpf(-1)
    prev, cur = mp.mpf(1), 2 * nu / x
    if m == 0:
        return prev
    for k in range(1, m):
        prev, cur = cur, 2 * (nu + k) / x * cur - prev
    return cur


def assoc_mp(m: int, nu, x):
    return (lommel_mp(m, nu, x) - lommel_mp(m - 2, nu + 2, x)) / 2


def root_gap(family: str, m: int, nu: float, x: float) -> float:
    """Relative distance from x to the nearest root of the compensating polynomial
    (R*_{m,nu} for family jp, else R_{m-1,nu+1}), at 30 digits."""
    with mp.workdps(DPS):
        nu = mp.mpf(nu)
        if family == "jp":
            P = lambda t: assoc_mp(m, nu, t)
        else:
            P = lambda t: lommel_mp(m - 1, nu + 1, t)
        try:
            root = mp.findroot(P, mp.mpf(x))
        except (ValueError, ZeroDivisionError):  # no root close enough to converge to
            return math.inf
        return float(abs(root - x) / x)


def lommel_root_residual(m: int, nu: float, x: float) -> float:
    """|R_{m,nu}(x)| / max(1, |R'_{m,nu}(x)|) at 30 digits."""
    with mp.workdps(DPS):
        nu, x = mp.mpf(nu), mp.mpf(x)
        val = lommel_mp(m, nu, x)
        der = mp.diff(lambda t: lommel_mp(m, nu, t), x)
        return float(abs(val) / max(1, abs(der)))


def dj_dnu(nu: float, k: int) -> float:
    """d j_{nu,k} / d nu = -(dJ_nu/dnu)(j) / J'_nu(j) at 30 digits."""
    with mp.workdps(DPS):
        nu = mp.mpf(nu)
        j = mp.besseljzero(nu, k)
        return float(-mp.diff(lambda v: mp.besselj(v, j), nu) / mp.besselj(nu, j, 1))


def wronskian(m: int, nu: float, x: float, derivative_family: bool):
    """(W, scale) for W[J_nu, R_{m-1,nu+1} J_{nu+m}] or W[J'_nu, R*_{m,nu} J_{nu+m}].

    W comes from its definition; scale is the sum of the absolute products in
    it, so a rounding-level error is measured against the size of the terms.
    """
    with mp.workdps(DPS):
        nu, x = mp.mpf(nu), mp.mpf(x)
        if derivative_family:
            P = lambda t: assoc_mp(m, nu, t)
            b, bp = mp.besselj(nu, x, 1), mp.besselj(nu, x, 2)
        else:
            P = lambda t: lommel_mp(m - 1, nu + 1, t)
            b, bp = mp.besselj(nu, x), mp.besselj(nu, x, 1)
        p, pp = P(x), mp.diff(P, x)
        h, hp = mp.besselj(nu + m, x), mp.besselj(nu + m, x, 1)
        terms = (b * pp * h, b * p * hp, -bp * p * h)
        return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))
