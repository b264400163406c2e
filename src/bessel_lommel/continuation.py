"""Orders nu* at which J_nu and J_{nu+m} share a positive zero.

A common zero appears exactly when some root rho of the compensating
polynomial R_{m-1,nu+1} collides with a zero j_{nu,k}: the distance

    d(nu) = rho_{m-1,nu,l} - j_{nu,k}

is continuous in nu, and a sign change over a bracket pins a crossing point
nu*.  Both branches are tracked with an index-continuity guard so that a
sign change is never manufactured by a root or zero swapping identity inside
the bracket.  The same machinery runs for cylinder functions with c_{nu,k}
in place of j_{nu,k}.

Solved orders are verified against both function residuals; the crossing
orders are irrational (no rational order can produce a common zero), which is
reported as an annotation rather than asserted numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import special as _special
from .interlace import Family, Pair
from .special import DomainError
from .zeros import zeros


class BracketError(ValueError):
    """The distance function does not change sign over the given bracket."""


class IndexCrossingError(RuntimeError):
    """A zero or root changed identity inside the continuation range."""


_SLOPE_BOUND = 5.0
# lowest order of a scan, just above the family's domain floor
_SCAN_FLOOR = {Family.BESSEL_J: -1.0 + 1.0 / 16.0, Family.CYLINDER: 1e-3}


@dataclass(frozen=True)
class NuStarSolution:
    m: int
    l: int
    k: int
    nu_star: float
    x_star: float
    residual_j: float
    residual_jm: float
    bracket: tuple
    alpha: float = 0.0

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "k": self.k,
            "alpha": self.alpha,
            "nu_star": self.nu_star,
            "x_star": self.x_star,
            "residual_base": self.residual_j,
            "residual_shifted": self.residual_jm,
            "bracket": list(self.bracket),
            "note": "nu* is irrational (rational orders admit no common zeros)",
        }


@dataclass(frozen=True)
class Trajectory:
    m: int
    curve_id: str
    samples: tuple  # of (nu, x)


@dataclass(frozen=True)
class TraceResult:
    trajectories: tuple
    crossings: tuple


def _family(alpha: float) -> Family:
    """J_nu at alpha = 0, else C_nu with angle alpha."""
    return Family.BESSEL_J if alpha == 0.0 else Family.CYLINDER


def _pair(m: int, nu: float, alpha: float) -> Pair:
    return Pair(_family(alpha), m, nu, alpha)


def _distance(m: int, l: int, k: int, nu: float, alpha: float) -> float:
    """rho_{m-1,nu,l} - (k-th base zero); checks l and k for every `solve_nu_star` step."""
    pair = _pair(m, nu, alpha)
    if not 1 <= l <= pair.max_common or k < 1:
        raise DomainError(f"need 1 <= l <= {pair.max_common} and k >= 1; got l={l}, k={k}")
    return float(pair.poly.roots()[l - 1]) - zeros(pair.base, k).zeros[k - 1]


def _guard_continuity(values, step: float) -> None:
    for a, b in zip(values, values[1:]):
        if abs(b - a) > 2.0 * step * _SLOPE_BOUND:
            raise IndexCrossingError(
                f"distance jumped by {abs(b - a):.3g} over a step of {step:.3g}; "
                "a zero index likely changed identity"
            )


def solve_nu_star(
    m: int,
    l: int,
    k: int,
    nu_lo: float,
    nu_hi: float,
    alpha: float = 0.0,
    residual_tol: float = 1e-8,
) -> NuStarSolution:
    """Refine the order nu* in [nu_lo, nu_hi] where rho_{m-1,nu,l} = base zero k.

    `scipy.optimize` is imported on first use, so the first solve in a
    process pays that import.
    """
    from scipy.optimize import brentq

    if m < 3:
        raise DomainError("common zeros require m >= 3")
    _pair(m, nu_lo, alpha)  # checks the family's domain
    if nu_hi <= nu_lo:
        raise DomainError("bracket must satisfy nu_lo < nu_hi")

    grid = np.linspace(nu_lo, nu_hi, 9)
    dvals = [_distance(m, l, k, float(nu), alpha) for nu in grid]
    _guard_continuity(dvals, float(grid[1] - grid[0]))
    if dvals[0] * dvals[-1] > 0.0:
        raise BracketError(
            f"d({nu_lo:.6g}) = {dvals[0]:.6g} and d({nu_hi:.6g}) = {dvals[-1]:.6g} "
            "have the same sign"
        )

    nu_star = brentq(
        lambda nu: _distance(m, l, k, nu, alpha), nu_lo, nu_hi, xtol=1e-12, rtol=8.9e-16
    )
    pair = _pair(m, nu_star, alpha)
    x_star = zeros(pair.base, k).zeros[k - 1]
    res_lo = abs(float(_special.value_fn(pair.base)(x_star)))
    res_hi = abs(float(_special.value_fn(pair.shifted)(x_star)))
    if res_lo > residual_tol or res_hi > residual_tol:
        raise BracketError(
            f"solved nu*={nu_star:.12g} violates the residual contract: "
            f"{res_lo:.3g}, {res_hi:.3g}"
        )
    return NuStarSolution(m, l, k, float(nu_star), float(x_star), res_lo, res_hi, (nu_lo, nu_hi), alpha)


def _table(m: int, nus, k_max: int, n_roots: int, alpha: float, shifted: bool = False):
    """The first `n_roots` polynomial roots, the first `k_max` base zeros and, with
    `shifted`, the first `k_max` shifted zeros at each order: one row per order."""
    rho = np.empty((len(nus), n_roots))
    base = np.empty((len(nus), k_max))
    high = np.empty((len(nus), k_max)) if shifted else None
    for i, nu in enumerate(nus):
        pair = _pair(m, nu, alpha)
        rho[i] = pair.poly.roots()[:n_roots]
        base[i] = zeros(pair.base, k_max).as_array()
        if shifted:
            high[i] = zeros(pair.shifted, k_max).as_array()
    return rho, base, high


def _crossings(m: int, nus, rho, base, alpha: float) -> list:
    """Solve every sign change of rho[:, l] - base[:, k] between neighbouring
    orders; the solutions are sorted by nu*, ties kept in (l, k, order) order."""
    sols = []
    for l in range(rho.shape[1]):
        for k in range(base.shape[1]):
            d = rho[:, l] - base[:, k]
            for i in range(len(nus) - 1):
                if d[i] == 0.0 or d[i] * d[i + 1] < 0.0:
                    sols.append(solve_nu_star(m, l + 1, k + 1, nus[i], nus[i + 1], alpha))
    sols.sort(key=lambda s: s.nu_star)
    return sols


def find_in_bracket(
    m: int,
    nu_lo: float,
    nu_hi: float,
    alpha: float = 0.0,
    k_search: int = 40,
) -> list:
    """All (l, k) crossings inside a bracket, without presuming the pair.

    Evaluates every root of the compensating polynomial and the first
    `k_search` base zeros at both endpoints and refines each pair whose
    distance changes sign.
    """
    if m < 3:
        raise DomainError("common zeros require m >= 3")
    nus = [nu_lo, nu_hi]
    rho, base, _ = _table(m, nus, k_search, _pair(m, nu_lo, alpha).max_common, alpha)
    return _crossings(m, nus, rho, base, alpha)


def scan_nu_star(
    m: int,
    k_max: int,
    nu_max: float,
    nu_min: float | None = None,
    alpha: float = 0.0,
    step: float = 0.125,
) -> list:
    """All crossings d(nu) = 0 with k <= k_max on a step-`step` order grid."""
    if m < 3:
        raise DomainError("common zeros require m >= 3")
    if k_max < 1:
        return []
    nu_floor = _SCAN_FLOOR[_family(alpha)]
    lo = nu_floor if nu_min is None else max(nu_min, nu_floor)
    if nu_max <= lo:
        return []

    grid = [lo]
    while grid[-1] < nu_max:
        grid.append(min(grid[-1] + step, nu_max))
    rho, base, _ = _table(m, grid, k_max, _pair(m, lo, alpha).max_common, alpha)
    return _crossings(m, grid, rho, base, alpha)


def trace_trajectories(
    m: int,
    nu_range: tuple,
    step: float,
    k_max: int,
    l_max: int,
    alpha: float = 0.0,
) -> TraceResult:
    """Zero and root trajectories in the (nu, x)-plane, with crossings annotated."""
    lo, hi = nu_range
    nus = [lo]
    while nus[-1] + step <= hi + 1e-12:
        nus.append(nus[-1] + step)
    n_roots = min(l_max, _pair(m, lo, alpha).max_common)
    rho, base, high = _table(m, nus, k_max, n_roots, alpha, shifted=True)

    tag = _family(alpha).value
    curves = [(f"{tag}[nu,{k+1}]", base[:, k]) for k in range(k_max)]
    curves += [(f"{tag}[nu+{m},{k+1}]", high[:, k]) for k in range(k_max)]
    curves += [(f"rho[{m-1},nu,{l+1}]", rho[:, l]) for l in range(n_roots)]
    trajectories = []
    for curve_id, column in curves:
        xs = column.tolist()
        _guard_continuity(xs, step)
        trajectories.append(Trajectory(m, curve_id, tuple(zip(nus, xs))))
    return TraceResult(tuple(trajectories), tuple(_crossings(m, nus, rho, base, alpha)))


def rational_order_margin(m: int, nu: float, K: int = 20) -> float:
    """min_k |R_{m-1,nu+1}(j_{nu,k})| over the first K zeros of J_nu.

    For rational orders this margin stays well away from zero (no common
    zeros exist there); it collapses only near the irrational crossing
    orders nu*.
    """
    pair = _pair(m, nu, 0.0)
    zs = zeros(pair.base, K).as_array()
    vals = np.abs(np.asarray([pair.poly(z) for z in zs]))
    return float(vals.min())
