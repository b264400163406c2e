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
    """rho_{m-1,nu,l} - (k-th base zero)."""
    pair = _pair(m, nu, alpha)
    if len(pair.roots) < l:
        raise DomainError(
            f"R_{{{m-1},nu+1}} has only {len(pair.roots)} positive roots at nu={nu:.6g}; l={l}"
        )
    return float(pair.roots[l - 1]) - zeros(pair.base, k).zeros[k - 1]


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
    sols = []
    lo, hi = _pair(m, nu_lo, alpha), _pair(m, nu_hi, alpha)
    z_lo = zeros(lo.base, k_search).as_array()
    z_hi = zeros(hi.base, k_search).as_array()
    for l in range(1, lo.max_common + 1):
        for k in range(1, k_search + 1):
            d_lo = lo.roots[l - 1] - z_lo[k - 1]
            d_hi = hi.roots[l - 1] - z_hi[k - 1]
            if d_lo == 0.0 or d_lo * d_hi < 0.0:
                sols.append(solve_nu_star(m, l, k, nu_lo, nu_hi, alpha))
    sols.sort(key=lambda s: s.nu_star)
    return sols


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
    pairs = [_pair(m, nu, alpha) for nu in grid]
    n_roots = pairs[0].max_common
    rho_arr = np.full((len(grid), n_roots), np.nan)
    z_arr = np.full((len(grid), k_max), np.nan)
    for i, pair in enumerate(pairs):
        rho_arr[i, : len(pair.roots)] = pair.roots[:n_roots]
        z_arr[i, :] = zeros(pair.base, k_max).as_array()

    sols = []
    for l in range(n_roots):
        for k in range(k_max):
            d = rho_arr[:, l] - z_arr[:, k]
            for i in range(len(grid) - 1):
                if np.isnan(d[i]) or np.isnan(d[i + 1]):
                    continue
                if d[i] == 0.0 or d[i] * d[i + 1] < 0.0:
                    sols.append(
                        solve_nu_star(m, l + 1, k + 1, grid[i], grid[i + 1], alpha)
                    )
    sols.sort(key=lambda s: s.nu_star)
    return sols


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
    pairs = [_pair(m, nu, alpha) for nu in nus]

    n_roots = min(l_max, pairs[0].max_common)
    base_curves = [[] for _ in range(k_max)]
    high_curves = [[] for _ in range(k_max)]
    rho_curves = [[] for _ in range(n_roots)]
    for nu, pair in zip(nus, pairs):
        base = zeros(pair.base, k_max).as_array()
        high = zeros(pair.shifted, k_max).as_array()
        for k in range(k_max):
            base_curves[k].append((nu, float(base[k])))
            high_curves[k].append((nu, float(high[k])))
        for l in range(n_roots):
            rho_curves[l].append((nu, float(pair.roots[l])))

    trajectories = []
    base_tag = pairs[0].family.value
    for k in range(k_max):
        xs = [x for _, x in base_curves[k]]
        _guard_continuity(xs, step)
        trajectories.append(Trajectory(m, f"{base_tag}[nu,{k+1}]", tuple(base_curves[k])))
    for k in range(k_max):
        xs = [x for _, x in high_curves[k]]
        _guard_continuity(xs, step)
        trajectories.append(Trajectory(m, f"{base_tag}[nu+{m},{k+1}]", tuple(high_curves[k])))
    for l in range(n_roots):
        xs = [x for _, x in rho_curves[l]]
        _guard_continuity(xs, step)
        trajectories.append(Trajectory(m, f"rho[{m-1},nu,{l+1}]", tuple(rho_curves[l])))

    crossings = []
    for l in range(n_roots):
        for k in range(k_max):
            d = [r[1] - b[1] for r, b in zip(rho_curves[l], base_curves[k])]
            for i in range(len(nus) - 1):
                if d[i] == 0.0 or d[i] * d[i + 1] < 0.0:
                    crossings.append(
                        solve_nu_star(m, l + 1, k + 1, nus[i], nus[i + 1], alpha)
                    )
    crossings.sort(key=lambda s: s.nu_star)
    return TraceResult(tuple(trajectories), tuple(crossings))


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
