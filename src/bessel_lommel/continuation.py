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

from . import lommel as _lommel
from . import special as _special
from .special import DomainError, FunctionId, Kind
from .zeros import zeros


class BracketError(ValueError):
    """The distance function does not change sign over the given bracket."""


class IndexCrossingError(RuntimeError):
    """A zero or root changed identity inside the continuation range."""


_SLOPE_BOUND = 5.0


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


def _base_zero(nu: float, k: int, alpha: float) -> float:
    if alpha == 0.0:
        fid = FunctionId(Kind.BESSEL_J, nu)
    else:
        fid = FunctionId(Kind.CYLINDER, nu, alpha=alpha)
    return zeros(fid, k).zeros[k - 1]


def _rho(m: int, nu: float, l: int) -> float:
    roots = _lommel.root_positions(m - 1, nu, _lommel.PolyKind.PLAIN)
    if len(roots) < l:
        raise DomainError(
            f"R_{{{m-1},nu+1}} has only {len(roots)} positive roots at nu={nu:.6g}; l={l}"
        )
    return float(roots[l - 1])


def _distance(m: int, l: int, k: int, nu: float, alpha: float) -> float:
    return _rho(m, nu, l) - _base_zero(nu, k, alpha)


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
    nu_floor = 0.0 if alpha != 0.0 else -1.0
    if nu_lo <= nu_floor or nu_hi <= nu_lo:
        raise DomainError("bracket must satisfy nu_floor < nu_lo < nu_hi")

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
    x_star = _base_zero(nu_star, k, alpha)
    if alpha == 0.0:
        res_lo = abs(float(_special.jv(nu_star, x_star)))
        res_hi = abs(float(_special.jv(nu_star + m, x_star)))
    else:
        res_lo = abs(float(_special.cyl(alpha, nu_star, x_star)))
        res_hi = abs(float(_special.cyl(alpha, nu_star + m, x_star)))
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
    n_roots = (m - 1) // 2
    roots_lo = _lommel.root_positions(m - 1, nu_lo, _lommel.PolyKind.PLAIN)
    roots_hi = _lommel.root_positions(m - 1, nu_hi, _lommel.PolyKind.PLAIN)
    if alpha == 0.0:
        z_lo = zeros(FunctionId(Kind.BESSEL_J, nu_lo), k_search).as_array()
        z_hi = zeros(FunctionId(Kind.BESSEL_J, nu_hi), k_search).as_array()
    else:
        z_lo = zeros(FunctionId(Kind.CYLINDER, nu_lo, alpha=alpha), k_search).as_array()
        z_hi = zeros(FunctionId(Kind.CYLINDER, nu_hi, alpha=alpha), k_search).as_array()
    for l in range(1, n_roots + 1):
        for k in range(1, k_search + 1):
            d_lo = roots_lo[l - 1] - z_lo[k - 1]
            d_hi = roots_hi[l - 1] - z_hi[k - 1]
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
    nu_floor = 1e-3 if alpha != 0.0 else (-1.0 + 1.0 / 16.0)
    lo = nu_floor if nu_min is None else max(nu_min, nu_floor)
    if nu_max <= lo:
        return []
    n_roots = (m - 1) // 2

    grid = [lo]
    while grid[-1] < nu_max:
        grid.append(min(grid[-1] + step, nu_max))
    rho_arr = np.full((len(grid), n_roots), np.nan)
    z_arr = np.full((len(grid), k_max), np.nan)
    for i, nu in enumerate(grid):
        r = _lommel.root_positions(m - 1, nu, _lommel.PolyKind.PLAIN)
        rho_arr[i, : len(r)] = r[:n_roots]
        if alpha == 0.0:
            fid = FunctionId(Kind.BESSEL_J, nu)
        else:
            fid = FunctionId(Kind.CYLINDER, nu, alpha=alpha)
        z_arr[i, :] = zeros(fid, k_max).as_array()

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
    nu_floor = 0.0 if alpha != 0.0 else -1.0
    if lo <= nu_floor:
        raise DomainError("nu range must stay above the family floor")
    nus = [lo]
    while nus[-1] + step <= hi + 1e-12:
        nus.append(nus[-1] + step)

    n_roots = min(l_max, (m - 1) // 2)
    base_curves = [[] for _ in range(k_max)]
    high_curves = [[] for _ in range(k_max)]
    rho_curves = [[] for _ in range(n_roots)]
    for nu in nus:
        if alpha == 0.0:
            base = zeros(FunctionId(Kind.BESSEL_J, nu), k_max).as_array()
            high = zeros(FunctionId(Kind.BESSEL_J, nu + m), k_max).as_array()
        else:
            base = zeros(FunctionId(Kind.CYLINDER, nu, alpha=alpha), k_max).as_array()
            high = zeros(FunctionId(Kind.CYLINDER, nu + m, alpha=alpha), k_max).as_array()
        roots = _lommel.root_positions(m - 1, nu, _lommel.PolyKind.PLAIN)
        for k in range(k_max):
            base_curves[k].append((nu, float(base[k])))
            high_curves[k].append((nu, float(high[k])))
        for l in range(n_roots):
            rho_curves[l].append((nu, float(roots[l])))

    trajectories = []
    base_tag = "c" if alpha != 0.0 else "j"
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


def cylinder_nu_star(
    alpha: float, m: int, l: int, k: int, bracket: tuple
) -> NuStarSolution:
    """Common-zero order for the cylinder family C_nu^alpha; alpha = 0 is J_nu."""
    return solve_nu_star(m, l, k, bracket[0], bracket[1], alpha=alpha)


def rational_order_margin(m: int, nu: float, K: int = 20) -> float:
    """min_k |R_{m-1,nu+1}(j_{nu,k})| over the first K zeros of J_nu.

    For rational orders this margin stays well away from zero (no common
    zeros exist there); it collapses only near the irrational crossing
    orders nu*.
    """
    zs = zeros(FunctionId(Kind.BESSEL_J, nu), K).as_array()
    vals = np.abs(np.asarray([_lommel.lommel_eval(m - 1, nu + 1.0, z) for z in zs]))
    return float(vals.min())
