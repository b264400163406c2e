"""Orders nu* at which J_nu and J_{nu+m} share a positive zero.

A common zero appears exactly when some root rho of the compensating
polynomial R_{m-1,nu+1} collides with a zero j_{nu,k}: the distance

    d(nu) = rho_{m-1,nu,l} - j_{nu,k}

is continuous in nu.  A scan, bracket or trace query tabulates its orders once
(`_table`), as certified intervals around each root and zero; two disjoint
intervals decide the sign of d.  Only the orders next to a sign change, or where
a sign is undecided, are refined to exact values, and each sign change is solved
from the two exact table values that found it.  Only `Pair.common` accepts the
solution, so a sign change made by a root or zero swapping identity is refused
there; a trace refines every order and keeps the continuity guard on the curves
it prints.  Cylinder functions take c_{nu,k} in place of j_{nu,k}.  The crossing
orders are irrational (no rational order can produce a common zero), which is
reported as an annotation rather than asserted numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lommel as _lommel
from . import special as _special
from .interlace import Family, Pair
from .special import DomainError
from .zeros import _zero_stages, zero_table, zeros


class BracketError(ValueError):
    """The distance function does not change sign over the given bracket."""


class IndexCrossingError(RuntimeError):
    """A zero or root changed identity inside the continuation range."""


_SLOPE_BOUND = 5.0
# lowest order of a scan, just above the family's domain floor
_SCAN_FLOOR = {Family.BESSEL_J: -1.0 + 1.0 / 16.0, Family.CYLINDER: 1e-3}
# most orders an order grid may hold; each order costs a root solve and a zero search
_MAX_ORDERS = 10_000


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


def _check_index(pair: Pair, l: int, k: int) -> None:
    if not 1 <= l <= pair.max_common or k < 1:
        raise DomainError(f"need 1 <= l <= {pair.max_common} and k >= 1; got l={l}, k={k}")


def _distance(m: int, l: int, k: int, nu: float, alpha: float) -> float:
    """rho_{m-1,nu,l} - (k-th base zero); checks l and k for every `_solve` step."""
    pair = _pair(m, nu, alpha)
    _check_index(pair, l, k)
    return float(pair.poly.roots()[l - 1]) - zeros(pair.base, k).zeros[k - 1]


def _check_grid(lo: float, hi: float, step: float) -> None:
    """Refuse an order grid from lo to hi that runs backwards, never ends or is too
    long.  A step of one ulp of the endpoint farther from zero moves every order."""
    if not np.isfinite([lo, hi, step]).all():
        raise DomainError(f"the order grid requires finite bounds and step: {lo}, {hi}, {step}")
    if hi < lo:
        raise DomainError(f"the order grid from {lo:g} to {hi:g} runs backwards")
    if step < np.spacing(max(abs(lo), abs(hi))):
        raise DomainError(f"the order grid requires step > 0 that moves the order; got {step:g}")
    if (hi - lo) / step > _MAX_ORDERS:
        raise DomainError(f"the order grid exceeds {_MAX_ORDERS} orders at step {step:g}")


def _guard_continuity(values, step: float) -> None:
    for a, b in zip(values, values[1:]):
        if abs(b - a) > 2.0 * step * _SLOPE_BOUND:
            raise IndexCrossingError(
                f"distance jumped by {abs(b - a):.3g} over a step of {step:.3g}; "
                "a zero index likely changed identity"
            )


def _check_query(m: int, *bracket: float) -> None:
    """Every common-zero query needs m >= 3; a bracket needs finite ends with nu_lo < nu_hi."""
    if m < 3:
        raise DomainError("common zeros require m >= 3")
    if bracket and not -math.inf < bracket[0] < bracket[1] < math.inf:
        raise DomainError(f"a bracket requires finite ends with nu_lo < nu_hi; got {bracket}")


def solve_nu_star(
    m: int,
    l: int,
    k: int,
    nu_lo: float,
    nu_hi: float,
    alpha: float = 0.0,
) -> NuStarSolution:
    """Refine the order nu* in [nu_lo, nu_hi] where rho_{m-1,nu,l} = base zero k from a
    table of the two ends; accept it only if `Pair.common` takes x* for a common zero."""
    _check_query(m, nu_lo, nu_hi)
    _check_index(_pair(m, nu_lo, alpha), l, k)
    rho, base, refine, _ = _table(m, [nu_lo, nu_hi], k, l, alpha)
    refine([0, 1])
    d_lo, d_hi = (rho[:, l - 1, 0] - base[:, k - 1, 0]).tolist()
    return _solve(m, l, k, nu_lo, nu_hi, d_lo, d_hi, alpha)


def _solve(
    m: int, l: int, k: int, nu_lo: float, nu_hi: float, d_lo: float, d_hi: float, alpha: float
) -> NuStarSolution:
    """The crossing of d(nu) = rho_{m-1,nu,l} - (k-th base zero) between two orders at which
    a table holds d_lo and d_hi, accepted only if `Pair.common` takes x* for a common zero.
    `scipy.optimize` is imported on first use, so the first solve in a process pays it."""
    from scipy.optimize import brentq

    if d_lo * d_hi > 0.0:
        raise BracketError(
            f"d({nu_lo:.6g}) = {d_lo:.6g} and d({nu_hi:.6g}) = {d_hi:.6g} have the same sign"
        )
    ends = {nu_lo: d_lo, nu_hi: d_hi}  # the table's values; brentq asks for both ends first
    d = lambda nu: ends[nu] if nu in ends else _distance(m, l, k, nu, alpha)
    nu_star = brentq(d, nu_lo, nu_hi, xtol=1e-12, rtol=8.9e-16)
    pair = _pair(m, nu_star, alpha)
    x_star = zeros(pair.base, k).zeros[k - 1]
    res_lo = abs(float(_special.value_fn(pair.base)(x_star)))
    res_hi = abs(float(_special.value_fn(pair.shifted)(x_star)))
    if not pair.common([x_star])[0]:
        raise BracketError(
            f"solved nu*={nu_star:.12g} gives no common zero: residuals "
            f"{res_lo:.3g}, {res_hi:.3g}"
        )
    return NuStarSolution(m, l, k, float(nu_star), float(x_star), res_lo, res_hi, (nu_lo, nu_hi), alpha)


def _table(m: int, nus, k_max: int, n_roots: int, alpha: float, shifted: bool = False):
    """Stage one at each order, with the root count checked at every order before any
    zero search: (rho, base, refine, high).  rho[i, l] and base[i, k] are intervals [lo,
    hi] on a last axis around root l + 1 and base zero k + 1 at nus[i] (the sorted bracket
    ends bound the sorted roots).  `refine(rows)` runs stage two there, so lo == hi is
    exact.  With `shifted`, `high` holds the first `k_max` shifted zeros."""
    pairs = [_pair(m, nu, alpha) for nu in nus]
    polys = [pair.poly for pair in pairs]
    brackets = [poly._brackets() for poly in polys]
    ends = [[sorted(br[j] + band for br in bs)[:n_roots] for bs in brackets]
            for j, band in ((0, -1e-9), (1, 1e-9))]  # widened by the band Newton keeps to
    rho = np.stack(np.reshape(ends, (2, len(nus), n_roots)), axis=-1)
    lo, hi, finish = _zero_stages([pair.base for pair in pairs], k_max)
    base = np.stack([lo, hi], axis=-1)

    def refine(rows):
        rows = list(rows)
        roots = [_lommel._polish_roots(polys[i].coeffs, polys[i].m, brackets[i]) for i in rows]
        rho[rows] = np.reshape([r[:n_roots] for r in roots], (len(rows), n_roots, 1))
        base[rows] = finish(rows)[..., None]

    high = zero_table([pair.shifted for pair in pairs], k_max) if shifted else None
    return rho, base, refine, high


def _crossings(m: int, nus, table, alpha: float) -> list:
    """Solve every sign change of rho[:, l] - base[:, k] between neighbouring orders of a
    `_table`; the solutions are sorted by nu*, ties kept in (l, k, order) order.  Rows are
    refined where a sign s (0 if the intervals overlap) is undecided or tied or bounds a
    sign change (a tie bounds one with the next row).  The other rows keep their interval
    midpoints, whose d has the decided sign, so the rule below fires as on exact values."""
    rho, base, refine, _ = table
    while True:
        exact = (rho[..., 0] == rho[..., 1]).all(1) & (base[..., 0] == base[..., 1]).all(1)
        r, z = rho[:, :, None], base[:, None, :]
        s = (r[..., 0] > z[..., 1]).astype(np.int8) - (r[..., 1] < z[..., 0])
        zero = (s == 0).any(axis=(1, 2))
        flip = (s[:-1] * s[1:] < 0).any(axis=(1, 2)) | (zero & exact)[:-1]
        need = zero | np.append(flip, False) | np.insert(flip, 0, False)
        if (need <= exact).all():
            break
        refine(np.nonzero(need & ~exact)[0])
    rho, base = rho.mean(axis=-1), base.mean(axis=-1)  # (lo + hi) / 2, exact where lo == hi
    sols = []
    for l in range(rho.shape[1]):
        for k in range(base.shape[1]):
            d = (rho[:, l] - base[:, k]).tolist()
            for i in range(len(nus) - 1):
                if d[i] == 0.0 or d[i] * d[i + 1] < 0.0:
                    sols.append(_solve(m, l + 1, k + 1, nus[i], nus[i + 1], d[i], d[i + 1], alpha))
    sols.sort(key=lambda s: s.nu_star)
    return sols


def find_in_bracket(m: int, nu_lo: float, nu_hi: float, alpha: float = 0.0) -> list:
    """All (l, k) crossings inside a bracket, without presuming the pair: every root of
    the compensating polynomial against the first 40 base zeros, at both ends."""
    _check_query(m, nu_lo, nu_hi)
    nus = [nu_lo, nu_hi]
    return _crossings(m, nus, _table(m, nus, 40, _pair(m, nu_lo, alpha).max_common, alpha), alpha)


def scan_nu_star(
    m: int,
    k_max: int,
    nu_max: float,
    nu_min: float | None = None,
    alpha: float = 0.0,
    step: float = 0.125,
) -> list:
    """All crossings d(nu) = 0 with k <= k_max on a step-`step` order grid."""
    _check_query(m)
    nu_floor = _SCAN_FLOOR[_family(alpha)]
    lo = nu_floor if nu_min is None else max(nu_min, nu_floor)
    _check_grid(lo, nu_max, step)
    if k_max < 1:
        return []

    grid = [lo]
    while grid[-1] < nu_max:
        grid.append(min(grid[-1] + step, nu_max))
    return _crossings(m, grid, _table(m, grid, k_max, _pair(m, lo, alpha).max_common, alpha), alpha)


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
    _check_grid(lo, hi, step)
    nus = [lo]
    while nus[-1] + step <= hi + 1e-9 * step:
        nus.append(min(nus[-1] + step, hi))
    n_roots = min(l_max, _pair(m, lo, alpha).max_common)
    table = rho, base, refine, high = _table(m, nus, k_max, n_roots, alpha, shifted=True)
    refine(range(len(nus)))  # a trace prints its curves

    tag = _family(alpha).value
    curves = [(f"{tag}[nu,{k+1}]", base[:, k, 0]) for k in range(k_max)]
    curves += [(f"{tag}[nu+{m},{k+1}]", high[:, k]) for k in range(k_max)]
    curves += [(f"rho[{m-1},nu,{l+1}]", rho[:, l, 0]) for l in range(n_roots)]
    trajectories = []
    for curve_id, column in curves:
        xs = column.tolist()
        _guard_continuity(xs, step)
        trajectories.append(Trajectory(m, curve_id, tuple(zip(nus, xs))))
    return TraceResult(tuple(trajectories), tuple(_crossings(m, nus, table, alpha)))


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
