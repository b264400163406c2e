"""Orders nu* at which J_nu and J_{nu+m} share a positive zero.

At a zero z of J_nu, J_{nu+m}(z) = -R_{m-1,nu+1}(z) J_{nu-1}(z) (Watson 9.6), so a
common zero appears exactly where g_k(nu) = J_{nu+m}(j_{nu,k}) changes sign, and
there the distance d(nu) = rho_{m-1,nu,l} - j_{nu,k} of one root of R_{m-1,nu+1}
changes sign too.  A scan, bracket or trace query tabulates its orders once
(`_table`), as a certified interval around each zero and the signs of J_{nu+m} at
its ends, which fix the sign of g where they agree.  Only the zeros (order, k) that
bound a sign change of g, or whose sign is undecided, get exact values, and only the
two orders of a sign change get Lommel roots: the one root whose d changes sign names
the crossing, solved from those two values of d, each step of the solve finishing
the one zero it reads.  Only `Pair.common` accepts the solution; a trace refines
every order, whose zeros it prints.  Cylinder functions take C_nu and c_{nu,k} in
place of J_nu and j_{nu,k}.  The crossing orders are irrational (no rational order
can produce a common zero), which is reported as an annotation rather than asserted
numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import special as _special
from .interlace import Family, Pair
from .special import DomainError
from .zeros import ConvergenceError, _zero_stages, zero_table, zeros


class BracketError(ValueError):
    """The distance function does not change sign over the given bracket."""


# lowest order of a scan, just above the family's domain floor
_SCAN_FLOOR = {Family.BESSEL_J: -1.0 + 1.0 / 16.0, Family.CYLINDER: 1e-3}
# most orders an order grid may hold; each order costs a zero search
_MAX_ORDERS = 10_000
# most zeros a query may tabulate, over all its orders
_MAX_ZEROS = 1_000_000


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


def _distance(m: int, l: int, k: int, nu: float, alpha: float, found: dict | None = None) -> float:
    """rho_{m-1,nu,l} - (base zero k, kept in found[nu]); checks l and k for each step.  Of the
    first k base zeros, validated on their stage-one midpoints, only the k-th is finished."""
    pair, found = _pair(m, nu, alpha), {} if found is None else found
    _check_index(pair, l, k)
    found[nu] = float(_zero_stages([pair.base], k)[2]([k - 1])[0])
    return float(pair.poly.roots()[l - 1]) - found[nu]


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
    base, _, refine, roots, _ = _table(m, [nu_lo, nu_hi], k, alpha)
    refine([k - 1, 2 * k - 1])
    d_lo, d_hi = (float(roots(i)[l - 1] - base[i, k - 1, 0]) for i in (0, 1))
    return _solve(m, l, k, nu_lo, nu_hi, d_lo, d_hi, alpha)


def _brentq(f, a: float, b: float, fa: float, fb: float) -> float:
    """The root of f from a to b, given fa = f(a) and fb = f(b): scipy's C `brentq` step for
    step, xtol = 1e-12, rtol = 8.9e-16.  Same-sign ends are a BracketError; a NaN, or 100
    steps unconverged, a ConvergenceError.  ROADMAP item 4's 2x2 polish replaces it."""
    def value(x: float, fx: float) -> float:
        if math.isnan(fx):
            raise ConvergenceError(f"d({x:.12g}) is NaN: the crossing cannot be solved")
        return float(fx)

    xpre, xcur, fpre, fcur = float(a), float(b), value(a, fa), value(b, fb)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"d({a:.6g}) = {fa:.6g} and d({b:.6g}) = {fb:.6g} have the same sign")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-12 + 8.9e-16 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a zero divisor gives NaN (C: inf or NaN), which bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre) or math.nan)
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            spre, scur = (scur, stry) if short else (sbis, sbis)
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur, f(xcur))
    raise ConvergenceError(f"100 iterations found no crossing between nu = {a:.12g} and {b:.12g}")


def _solve(
    m: int, l: int, k: int, nu_lo: float, nu_hi: float, d_lo: float, d_hi: float, alpha: float
) -> NuStarSolution:
    """The crossing of d(nu) = rho_{m-1,nu,l} - (k-th base zero) between two orders at which
    a table holds d_lo and d_hi, accepted only if `Pair.common` takes x* for a common zero.
    x* is the base zero that d found at nu*; only at a bracket end is it searched again."""
    found = {}
    nu_star = _brentq(lambda nu: _distance(m, l, k, nu, alpha, found), nu_lo, nu_hi, d_lo, d_hi)
    pair = _pair(m, nu_star, alpha)
    x_star = found[nu_star] if nu_star in found else zeros(pair.base, k).zeros[k - 1]
    res_lo = abs(float(_special.value_fn(pair.base)(x_star)))
    res_hi = abs(float(_special.value_fn(pair.shifted)(x_star)))
    if not pair.common([x_star])[0]:
        raise BracketError(
            f"solved nu*={nu_star:.12g} gives no common zero: residuals "
            f"{res_lo:.3g}, {res_hi:.3g}"
        )
    return NuStarSolution(m, l, k, float(nu_star), float(x_star), res_lo, res_hi, (nu_lo, nu_hi), alpha)


def _table(m: int, nus, k_max: int, alpha: float, shifted: bool = False):
    """Stage one of the first `k_max` base zeros at each order: (base, g, refine, roots,
    high).  base[i, k] is an interval [lo, hi] on a last axis around base zero k + 1 at
    nus[i], and g[i, k] the signs of the shifted function at its two ends.  `refine(cells)`
    runs stage two on the flat cells i * k_max + k, so lo == hi is exact and g is the sign
    at the zero, evaluated once; `refine()` does so at every order and validates the
    zeros.  `roots(i)` solves the Lommel roots at nus[i] on first use, through `roots()`.
    With `shifted`, `high` holds the first `k_max` shifted zeros.  More than `_MAX_ZEROS`
    zeros in all is a DomainError."""
    if len(nus) * k_max > _MAX_ZEROS:
        raise DomainError(
            f"the query would tabulate {k_max:.3g} zeros at each of {len(nus)} orders; "
            f"at most {_MAX_ZEROS} in all"
        )
    pairs = [_pair(m, nu, alpha) for nu in nus]
    lo, hi, finish = _zero_stages([pair.base for pair in pairs], k_max)
    base = np.stack([lo, hi], axis=-1)
    g, value = np.empty_like(base), _special.evaluators(pairs[0].shifted.kind, alpha)[0]
    orders = np.asarray(nus, dtype=float) + m  # bit for bit the pairs' shifted orders

    def refine(cells=None):
        z = finish(cells).ravel()
        cells = np.arange(z.size) if cells is None else np.asarray(cells)
        base.reshape(-1, 2)[cells] = z[:, None]
        g.reshape(-1, 2)[cells] = np.sign(value(orders[cells // k_max], z))[:, None]

    g[:] = np.sign(value(orders[:, None, None], base))
    high = zero_table([pair.shifted for pair in pairs], k_max) if shifted else None
    return base, g, refine, functools.cache(lambda i: pairs[i].poly.roots()), high


def _crossings(m: int, nus, table, alpha: float) -> list:
    """Solve every sign change of g[:, k] between neighbouring orders of a `_table`,
    sorted by nu*.  Cells (i, k) are refined where a sign is undecided (the two end signs
    differ or vanish), bounds a sign change, or follows an exact tie; on exact cells a
    change is g[i, k] == 0.0 or g[i, k] * g[i+1, k] < 0.0.  The other cells keep their end
    sign: zeros of the shifted function (order > 2) lie more than pi apart and a stage-one
    interval is at most pi/2 wide, so equal nonzero signs at both ends are the sign at
    the zero.  At the two orders of a change, the one root l whose d = rho_l - z_k
    changes sign by the same rule names the crossing; none or several is a BracketError."""
    base, g, refine, roots, _ = table
    while True:
        exact = base[..., 0] == base[..., 1]
        s = np.where(g[..., 0] == g[..., 1], g[..., 0], 0.0)  # 0 where undecided or nan
        zero = s == 0
        flip = (s[:-1] * s[1:] < 0) | (zero & exact)[:-1]
        need = zero | np.pad(flip, [(0, 1), (0, 0)]) | np.pad(flip, [(1, 0), (0, 0)])
        if (need <= exact).all():
            break
        refine(np.flatnonzero(need & ~exact))
    sols = []
    for i, k in np.argwhere((s[:-1] == 0.0) | (s[:-1] * s[1:] < 0.0)).tolist():
        d = np.array([roots(i), roots(i + 1)]) - base[i : i + 2, k, 0, None]
        (ls,) = np.nonzero((d[0] == 0.0) | (d[0] * d[1] < 0.0))
        if ls.size != 1:
            raise BracketError(
                f"f_{{nu+{m}}} at base zero {k + 1} changes sign between nu = {nus[i]:.12g} "
                f"and {nus[i + 1]:.12g}, where {ls.size} roots cross it: it gives no common zero"
            )
        (l,) = ls.tolist()
        sols.append(_solve(m, l + 1, k + 1, nus[i], nus[i + 1], *d[:, l].tolist(), alpha))
    sols.sort(key=lambda s: s.nu_star)
    return sols


def find_in_bracket(m: int, nu_lo: float, nu_hi: float, alpha: float = 0.0) -> list:
    """All (l, k) crossings inside a bracket, without presuming the pair: the sign of the
    shifted function at both ends, at every base zero that a common zero can reach.  A
    common zero is a root of R_{m-1,nu+1}, and both the roots and the base zeros grow with
    nu, so these are the base zeros at nu_lo below the largest root at nu_hi."""
    _check_query(m, nu_lo, nu_hi)
    bound = _pair(m, nu_hi, alpha).poly.roots()[-1]
    # j_{nu,k} > nu + (k - 1) pi for nu > -1 and c_{nu,k} > j_{nu,k-1}, so fewer than
    # (bound - nu) / pi + 2 base zeros lie below the bound
    nus = [nu_lo, nu_hi]
    return _crossings(m, nus, _table(m, nus, int((bound - nu_lo) / math.pi) + 3, alpha), alpha)


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
    return _crossings(m, grid, _table(m, grid, k_max, alpha), alpha)


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
    table = base, _, refine, roots, high = _table(m, nus, k_max, alpha, shifted=True)
    refine()  # a trace prints its curves
    rho = np.array([roots(i) for i in range(len(nus))])

    tag = _family(alpha).value
    curves = [(f"{tag}[nu,{k+1}]", base[:, k, 0]) for k in range(k_max)]
    curves += [(f"{tag}[nu+{m},{k+1}]", high[:, k]) for k in range(k_max)]
    curves += [(f"rho[{m-1},nu,{l+1}]", rho[:, l]) for l in range(min(l_max, rho.shape[1]))]
    trajectories = [Trajectory(m, cid, tuple(zip(nus, col.tolist()))) for cid, col in curves]
    return TraceResult(tuple(trajectories), tuple(_crossings(m, nus, table, alpha)))


def rational_order_margin(m: int, nu: float, K: int = 20) -> float:
    """min_k |R_{m-1,nu+1}(j_{nu,k})| over the first K zeros of J_nu, taken as
    |J_{nu+m}(j) / J_{nu-1}(j)| (Watson 9.6), which the power basis of R loses from m ~ 20.

    For rational orders this margin stays well away from zero (no common
    zeros exist there); it collapses only near the irrational crossing
    orders nu*.
    """
    pair = _pair(m, nu, 0.0)
    zs = zeros(pair.base, K).as_array()
    return float(np.abs(_special.value_fn(pair.shifted)(zs) / _special.jv(nu - 1.0, zs)).min())
