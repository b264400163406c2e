"""Positive zeros of the Bessel family and the order-derivative dj/dnu.

Zeros are located by a vectorized scan-and-bisect: march from a starting abscissa
in half-pi steps until enough sign changes are bracketed (halving x below it
brackets a first zero that lies there), then refine every bracket by 48 bisection
steps and a Newton polish with the analytic derivative, in two stages.  Stage one
replays by arithmetic the bisection steps whose direction a secant estimate of the
root makes certain, and certifies them by signs; its interval provably holds the
final zero.  Stage two evaluates only where the outcome is not known yet, and the
zeros are bit for bit those of evaluating every step.  `zero_table` scans all orders
of a grid in one vectorized pass, each on its own grid, and refines the brackets
together from f at their ends as the scan left it, with the bits of a one-order call;
a caller may stop after stage one and finish only the zeros it reads (`_zero_stages`).
Large-index runs of J_nu zeros switch to asymptotic initial guesses, verified by
sign changes and residuals.

dj/dnu is computed by three independent routes (finite differences of the
zero, the squared-Lommel-polynomial series, and the K_0 integral) and the
routes are cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lommel as _lommel
from . import special as _special
from .special import DomainError, FunctionId, Kind


class ConvergenceError(RuntimeError):
    """A zero search failed to bracket or refine; carries the offending range."""


@dataclass(frozen=True)
class ZeroList:
    """Ascending positive zeros of one function, with residual metadata; `fid` is
    the function's FunctionId, or the LommelCoefficients whose roots these are."""

    fid: FunctionId | _lommel.LommelCoefficients
    zeros: tuple
    residuals: tuple
    method: str
    tolerance: float

    def __len__(self) -> int:
        return len(self.zeros)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.zeros, dtype=float)


@dataclass(frozen=True)
class OrderDerivative:
    """dj/dnu by three routes; spread is the max pairwise relative difference."""

    nu: float
    k: int
    value_fd: float
    value_series: float
    value_watson: float
    spread: float


_SECANT_STEPS = 8  # secant steps that estimate each root; with none the estimate is b0
_REPLAY_MARGIN = 1e-12  # relative distance from the estimate beyond which a step is certain


def _margin(x):
    return _REPLAY_MARGIN * np.maximum(1.0, np.abs(x))


def _bracket_zeros(value, orders, a, b, fa, fb):
    """Stage one of refining bracket [a[i], b[i]] to a zero of `value` at the order `orders[i]`,
    given f at its ends (the scan's values; f(b) is evaluated where fb is NaN): the state
    (a, b, fa, fb, steps), with a and b moved in place, from which stage two
    (`_finish_zeros`) bisects on at step `steps[i]`.  [a, b] holds the zero stage two
    returns: the later bisection only shrinks it, and the Newton polish is clipped to the
    final [a, b].

    Only evaluations whose outcome is known are left out.  Secant steps, clipped to
    the bracket and stopped once a step is within the margin, estimate each root r.
    A bisection step whose midpoint lies more than the margin `_REPLAY_MARGIN *
    max(1, |r|)` from r goes the way r lies: it is replayed by arithmetic alone, up
    to the first step that is not so certain.  The replay is kept only if f at the
    interval it reached has the signs that the bisection rule keeps at its ends,
    fa * f(a) > 0 where a moved and fa * f(b) <= 0.  That certifies every replayed
    step, because a bracket holds one zero and the computed f changes sign only far
    closer to it than the margin.  A bracket whose replay fails is bisected in full
    from its ends.
    """
    n = a.size
    every = np.arange(n)
    f = lambda rows, x: value(orders[rows], x)
    fa0, fb0, unknown = fa, fb.copy(), every[np.isnan(fb)]
    fb0[unknown] = f(unknown, b[unknown])

    # the secant estimate r of each root, from the two latest iterates (r, fr), (q, fq)
    q, fq, r, fr = a.copy(), fa0.copy(), b.copy(), fb0.copy()
    live = every[fr != fq]
    for _ in range(_SECANT_STEPS):
        if not live.size:
            break
        x = r[live] - fr[live] * (r[live] - q[live]) / (fr[live] - fq[live])
        x = np.clip(x, a[live], b[live])
        fx = f(live, x)
        q[live], fq[live] = r[live], fr[live]
        r[live], fr[live] = x, fx
        live = live[(np.abs(x - q[live]) > _margin(x)) & (fx != 0.0) & (fx != fq[live])]

    # replay the bisection steps whose midpoint is far from r
    a0, b0 = a.copy(), b.copy()
    margin = _margin(r)
    steps = np.zeros(n, dtype=int)
    sure = np.ones(n, dtype=bool)
    for _ in range(48):
        mid = 0.5 * (a + b)
        d = mid - r
        sure &= np.abs(d) > margin
        if not sure.any():
            break
        right = sure & (d < 0.0)
        np.copyto(a, mid, where=right)
        np.copyto(b, mid, where=sure ^ right)
        steps += sure

    # certify each replay by f at the interval it reached; bisect the others in full
    fa, fb = fa0.copy(), fb0.copy()
    moved = every[steps > 0]
    if moved.size:
        vals = f(np.concatenate([moved, moved]), np.concatenate([a[moved], b[moved]]))
        fa_r, fb_r = vals[: moved.size], vals[moved.size :]
        held = ((fa0[moved] * fa_r > 0.0) | (a[moved] == a0[moved])) & (fa0[moved] * fb_r <= 0.0)
        fa[moved] = np.where(held, fa_r, fa0[moved])
        fb[moved] = np.where(held, fb_r, fb0[moved])
        lost = moved[~held]
        a[lost], b[lost], steps[lost] = a0[lost], b0[lost], 0
    return a, b, fa, fb, steps


def _finish_zeros(value, derivative, orders, state, tolerance: float):
    """Stage two, in place on the state: the rest of the 48 bisection steps by the rule
    fa * f(mid) <= 0 (a midpoint that rounds to an end takes the value f has there), a
    Newton polish of at most 3 steps (`_newton`) and the residual contract."""
    a, b, fa, fb, steps = state
    every = np.arange(a.size)
    f, fp = (lambda rows, x: value(orders[rows], x)), (lambda rows, x: derivative(orders[rows], x))
    for k in range(int(steps.min()), 48):
        live = every[steps <= k]
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        mid = 0.5 * (al + bl)
        fm = np.where(mid == al, fal, fbl)
        inner = (mid != al) & (mid != bl)
        fm[inner] = f(live[inner], mid[inner])
        go_left = (fal * fm) <= 0.0
        a[live], fa[live] = np.where(go_left, al, mid), np.where(go_left, fal, fm)
        b[live], fb[live] = np.where(go_left, mid, bl), np.where(go_left, fm, fbl)

    def polish(rows, x, v, d):
        return np.clip(x - np.where(d != 0.0, v / np.where(d == 0.0, 1.0, d), 0.0), a[rows], b[rows])

    x, fx, dx = _newton(f, fp, 0.5 * (a + b), 3, polish)
    res = np.abs(fx)
    scale = np.maximum(1.0, np.abs(dx))
    ok = res <= tolerance * scale
    if not ok.all():
        i = int(np.nonzero(~ok)[0][0])
        raise ConvergenceError(
            f"residual {res[i]:.3g} exceeds contract in bracket ({a[i]:.9g}, {b[i]:.9g})"
        )
    return x, res


def _mcmahon_j(nu: float, ks: np.ndarray) -> np.ndarray:
    """Large-index asymptotic guesses for the zeros of J_nu."""
    mu = 4.0 * nu * nu
    beta = (ks + 0.5 * nu - 0.25) * math.pi
    b8 = 8.0 * beta
    guess = (
        beta
        - (mu - 1.0) / b8
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
        - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8**5)
    )
    return guess


def _newton(f, fp, x, count: int, step):
    """`count` Newton steps x <- step(rows, x, f(x), f'(x)) from the points `x`, and f
    and f' at the points reached; f and fp take (rows, x).  A step that leaves a point
    unchanged has reached a fixed point: the later steps would evaluate f and f' at it
    again, so the point drops out and keeps the values already computed."""
    x = x.copy()
    fx, dx = np.empty_like(x), np.empty_like(x)
    live = np.arange(x.size)
    for _ in range(count):
        fx[live], dx[live] = f(live, x[live]), fp(live, x[live])
        new = step(live, x[live], fx[live], dx[live])
        moving = new != x[live]
        x[live] = new
        live = live[moving]
    if live.size:
        fx[live], dx[live] = f(live, x[live]), fp(live, x[live])
    return x, fx, dx


def _validate_run(f, xs: np.ndarray) -> None:
    """Confirm a refined run of zeros is sound: ordered, well separated, and
    f alternates sign at the gap midpoints (so no zero was merged or skipped); 2-D: by row."""
    if xs.shape[-1] <= 1:
        return
    gaps = np.diff(xs)
    if gaps.min() < 1.0:
        raise ConvergenceError(f"suspiciously close zeros (gap {gaps.min():.3g})")
    mids = 0.5 * (xs[..., :-1] + xs[..., 1:])
    signs = np.sign(np.asarray(f(mids), dtype=float))
    if (signs == 0).any() or (signs[..., :-1] == signs[..., 1:]).any():
        raise ConvergenceError("sign pattern between consecutive zeros is not alternating")


_BULK_SWITCH = 80
ZERO_TOL = 1e-12  # default residual tolerance of a zero: |f| <= tol * max(1, |f'|)
_BATCH_BRACKETS = 4096  # bounds the temporaries of one refinement pass on long grids
# least order from which f > 0 just above x = 0: J_nu (nu > -1), J'_nu (nu > 0), C_nu (nu >= 0)
_POSITIVE_NEAR_0 = {Kind.BESSEL_J: -1.0, Kind.BESSEL_J_PRIME: math.ulp(0.0), Kind.CYLINDER: 0.0}


def _check_domain(fid: FunctionId, K: int) -> None:
    if K < 0:
        raise DomainError("zeros requires K >= 0")
    if fid.kind is Kind.BESSEL_J and fid.order <= -1.0:
        raise DomainError("zeros of J_nu require nu > -1")
    if fid.kind is Kind.BESSEL_J_PRIME and fid.order < 0.0:
        raise DomainError("zeros of J'_nu require nu >= 0")


def zeros(fid: FunctionId, K: int, tolerance: float = ZERO_TOL) -> ZeroList:
    """First K positive zeros of the function identified by `fid`."""
    _check_domain(fid, K)
    if K == 0:
        return ZeroList(fid, (), (), "none requested", tolerance)

    f = _special.value_fn(fid)
    fp = _special.derivative_fn(fid)

    xs = None
    head_n = max(12, int(math.ceil(max(fid.order, 0.0))) + 4)
    if fid.kind is Kind.BESSEL_J and K > max(_BULK_SWITCH, head_n):
        head, head_res = _scan([fid], head_n)[2](None, tolerance)
        ks = np.arange(head_n + 1, K + 1, dtype=float)
        tail, tail_f, tail_fp = _newton(
            lambda _, x: f(x), lambda _, x: fp(x), _mcmahon_j(fid.order, ks), 4,
            lambda _, x, v, d: x - v / d,
        )
        xs = np.concatenate([head[0], tail])
        try:
            _validate_run(f, xs)
            tail_res = np.abs(tail_f)  # the head met the contract in its refinement
            if (tail_res > tolerance * np.maximum(1.0, np.abs(tail_fp))).any():
                raise ConvergenceError("asymptotic-seeded Newton missed the residual contract")
            res = np.concatenate([head_res[0], tail_res])
            method = "scan+bisect head, asymptotic-seeded Newton tail"
        except ConvergenceError:
            xs = None
    if xs is None:
        rows, res = _scan([fid], K)[2](None, tolerance)
        xs, res = rows[0], res[0]
        method = "scan + bisection/Newton"

    return ZeroList(
        fid=fid,
        zeros=tuple(float(v) for v in xs),
        residuals=tuple(float(r) for r in res),
        method=method,
        tolerance=tolerance,
    )


def zero_table(fids, K: int) -> np.ndarray:
    """`zeros(fid, K).zeros` for each fid of a sequence, bit for bit, as rows (both stages)."""
    return _zero_stages(fids, K)[2]()


def _zero_stages(fids, K: int):
    """Stage one of `zero_table(fids, K)`, validated on interval midpoints: (lo, hi, finish).
    Zero k of row i lies in [lo[i, k], hi[i, k]]; `finish(cells)` (stage two) returns the
    zeros of the flat cells i * K + k, and `finish()` the whole table, validated.  J_nu
    rows of over `_BULK_SWITCH` zeros come exact from `zeros()`."""
    for fid in fids:
        _check_domain(fid, K)
    if len({(fid.kind, fid.alpha) for fid in fids}) > 1:
        raise DomainError("zero_table requires one kind and one alpha")
    if K == 0 or not fids or (fids[0].kind is Kind.BESSEL_J and K > _BULK_SWITCH):
        table = np.array([zeros(fid, K).zeros for fid in fids]).reshape(len(fids), K)
        return table, table, lambda cells=None: table if cells is None else table.ravel()[cells]
    lo, hi, finish = _scan(fids, K)
    value = _special.evaluators(fids[0].kind, fids[0].alpha)[0]
    orders = np.array([fid.order for fid in fids])[:, None]
    _validate_run(lambda x: value(orders, x), (lo + hi) / 2)
    return lo, hi, lambda cells=None: finish(cells, ZERO_TOL)[0]


def _scan_start(value, kind: Kind, nus):
    """Where the scan of each order starts, and f there: (x0, f0).  x0 is max(1e-3, nu) for J
    and J'; for C, x doubles from 1e-3 up to nu while Y_nu overflows: |sin(alpha) Y_nu| is
    infinite below that point, so C_nu has one sign there and no zero is skipped."""
    x0, f0 = np.maximum(1e-3, nus), np.full(nus.size, np.nan)
    if kind is Kind.CYLINDER:
        x0, live = np.full(nus.size, 1e-3), np.arange(nus.size)
        with np.errstate(over="ignore", invalid="ignore"):  # at alpha = 0, 0 * inf is nan
            while live.size:
                live = live[x0[live] < nus[live]]
                f0[live] = value(nus[live], x0[live])
                live = live[~np.isfinite(f0[live])]
                x0[live] = np.minimum(2.0 * x0[live], nus[live])
    live = np.flatnonzero(~np.isfinite(f0))  # not evaluated at x0 yet
    f0[live] = value(nus[live], x0[live])
    return x0, f0


def _grid_scan(value, fids, K: int):
    """The brackets of the first K zeros of each fid, scanned together, and f at their ends
    (NaN where b is no grid point): (a, b, fa, fb), flat by row.  A row's grid marches from
    `_scan_start` in batches x + pi/2 * (1..256), each starting at the last grid point of
    the one before, and evaluates only a prefix of a batch: first 2 * remaining + 8 points,
    then a slice twice as long each time; one call evaluates the slices of every row.
    Halving x below the start brackets a first zero that lies there.  A row that fails is
    a ConvergenceError, with the message of the first such row."""
    nus, step, errors = np.array([fid.order for fid in fids], dtype=float), math.pi / 2.0, {}
    x0, f0 = _scan_start(value, fids[0].kind, nus)
    x, fx, f2x = x0.copy(), f0.copy(), f0.copy()
    live = np.flatnonzero((nus >= _POSITIVE_NEAR_0.get(fids[0].kind, math.inf)) & (f0 < 0.0))
    while live.size:  # the first zero lies below x0: f is negative at 2x and positive at x
        for r in live[x[live] < 1e-300]:
            errors[r] = f"{fids[r].label()} is negative down to x = {x[r]:.3g}"
        live = live[x[live] >= 1e-300]
        x[live] *= 0.5
        f2x[live], fx[live] = fx[live], value(nus[live], x[live])
        live = live[fx[live] < 0.0]
    first = x < x0
    a, b, fa, fb = (np.full(nus.size * K, np.nan) for _ in range(4))
    cell = np.flatnonzero(first) * K
    a[cell], b[cell], fa[cell], fb[cell] = x[first], 2.0 * x[first], fx[first], f2x[first]
    count, (found, done), xb, prev = K - first, np.zeros((2, nus.size), int), x0, f0
    width, limit = 2 * count + 8, x0 + (K + 20) * math.pi * 2.0 + 100.0
    live = np.setdiff1d(np.flatnonzero(count > 0), list(errors))
    while live.size:
        over = live[(done[live] == 0) & (xb[live] > limit[live])]
        for r in over:
            errors[r] = f"found only {found[r]}/{count[r]} sign changes scanning up to x={xb[r]:.6g}"
        live = np.setdiff1d(live, over)
        w = np.minimum(width[live], 256 - done[live])
        rows, start = np.repeat(live, w), np.cumsum(w) - w
        j = np.arange(rows.size) - np.repeat(start, w) + done[rows]  # the grid point before
        xs = xb[rows] + step * (j + 1)
        vals = value(nus[rows], xs)
        before = np.concatenate(([0.0], vals[:-1]))
        before[start] = prev[live]
        bad = np.unique(rows[~np.isfinite(before) | ~np.isfinite(vals)])
        errors |= {r: f"non-finite function value near x={xb[r]:.6g}" for r in bad}
        (i,) = np.nonzero(((before == 0.0) | (np.sign(before) != np.sign(vals))) & ~np.isin(rows, bad))
        n = found[rows[i]] + np.arange(i.size) - np.searchsorted(rows[i], rows[i])
        keep = n < count[rows[i]]  # the first `count` flips of a row
        i, n = i[keep], n[keep]
        r = rows[i]
        cell = r * K + first[r] + n
        a[cell] = xb[r] + step * j[i]
        b[cell] = a[cell] + step
        fa[cell], fb[cell] = before[i], np.where(b[cell] == xs[i], vals[i], np.nan)
        found += np.bincount(r, minlength=nus.size)
        done[live], prev[live], width[live] = done[live] + w, vals[start + w - 1], 2 * width[live]
        turn = live[done[live] == 256]
        xb[turn], done[turn], width[turn] = xb[turn] + step * 256, 0, 2 * (count - found)[turn] + 8
        live = live[(found[live] < count[live]) & ~np.isin(live, bad)]
    if errors:
        raise ConvergenceError(errors[min(errors)])
    return a, b, fa, fb


def _scan(fids, K: int):
    """Stage one of the first K zeros of each fid: (a, b, finish), where `finish(cells,
    tolerance)` is stage two of the flat cells row * K + k, returned flat as (zeros,
    residuals); `cells=None` finishes every row and validates them (`_validate_run`).
    A pass holds at most `_BATCH_BRACKETS` brackets."""
    value, derivative = _special.evaluators(fids[0].kind, fids[0].alpha)
    nus = np.array([fid.order for fid in fids], dtype=float)
    orders = np.repeat(nus, K)
    n = max(1, _BATCH_BRACKETS // K)  # rows per pass
    parts = [_bracket_zeros(value, orders[i * K : (i + n) * K], *_grid_scan(value, fids[i : i + n], K))
             for i in range(0, len(fids), n)]
    state = [np.concatenate(v) for v in zip(*parts)]

    def finish(cells, tolerance):
        every = np.arange(orders.size) if cells is None else np.asarray(cells, dtype=int)
        parts = [_finish_zeros(value, derivative, orders[c], [v[c] for v in state], tolerance)
                 for c in (every[i : i + _BATCH_BRACKETS] for i in range(0, every.size, _BATCH_BRACKETS))]
        xs, res = (np.concatenate(v) for v in zip(*parts))
        if cells is None:
            xs, res = xs.reshape(-1, K), res.reshape(-1, K)
            _validate_run(lambda x: value(nus[:, None], x), xs)
        return xs, res

    return state[0].reshape(-1, K), state[1].reshape(-1, K), finish


def watson_derivative(nu: float, c: float) -> float:
    """dc/dnu for a cylinder-function zero c, by the K_0 integral.

    `scipy.integrate` is imported on first use, so the first call in a
    process (and so the first `dj_dnu`) pays that import.
    """
    from scipy.integrate import quad

    u_split = 1.0 / (2.0 * c)
    u_max = 30.0 / c
    g = lambda u: _special.watson_integrand(u, c, nu)
    v1, _ = quad(g, 0.0, u_split, limit=200)
    v2, _ = quad(g, u_split, u_max, limit=200)
    return 2.0 * c * (v1 + v2)


def series_derivative(nu: float, j: float) -> float:
    """dj/dnu at the zero j of J_nu via (2/j) sum_k R_{k,nu+1}(j)^2.

    Terms decay superexponentially once k exceeds j; summation stops when a
    term is negligible against the partial sum and k has safely passed nu.
    """
    count = int(math.ceil(j) + max(40.0, nu + 40.0))
    vals = _lommel.values_at_bessel_zero(nu, j, count)
    total = 0.0
    for k, r in enumerate(vals):
        term = r * r
        total += term
        if k > nu + 20 and term < 1e-14 * total:
            break
    else:
        raise ConvergenceError("Lommel series for dj/dnu did not converge")
    return 2.0 * total / j


def dj_dnu(nu: float, k: int) -> OrderDerivative:
    """Order-derivative of the k-th positive zero of J_nu by three routes."""
    if nu <= 0.0 or k < 1:
        raise DomainError("dj_dnu requires nu > 0 and k >= 1")
    orders = (nu, nu + 1e-4, nu - 1e-4)
    j, up, down = zero_table([FunctionId(Kind.BESSEL_J, v) for v in orders], k)[:, k - 1].tolist()
    fd = (up - down) / 2e-4
    series = series_derivative(nu, j)
    watson = watson_derivative(nu, j)
    values = (fd, series, watson)
    if min(values) <= 0.0:
        raise ConvergenceError(f"order derivative is not positive: {values}")
    big = max(abs(v) for v in values)
    spread = max(abs(a - b) for a in values for b in values) / big
    return OrderDerivative(nu, k, fd, series, watson, spread)


def cylinder_zero_monotonicity(alpha: float, nu_values, k: int) -> bool:
    """Whether the k-th cylinder zero is strictly increasing along nu_values."""
    cs = zero_table([FunctionId(Kind.CYLINDER, nu, alpha=alpha) for nu in nu_values], k)[:, k - 1]
    return bool((np.diff(cs) > 0.0).all())
