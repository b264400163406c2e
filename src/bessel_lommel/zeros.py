"""Positive zeros of the Bessel family and the order-derivative dj/dnu.

Zeros are located by a vectorized scan-and-bisect: march from a safe starting
abscissa in half-pi steps until enough sign changes are bracketed, then refine
every bracket by bisection followed by a Newton polish with the analytic
derivative.  Large-index runs of J_nu zeros switch to asymptotic initial
guesses, which are still verified by sign changes and residual checks before
being accepted.

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
    """Ascending positive zeros of one function, with residual metadata."""

    fid: FunctionId
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


def _scan_brackets(f, x0: float, count: int, step: float, x_limit: float):
    """Bracket the first `count` sign changes of f on (x0, x_limit].

    The scan marches in batches over the grid x + step * (1..256).  Within a
    batch it evaluates only a prefix of that grid: first 2 * remaining + 8
    points, then a slice twice as long each time, until the batch is used up
    or enough sign changes are found; the next batch restarts at the batch's
    last grid point.  The grid, and so every bracket, is the same as a scan
    of whole batches would give, because the evaluators act elementwise.
    """
    brackets = []
    x = x0
    fx = float(f(np.asarray([x]))[0])
    batch = 256
    while len(brackets) < count:
        if x > x_limit:
            raise ConvergenceError(
                f"found only {len(brackets)}/{count} sign changes scanning up to x={x:.6g}"
            )
        grid = x + step * np.arange(1, batch + 1)
        done = 0
        width = 2 * (count - len(brackets)) + 8
        while done < batch and len(brackets) < count:
            vals = np.asarray(f(grid[done : done + width]), dtype=float)
            seq = np.concatenate(([fx], vals))
            if not np.isfinite(seq).all():
                raise ConvergenceError(f"non-finite function value near x={x:.6g}")
            flips = np.nonzero((seq[:-1] == 0.0) | (np.sign(seq[:-1]) != np.sign(seq[1:])))[0]
            for i in flips:
                a = x + step * (done + i)
                brackets.append((a, a + step))
                if len(brackets) == count:
                    break
            done += vals.size
            fx = float(vals[-1])
            width *= 2
        x = float(grid[-1])
    return brackets


def _refine_brackets(f, fp, brackets, tolerance: float):
    """Vector bisection on all brackets, then a bounded Newton polish."""
    a = np.asarray([b[0] for b in brackets], dtype=float)
    b = np.asarray([b[1] for b in brackets], dtype=float)
    fa = np.asarray(f(a), dtype=float)
    for _ in range(48):
        mid = 0.5 * (a + b)
        fm = np.asarray(f(mid), dtype=float)
        go_left = (fa * fm) <= 0.0
        b = np.where(go_left, mid, b)
        a = np.where(go_left, a, mid)
        fa = np.where(go_left, fa, fm)
    x = 0.5 * (a + b)
    for _ in range(3):
        d = np.asarray(fp(x), dtype=float)
        step = np.where(d != 0.0, np.asarray(f(x), dtype=float) / np.where(d == 0.0, 1.0, d), 0.0)
        x = np.clip(x - step, a, b)
    res = np.abs(np.asarray(f(x), dtype=float))
    scale = np.maximum(1.0, np.abs(np.asarray(fp(x), dtype=float)))
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


def _scan_start(fid: FunctionId) -> float:
    if fid.kind in (Kind.BESSEL_J, Kind.BESSEL_J_PRIME):
        return max(1e-3, fid.order)
    return 1e-3


def _validate_run(f, xs: np.ndarray) -> None:
    """Confirm a refined run of zeros is sound: ordered, well separated, and
    f alternates sign at the gap midpoints (so no zero was merged or skipped)."""
    if xs.size <= 1:
        return
    gaps = np.diff(xs)
    if gaps.min() < 1.0:
        raise ConvergenceError(f"suspiciously close zeros (gap {gaps.min():.3g})")
    mids = 0.5 * (xs[:-1] + xs[1:])
    signs = np.sign(np.asarray(f(mids), dtype=float))
    if (signs == 0).any() or (signs[:-1] == signs[1:]).any():
        raise ConvergenceError("sign pattern between consecutive zeros is not alternating")


_BULK_SWITCH = 80


def zeros(fid: FunctionId, K: int, tolerance: float = 1e-12) -> ZeroList:
    """First K positive zeros of the function identified by `fid`."""
    if K < 0:
        raise DomainError("zeros requires K >= 0")
    if fid.kind in (Kind.LOMMEL, Kind.ASSOC_LOMMEL):
        if fid.kind is Kind.LOMMEL:
            zl = _lommel.lommel_roots(fid.degree, fid.order - 1.0, _lommel.PolyKind.PLAIN)
        else:
            zl = _lommel.lommel_roots(fid.degree, fid.order, _lommel.PolyKind.ASSOCIATED)
        return ZeroList(fid, zl.zeros[:K], zl.residuals[:K], zl.method, zl.tolerance)
    if fid.kind is Kind.BESSEL_J and fid.order <= -1.0:
        raise DomainError("zeros of J_nu require nu > -1")
    if fid.kind is Kind.BESSEL_J_PRIME and fid.order < 0.0:
        raise DomainError("zeros of J'_nu require nu >= 0")
    if K == 0:
        return ZeroList(fid, (), (), "none requested", tolerance)

    f = _special.value_fn(fid)
    fp = _special.derivative_fn(fid)
    x0 = _scan_start(fid)

    if fid.kind is Kind.BESSEL_J and K > _BULK_SWITCH:
        head_n = max(12, int(math.ceil(max(fid.order, 0.0))) + 4)
        head = _scan_and_refine(f, fp, x0, head_n, tolerance)
        ks = np.arange(head_n + 1, K + 1, dtype=float)
        guess = _mcmahon_j(fid.order, ks)
        tail = guess.copy()
        for _ in range(4):
            tail = tail - np.asarray(f(tail), dtype=float) / np.asarray(fp(tail), dtype=float)
        xs = np.concatenate([head, tail])
        try:
            _validate_run(f, xs)
            res = np.abs(np.asarray(f(xs), dtype=float))
            scale = np.maximum(1.0, np.abs(np.asarray(fp(xs), dtype=float)))
            if (res > tolerance * scale).any():
                raise ConvergenceError("asymptotic-seeded Newton missed the residual contract")
            method = "scan+bisect head, asymptotic-seeded Newton tail"
        except ConvergenceError:
            xs = _scan_and_refine(f, fp, x0, K, tolerance)
            res = np.abs(np.asarray(f(xs), dtype=float))
            method = "scan + bisection/Newton"
    else:
        xs = _scan_and_refine(f, fp, x0, K, tolerance)
        res = np.abs(np.asarray(f(xs), dtype=float))
        method = "scan + bisection/Newton"
        _validate_run(f, xs)

    return ZeroList(
        fid=fid,
        zeros=tuple(float(v) for v in xs),
        residuals=tuple(float(r) for r in res),
        method=method,
        tolerance=tolerance,
    )


def _scan_and_refine(f, fp, x0: float, K: int, tolerance: float) -> np.ndarray:
    limit = x0 + (K + 20) * math.pi * 2.0 + 100.0
    brackets = _scan_brackets(f, x0, K, math.pi / 2.0, limit)
    xs, _ = _refine_brackets(f, fp, brackets, tolerance)
    return xs


def _jzero(nu: float, k: int, tolerance: float = 1e-12) -> float:
    return zeros(FunctionId(Kind.BESSEL_J, nu), k, tolerance).zeros[k - 1]


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


def dj_dnu(nu: float, k: int, fd_step: float = 1e-4) -> OrderDerivative:
    """Order-derivative of the k-th positive zero of J_nu by three routes."""
    if nu <= 0.0:
        raise DomainError("dj_dnu requires nu > 0")
    j = _jzero(nu, k)
    fd = (_jzero(nu + fd_step, k) - _jzero(nu - fd_step, k)) / (2.0 * fd_step)
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
    nus = list(nu_values)
    cs = [
        zeros(FunctionId(Kind.CYLINDER, nu, alpha=alpha), k).zeros[k - 1] for nu in nus
    ]
    return all(b > a for a, b in zip(cs, cs[1:]))
