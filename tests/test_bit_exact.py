"""The Lommel root solver (up to degree 5), zero scan and zero refinement return
the same floats, bit for bit, as the straightforward versions they replaced.

The references below are the earlier implementations, kept verbatim: the
numpy-array polynomial kernels `_poly_eval`/`_poly_prime`, the Lommel root
refinement through them with a fixed 80-step bisection, a zero scan that
evaluates whole 256-point batches, and a zero refinement that evaluates every
bracket at each of its 48 bisection steps, 3 Newton steps and residual, with
the 4 Newton steps of the McMahon-seeded tail evaluated at every zero, and a
common-zero test that evaluates one point at a time.
Results are compared as `float.hex`, so any change of the last bit fails.
"""

import importlib
import math
import random

import numpy as np
import pytest
from oracles import lommel_sign_changes

from bessel_lommel import lommel as L
from bessel_lommel import interlace as I
from bessel_lommel import special as S
from bessel_lommel.lommel import PolyKind
from bessel_lommel.special import FunctionId, Kind

Z = importlib.import_module("bessel_lommel.zeros")


def _hex(values):
    return [float(v).hex() for v in values]


def _poly_eval(coeffs, m: int, x):
    x = np.asarray(x, dtype=float)
    u = (x / 2.0) ** 2
    acc = np.zeros_like(u)
    for c in reversed(coeffs):
        acc = acc * u + c
    out = acc * (x / 2.0) ** (-m)
    return out if out.ndim else float(out)


def _poly_prime(coeffs, m: int, x):
    # d/dx sum c_k (x/2)^(2k-m) = (1/x) sum c_k (2k-m) (x/2)^(2k-m)
    x = np.asarray(x, dtype=float)
    u = (x / 2.0) ** 2
    acc = np.zeros_like(u)
    for k in range(len(coeffs) - 1, -1, -1):
        acc = acc * u + coeffs[k] * (2 * k - m)
    out = acc * (x / 2.0) ** (-m) / x
    return out if out.ndim else float(out)


def reference_root_positions(n, lam, kind=PolyKind.PLAIN):
    if kind is PolyKind.PLAIN:
        coeffs = L._plain_coeffs(n, lam + 1.0)
    else:
        coeffs = L._assoc_coeffs(n, lam)
    f = lambda x: _poly_eval(coeffs, n, x)
    fp = lambda x: _poly_prime(coeffs, n, x)

    if len(coeffs) < 2:
        return np.empty(0)
    candidates = np.polynomial.Polynomial(coeffs).roots()
    roots = []
    for u in candidates:
        if abs(u.imag) > 1e-8 * (1.0 + abs(u)) or u.real <= 0.0:
            continue
        x0 = 2.0 * math.sqrt(u.real)
        h = 1e-6 * (1.0 + x0)
        a, b = x0 - h, x0 + h
        fa, fb = f(a), f(b)
        for _ in range(60):
            if fa * fb <= 0.0:
                break
            h *= 2.0
            a, b = max(x0 - h, 1e-12), x0 + h
            fa, fb = f(a), f(b)
        if fa * fb > 0.0:
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
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
            step = f(x1) / d
            x2 = x1 - step
            if not a - 1e-9 <= x2 <= b + 1e-9:
                break
            x1 = x2
        roots.append(x1)
    roots.sort()
    return np.asarray(roots)


def reference_scan_brackets(f, x0, count, step, x_limit):
    brackets = []
    x = x0
    fx = float(f(np.asarray([x]))[0])
    batch = 256
    while len(brackets) < count:
        if x > x_limit:
            raise Z.ConvergenceError(
                f"found only {len(brackets)}/{count} sign changes scanning up to x={x:.6g}"
            )
        grid = x + step * np.arange(1, batch + 1)
        vals = np.asarray(f(grid), dtype=float)
        seq = np.concatenate(([fx], vals))
        bad = ~np.isfinite(seq)
        if bad.any():
            raise Z.ConvergenceError(f"non-finite function value near x={x:.6g}")
        flips = np.nonzero((seq[:-1] == 0.0) | (np.sign(seq[:-1]) != np.sign(seq[1:])))[0]
        for i in flips:
            a = x + step * i
            brackets.append((a, a + step))
            if len(brackets) == count:
                break
        x = float(grid[-1])
        fx = float(vals[-1])
    return brackets


def reference_scan_start(fid):
    if fid.kind is not Kind.CYLINDER:
        return max(1e-3, fid.order)
    x, f = 1e-3, S.value_fn(fid)
    with np.errstate(over="ignore", invalid="ignore"):
        while x < fid.order and not np.isfinite(f(x)):
            x = min(2.0 * x, fid.order)
    return x


def reference_scan(fid, K):
    """The brackets of the first K zeros of one fid, halving below the scan start."""
    f, x = S.value_fn(fid), reference_scan_start(fid)
    x0, limit = x, x + (K + 20) * math.pi * 2.0 + 100.0
    while fid.order >= Z._POSITIVE_NEAR_0.get(fid.kind, math.inf) and f(x) < 0.0:
        if x < 1e-300:
            raise Z.ConvergenceError(f"{fid.label()} is negative down to x = {x:.3g}")
        x *= 0.5
    first = [(x, 2.0 * x)] if x < x0 else []
    return first + reference_scan_brackets(f, x0, K - len(first), math.pi / 2.0, limit)


def _root_cases():
    rng = random.Random(20231020)
    cases = []
    for _ in range(80):
        n = rng.randint(0, 69)
        lam = rng.uniform(0.0, 60.0) or 60.0
        cases.append((n, lam, rng.choice(list(PolyKind))))
    # high degree at small lam: the bracket search clamps its left end to
    # 1e-12, where (x/2)**(-n) overflows
    for _ in range(12):
        cases.append((rng.randint(50, 69), rng.uniform(0.001, 2.0), rng.choice(list(PolyKind))))
    cases.append((65, 11.686269377239014, PolyKind.ASSOCIATED))
    cases.append((67, 46.84961088264986, PolyKind.ASSOCIATED))
    return cases


def _low_degree_root_cases():
    rng = random.Random(20261019)
    cases = [(n, lam, kind) for n, lam, kind in _root_cases() if n <= 5]
    for _ in range(200):
        cases.append((rng.randint(2, 5), rng.uniform(0.0, 60.0), rng.choice(list(PolyKind))))
    return cases


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_root_positions_match_reference_bitwise():
    # up to degree 5, which covers every README root, bisection from the Jacobi root
    # lands on the reference's float; above it the kernel changes sign several times
    # within a few ulps, and `test_root_positions_bracket_an_mpmath_sign_change`
    # checks the roots against mpmath instead
    for n, lam, kind in _low_degree_root_cases():
        # the reference takes the plain kind's offset lam = nu - 1
        got = L.root_positions(n, lam + 1.0 if kind is PolyKind.PLAIN else lam, kind)
        want = reference_root_positions(n, lam, kind)
        assert _hex(got) == _hex(want), (n, lam, kind)


def test_root_positions_bracket_an_mpmath_sign_change():
    # all n // 2 roots, each within 3e-13 relative of a sign change of the
    # polynomial in mpmath; the reference search drops roots from n = 56 and
    # returns non-roots above n = 27
    for n, lam, kind in _root_cases():
        assoc = kind is PolyKind.ASSOCIATED
        nu = lam if assoc else lam + 1.0
        got = L.root_positions(n, nu, kind)
        assert len(got) == n // 2, (n, lam, kind)
        assert all(lommel_sign_changes(n, nu, got.tolist(), 3e-13, assoc)), (n, lam, kind)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("derivative", [False, True])
def test_scalar_kernel_matches_array_kernel_bitwise(derivative):
    rng = random.Random(7 + derivative)
    array_kernel = _poly_prime if derivative else _poly_eval
    for _ in range(1000):
        m = rng.randint(0, 70)
        nu = rng.uniform(0.01, 61.0)
        coeffs = L._assoc_coeffs(m, nu) if rng.random() < 0.5 else L._plain_coeffs(m, nu)
        kernel = L._scalar_kernel(coeffs, m, derivative)
        xs = [math.exp(rng.uniform(math.log(1e-3), math.log(400.0))) for _ in range(10)]
        if m >= 50:
            xs.append(1e-12)  # (x/2)**(-m) overflows: numpy gives inf
        for x in xs:
            want, got = array_kernel(coeffs, m, x), kernel(x)
            assert type(got) is float
            assert float(want).hex() == got.hex() or (math.isnan(want) and math.isnan(got)), (
                m, nu, x,
            )


def _scan_functions():
    rng = random.Random(99)
    for kind in (Kind.BESSEL_J, Kind.CYLINDER, Kind.BESSEL_J_PRIME):
        for _ in range(8):
            nu = rng.uniform(0.0, 40.0)
            if kind is Kind.CYLINDER:
                fid = FunctionId(kind, nu, alpha=rng.uniform(0.01, math.pi - 0.01))
            else:
                fid = FunctionId(kind, nu)
            yield fid, rng.randint(1, 200)


def _grid_scan_cases():
    # one row each, then many rows of one kind and alpha; the C rows with alpha = 3.1 and
    # the J row at -0.9999999 have a first zero below 1e-3, and the C rows above order
    # ~62 start their scan above 1e-3
    rows = [([fid], count) for fid, _ in _scan_functions() for count in (1, 2, 5, 60, 127, 128, 129, 200)]
    rng = random.Random(5)
    for kind, alpha in ((Kind.BESSEL_J, None), (Kind.BESSEL_J_PRIME, None), (Kind.CYLINDER, 3.1),
                        (Kind.CYLINDER, 0.7)):
        nus = [0.05, 1e-8, 70.0, 3.0] + [rng.uniform(0.0, 80.0) for _ in range(20)]
        if kind is Kind.BESSEL_J:
            nus[0] = -0.9999999
        fids = [FunctionId(kind, nu, alpha=alpha) for nu in nus]
        rows += [(fids, count) for count in (1, 9, 127, 128, 129, 200)]
    return rows


def test_scan_brackets_match_reference_bitwise():
    # the grid scan brackets every row as the per-order reference scan does, and gives f
    # at both ends of a bracket where it has them, NaN elsewhere; a bracket from 1e-3
    # halving is (x, 2x)
    firsts, known_ends, brackets = 0, 0, 0
    for fids, count in _grid_scan_cases():
        value = S.evaluators(fids[0].kind, fids[0].alpha)[0]
        a, b, fa, fb = Z._grid_scan(value, fids, count)
        want = [bracket for fid in fids for bracket in reference_scan(fid, count)]
        assert _hex(a) == _hex([x for x, _ in want]), (fids, count)
        assert _hex(b) == _hex([x for _, x in want]), (fids, count)
        orders = np.repeat([fid.order for fid in fids], count)
        known = ~np.isnan(fb)
        assert _hex(fa) == _hex(value(orders, a)), (fids, count)
        assert _hex(fb[known]) == _hex(value(orders[known], b[known])), (fids, count)
        firsts += sum(x < 1e-3 for x, _ in want[::count])
        known_ends, brackets = known_ends + known.sum(), brackets + known.size
    assert firsts >= 20
    assert known_ends > 0.6 * brackets  # f(b) is reused from the scan


def test_scan_brackets_limit_error_matches_reference():
    # rows with too few sign changes up to their limit fail with the reference's message,
    # and several failing rows with the message of the first
    value = lambda nu, x: np.where(x < nu, np.cos(x), 1.0)
    for nus in ([20.0], [100.0, 20.0, 10.0], [10.0, 20.0]):
        fids = [FunctionId(Kind.CYLINDER, nu, alpha=1.0) for nu in nus]
        with pytest.raises(Z.ConvergenceError, match="found only") as exc:
            Z._grid_scan(value, fids, 20)
        nu = next(nu for nu in nus if nu < 60.0)
        limit = 1e-3 + 40 * math.pi * 2.0 + 100.0
        with pytest.raises(Z.ConvergenceError) as ref:
            reference_scan_brackets(lambda x: value(nu, x), 1e-3, 20, math.pi / 2.0, limit)
        assert str(exc.value) == str(ref.value), nus


def test_zeros_match_reference_scan_bitwise():
    _assert_matches_reference(_scan_functions())


def reference_refine_brackets(f, fp, brackets, tolerance: float):
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
        raise Z.ConvergenceError(
            f"residual {res[i]:.3g} exceeds contract in bracket ({a[i]:.9g}, {b[i]:.9g})"
        )
    return x, res


def reference_scan_and_refine(fids, K: int, tolerance: float):
    brackets = [bracket for fid in fids for bracket in reference_scan(fid, K)]
    col = FunctionId(fids[0].kind, np.repeat([fid.order for fid in fids], K), fids[0].alpha)
    xs, res = reference_refine_brackets(S.value_fn(col), S.derivative_fn(col), brackets, tolerance)
    xs, res = xs.reshape(len(fids), K), res.reshape(len(fids), K)
    for fid, row in zip(fids, xs):
        Z._validate_run(S.value_fn(fid), row)
    return xs, res


def reference_zeros(fid, K, tolerance=1e-12):
    f = S.value_fn(fid)
    fp = S.derivative_fn(fid)

    xs = None
    if fid.kind is Kind.BESSEL_J and K > Z._BULK_SWITCH:
        head_n = max(12, int(math.ceil(max(fid.order, 0.0))) + 4)
        head, _ = reference_scan_and_refine([fid], head_n, tolerance)
        ks = np.arange(head_n + 1, K + 1, dtype=float)
        guess = Z._mcmahon_j(fid.order, ks)
        tail = guess.copy()
        for _ in range(4):
            tail = tail - np.asarray(f(tail), dtype=float) / np.asarray(fp(tail), dtype=float)
        xs = np.concatenate([head[0], tail])
        try:
            Z._validate_run(f, xs)
            res = np.abs(np.asarray(f(xs), dtype=float))
            scale = np.maximum(1.0, np.abs(np.asarray(fp(xs), dtype=float)))
            if (res > tolerance * scale).any():
                raise Z.ConvergenceError("asymptotic-seeded Newton missed the residual contract")
            method = "scan+bisect head, asymptotic-seeded Newton tail"
        except Z.ConvergenceError:
            xs = None
    if xs is None:
        rows, res = reference_scan_and_refine([fid], K, tolerance)
        xs, res = rows[0], res[0]
        method = "scan + bisection/Newton"
    return xs, res, method


def _refine_cases():
    rng = random.Random(2024)
    for kind in (Kind.BESSEL_J, Kind.CYLINDER, Kind.BESSEL_J_PRIME):
        for _ in range(10):
            # orders where the scan of C_nu starts at x = 1e-3 (Y_nu overflows there past ~62)
            nu = rng.uniform(0.0, 50.0 if kind is Kind.CYLINDER else 110.0)
            alpha = rng.uniform(0.01, math.pi - 0.01) if kind is Kind.CYLINDER else None
            yield FunctionId(kind, nu, alpha=alpha), rng.randint(1, 80)
    for alpha in (0.0, 0.5, math.pi / 2.0, 3.0):
        yield FunctionId(Kind.CYLINDER, rng.uniform(0.0, 30.0), alpha=alpha), 80


def _assert_matches_reference(cases):
    for fid, K in cases:
        got = Z.zeros(fid, K)
        xs, res, method = reference_zeros(fid, K)
        assert _hex(got.zeros) == _hex(xs), (fid, K)
        assert _hex(got.residuals) == _hex(res), (fid, K)
        assert got.method == method, (fid, K)


def test_refinement_matches_reference_bitwise():
    _assert_matches_reference(_refine_cases())


def test_zero_table_matches_reference_bitwise():
    for kind, alpha in ((Kind.BESSEL_J, None), (Kind.CYLINDER, 2.2), (Kind.BESSEL_J_PRIME, None)):
        fids = [FunctionId(kind, 3.0 + 0.37 * i, alpha=alpha) for i in range(12)]
        table = Z.zero_table(fids, 9)
        for fid, row in zip(fids, table):
            assert _hex(row) == _hex(reference_zeros(fid, 9)[0]), fid


def test_mcmahon_tail_matches_reference_bitwise():
    cases = [(0.0, 1000), (0.5, 1500), (7.25, 2600), (33.3, 4000), (61.0, 5000), (0.3, 81)]
    _assert_matches_reference((FunctionId(Kind.BESSEL_J, nu), K) for nu, K in cases)


@pytest.mark.parametrize("phase_steps", [0, 1])
def test_replay_fall_back_matches_reference_bitwise(monkeypatch, phase_steps):
    # with no phase step the estimate of each root is the chord root of its bracket, and
    # one step leaves estimates off to either side, so replays fail at either end and
    # those brackets are bisected in full (steps == 0), which must happen here
    monkeypatch.setattr(Z, "_PHASE_STEPS", phase_steps)
    stage_one, fell_back = Z._bracket_zeros, []

    def counted(*args):
        state = stage_one(*args)
        fell_back.append(int((state[4] == 0).sum()))
        return state

    monkeypatch.setattr(Z, "_bracket_zeros", counted)
    cases = list(_refine_cases())[::3] + [(FunctionId(Kind.BESSEL_J, 2.5), 300)]
    _assert_matches_reference(cases)
    assert sum(fell_back) > 0, fell_back


def _extreme_cases():
    # each kind at the ends of its range: J from just above -1 (a first zero below 1e-3)
    # to order 250, J' from order 1e-9 to 200, C at angles within 1e-12 of 0 and of pi, and Y
    rng = random.Random(250)
    fids = [FunctionId(Kind.BESSEL_J, nu) for nu in (-0.9999999, -0.999, 120.3, 250.0)]
    fids += [FunctionId(Kind.BESSEL_J_PRIME, nu) for nu in (1e-9, 1e-4, 0.3, 200.0)]
    fids += [FunctionId(Kind.CYLINDER, nu, alpha=alpha) for nu in (0.5, 40.0)
             for alpha in (1e-12, 1e-6, math.pi - 1e-6, math.pi - 1e-12)]
    fids += [FunctionId(Kind.BESSEL_Y, nu) for nu in (0.0, 61.5, 250.0)]
    return [(fid, rng.randint(1, 39)) for fid in fids]


# first zeros far below the chord root of their bracket (0.001, 1.5718...), which the phase
# steps must reach for the replay to certify
_FIRST_ZEROS = [
    (FunctionId(Kind.CYLINDER, 2.0, alpha=3.0613559029121995), 1.04420547968097),
    (FunctionId(Kind.CYLINDER, 0.09400955990431115, alpha=2.8608442700951664), 0.0307019460310087),
]


def test_phase_estimate_at_the_extremes_matches_reference_bitwise(monkeypatch):
    _assert_matches_reference(_extreme_cases() + [(fid, 3) for fid, _ in _FIRST_ZEROS])
    stage_one, steps = Z._bracket_zeros, []

    def recorded(*args):
        state = stage_one(*args)
        steps.append(state[4])
        return state

    monkeypatch.setattr(Z, "_bracket_zeros", recorded)
    for fid, zero in _FIRST_ZEROS:
        steps.clear()
        assert Z.zeros(fid, 3).zeros[0] == pytest.approx(zero, rel=1e-13), fid
        assert steps[0][0] > 0, fid  # the replay certified, no full bisection


def reference_common(pair, xs, tol=1e-8):
    hval = S.value_fn(pair.shifted)
    hder = S.derivative_fn(pair.shifted)
    mask = np.asarray(
        [
            abs(pair.poly(x)) / max(1.0, abs(pair.poly.prime(x))) < tol
            and abs(float(hval(x))) / max(1.0, abs(float(hder(x)))) < tol
            for x in xs
        ],
        dtype=bool,
    )
    if mask.sum() > pair.max_common:
        raise RuntimeError(
            f"detected {mask.sum()} common zeros but at most {pair.max_common} are possible; "
            "the tolerance is too loose"
        )
    return mask


def _outcome(common, pair, xs, tol):
    try:
        return common(pair, xs, tol).tolist()
    except RuntimeError as exc:
        return str(exc)


def test_common_matches_pointwise_reference():
    rng = random.Random(5)
    pairs = [I.Pair(I.Family.BESSEL_J, 5, 5.619812295723)]  # a common zero near x = 19.6
    for family in I.Family:
        for _ in range(4):
            alpha = rng.uniform(0.0, 3.0) if family is I.Family.CYLINDER else 0.0
            pairs.append(I.Pair(family, rng.randint(1, 12), rng.uniform(0.5, 20.0), alpha))
    for pair in pairs:
        xs = Z.zeros(pair.base, 30).zeros
        for tol in (1e-8, 1e-3, 0.3):
            want = _outcome(reference_common, pair, xs, tol)
            assert _outcome(I.Pair.common, pair, xs, tol) == want, (pair, tol)
    assert True in _outcome(I.Pair.common, pairs[0], Z.zeros(pairs[0].base, 30).zeros, 1e-8)
