import importlib
import math
import time

import mpmath as mp
import numpy as np
import pytest
from oracles import lommel_sign_changes, shifted_sign_at_zero

import bessel_lommel as bl
import bessel_lommel.continuation as C
from bessel_lommel.continuation import BracketError
from bessel_lommel.special import DomainError, jv


def test_solve_inside_published_bracket():
    sols = bl.find_in_bracket(5, 5.619, 5.62)
    assert len(sols) == 1
    s = sols[0]
    assert 5.619 < s.nu_star < 5.62
    assert (s.l, s.k) == (2, 6)
    assert s.residual_j < 1e-8 and s.residual_jm < 1e-8
    assert s.nu_star == pytest.approx(5.619812295723, abs=1e-9)
    assert s.x_star == pytest.approx(26.294110115998, abs=1e-6)


def test_solve_quadratic_root_against_second_zero():
    s = bl.solve_nu_star(3, 1, 2, 3.0, 5.0)
    assert s.nu_star == pytest.approx(4.152532565663, abs=1e-9)
    rho = 2.0 * math.sqrt((s.nu_star + 1.0) * (s.nu_star + 2.0))
    assert s.x_star == pytest.approx(rho, rel=1e-10)
    assert abs(jv(s.nu_star, s.x_star)) < 1e-8
    assert abs(jv(s.nu_star + 3.0, s.x_star)) < 1e-8


def test_first_zero_never_produces_a_crossing():
    # every root of the compensating polynomial stays above the first base
    # zero, so the k = 1 distance keeps one sign on the whole order range
    from bessel_lommel.continuation import _distance

    for nu in np.linspace(-0.9, 3.0, 12):
        assert _distance(3, 1, 1, float(nu), 0.0) > 0.0
    with pytest.raises(BracketError):
        bl.solve_nu_star(3, 1, 1, -0.9, -0.05)
    assert bl.scan_nu_star(3, 1, 0.0) == []


def test_scan_finds_crossings():
    sols = bl.scan_nu_star(4, 3, 20.0)
    assert sols
    for s in sols:
        assert s.residual_j < 1e-8 and s.residual_jm < 1e-8
        assert s.m == 4
    nus = [s.nu_star for s in sols]
    assert nus == sorted(nus)


def test_scan_with_no_indices_is_empty():
    assert bl.scan_nu_star(3, 0, 10.0) == []


def test_solve_requires_shift_three():
    with pytest.raises(DomainError):
        bl.solve_nu_star(2, 1, 2, 1.0, 2.0)


@pytest.mark.parametrize("l, k", [(0, 6), (-1, 6), (3, 6), (2, 0)])
def test_solve_rejects_indices_out_of_range(l, k):
    # m = 5 gives R_{4,nu+1} with 2 positive roots; l = 0 would index the last
    # root from the end
    with pytest.raises(DomainError, match="need 1 <= l <= 2 and k >= 1"):
        bl.solve_nu_star(5, l, k, 5.619, 5.62)


@pytest.mark.parametrize("step", [0.0, -0.1])
def test_order_grid_rejects_non_positive_step(step):
    # a grid that never advances would grow without end
    with pytest.raises(DomainError, match="step > 0"):
        bl.scan_nu_star(4, 2, 6.0, nu_min=5.0, step=step)
    with pytest.raises(DomainError, match="step > 0"):
        bl.trace_trajectories(5, (5.0, 6.0), step, k_max=2, l_max=1)


@pytest.mark.parametrize(
    "nu_from, nu_to, step, match",
    [
        (5.0, math.inf, 0.125, "finite"),
        (5.0, 6.0, math.nan, "finite"),
        (6.0, 5.0, 0.125, "runs backwards"),
        (5.0, 6.0, 1e-17, "step > 0"),
        # moves nu_from but not 8.0, where the grid would stall
        (8.0 - 1e-15, 8.0 + 1e-13, 5e-16, "step > 0"),
        (5.0, 6.0, 1e-9, "exceeds 10000 orders"),
    ],
    ids=["infinite-end", "nan-step", "reversed", "step-below-ulp", "stalls-at-8", "too-long"],
)
def test_order_grid_rejects_grids_that_never_end(nu_from, nu_to, step, match):
    # each grid would grow without end, run out of memory or, reversed, hold
    # one order
    with pytest.raises(DomainError, match=match):
        bl.scan_nu_star(4, 2, nu_to, nu_min=nu_from, step=step)
    with pytest.raises(DomainError, match=match):
        bl.trace_trajectories(5, (nu_from, nu_to), step, k_max=2, l_max=1)


def test_order_grid_holds_at_most_10000_orders():
    # from 0 by 0.125, hi = 1250 gives 10001 orders on the scan and the trace grid
    with pytest.raises(DomainError, match="exceeds 10000 orders"):
        C._check_grid(0.0, 1250.0, 0.125)
    C._check_grid(0.0, 1249.875, 0.125)  # 10000 orders


@pytest.mark.parametrize("K", [0, -1])
def test_rational_order_margin_requires_a_zero(K):
    with pytest.raises(DomainError, match="K >= 1"):
        bl.rational_order_margin(5, 2.5, K)


def test_root_deficit_raises_on_every_path(monkeypatch):
    # near nu = 50 a search from companion-matrix candidates found fewer roots of
    # R_{m-1,nu+1} than the (m-1)//2 that theory gives (22 of 26 at m = 53), and the
    # bracket, the trace and the distance refused.  The Jacobi roots are complete, so
    # they answer.  The mpmath signs confirm that J_{nu+m} changes sign nowhere in the
    # scan's window, and that the bracket holds a sign change at the 250th zero
    from bessel_lommel.continuation import _distance

    seen = _record_tables(monkeypatch)
    assert bl.scan_nu_star(61, 2, 50.3, nu_min=50.0) == []
    assert _oracle_crossings(61, 2, seen[0]) == set()
    (sol,) = bl.find_in_bracket(53, 50.0, 50.05)
    z = [bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu), 250).zeros[-1] for nu in (50.0, 50.05)]
    assert [shifted_sign_at_zero(nu, 53, x) for nu, x in zip((50.0, 50.05), z)] == [1, -1]
    assert (sol.l, sol.k) == (25, 250)
    assert sol.nu_star == pytest.approx(50.00401083252579, rel=1e-13)
    assert sol.x_star == pytest.approx(861.707779857333, rel=1e-13)
    assert abs(mp.besselj(sol.nu_star, sol.x_star)) < 1e-10
    assert abs(mp.besselj(sol.nu_star + 53, sol.x_star)) < 1e-10
    res = bl.trace_trajectories(53, (50.0, 50.25), 0.125, k_max=2, l_max=26)
    rho = [t.samples for t in res.trajectories if t.curve_id.startswith("rho")]
    assert len(rho) == 26
    for i, (nu, _) in enumerate(rho[0]):
        assert all(lommel_sign_changes(52, nu + 1.0, [curve[i][1] for curve in rho], 3e-13))
    assert _distance(53, 1, 1, 50.0, 0.0) > 0.0
    with pytest.raises(DomainError):
        _distance(53, 27, 1, 1.0, 0.0)


def test_trajectories_monotone_and_annotated():
    res = bl.trace_trajectories(5, (5.0, 6.0), 0.125, k_max=6, l_max=2)
    by_id = {t.curve_id: t for t in res.trajectories}
    xs = [x for _, x in by_id["j[nu,1]"].samples]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    rho2 = [x for _, x in by_id["rho[4,nu,2]"].samples]
    slopes = np.diff(rho2) / 0.125
    assert np.all(slopes > 1.0)
    assert res.crossings
    s = res.crossings[0]
    assert abs(jv(s.nu_star, s.x_star)) < 1e-8
    assert abs(jv(s.nu_star + 5.0, s.x_star)) < 1e-8
    assert s.nu_star == pytest.approx(5.619812295723, abs=1e-8)


def test_cylinder_reduces_to_bessel_at_alpha_zero():
    a = bl.solve_nu_star(3, 1, 2, 3.0, 5.0, alpha=0.0)
    b = bl.solve_nu_star(3, 1, 2, 3.0, 5.0)
    assert a.nu_star == pytest.approx(b.nu_star, abs=1e-12)


def test_cylinder_crossing_resolves():
    sols = bl.scan_nu_star(3, 3, 5.0, alpha=math.pi / 4.0)
    assert sols
    s = sols[0]
    assert s.residual_j < 1e-8 and s.residual_jm < 1e-8
    c = bl.solve_nu_star(3, s.l, s.k, *s.bracket, alpha=math.pi / 4.0)
    assert c.nu_star == pytest.approx(s.nu_star, abs=1e-10)


def test_cylinder_crossing_feeds_back_to_interlacing():
    alpha = math.pi / 4.0
    s = bl.scan_nu_star(3, 3, 5.0, alpha=alpha)[0]
    common = bl.detect_common_zeros(bl.Family.CYLINDER, 3, s.nu_star, 15, alpha=alpha)
    assert len(common) >= 1
    rep = bl.verify_generalized_interlacing(bl.Family.CYLINDER, 3, s.nu_star, 15, alpha=alpha)
    assert rep.ok


def test_crossing_feeds_back_to_interlacing():
    s = bl.find_in_bracket(5, 5.619, 5.62)[0]
    cz = bl.detect_common_zeros(bl.Family.BESSEL_J, 5, s.nu_star, 20)
    assert len(cz) >= 1
    rep = bl.verify_generalized_interlacing(bl.Family.BESSEL_J, 5, s.nu_star, 20)
    assert rep.ok
    assert bl.common_zero_sandwich(bl.Family.BESSEL_J, 5, s.nu_star, s.x_star)


def test_rational_orders_keep_margin():
    # denominators up to 8 on (-1, 4]; the compensating polynomial never comes
    # close to vanishing at a base zero.  The empirical floor of the margin on
    # this grid is 4.48e-5 (at order -7/8, shift 6), still several orders above
    # the 1e-8 common-zero detection tolerance.
    from fractions import Fraction

    grid = sorted({Fraction(p, q) for q in range(1, 9) for p in range(-q + 1, 4 * q + 1)})
    worst = math.inf
    for frac in grid:
        for m in range(2, 7):
            worst = min(worst, bl.rational_order_margin(m, float(frac), 20))
    assert worst > 1e-5


@pytest.mark.parametrize("m, nu", [(20, 1 / 3), (40, 1 / 3), (60, 5 / 3)])
def test_rational_order_margin_matches_mpmath_at_large_gaps(m, nu):
    # |R_{m-1,nu+1}| at the same float zeros, as |J_{nu+m} / J_{nu-1}| in 120 digits; the
    # power basis of R gave 1.7e-6, 2.4e-4 and 4.1e-3 here, against 5.6e-16, 2.4e-42, 2.8e-62
    zs = [mp.mpf(z) for z in bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu), 20).zeros]
    with mp.workdps(120):
        want = min(abs(mp.besselj(mp.mpf(nu) + m, z) / mp.besselj(mp.mpf(nu) - 1, z)) for z in zs)
        assert abs(bl.rational_order_margin(m, nu, 20) - want) <= 1e-12 * want


def test_solution_serialization():
    s = bl.solve_nu_star(3, 1, 2, 3.0, 5.0)
    d = s.as_dict()
    assert d["m"] == 3 and d["l"] == 1 and d["k"] == 2
    assert "irrational" in d["note"]


def test_table_refines_each_function_in_one_pass(monkeypatch):
    from bessel_lommel.continuation import _table

    zeros_mod = importlib.import_module("bessel_lommel.zeros")
    calls = {"_bracket_zeros": [], "_finish_zeros": []}
    for name, seen in calls.items():
        stage = getattr(zeros_mod, name)
        monkeypatch.setattr(zeros_mod, name, lambda *a, stage=stage, seen=seen: seen.append(1) or stage(*a))
    nus = [5.0 + 0.0625 * i for i in range(17)]
    base, g, refine, roots = _table(5, nus, 3, 0.0)
    high = bl.zero_table([bl.FunctionId(bl.Kind.BESSEL_J, nu + 5) for nu in nus], 3)  # as a trace
    refine(range(17))
    for seen in calls.values():  # stage one and stage two, each in one pass per function
        assert len(seen) == 2
    assert g.shape == base.box.shape == (17, 3, 2) and high.shape == (17, 3)


def _brent_runs(f, a, b):
    """(root, evaluated points) of `scipy.optimize.brentq` and of `_brentq` on f from a to b,
    as float.hex, with None for a root that 100 iterations do not reach; `_brentq` is
    given f(a) and f(b), which scipy evaluates first."""
    from scipy.optimize import brentq

    runs = []
    for solve in (
        lambda g: brentq(g, a, b, xtol=1e-12, rtol=8.9e-16),
        lambda g: C._brentq(g, a, b, f(a), f(b)),
    ):
        points = []
        try:
            root = solve(lambda x: points.append(x) or f(x)).hex()
        except RuntimeError:  # scipy's refusal, and ConvergenceError
            root = None
        runs.append((root, [x.hex() for x in points]))
    (scipy_root, scipy_points), run = runs
    return (scipy_root, scipy_points[2:]), run


@pytest.mark.parametrize("m, l, k, ends", [(5, 2, 6, (5.619, 5.62)), (4, 1, 2, (16.0625, 15.9375))])
def test_brentq_matches_scipy_at_the_readme_crossings(m, l, k, ends):
    f = lambda nu: C._distance(m, l, k, nu, 0.0)
    scipy_run, run = _brent_runs(f, *ends)
    assert run == scipy_run and run[0] and run[1]


# each shape takes secant and inverse quadratic steps, except the step function, which
# only bisects; the flat cubic and the steep cube root also have interpolation steps
# refused, so bisection is forced
_SHAPES = {
    "tanh": lambda r, c: lambda x: math.tanh(c * (x - r)) + 0.01 * c,
    "flat cubic": lambda r, c: lambda x: (x - r) ** 3 + 1e-3 * c * (x - r),
    "cube root": lambda r, c: lambda x: math.copysign(abs(x - r) ** (1 / 3), x - r) - 1e-3 * c,
    "step": lambda r, c: lambda x: c if x > r else -c,
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_brentq_matches_scipy_point_for_point(shape):
    rng = np.random.default_rng(17)
    for _ in range(200):
        r, c = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 5.0)
        f = _SHAPES[shape](r, c)
        a, b = rng.uniform(-2.0, 2.0, 2)
        if f(a) * f(b) < 0.0:  # either order of the ends
            scipy_run, run = _brent_runs(f, a, b)
            assert run == scipy_run, (shape, a, b)


def test_brentq_returns_a_root_at_an_end_without_evaluating():
    for a, b in [(0.25, 1.0), (1.0, 0.25)]:
        scipy_run, run = _brent_runs(lambda x: x - 0.25, a, b)
        assert run == scipy_run == ((0.25).hex(), [])


def test_brentq_refuses_nan_and_exhaustion():
    from scipy.optimize import brentq

    with pytest.raises(C.ConvergenceError, match="NaN"):
        C._brentq(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0)
    with pytest.raises(C.ConvergenceError, match="NaN"):
        C._brentq(lambda x: x, 0.0, 1.0, math.nan, 1.0)
    with pytest.raises(BracketError, match="the same sign"):
        C._brentq(lambda x: x, 0.5, 1.0, 0.5, 1.0)
    # a step function bisects from 2e300 wide: 100 iterations cannot converge
    step = lambda x: 1.0 if x > 0.3 else -1.0
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(step, -1e300, 1e300, xtol=1e-12, rtol=8.9e-16)
    with pytest.raises(C.ConvergenceError, match="100 iterations"):
        C._brentq(step, -1e300, 1e300, -1.0, 1.0)


def test_nan_distance_is_a_convergence_error(monkeypatch, capsys):
    from bessel_lommel.cli import main

    monkeypatch.setattr(C, "_distance", lambda *a: math.nan)
    with pytest.raises(C.ConvergenceError):
        bl.solve_nu_star(5, 2, 6, 5.619, 5.62)
    assert main(["common-zero", "--m", "5", "--bracket", "5.619", "5.62"]) == 1
    assert "ConvergenceError" in capsys.readouterr().err


def test_solve_takes_bracket_ends_from_its_grid(monkeypatch):
    import bessel_lommel.continuation as continuation_mod

    seen = []
    distance = continuation_mod._distance
    monkeypatch.setattr(
        continuation_mod, "_distance", lambda *a: seen.append(a[3]) or distance(*a)
    )
    sol = bl.solve_nu_star(5, 2, 6, 5.619, 5.62)
    assert sol.nu_star == pytest.approx(5.619812295723, abs=1e-8)
    assert seen and 5.619 not in seen and 5.62 not in seen


@pytest.mark.parametrize(
    "nu_range, step", [((5.0, 5.0 + 3.5e-12), 1e-12), ((1.0, 1.3), 0.1), ((5.0, 6.0), 0.125)]
)
def test_trace_grid_never_passes_its_end(nu_range, step):
    # accumulating the step overshoots 1.3 by an ulp, and an absolute slack of
    # 1e-12 let the first grid take a fifth order past its end
    res = bl.trace_trajectories(3, nu_range, step, k_max=1, l_max=1)
    nus = [nu for nu, _ in res.trajectories[0].samples]
    assert nus[0] == nu_range[0] and max(nus) <= nu_range[1]
    assert nu_range[1] - nus[-1] < step


def _record_tables(monkeypatch):
    import bessel_lommel.continuation as continuation_mod

    seen = []
    table = continuation_mod._table
    def recording(m, nus, *args, **kwargs):
        seen.append(list(nus))
        return table(m, nus, *args, **kwargs)

    monkeypatch.setattr(continuation_mod, "_table", recording)
    return seen


@pytest.mark.parametrize(
    "query",
    [
        lambda: bl.scan_nu_star(4, 3, 20.0),
        lambda: bl.find_in_bracket(5, 5.619, 5.62),
        lambda: bl.trace_trajectories(5, (5.0, 6.0), 0.125, k_max=6, l_max=2),
    ],
    ids=["scan", "bracket", "trace"],
)
def test_each_query_tabulates_its_orders_once(monkeypatch, query):
    # every crossing is solved from the two table values that found it
    seen = _record_tables(monkeypatch)
    assert query()
    assert len(seen) == 1


def test_solve_tabulates_only_its_two_ends(monkeypatch):
    seen = _record_tables(monkeypatch)
    sol = bl.solve_nu_star(5, 2, 6, 5.619, 5.62)
    assert sol.nu_star == pytest.approx(5.619812295723, abs=1e-8)
    assert seen == [[5.619, 5.62]]


@pytest.mark.parametrize(
    "nu_lo, nu_hi",
    [(5.62, 5.619), (5.619, 5.619), (math.nan, 5.62), (5.6, math.inf)],
    ids=["reversed", "degenerate", "nan-end", "infinite-end"],
)
def test_bracket_rule_is_shared(nu_lo, nu_hi):
    # a degenerate bracket used to answer "no crossing" and a NaN end to leak LinAlgError
    with pytest.raises(DomainError, match="bracket requires finite ends"):
        bl.find_in_bracket(5, nu_lo, nu_hi)
    with pytest.raises(DomainError, match="bracket requires finite ends"):
        bl.solve_nu_star(5, 2, 6, nu_lo, nu_hi)


def test_spurious_sign_change_is_refused_by_the_common_zero_test(monkeypatch):
    # the first cylinder zero crosses x = 1e-3 inside this bracket; the scan once started
    # there and saw a sign change with no crossing, and now finds that zero below its start
    assert bl.find_in_bracket(4, 0.05, 0.1, alpha=3.0) == []
    # a solved x* that Pair.common does not take for a common zero is refused
    monkeypatch.setattr(bl.interlace.Pair, "common", lambda self, xs, tol=1e-8: np.zeros(len(xs), bool))
    with pytest.raises(BracketError, match="gives no common zero"):
        bl.find_in_bracket(5, 5.619, 5.62)


def _largest_roots(m, nus):
    """The largest root of R_{m-1,nu+1} at each order nu: the reciprocal of the least
    positive eigenvalue of its Jacobi matrix, symmetric tridiagonal with zero diagonal
    and off-diagonal 1/(2 sqrt((nu+1+k)(nu+2+k))), k = 0..m-3 (Dickinson 1954)."""
    n, nu = m - 1, np.asarray(nus, dtype=float)[:, None] + 1.0
    i = np.arange(n - 1)
    t = np.zeros((nu.size, n, n))
    t[:, i, i + 1] = t[:, i + 1, i] = 0.5 / np.sqrt((nu + i) * (nu + i + 1.0))
    return 1.0 / np.linalg.eigvalsh(t)[:, n - n // 2]


def test_largest_lommel_root_grows_with_the_order():
    # a bracket bounds the roots at its upper order and counts base zeros at its lower
    # one, which holds because the largest root, like every base zero, grows with nu
    assert _largest_roots(5, [2.5]) == pytest.approx(bl.lommel_coefficients(4, 3.5).roots()[-1])
    nus = np.geomspace(0.01, 80.0, 100)
    for m in range(3, 80):
        assert (np.diff(_largest_roots(m, nus)) > 0.0).all(), m


@pytest.mark.parametrize(
    "m, nu, l, k", [(20, 19.58049032270774, 9, 51), (12, 48.73190672137643, 5, 45),
                    (16, 30.857494396957026, 7, 49)],
)
def test_bracket_looks_at_every_base_zero_below_the_root_bound(monkeypatch, m, nu, l, k):
    # these crossings lie past the 40 base zeros that a bracket once looked at
    seen = []
    table = C._table
    monkeypatch.setattr(C, "_table", lambda m, nus, k_max, *a: seen.append(k_max) or table(m, nus, k_max, *a))
    lo, hi = nu - 1e-4, nu + 1e-4
    (sol,) = bl.find_in_bracket(m, lo, hi)
    assert (sol.l, sol.k) == (l, k) and sol.nu_star == pytest.approx(nu, abs=1e-9)
    z = [bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, v), k).zeros[-1] for v in (lo, hi)]
    assert shifted_sign_at_zero(lo, m, z[0]) == -shifted_sign_at_zero(hi, m, z[1])
    # the last base zero tabulated at lo lies past every root at hi
    assert bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, lo), seen[0]).zeros[-1] > _largest_roots(m, [hi])[0]


def test_bracket_without_a_finite_root_bound_is_refused():
    # the constant coefficient of R_{3,nu+1}, nu (nu+1) (nu+2), overflows, which once
    # left no finite Laguerre-Samuelson bound; the largest root is finite, but about
    # 5.8e102 base zeros lie below it, more than a query may tabulate
    with pytest.raises(DomainError, match="at most 1000000 in all"):
        bl.find_in_bracket(4, 1e103, 2e103)


@pytest.mark.parametrize(
    "query", [lambda: bl.find_in_bracket(4, 1e10, 2e10), lambda: bl.scan_nu_star(4, 10**9, 20.0)],
    ids=["bracket", "scan"],
)
def test_queries_past_the_zero_cap_are_refused_at_once(query):
    # 5.8e9 base zeros at each end of the bracket, 1e9 at each of 169 scan orders
    start = time.perf_counter()
    with pytest.raises(DomainError, match="at most 1000000 in all"):
        query()
    assert time.perf_counter() - start < 1.0


def _oracle_crossings(m, k_max, nus):
    """(k, (nu_lo, nu_hi)) of each sign change, between neighbouring orders, of the
    mpmath sign of J_{nu+m} at the k-th zero of J_nu, refined by `mp.findroot` from
    the library's zero."""
    table = bl.zero_table([bl.FunctionId(bl.Kind.BESSEL_J, nu) for nu in nus], k_max)
    signs = [[shifted_sign_at_zero(nu, m, x) for x in row] for nu, row in zip(nus, table.tolist())]
    return {(k + 1, (nus[i], nus[i + 1])) for i in range(len(nus) - 1) for k in range(k_max)
            if signs[i][k] != signs[i + 1][k]}


@pytest.mark.parametrize(
    "m, k_max, nu_max, nu_min",
    [(m, 3, 3.0, None) for m in (5, 9, 12, 16, 20)]
    + [(17, 6, 5.0, 3.0), (20, 6, 5.0, 3.0), (18, 2, 14.0, 3.0)],
)
def test_scan_answers_match_the_mpmath_sign_oracle(monkeypatch, m, k_max, nu_max, nu_min):
    # near the order floor, and for m >= 17 where the smallest root of R_{m-1,nu+1}
    # lies within 1e-14 of j_{nu,1}, a root-versus-zero table reported crossings at
    # x* < nu* + m, where J_{nu+m} has no zero (j_{mu,1} > mu), or refused to answer
    seen = _record_tables(monkeypatch)
    sols = bl.scan_nu_star(m, k_max, nu_max, nu_min=nu_min)
    assert {(s.k, s.bracket) for s in sols} == _oracle_crossings(m, k_max, seen[0])
    for s in sols:
        assert s.x_star > s.nu_star + m
        assert abs(mp.besselj(s.nu_star, s.x_star)) < 1e-10
        assert abs(mp.besselj(s.nu_star + m, s.x_star)) < 1e-10
