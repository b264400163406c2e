"""The staged refinement: stage one gives certified intervals, stage two the exact
values, and a common-zero query refines only the orders a crossing needs.

A query's answers must be bit for bit those of refining every order, so each
case below is answered twice: as is, and with every stage-one interval of the
base zeros widened to the whole line, so that no sign is decided and every row
is refined.  Results are compared as `float.hex`, and an error by its type and
message.
"""

import importlib
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import bessel_lommel as bl
from bessel_lommel import lommel as L
from bessel_lommel.lommel import PolyKind
from bessel_lommel.special import FunctionId, Kind

C = importlib.import_module("bessel_lommel.continuation")
Z = importlib.import_module("bessel_lommel.zeros")


def _answer(query):
    try:
        return [{k: v.hex() if isinstance(v, float) else v for k, v in s.as_dict().items()}
                for s in query()]
    except Exception as exc:  # the same error must come first on both paths
        return f"{type(exc).__name__}: {exc}"


def _undecided(monkeypatch):
    stages = C._zero_stages

    def unbounded(fids, K):
        intervals = stages(fids, K)
        box = intervals.box
        np.copyto(box, [-np.inf, np.inf], where=box[..., :1] < box[..., 1:])  # zeros not yet exact
        return intervals

    monkeypatch.setattr(C, "_zero_stages", unbounded)


def _refined_cells(monkeypatch):
    """Record the flat cells (order * k_max + k) each `_table` of a query sends to stage two."""
    seen = []
    table = C._table

    def recording(*args, **kwargs):
        base, g, refine, roots = table(*args, **kwargs)
        return base, g, lambda cells: seen.extend(cells) or refine(cells), roots

    monkeypatch.setattr(C, "_table", recording)
    return seen


def _cases():
    for alpha in (0.0, 0.7, 2.5):
        for m in range(3, 21):  # gaps 3..20: most of these windows hold a crossing
            yield lambda m=m, a=alpha: bl.scan_nu_star(m, 6, 5.0, nu_min=3.0, alpha=a)
        for m in (3, 5, 12):  # windows at the order floor
            yield lambda m=m, a=alpha: bl.scan_nu_star(m, 3, 3.0, alpha=a)
        for m in (5, 8):  # 3 or 4 crossings each, up to the tenth zero
            yield lambda m=m, a=alpha: bl.scan_nu_star(m, 10, 10.0, nu_min=3.0, alpha=a)
        yield lambda a=alpha: bl.find_in_bracket(5, 5.619, 5.62, alpha=a)
        yield lambda a=alpha: bl.find_in_bracket(7, 4.0, 4.5, alpha=a)
    yield lambda: bl.find_in_bracket(12, -0.8, -0.7)
    yield lambda: bl.find_in_bracket(4, 0.05, 0.1, alpha=3.0)  # no crossing: answers []
    yield lambda: bl.scan_nu_star(61, 2, 50.3, nu_min=50.0)  # too few roots at an order


def _solve_inputs(monkeypatch):
    """Record the arguments of every `_solve` call, floats as `float.hex`."""
    seen = []
    solve = C._solve

    def recording(*args):
        seen.append([a.hex() if isinstance(a, float) else a for a in args])
        return solve(*args)

    monkeypatch.setattr(C, "_solve", recording)
    return seen


def test_staged_answers_match_full_refinement_bitwise(monkeypatch):
    cases = list(_cases())
    inputs = _solve_inputs(monkeypatch)
    staged = [_answer(q) for q in cases]
    staged_inputs = inputs[:]
    inputs.clear()
    _undecided(monkeypatch)
    full = [_answer(q) for q in cases]
    assert staged == full
    assert staged_inputs == inputs  # the same table values reach every solve
    assert sum(isinstance(a, list) and len(a) for a in staged) > 40  # solutions were compared
    assert staged[-1] == []  # no sign change, so no root is solved (see the deficit test)
    assert staged[-2] == []


def test_undecided_signs_refine_every_row(monkeypatch):
    seen = _refined_cells(monkeypatch)
    _undecided(monkeypatch)
    bl.scan_nu_star(4, 3, 12.0, nu_min=8.0)
    assert sorted(seen) == list(range(33 * 3))  # every cell, once


def test_window_without_crossing_refines_few_orders(monkeypatch):
    seen = _refined_cells(monkeypatch)
    assert bl.scan_nu_star(4, 3, 12.0, nu_min=8.0) == []
    assert len({i // 3 for i in seen}) <= 3
    assert seen == []  # every sign is decided, and none changes


def test_crossing_refines_the_orders_that_bound_it(monkeypatch):
    seen = _refined_cells(monkeypatch)
    (sol,) = bl.scan_nu_star(5, 6, 7.0, nu_min=5.0)
    lo, hi = sol.bracket
    orders = {5.0 + 0.125 * (i // 6) for i in seen}
    assert {lo, hi} <= orders
    assert len(orders) < 17
    # only the two cells that bound the change, at the solution's zero index
    assert sorted(seen) == [6 * round((nu - 5.0) / 0.125) + sol.k - 1 for nu in (lo, hi)]


def _work(monkeypatch):
    """Count the calls that the grid scan makes of its `special` evaluator, and the zeros
    that stage two finishes."""
    work = {"scan_calls": 0, "finished": 0}
    grid_scan, finish = Z._grid_scan, Z._finish_zeros

    def scan(value, fids, K):
        def counted(nu, x):
            work["scan_calls"] += 1
            return value(nu, x)

        return grid_scan(counted, fids, K)

    def finished(value, derivative, orders, state, tolerance):
        work["finished"] += orders.size
        return finish(value, derivative, orders, state, tolerance)

    monkeypatch.setattr(Z, "_grid_scan", scan)
    monkeypatch.setattr(Z, "_finish_zeros", finished)
    return work


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_scan_calls_do_not_grow_with_the_orders(monkeypatch, alpha):
    # one window, at steps 0.5 and 0.125: the scan calls are those of the slowest order
    work = _work(monkeypatch)
    C._table(4, [8.0 + 0.5 * i for i in range(9)], 3, alpha)
    nine = work["scan_calls"]
    C._table(4, [8.0 + 0.125 * i for i in range(33)], 3, alpha)
    assert 0 < work["scan_calls"] - nine <= nine


def test_a_brent_step_finishes_one_zero(monkeypatch):
    work, steps = _work(monkeypatch), []
    distance = C._distance

    def step(*args):
        before = work["finished"]
        d = distance(*args)
        steps.append(work["finished"] - before)
        return d

    monkeypatch.setattr(C, "_distance", step)
    bl.scan_nu_star(5, 6, 7.0, nu_min=5.0)
    assert len(steps) > 3 and set(steps) == {1}
    assert work["finished"] == 2 + len(steps)  # the two cells of the sign change, one per step


def test_window_without_crossing_finishes_no_zero(monkeypatch):
    work = _work(monkeypatch)
    assert bl.scan_nu_star(4, 3, 12.0, nu_min=8.0) == []
    assert work["finished"] == 0


def _synthetic(base, g, exact, roots):
    """A `_table` of exact and interval cells: `refine` records its flat cells and sets cell
    c to `exact[c]` (a zero and its shifted sign), and `roots(i)` is `roots[i]`."""
    base, g, refined = Z.Intervals(np.array(base)), np.array(g), []

    def refine(cells):
        refined.extend(cells)
        for c in cells:
            base.box.reshape(-1, 2)[c], g.reshape(-1, 2)[c] = exact[c]

    return (base, g, refine, roots.__getitem__), refined


def test_exact_tie_refines_the_next_order(monkeypatch):
    # row 0 is exact and ties (g = 0), so its sign change is solved with row 1's exact
    # values although row 1's end signs decide g > 0; row 2 is never needed
    table, refined = _synthetic(
        [[[5.0, 5.0]], [[5.5, 5.6]], [[6.5, 6.6]]], [[[0.0, 0.0]], [[1.0, 1.0]], [[1.0, 1.0]]],
        {1: (5.52, 1.0), 2: (6.52, 1.0)}, [[5.0], [6.05], [7.05]],
    )
    solved = []
    monkeypatch.setattr(C, "_solve", lambda *a: solved.append(a) or SimpleNamespace(nu_star=a[3]))
    C._crossings(4, [1.0, 1.125, 1.25], table, 0.0)
    assert refined == [1]
    assert solved == [(4, 1, 1, 1.0, 1.125, 0.0, 6.05 - 5.52, 0.0)]


@pytest.mark.parametrize(
    "roots, count",
    [([[5.7, 9.0], [5.8, 9.0]], 0), ([[5.4, 5.6], [5.6, 5.4]], 2)],
    ids=["no-root", "two-roots"],
)
def test_sign_change_without_one_crossing_root_is_refused(roots, count):
    # g changes sign between two exact rows, but no root (or two) crosses the zero
    table, _ = _synthetic(
        [[[5.5, 5.5]], [[5.5, 5.5]]], [[[1.0, 1.0]], [[-1.0, -1.0]]], {}, roots
    )
    with pytest.raises(C.BracketError, match=f"where {count} roots cross it: it gives no common zero"):
        C._crossings(4, [1.0, 1.125], table, 0.0)


def _root_solves(monkeypatch):
    """Record the order of every `lommel.root_positions` call."""
    seen = []
    solve = L.root_positions
    monkeypatch.setattr(L, "root_positions", lambda n, nu, *a: seen.append(nu) or solve(n, nu, *a))
    return seen


def test_window_without_crossing_solves_no_roots(monkeypatch):
    seen = _root_solves(monkeypatch)
    assert bl.scan_nu_star(4, 3, 12.0, nu_min=8.0) == []
    assert seen == []


def test_crossing_solves_roots_at_its_two_orders_and_the_solve_steps(monkeypatch):
    seen, steps = _root_solves(monkeypatch), []
    distance = C._distance
    monkeypatch.setattr(C, "_distance", lambda *a: steps.append(a[3]) or distance(*a))
    (sol,) = bl.scan_nu_star(5, 6, 7.0, nu_min=5.0)
    assert seen == [nu + 1.0 for nu in [*sol.bracket, *steps]]  # R_{m-1,nu+1}, once each


@pytest.mark.parametrize("m, nu, alpha", [(5, 5.0, 0.0), (9, 2.0, 0.0), (7, 3.0, 1.3), (12, 0.5, 2.9)])
def test_table_values_lie_in_their_stage_one_intervals(m, nu, alpha):
    nus = [nu + 0.125 * i for i in range(9)]
    base, _, refine, _ = C._table(m, nus, 5, alpha)
    interval = base.box.copy()
    refine()
    assert (base.box[..., 0] == base.box[..., 1]).all()
    assert ((interval[..., 0] <= base.box[..., 0]) & (base.box[..., 0] <= interval[..., 1])).all()


@pytest.mark.parametrize("m, nu, alpha", [(5, 5.0, 0.0), (9, 2.0, 0.0), (7, 3.0, 1.3), (12, 0.5, 2.9)])
def test_decided_signs_are_the_signs_at_the_zeros(m, nu, alpha):
    nus = [nu + 0.125 * i for i in range(9)]
    _, g, refine, _ = C._table(m, nus, 5, alpha)
    decided = (g[..., 0] == g[..., 1]) & (g[..., 0] != 0.0)
    ends = g[..., 0].copy()
    refine()
    assert decided.mean() > 0.9
    assert (g[..., 0] == g[..., 1]).all()
    assert (g[..., 0][decided] == ends[decided]).all()


def test_rows_never_refined_are_validated_on_interval_midpoints(monkeypatch):
    seen = []
    validate = Z._validate_run
    monkeypatch.setattr(Z, "_validate_run", lambda f, xs: seen.append(xs) or validate(f, xs))
    base = C._table(4, [8.0 + 0.125 * i for i in range(33)], 3, 0.0)[0].box
    assert seen[0].shape == (33, 3)
    assert (seen[0] == base.mean(axis=-1)).all() and (base[..., 0] < base[..., 1]).all()


def test_root_deficit_is_found_before_any_zero_search(monkeypatch):
    # R_{60,nu+1} has 30 roots near nu = 50, all of them found, but g keeps its sign over
    # this window, so the scan answers from the zeros alone and solves no root
    seen = _root_solves(monkeypatch)
    assert bl.scan_nu_star(61, 2, 50.3, nu_min=50.0) == []
    assert seen == []


def _zero_cases():
    rng = random.Random(11)
    for kind in (Kind.BESSEL_J, Kind.BESSEL_J_PRIME, Kind.CYLINDER):
        for _ in range(6):
            alpha = rng.uniform(0.0, math.pi - 0.01) if kind is Kind.CYLINDER else None
            nus = [rng.uniform(0.0, 60.0) for _ in range(rng.randint(1, 5))]
            yield [FunctionId(kind, nu, alpha=alpha) for nu in nus], rng.randint(1, 80)


def test_intervals_finish_each_inexact_cell_once():
    # cells 0 and 3 are exact.  Finishing repeats cells and exact ones, and a view taken
    # before cell 1 was finished asks for it again; stage two sees each inexact cell once,
    # and the whole table is validated once every cell is exact
    calls, validated = [], []

    def stage_two(cells):
        calls.append(cells.tolist())
        return cells + 0.5

    box = np.array([[[0.0, 0.0], [1.0, 2.0]], [[2.0, 3.0], [3.0, 3.0]]])
    intervals = Z.Intervals(box, stage_two, lambda table: validated.append(table.tolist()))
    view = intervals.take(np.array([3, 2, 1]))
    assert intervals.finish([1, 0, 1, 3]).tolist() == [1.5, 0.0, 1.5, 3.0]
    assert view.finish([2, 1, 0, 1]).tolist() == [1.5, 2.5, 3.0, 2.5]
    assert calls == [[1], [2]] and validated == []
    assert intervals.finish().tolist() == [0.0, 1.5, 2.5, 3.0]
    assert calls == [[1], [2]] and validated == [[[0.0, 1.5], [2.5, 3.0]]]
    assert box.tolist() == [[[0.0, 0.0], [1.5, 1.5]], [[2.5, 2.5], [3.0, 3.0]]]  # in place
    assert view.box.tolist() == [[3.0, 3.0], [2.5, 2.5], [1.5, 1.5]]


@pytest.mark.parametrize("fids, K", list(_zero_cases()))
def test_zeros_lie_in_their_stage_one_intervals(fids, K):
    stages = Z._zero_stages(fids, K)
    lo, hi = stages.box[..., 0].copy(), stages.box[..., 1].copy()
    table = stages.finish().reshape(lo.shape)
    assert ((lo <= table) & (table <= hi)).all()
    assert (lo < hi).all()  # no row is exact before stage two
    assert [row.tobytes() for row in table] == [row.tobytes() for row in Z.zero_table(fids, K)]
