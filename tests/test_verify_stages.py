"""Interlacing verdicts and common-zero queries decided from stage-one intervals: a query
finishes only the zeros that its intervals cannot order, that the common-zero screen
(`Pair.common_in`) cannot clear, or that its answer prints.

An answer must be bit for bit the one of finishing every zero, so each case below is
answered twice: as is, and with every stage-one interval widened to the whole line, so
that no comparison is decided and no base zero is cleared.  Answers are compared as
`float.hex`, and an error by its type and message.
"""

import dataclasses
import importlib
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import bessel_lommel as bl
from bessel_lommel.interlace import Family, Source

I = importlib.import_module("bessel_lommel.interlace")
Z = importlib.import_module("bessel_lommel.zeros")

NU_STAR_M5 = 5.619812295723  # J_nu and J_{nu+5} share a zero near x = 19.6


def _exact(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return value


def _answer(query):
    try:
        return {k: _exact(v) for k, v in query().as_dict().items()}
    except Exception as exc:  # the same error must come on both paths
        return f"{type(exc).__name__}: {exc}"


def _widened(monkeypatch):
    stages = I._zero_stages

    def unbounded(fids, K):
        intervals = stages(fids, K)
        box = intervals.box
        np.copyto(box, [-np.inf, np.inf], where=box[..., :1] < box[..., 1:])  # zeros not yet exact
        return intervals

    monkeypatch.setattr(I, "_zero_stages", unbounded)


def _cases():
    rng = random.Random(19)
    for family in Family:
        for m in range(3, 13):
            alpha = rng.uniform(0.0, math.pi) if family is Family.CYLINDER else 0.0
            yield family, m, rng.uniform(0.5, 20.0), rng.randint(20, 60), alpha
    for d in (0.0, -1e-6, -1e-8, 1e-8, 1e-6):  # a common zero, and orders just off it
        yield Family.BESSEL_J, 5, NU_STAR_M5 + d, 20, 0.0
    yield Family.BESSEL_J, 58, 47.18447763344619, 59, 0.0  # a false common zero, kept as is
    for alpha in (math.pi - 1e-9, 3.1):  # C_nu near -Y_nu
        yield Family.CYLINDER, 4, 2.5, 40, alpha
        yield Family.CYLINDER, 9, 0.3, 30, alpha
    for m, nu, K in ((5, 10.0, 120), (40, 30.0, 90), (3, 1.125, 81)):  # J lists that come exact
        yield Family.BESSEL_J, m, nu, K, 0.0


def _queries():
    for family, m, nu, K, alpha in _cases():
        yield lambda f=family, m=m, nu=nu, K=K, a=alpha: bl.verify_generalized_interlacing(f, m, nu, K, alpha=a)
        yield lambda f=family, m=m, nu=nu, K=K, a=alpha: bl.verify_plain_interlacing(f, m, nu, K, alpha=a)


def _finished(monkeypatch):
    """Count the stage work: the brackets of stage one and those it leaves at replay step 0, and
    the zeros that stage two finishes with the bisection steps it takes (48 - steps each)."""
    work = {"brackets": 0, "step_0": 0, "finished": 0, "bisections": 0}
    bracket, finish = Z._bracket_zeros, Z._finish_zeros

    def bracketed(*args):
        state = bracket(*args)
        work["brackets"] += state[4].size
        work["step_0"] += int((state[4] == 0).sum())
        return state

    def finished(value, derivative, orders, state, tolerance):
        work["finished"] += orders.size
        work["bisections"] += int((48 - state[4]).sum())
        return finish(value, derivative, orders, state, tolerance)

    monkeypatch.setattr(Z, "_bracket_zeros", bracketed)
    monkeypatch.setattr(Z, "_finish_zeros", finished)
    return work


def test_verdicts_match_full_refinement_bitwise(monkeypatch):
    queries, work = list(_queries()), _finished(monkeypatch)
    staged = [_answer(q) for q in queries]
    few = work["finished"]
    _widened(monkeypatch)
    full = [_answer(q) for q in queries]
    assert staged == full
    # the widened pass finished every zero; plain reports print most of theirs
    assert few < 0.75 * (work["finished"] - few)
    reports = [a for a in staged if isinstance(a, dict)]
    assert len(reports) == len(queries)
    assert sum(a["common_zeros"] != [] for a in reports) >= 2  # NU_STAR_M5 and 47.18...
    assert sum(a["violations"] != [] for a in reports) > 20  # printed triples were compared


def test_replay_leaves_few_brackets_to_full_bisection(monkeypatch):
    # the replay margin: a replay that stops far from the estimate leaves stage two many steps,
    # and one too close to it fails its sign certificate and starts over from the scan bracket
    work = _finished(monkeypatch)
    for query in _queries():
        _answer(query)
    assert work["brackets"] == 6314
    assert work["step_0"] <= 8  # the C cases near alpha = pi
    assert work["bisections"] <= 11 * work["finished"]


def test_bulk_verdict_finishes_less_than_its_heads(monkeypatch):
    # J_10 and J_15 at K = 120 scan heads of 14 and 19 zeros and take the rest exact
    query = lambda: bl.verify_generalized_interlacing(Family.BESSEL_J, 5, 10.0, 120)
    work = _finished(monkeypatch)
    staged, few = _answer(query), work["finished"]
    assert few < 14 + 19
    _widened(monkeypatch)
    assert staged == _answer(query)
    assert work["finished"] - few == 14 + 19  # the widened pass finished every head zero


def _hexed(value):
    if dataclasses.is_dataclass(value):
        return _hexed(dataclasses.astuple(value))
    if isinstance(value, (tuple, list)):
        return [_hexed(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def test_common_zero_queries_match_full_refinement_bitwise(monkeypatch):
    queries = []
    for family, m, nu, K, alpha in _cases():
        queries += [
            lambda f=family, m=m, nu=nu, K=K, a=alpha: bl.detect_common_zeros(f, m, nu, K, alpha=a),
            lambda f=family, m=m, nu=nu, K=K, a=alpha: bl.merged_sequence(f, m, nu, K, alpha=a),
            lambda f=family, m=m, nu=nu, K=K, a=alpha: bl.no_consecutive_common_zeros(m, nu, K, family=f, alpha=a),
        ]

    def answers():
        out = []
        for q in queries:
            try:
                out.append(_hexed(q()))
            except Exception as exc:  # the same error must come on both paths
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    staged = answers()
    _widened(monkeypatch)
    assert staged == answers()
    assert all(not isinstance(a, str) for a in staged)
    assert sum(bool(a[3]) for a in staged[::3]) >= 2  # NU_STAR_M5 and 47.18... hold common zeros


@pytest.mark.parametrize(
    "query, finished",
    [
        (lambda: bl.detect_common_zeros(Family.CYLINDER, 7, 3.3, 60, alpha=0.7), 0),
        (lambda: bl.no_consecutive_common_zeros(9, 12.5, 60), 0),
        (lambda: bl.merged_sequence(Family.DERIVATIVE, 6, 4.2, 60), 60),  # the merged list prints
        (lambda: bl.detect_common_zeros(Family.BESSEL_J, 5, NU_STAR_M5, 20), 1),
    ],
    ids=["detect-c", "no-consecutive-j", "merged-jp", "detect-common-zero"],
)
def test_common_zero_queries_finish_only_what_the_screen_keeps(monkeypatch, query, finished):
    work = _finished(monkeypatch)
    query()
    assert work["finished"] == finished


def _screened_pairs():
    rng = random.Random(23)
    for family in Family:
        for _ in range(10):
            alpha = rng.uniform(0.0, math.pi) if family is Family.CYLINDER else 0.0
            yield I.Pair(family, rng.randint(1, 14), rng.uniform(0.05, 30.0), alpha)
    yield I.Pair(Family.BESSEL_J, 5, NU_STAR_M5)


def test_the_screen_never_changes_a_common_zero_answer():
    # `common_in` clears intervals before `common` sees them; it must clear only zeros that
    # `common` rejects, whatever the tolerance, so both give one mask or one error
    def outcome(test):
        try:
            return test().tolist()
        except RuntimeError as exc:
            return str(exc)

    seen = set()
    for pair in _screened_pairs():
        for K in (10, 30, 60, 120):
            exact = Z.zero_table([pair.base], K)[0]
            for tol in (1e-8, 1e-3, 0.3):
                screened = outcome(lambda: pair.common_in(Z._zero_stages([pair.base], K), tol))
                assert screened == outcome(lambda: pair.common(exact, tol)), (pair, K, tol)
                seen.add(type(screened))
    assert seen == {list, str}  # masks, and refusals of a tolerance too loose


@pytest.mark.parametrize(
    "family, m, nu, alpha",
    [(Family.BESSEL_J, 7, 3.3, 0.0), (Family.CYLINDER, 4, 2.5, 0.7), (Family.DERIVATIVE, 6, 4.2, 0.0)],
)
def test_verdict_without_violation_finishes_few_zeros(monkeypatch, family, m, nu, alpha):
    work = _finished(monkeypatch)
    rep = bl.verify_generalized_interlacing(family, m, nu, 60, alpha=alpha)
    assert rep.ok and rep.checked > 50
    assert work["finished"] < 0.1 * 2 * 60


def test_common_zero_finishes_only_its_partner(monkeypatch):
    work = _finished(monkeypatch)
    rep = bl.verify_generalized_interlacing(Family.BESSEL_J, 5, NU_STAR_M5, 20)
    assert rep.ok and len(rep.common_zeros) == 1
    assert work["finished"] == 2  # the common base zero and its shifted partner


def test_a_root_inside_a_shifted_interval_finishes_that_zero():
    finished = []
    exact = [1.5, 4.25, 7.5]

    def finish(cells):
        finished.extend(cells.tolist())
        return np.array([exact[c] for c in cells])

    high = Z.Intervals(np.array([[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]]), finish)
    pair = SimpleNamespace(poly=SimpleNamespace(roots=lambda: np.array([3.0, 4.25])))
    merged, sources = I._merged(pair, high, [])
    assert finished == [1]  # only the interval that holds a root
    # the root equal to the shifted zero follows it, as in a stable sort by value
    assert merged.box.tolist() == [[1.0, 2.0], [3.0, 3.0], [4.25, 4.25], [4.25, 4.25], [7.0, 8.0]]
    H, R = Source.HIGHER_ORDER_ZERO, Source.LOMMEL_ROOT
    assert sources == [H, R, H, R, H]
    assert merged.finish(np.array([4])).tolist() == [7.5]  # merged row 4 is shifted zero 3
    assert finished == [1, 2]


def test_dj_dnu_finishes_one_zero_per_order(monkeypatch):
    work = _finished(monkeypatch)
    bl.dj_dnu(12.5, 9)
    assert work["finished"] == 3  # zero 9 at nu and nu +- 1e-4, not all 27


def test_cylinder_monotonicity_finishes_one_zero_per_order(monkeypatch):
    work = _finished(monkeypatch)
    assert bl.cylinder_zero_monotonicity(0.7, np.arange(1.0, 4.01, 0.5), 6)
    assert work["finished"] == 7
