"""Interlacing verdicts decided from stage-one intervals: a verification finishes only the
zeros that its intervals cannot order, that the common-zero screen cannot clear, or that
its report prints.

A report must be bit for bit the one of finishing every zero, so each case below is
answered twice: as is, and with every stage-one interval widened to the whole line, so
that no comparison is decided and no base zero is cleared.  Reports are compared as
`float.hex`, and an error by its type and message.
"""

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
    """Count the zeros that stage two finishes."""
    work = {"finished": 0}
    finish = Z._finish_zeros

    def finished(value, derivative, orders, state, tolerance):
        work["finished"] += orders.size
        return finish(value, derivative, orders, state, tolerance)

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


@pytest.mark.parametrize(
    "family, m, nu, alpha",
    [(Family.BESSEL_J, 7, 3.3, 0.0), (Family.CYLINDER, 4, 2.5, 0.7), (Family.DERIVATIVE, 6, 4.2, 0.0)],
)
def test_verdict_without_violation_finishes_few_zeros(monkeypatch, family, m, nu, alpha):
    work = _finished(monkeypatch)
    rep = bl.verify_generalized_interlacing(family, m, nu, 60, alpha=alpha)
    assert rep.ok and rep.checked > 50
    assert work["finished"] < 0.1 * 2 * 60


def test_common_zero_finishes_the_shifted_list(monkeypatch):
    work = _finished(monkeypatch)
    rep = bl.verify_generalized_interlacing(Family.BESSEL_J, 5, NU_STAR_M5, 20)
    assert rep.ok and len(rep.common_zeros) == 1
    assert 20 < work["finished"] < 2 * 20  # the shifted list and the common base zero


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
