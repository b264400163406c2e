import math

import numpy as np
import pytest

import bessel_lommel as bl
from bessel_lommel.continuation import BracketError
from bessel_lommel.special import DomainError, jv
from bessel_lommel.zeros import ConvergenceError


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


def test_root_deficit_raises_on_every_path():
    # near nu = 50 the root solver finds fewer roots of R_{m-1,nu+1} than the
    # (m-1)//2 that theory gives (22 of 26 at m = 53, 20 of 30 at m = 61); scan,
    # bracket, trace and the distance all refuse instead of answering from a
    # short root list
    from bessel_lommel.continuation import _distance

    with pytest.raises(ConvergenceError, match="20 of the 30"):
        bl.scan_nu_star(61, 2, 50.3, nu_min=50.0)
    with pytest.raises(ConvergenceError, match="22 of the 26"):
        bl.find_in_bracket(53, 50.0, 50.05)
    with pytest.raises(ConvergenceError, match="22 of the 26"):
        bl.trace_trajectories(53, (50.0, 50.25), 0.125, k_max=2, l_max=26)
    with pytest.raises(ConvergenceError):
        _distance(53, 1, 1, 50.0, 0.0)
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


def test_solution_serialization():
    s = bl.solve_nu_star(3, 1, 2, 3.0, 5.0)
    d = s.as_dict()
    assert d["m"] == 3 and d["l"] == 1 and d["k"] == 2
    assert "irrational" in d["note"]
