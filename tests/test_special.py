import csv
import math
from importlib.resources import files

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bessel_lommel as bl
from bessel_lommel.special import DomainError, jj_scaled, jj_scaled_prime, jv, jvp, yv

from oracles import k0_quadrature, mp_besselj, series_besselj, stencil5_derivative

GRID_NU = (-0.5, 0.0, 1.125, 2.7, 5.619, 10.0)
GRID_X = np.arange(0.5, 50.0 + 0.25, 0.5)


def test_j_at_origin():
    assert bl.bessel_j(0.0, 0.0).value == 1.0
    assert bl.bessel_j(3.7, 0.0).value == 0.0


def test_j_half_integer_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x, so x = pi is a zero
    assert abs(bl.bessel_j(0.5, math.pi).value) < 1e-12
    for x in (0.7, 2.0, 11.0):
        expect = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert bl.bessel_j(0.5, x).value == pytest.approx(expect, rel=1e-12)


def test_j_vanishes_at_first_zero():
    # frozen via the series + bisection oracle
    assert abs(bl.bessel_j(0.0, 2.404825557695773).value) < 1e-10


def test_j_matches_series_oracle():
    for nu, x in [(0.0, 1.0), (1.125, 7.5), (2.7, 0.25), (-0.5, 3.0), (10.0, 12.0)]:
        assert bl.bessel_j(nu, x).value == pytest.approx(series_besselj(nu, x), rel=1e-12, abs=1e-15)


def test_j_negative_integer_reflection():
    x = 3.3
    r = bl.bessel_j(-3.0, x)
    assert r.value == pytest.approx(-bl.bessel_j(3.0, x).value, rel=1e-14)


def test_scaled_function_normalization():
    assert bl.bessel_j_scaled(3.7, 0.0).value == 1.0
    for x in (0.3, 1.0, 7.7):
        assert bl.bessel_j_scaled(0.0, x).value == pytest.approx(bl.bessel_j(0.0, x).value, rel=1e-13)
    # Gamma(2) (x/2)^{-1} J_1(x) at x = 2 is exactly J_1(2)
    assert bl.bessel_j_scaled(1.0, 2.0).value == pytest.approx(mp_besselj(1.0, 2.0), rel=1e-12)


def test_scaled_prime_matches_stencil():
    for nu, x in [(0.5, 2.0), (1.125, 5.0), (4.0, 1.5)]:
        fd = stencil5_derivative(lambda t: jj_scaled(nu, t), x, 1e-4)
        assert jj_scaled_prime(nu, x) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_y_half_integer_closed_form():
    # Y_{1/2}(x) = -sqrt(2/(pi x)) cos x, so x = pi/2 is a zero
    assert abs(bl.bessel_y(0.5, math.pi / 2.0).value) < 1e-12


def test_y_connection_formula():
    for nu, x in [(0.3, 2.0), (1.125, 6.0), (-0.4, 1.5)]:
        num = bl.bessel_j(nu, x).value * math.cos(nu * math.pi) - mp_besselj(-nu, x)
        expect = num / math.sin(nu * math.pi)
        assert bl.bessel_y(nu, x).value == pytest.approx(expect, rel=1e-10)


def test_jy_cross_product_wronskian():
    nu, x = 1.3, 5.0
    ypr = 0.5 * (yv(nu - 1.0, x) - yv(nu + 1.0, x))
    w = jv(nu, x) * ypr - jvp(nu, x) * yv(nu, x)
    assert w == pytest.approx(2.0 / (math.pi * x), rel=1e-10)


def test_jprime_at_origin_order_one():
    assert bl.bessel_j_prime(1.0, 0.0).value == pytest.approx(0.5, abs=1e-15)


def test_jprime_is_minus_j1_at_zero_of_j0():
    x = 2.404825557695773
    assert bl.bessel_j_prime(0.0, x).value == pytest.approx(-bl.bessel_j(1.0, x).value, rel=1e-13)


def test_jprime_vanishes_at_first_critical_point():
    # frozen via bisection on (J_0 - J_2)/2
    assert abs(bl.bessel_j_prime(1.0, 1.8411837813406593).value) < 1e-9


def test_cylinder_reductions():
    for nu, x in [(0.0, 1.0), (1.125, 4.0), (3.0, 9.5)]:
        assert bl.cylinder(0.0, nu, x).value == pytest.approx(bl.bessel_j(nu, x).value, abs=1e-13)
        assert bl.cylinder(math.pi / 2.0, nu, x).value == pytest.approx(
            -bl.bessel_y(nu, x).value, rel=1e-13
        )
    v = bl.cylinder(math.pi / 4.0, 1.0, 3.0).value
    expect = (bl.bessel_j(1.0, 3.0).value - bl.bessel_y(1.0, 3.0).value) / math.sqrt(2.0)
    assert v == pytest.approx(expect, rel=1e-13)


def test_cylinder_alpha_zero_equals_j_on_grid():
    for nu in GRID_NU:
        diff = np.abs(bl.special.cyl(0.0, nu, GRID_X) - jv(nu, GRID_X))
        assert diff.max() < 1e-13


def test_k0_values():
    assert bl.modified_k0(1e-3).value > bl.modified_k0(1e-2).value > 0.0
    # frozen via the cosh-integral quadrature oracle
    assert bl.modified_k0(1.0).value == pytest.approx(0.4210244382407083, rel=1e-9)
    assert bl.modified_k0(10.0).value < 2e-5
    assert bl.modified_k0(10.0).value == pytest.approx(1.7780062316167652e-05, rel=1e-9)


def test_k0_quadrature_oracle_agrees():
    for x in (0.5, 1.0, 4.0):
        assert bl.modified_k0(x).value == pytest.approx(k0_quadrature(x), rel=1e-9)


def test_three_term_recurrence_on_grid():
    for nu in GRID_NU:
        lhs = jv(nu - 1.0, GRID_X) + jv(nu + 1.0, GRID_X)
        rhs = (2.0 * nu / GRID_X) * jv(nu, GRID_X)
        bound = 1e-9 * np.maximum(1.0, np.abs(jv(nu, GRID_X)))
        assert np.all(np.abs(lhs - rhs) <= bound)


def test_jprime_five_point_stencil_on_grid():
    for nu in GRID_NU:
        for x in GRID_X[::7]:
            fd = stencil5_derivative(lambda t: jv(nu, t), float(x), 1e-3)
            assert abs(jvp(nu, float(x)) - fd) < 1e-7


def test_accuracy_contract_fixture():
    path = files("bessel_lommel").joinpath("data/accuracy_grid.csv")
    with path.open("r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 100
    for row in rows:
        kind, nu, x = row["kind"], float(row["nu"]), float(row["x"])
        ref = float(row["reference_value"])
        if kind == "j":
            res = bl.bessel_j(nu, x)
        elif kind == "y":
            res = bl.bessel_y(nu, x)
        else:
            res = bl.modified_k0(x)
        assert abs(res.value - ref) <= max(res.abs_error_estimate, 1e-300), (kind, nu, x)
        if abs(ref) > 1e-280:
            rel = abs(res.value - ref) / abs(ref)
            scale = abs(ref) / max(abs(ref), res.abs_error_estimate / 2e-13)
            # the relative-error contract applies away from cancellation points
            if scale > 1e-3:
                assert rel <= 1e-11, (kind, nu, x, rel)


def test_watson_integrand_shape():
    u = np.array([1e-4, 0.1, 1.0, 5.0])
    vals = bl.watson_integrand(u, 2.4, 1.5)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    # at nu = 0 the weight factor drops out
    assert bl.watson_integrand(1.0, 1.0, 0.0) == pytest.approx(
        bl.modified_k0(2.0).value / math.sqrt(2.0), rel=1e-12
    )


def test_domain_errors():
    with pytest.raises(DomainError):
        bl.bessel_j(0.5, -1.0)
    with pytest.raises(DomainError):
        bl.bessel_j(-1.5, 2.0)
    with pytest.raises(DomainError):
        bl.bessel_y(0.5, 0.0)
    with pytest.raises(DomainError):
        bl.modified_k0(0.0)
    with pytest.raises(DomainError):
        bl.cylinder(math.pi, 1.0, 2.0)


def test_function_id_invariants():
    with pytest.raises(DomainError):
        bl.FunctionId(bl.Kind.BESSEL_J, 1.0, alpha=0.3)
    with pytest.raises(DomainError):
        bl.FunctionId(bl.Kind.CYLINDER, 1.0)
    fid = bl.FunctionId(bl.Kind.CYLINDER, 1.0, alpha=0.5)
    assert "C[" in fid.label()


@pytest.mark.parametrize(
    "kind, order",
    [
        (bl.Kind.BESSEL_J, math.nan),
        (bl.Kind.BESSEL_J, math.inf),
        (bl.Kind.BESSEL_J_PRIME, -math.inf),
        (bl.Kind.BESSEL_J, np.array([1.0, math.nan, 2.0])),  # an order column of zero_table
    ],
)
def test_function_id_refuses_non_finite_orders(kind, order):
    # a NaN order passed every `<=` domain check and came back as NaN zeros
    with pytest.raises(DomainError, match="finite"):
        bl.FunctionId(kind, order)


def test_evaluate_dispatch():
    x = 4.2
    assert bl.evaluate(bl.FunctionId(bl.Kind.BESSEL_J, 1.125), x).value == pytest.approx(
        jv(1.125, x)
    )


def _within_estimate(res, exact) -> bool:
    return abs(mp.mpf(res.value) - exact) <= res.abs_error_estimate


def _mp_cylinder(alpha, nu, x, derivative=0):
    j = mp.besselj(nu, x, derivative=derivative)
    if alpha == 0.0:
        return j
    return mp.cos(alpha) * j - mp.sin(alpha) * mp.bessely(nu, x, derivative=derivative)


ORACLE_NU = (0.0, 0.5, 1.125, 2.7, 7.3, 19.5, 41.0, 59.0)
ORACLE_X = (0.01, 0.1, 0.9, 3.3, 11.7, 37.0, 100.0)
ORACLE_ALPHA = (0.0, 0.4, math.pi / 2.0, 2.6)


def test_error_estimates_cover_mpmath_up_to_order_59():
    misses = []
    for nu in ORACLE_NU:
        for x in ORACLE_X:
            cases = [
                (bl.bessel_j_prime(nu, x), mp.besselj(nu, x, derivative=1)),
                (bl.bessel_j_scaled(nu, x),
                 mp.gamma(nu + 1) * (mp.mpf(x) / 2) ** (-nu) * mp.besselj(nu, x)),
            ]
            for alpha in ORACLE_ALPHA:
                cases.append((bl.cylinder(alpha, nu, x), _mp_cylinder(alpha, nu, x)))
                cases.append((bl.cylinder_prime(alpha, nu, x), _mp_cylinder(alpha, nu, x, 1)))
            misses += [(nu, x, i) for i, (res, exact) in enumerate(cases)
                       if not _within_estimate(res, exact)]
    assert misses == []


def test_error_estimates_cover_mpmath_past_order_60():
    misses = []
    for nu in (60.5, 61.0, 75.25, 90.0, 111.0, 120.0):
        for x in (20.0, 60.0, 95.0, 130.0, 200.0):
            cases = [
                (bl.bessel_j(nu, x), mp.besselj(nu, x)),
                (bl.bessel_y(nu, x), mp.bessely(nu, x)),
                (bl.bessel_j_prime(nu, x), mp.besselj(nu, x, derivative=1)),
            ]
            misses += [(nu, x, i) for i, (res, exact) in enumerate(cases)
                       if not _within_estimate(res, exact)]
    assert misses == []


def test_evaluate_estimates_cover_mpmath_for_every_kind():
    nu, x, alpha = 2.7, 6.3, 1.1
    cases = [
        (bl.FunctionId(bl.Kind.BESSEL_J, nu), mp.besselj(nu, x)),
        (bl.FunctionId(bl.Kind.BESSEL_Y, nu), mp.bessely(nu, x)),
        (bl.FunctionId(bl.Kind.CYLINDER, nu, alpha=alpha), _mp_cylinder(alpha, nu, x)),
        (bl.FunctionId(bl.Kind.BESSEL_J_PRIME, nu), mp.besselj(nu, x, derivative=1)),
    ]
    for fid, exact in cases:
        assert _within_estimate(bl.evaluate(fid, x), exact), fid


def test_origin_is_a_domain_error_exactly_where_the_value_is_infinite():
    # J_nu(0) is infinite for -1 < nu < 0, and so is J'_nu(0) for 0 < nu < 1
    for nu in (-0.5, -0.999):
        with pytest.raises(DomainError):
            bl.bessel_j(nu, 0.0)
        with pytest.raises(DomainError):
            bl.cylinder(0.0, nu, 0.0)
        with pytest.raises(DomainError):
            bl.evaluate(bl.FunctionId(bl.Kind.BESSEL_J, nu), 0.0)
        with pytest.raises(DomainError):
            bl.bessel_j_prime(nu + 1.0, 0.0)
    with pytest.raises(DomainError):
        bl.cylinder(0.4, 1.0, 0.0)
    # J'_0 = -J_1 and J'_{-1} = -J'_1 are finite at the origin
    assert bl.bessel_j_prime(0.0, 0.0).value == 0.0
    assert bl.bessel_j_prime(-1.0, 0.0).value == -0.5


@settings(max_examples=150, deadline=None)
@given(
    nu=st.floats(min_value=-0.9, max_value=20.0),
    x=st.floats(min_value=0.3, max_value=60.0),
)
def test_recurrence_residual_property(nu, x):
    lhs = jv(nu - 1.0, x) + jv(nu + 1.0, x)
    rhs = (2.0 * nu / x) * jv(nu, x)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(jv(nu, x)))


def _bits(values):
    values = np.asarray(values)
    assert values.dtype == np.float64
    return values.view(np.int64)


def test_y_from_one_hankel_call_is_bitwise_yv():
    from scipy import special as sp

    from bessel_lommel.special import _y

    rng = np.random.default_rng(5)
    orders = np.concatenate(
        [np.arange(-5.0, 301.0), rng.uniform(-5.0, 300.0, 300), [0.0, -0.0, 1e-300, 1e-12, -1e-12]]
    )
    tiny = np.geomspace(1e-300, 1e-3, 60)
    x = np.concatenate(
        [[-1.0, 0.0], tiny, rng.uniform(1e-3, 400.0, 60), np.geomspace(1e4, 1e20, 40), [np.inf, np.nan]]
    )
    # the 2-D broadcast that a table of orders evaluates
    assert (_bits(_y(orders[:, None], x)) == _bits(sp.yv(orders[:, None], x))).all()
    for nu in orders[::7]:  # 1-D, and numpy and Python scalars
        assert (_bits(_y(nu, x)) == _bits(sp.yv(nu, x))).all()
        for point in [*x[::9], np.nan]:
            for args in [(nu, point), (float(nu), float(point))]:
                y = _y(*args)
                assert type(y) is np.float64 and _bits(y) == _bits(sp.yv(*args))
