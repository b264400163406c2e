import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bessel_lommel as bl
from bessel_lommel.lommel import (
    PolyKind,
    assoc_eval,
    assoc_prime,
    lommel_eval,
    lommel_prime,
    root_positions,
    slope_polynomial_coeffs,
    values_at_bessel_zero,
)
from bessel_lommel.special import DomainError
from bessel_lommel.zeros import ConvergenceError

from oracles import gamma_ratio_lommel, lommel_sign_changes

NU_GRID = (-0.5, 0.0, 1.125, 2.7, 5.619, 10.0)
X_GRID = np.arange(0.5, 50.0 + 0.25, 0.5)


def test_degenerate_members():
    for nu in (0.3, 1.125, 4.0):
        assert bl.lommel_eval(0, nu, 2.2) == 1.0
        assert bl.lommel_eval(-1, nu, 2.2) == 0.0
        assert bl.lommel_eval(1, nu, 2.2) == pytest.approx(2.0 * nu / 2.2, rel=1e-15)


def test_coefficients_match_gamma_ratio_oracle():
    for m in range(0, 9):
        for nu in (0.5, 1.125, 3.7):
            for x in (0.8, 3.0, 17.0):
                assert bl.lommel_eval(m, nu, x) == pytest.approx(
                    gamma_ratio_lommel(m, nu, x), rel=1e-12
                )


def test_negative_index_reflection():
    # R_{-m,nu} = -R_{m-2, nu-m+1}
    for m in (2, 3, 5):
        for nu, x in [(1.3, 2.0), (0.7, 5.5)]:
            assert bl.lommel_eval(-m, nu, x) == pytest.approx(
                -bl.lommel_eval(m - 2, nu - m + 1.0, x), rel=1e-14
            )


def test_coefficient_eval_agrees_with_recurrence():
    for nu in NU_GRID:
        r_prev = np.ones_like(X_GRID)
        r_cur = 2.0 * nu / X_GRID
        for m in range(1, 9):
            r_next = (2.0 * (nu + m) / X_GRID) * r_cur - r_prev
            direct = bl.lommel_eval(m + 1, nu, X_GRID)
            assert np.allclose(direct, r_next, rtol=1e-10, atol=1e-10)
            r_prev, r_cur = r_cur, r_next


def test_recurrence_residual_plain_and_associated():
    for nu in NU_GRID:
        for m in range(0, 9):
            lhs = bl.lommel_eval(m - 1, nu, X_GRID) + bl.lommel_eval(m + 1, nu, X_GRID)
            rhs = (2.0 * (nu + m) / X_GRID) * bl.lommel_eval(m, nu, X_GRID)
            scale = np.maximum(1.0, np.abs(rhs))
            assert np.all(np.abs(lhs - rhs) <= 1e-10 * scale)
            lhs_a = bl.assoc_eval(m - 1, nu, X_GRID) + bl.assoc_eval(m + 1, nu, X_GRID)
            rhs_a = (2.0 * (nu + m) / X_GRID) * bl.assoc_eval(m, nu, X_GRID)
            scale_a = np.maximum(1.0, np.abs(rhs_a))
            assert np.all(np.abs(lhs_a - rhs_a) <= 1e-10 * scale_a)


def test_associated_closed_forms():
    for nu, x in [(0.6, 1.1), (1.0, 2.0), (2.7, 6.0)]:
        assert bl.assoc_eval(0, nu, x) == 1.0
        assert bl.assoc_eval(1, nu, x) == pytest.approx(nu / x, rel=1e-15)
        assert bl.assoc_eval(2, nu, x) == pytest.approx(
            2.0 * nu * (nu + 1.0) / (x * x) - 1.0, rel=1e-14
        )
    assert bl.assoc_eval(2, 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_associated_sign_symmetry():
    # R*_{m,nu} = (-1)^m R*_{-m,-nu}
    assert bl.assoc_eval(3, 1.5, 2.0) == pytest.approx(-bl.assoc_eval(-3, -1.5, 2.0), rel=1e-13)


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=7),
    nu=st.floats(min_value=-3.0, max_value=6.0),
    x=st.floats(min_value=0.4, max_value=30.0),
)
def test_associated_sign_symmetry_property(m, nu, x):
    left = bl.assoc_eval(m, nu, x)
    right = (-1.0) ** m * bl.assoc_eval(-m, -nu, x)
    # both sides are half-differences of plain members; scale by those terms
    scale = max(1.0, abs(bl.lommel_eval(m, nu, x)), abs(bl.lommel_eval(m - 2, nu + 2.0, x)))
    assert abs(left - right) <= 1e-10 * scale


def test_roots_quadratic_closed_form():
    nu = 1.125
    zl = bl.lommel_roots(2, nu)
    assert len(zl) == 1
    assert zl.zeros[0] == pytest.approx(2.0 * math.sqrt((nu + 1.0) * (nu + 2.0)), rel=1e-13)
    assert zl.zeros[0] == pytest.approx(5.153882032022076, rel=1e-12)


def test_roots_empty_for_degree_one():
    assert len(bl.lommel_roots(1, 0.7)) == 0


def test_associated_roots_closed_form():
    for nu in (0.5, 1.0, 2.7):
        zl = bl.lommel_roots(2, nu, PolyKind.ASSOCIATED)
        assert len(zl) == 1
        assert zl.zeros[0] == pytest.approx(math.sqrt(2.0 * nu * (nu + 1.0)), rel=1e-13)


def test_root_count_and_ordering():
    for n in range(2, 9):
        for lam in (-0.5, 0.0, 1.125, 2.7, 5.0):
            roots = root_positions(n, lam + 1.0)
            assert len(roots) <= n // 2
            j1 = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, lam), 1).zeros[0]
            assert all(r > j1 for r in roots)
            assert all(b > a for a, b in zip(roots, roots[1:]))


def test_root_residuals_meet_contract():
    zl = bl.lommel_roots(6, 1.125)
    assert len(zl) == 3
    for r, res in zip(zl.zeros, zl.residuals):
        assert res <= zl.tolerance * max(1.0, abs(lommel_prime(6, 2.125, r)))


@pytest.mark.parametrize(
    "n, lam, kind, prime",
    [(6, 1.125, PolyKind.PLAIN, lommel_prime), (9, 3.5, PolyKind.PLAIN, lommel_prime),
     (8, 2.7, PolyKind.ASSOCIATED, assoc_prime)],
)
def test_root_tolerance_is_the_residual_reached(n, lam, kind, prime):
    zl = bl.lommel_roots(n, lam, kind)
    nu = lam + 1.0 if kind is PolyKind.PLAIN else lam
    reached = max(res / max(1.0, abs(prime(n, nu, r))) for r, res in zip(zl.zeros, zl.residuals))
    assert zl.tolerance == reached
    assert 0.0 < zl.tolerance < 1e-13


def test_root_tolerance_of_no_roots_is_zero():
    assert bl.lommel_roots(1, 0.7).tolerance == 0.0


def test_root_deficit_raises():
    # R_{52,51} has 26 positive roots, of which a search from companion-matrix
    # candidates confirmed 22; the Jacobi matrix gives all 26, each next to an
    # mpmath sign change.  The one refusal left is a root that is not finite: at
    # nu = 1.5e308 the matrix underflows
    for roots in (bl.lommel_roots(52, 50.0).zeros, bl.lommel_coefficients(52, 51.0).roots()):
        assert len(roots) == 26
        assert all(lommel_sign_changes(52, 51.0, list(roots), 3e-13))
    for kind in PolyKind:
        with pytest.raises(ConvergenceError, match="not all finite and positive"):
            bl.lommel_coefficients(2, 1.5e308, kind).roots()


def test_roots_require_positive_order():
    for kind in PolyKind:
        with pytest.raises(ValueError, match="nu > 0"):
            bl.lommel_coefficients(4, 0.0, kind).roots()


def test_root_ratio_monotone_in_order():
    for n, l in [(2, 1), (3, 1), (4, 1), (4, 2)]:
        ratios = []
        for nu in range(0, 51, 5):
            roots = root_positions(n, float(nu) + 1.0)
            ratios.append(roots[l - 1] / (nu + 1.0))
        assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_root_slopes_match_eta_limits():
    for n in (2, 3, 4):
        etas = bl.eta_limit(n).roots
        nu0, h = 1e4, 1.0
        up = root_positions(n, nu0 + h + 1.0)
        dn = root_positions(n, nu0 - h + 1.0)
        slopes = [(a - b) / (2.0 * h) for a, b in zip(up, dn)]
        assert len(slopes) == len(etas)
        for s, e in zip(slopes, etas):
            assert abs(s - e) < 1e-2


def test_consecutive_polynomials_share_no_roots():
    for m in range(3, 9):
        for nu in (-0.5, 0.0, 1.125, 2.7):
            hi = root_positions(m - 1, nu + 1.0)
            lo = root_positions(m - 2, nu + 1.0)
            for r in hi:
                assert abs(bl.lommel_eval(m - 2, nu + 1.0, r)) > 1e-6
            for r in lo:
                assert abs(bl.lommel_eval(m - 1, nu + 1.0, r)) > 1e-6


def test_wronskian_identity_residuals():
    assert bl.lommel_wronskian_identity(1, 0.7, 2.0) == (0.0, 0.0)
    for m in (2, 3, 5, 8):
        for nu, x in [(1.125, 3.0), (0.5, 1.2), (4.0, 20.0)]:
            plain, assoc = bl.lommel_wronskian_identity(m, nu, x)
            assert plain < 1e-9
            assert assoc < 1e-9


def test_associated_wronskian_base_case():
    for nu, x in [(0.8, 1.7), (2.0, 5.0)]:
        w = bl.assoc_eval(1, nu, x) * assoc_prime(0, nu, x) - assoc_prime(1, nu, x) * bl.assoc_eval(
            0, nu, x
        )
        assert w == pytest.approx(nu / (x * x), rel=1e-13)


def test_eta_limits_analytic():
    assert bl.eta_limit(2).roots == pytest.approx((2.0,), abs=1e-12)
    assert bl.eta_limit(3).roots == pytest.approx((math.sqrt(2.0),), abs=1e-12)
    assert bl.eta_limit(4).roots == pytest.approx(
        (math.sqrt(5.0) - 1.0, math.sqrt(5.0) + 1.0), abs=1e-12
    )


def test_eta_polynomial_residuals():
    for n in range(2, 9):
        coeffs = slope_polynomial_coeffs(n)
        poly = np.polynomial.Polynomial(coeffs)
        res = bl.eta_limit(n)
        assert all(r > 1.0 for r in res.roots)
        for eta in res.roots:
            assert abs(poly(eta * eta)) < 1e-12


def test_pochhammer_limits():
    assert bl.pochhammer_limit(0) == 1.0
    assert bl.pochhammer_limit(2) == pytest.approx(0.75, abs=1e-15)
    assert bl.pochhammer_limit(3) == pytest.approx(0.5, abs=1e-15)


def test_backward_recurrence_matches_direct_at_zero():
    nu = 1.0
    j = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu), 1).zeros[0]
    vals = values_at_bessel_zero(nu, j, 8)
    for k in range(8):
        assert vals[k] == pytest.approx(bl.lommel_eval(k, nu + 1.0, j), rel=1e-10, abs=1e-12)


def test_coefficient_dump_shape():
    c = bl.lommel_coefficients(5, 1.125)
    d = c.as_dict()
    assert d["m"] == 5 and d["kind"] == "plain"
    assert len(d["coeffs"]) == 3
    a = bl.lommel_coefficients(4, 0.7, PolyKind.ASSOCIATED)
    assert len(a.as_dict()["coeffs"]) == 3


EVALUATORS = (lommel_eval, lommel_prime, assoc_eval, assoc_prime)


@pytest.mark.parametrize("evaluate", EVALUATORS)
def test_array_evaluation_matches_scalars_bitwise(evaluate):
    # an array is evaluated element by element with the scalar kernel, so each
    # element has the bits of the scalar call (a numpy-array power would not)
    xs = np.linspace(0.5, 50, 100)
    for m in (-5, -2, -1, 0, 1, 2, 7, 20):
        for nu in (0.3, 2.7, 11.25):
            got = evaluate(m, nu, xs)
            assert got.shape == xs.shape
            want = [evaluate(m, nu, float(x)) for x in xs]
            assert [float(v).hex() for v in got] == [v.hex() for v in want], (m, nu)
    grid = xs.reshape(4, 25)
    assert evaluate(3, 1.5, grid).shape == (4, 25)


@pytest.mark.parametrize("evaluate", EVALUATORS)
def test_evaluators_reject_zero_abscissa(evaluate):
    for m in (-3, -1, 0, 2, 5):
        with pytest.raises(DomainError):
            evaluate(m, 1.5, 0.0)
        with pytest.raises(DomainError):
            evaluate(m, 1.5, np.array([1.0, 0.0, 2.0]))


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", list(PolyKind))
def test_coefficients_refuse_non_finite_order(nu, kind):
    # a NaN order used to give NaN coefficients, a NaN root and a NaN residual
    with pytest.raises(DomainError, match="finite"):
        bl.lommel_coefficients(3, nu, kind)
