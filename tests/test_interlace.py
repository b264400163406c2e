import importlib
import math
import random

import mpmath as mp
import numpy as np
import pytest
from oracles import newton_step_ratio

import bessel_lommel as bl
from bessel_lommel.interlace import Family, Source
from bessel_lommel.lommel import lommel_prime, root_positions
from bessel_lommel.special import DomainError, jv, jvp

I = importlib.import_module("bessel_lommel.interlace")

# crossing order for m = 5 inside (5.619, 5.62), frozen from the continuation solver
NU_STAR_M5 = 5.619812295723
# crossing order for m = 3, root 1 against zero 2, frozen from a bisection on
# 2 sqrt((nu+1)(nu+2)) - j_{nu,2}
NU_STAR_M3 = 4.152532565663


def test_common_zeros_empty_for_rational_order():
    cz = bl.detect_common_zeros(Family.BESSEL_J, 3, 0.5, 20)
    assert len(cz) == 0


def test_common_zeros_shift_one_always_empty():
    for nu in (-0.5, 0.9, 3.0):
        assert len(bl.detect_common_zeros(Family.BESSEL_J, 1, nu, 15)) == 0


def test_common_zero_at_crossing_order():
    cz = bl.detect_common_zeros(Family.BESSEL_J, 5, NU_STAR_M5, 20)
    assert len(cz) == 1
    x, res_lo, res_hi = cz.points[0]
    assert x == pytest.approx(26.294110115998, abs=1e-6)
    assert res_lo < 1e-8 and res_hi < 1e-8


def test_cardinality_bound():
    for m in (1, 2, 3, 4, 5, 6):
        for nu in (0.5, 1.125, 2.7):
            assert len(bl.detect_common_zeros(Family.BESSEL_J, m, nu, 20)) <= (m - 1) // 2


def test_merged_sequence_low_shifts_have_no_roots():
    for m in (1, 2):
        ms = bl.merged_sequence(Family.BESSEL_J, m, 1.3, 10)
        assert all(src is Source.HIGHER_ORDER_ZERO for _, src in ms.entries)
        high = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, 1.3 + m), 10).zeros
        assert ms.values() == pytest.approx(np.asarray(high), rel=1e-14)


def test_merged_sequence_shift_three():
    ms = bl.merged_sequence(Family.BESSEL_J, 3, 1.125, 5)
    values, sources = zip(*ms.entries)
    assert values[0] == pytest.approx(5.153882032022076, rel=1e-12)
    assert sources[0] is Source.LOMMEL_ROOT
    j1_high = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, 4.125), 1).zeros[0]
    assert values[1] == pytest.approx(j1_high, rel=1e-14)
    assert sources[1] is Source.HIGHER_ORDER_ZERO


def test_merged_sequence_common_zero_collapses():
    ms = bl.merged_sequence(Family.BESSEL_J, 5, NU_STAR_M5, 12)
    commons = [v for v, s in ms.entries if s is Source.COMMON_ZERO]
    assert len(commons) == 1
    vals = ms.values()
    assert np.all(np.diff(vals) > 0.0)


def test_classical_pattern_via_generalized_checker():
    rep = bl.verify_generalized_interlacing(Family.BESSEL_J, 1, 1.0, 20)
    assert rep.ok and rep.pattern == "classical"
    assert rep.first_violation is None


def test_generalized_holds_where_plain_fails():
    plain = bl.verify_plain_interlacing(Family.BESSEL_J, 3, 1.125, 15)
    assert not plain.ok and plain.first_violation is not None
    gen = bl.verify_generalized_interlacing(Family.BESSEL_J, 3, 1.125, 15)
    assert gen.ok and gen.pattern == "generalized"


def test_plain_interlacing_boundary_in_order_gap():
    for nu in (0.0, 0.5, 1.125, 2.7):
        for m in (1, 2):
            assert bl.verify_plain_interlacing(Family.BESSEL_J, m, nu, 15).ok
        rep3 = bl.verify_plain_interlacing(Family.BESSEL_J, 3, nu, 15)
        assert not rep3.ok
        assert bl.verify_generalized_interlacing(Family.BESSEL_J, 3, nu, 15).ok


def test_generalized_at_crossing_order():
    rep = bl.verify_generalized_interlacing(Family.BESSEL_J, 5, NU_STAR_M5, 20)
    assert rep.ok
    assert len(rep.skipped_base_zeros) == 1
    assert rep.skipped_base_zeros[0] == pytest.approx(26.294110115998, abs=1e-6)


def test_alpha_only_for_cylinder_family():
    # the angle is read by family c only; elsewhere a nonzero one is refused
    for family in (Family.BESSEL_J, Family.DERIVATIVE):
        with pytest.raises(DomainError):
            bl.verify_generalized_interlacing(family, 3, 1.125, 6, alpha=0.3)
    assert bl.verify_generalized_interlacing(Family.DERIVATIVE, 3, 1.125, 6, alpha=0.0).ok


def test_report_requires_enough_zeros():
    with pytest.raises(DomainError):
        bl.verify_generalized_interlacing(Family.BESSEL_J, 3, 1.0, 2)


def test_generalized_verification_computes_each_list_once(monkeypatch):
    # base zeros and shifted zeros, both of J, take one stage-one pass together, the
    # polynomial roots are solved once, and detecting common zeros reuses the base zeros
    import bessel_lommel.interlace as interlace_mod
    import bessel_lommel.lommel as lommel_mod

    calls = {"stage_one": 0, "roots": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(interlace_mod, "_zero_stages", counted("stage_one", interlace_mod._zero_stages))
    monkeypatch.setattr(lommel_mod, "root_positions", counted("roots", lommel_mod.root_positions))
    rep = bl.verify_generalized_interlacing(Family.BESSEL_J, 5, NU_STAR_M5, 20)
    assert rep.ok and len(rep.common_zeros) == 1
    assert calls == {"stage_one": 1, "roots": 1}


@pytest.mark.parametrize("K", [20, 40])
def test_generalized_verification_builds_coefficients_at_most_twice(monkeypatch, K):
    # the pair's polynomial is built once and serves every base zero of the
    # common-zero test; the root solver builds its own coefficients once
    import bessel_lommel.lommel as lommel_mod

    plain_coeffs = lommel_mod._plain_coeffs
    calls = []

    def counted(m, nu):
        calls.append((m, nu))
        return plain_coeffs(m, nu)

    monkeypatch.setattr(lommel_mod, "_plain_coeffs", counted)
    rep = bl.verify_generalized_interlacing(Family.BESSEL_J, 5, NU_STAR_M5, K)
    assert rep.ok and len(rep.common_zeros) == 1
    assert len(calls) <= 2


def test_no_consecutive_common_zeros():
    assert bl.no_consecutive_common_zeros(4, 0.25, 20)
    assert bl.no_consecutive_common_zeros(5, NU_STAR_M5, 20)
    assert bl.no_consecutive_common_zeros(3, NU_STAR_M3, 20)


def test_common_zero_sandwich_at_crossing():
    assert bl.common_zero_sandwich(Family.BESSEL_J, 5, NU_STAR_M5, 26.294110115998)


@pytest.mark.parametrize("K", [0, 5, 6])
def test_sandwich_with_too_few_zeros_is_a_domain_error(K):
    # zeta is base zero 6; at K = 5 the base zero nearest it is zero 5, which failed the
    # common-zero test first, so a true common zero was refused as "not a common zero"
    with pytest.raises(DomainError, match="K too small"):
        bl.common_zero_sandwich(Family.BESSEL_J, 5, NU_STAR_M5, 26.294110115997597, K=K)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8, math.inf])
@pytest.mark.parametrize(
    "query",
    [
        lambda tol: bl.verify_generalized_interlacing(Family.BESSEL_J, 5, 5.619812295723271, 10, tol),
        lambda tol: bl.detect_common_zeros(Family.BESSEL_J, 5, 5.619812295723271, 10, tol),
        lambda tol: bl.no_consecutive_common_zeros(5, 5.619812295723271, 10, tol),
    ],
    ids=["verify", "detect", "no-consecutive"],
)
def test_common_zero_tolerance_must_be_finite_and_positive(query, tol):
    # NaN, 0 and -1e-8 lost the common zero at the README crossing (2 violations), inf
    # took every base zero for one ("too loose")
    with pytest.raises(DomainError, match="0 < tol < inf"):
        query(tol)


# orders within about 1e-6 of NU_STAR_M5, where a root of R_{4,nu+1} and a zero
# of J_{nu+5} lie so close to a zero of J_nu that a second common-zero rule
# (a relative gap in the merge) disagreed with the base list's
NEAR_NU_STAR_M5 = (-1e-6, -3e-7, -1e-7, 1e-7, 3e-7, 1e-6)


@pytest.mark.parametrize("d", NEAR_NU_STAR_M5)
def test_generalized_holds_near_crossing_order(d):
    rep = bl.verify_generalized_interlacing(Family.BESSEL_J, 5, NU_STAR_M5 + d, 20)
    assert rep.ok and rep.violations == ()


@pytest.mark.parametrize("d", NEAR_NU_STAR_M5)
def test_sandwich_refuses_a_point_that_is_no_common_zero(d):
    with pytest.raises(ValueError, match="not a common zero"):
        bl.common_zero_sandwich(Family.BESSEL_J, 5, NU_STAR_M5 + d, 26.294110115998)


@pytest.mark.parametrize("d", (-3e-6, -1e-8, 1e-8, 3e-6) + NEAR_NU_STAR_M5)
def test_merged_common_zeros_match_detected_ones(d):
    nu = NU_STAR_M5 + d
    ms = bl.merged_sequence(Family.BESSEL_J, 5, nu, 20)
    tagged = sum(src is Source.COMMON_ZERO for _, src in ms.entries)
    assert tagged == len(bl.detect_common_zeros(Family.BESSEL_J, 5, nu, 20))


def _oracle_common(pair, xs, tol):
    """The 50-digit decision at the float zeros xs: True, False, or None within 1e-6 relative
    of its threshold.  A J or J' zero at or below nu + m is none, since every zero of J_mu lies
    above mu; any other is common where the Newton step of the shifted function is below
    tol min(1, x)."""
    out = []
    for x in xs:
        margin = math.inf
        if pair.family is not Family.CYLINDER:
            margin = (mp.mpf(x) - (mp.mpf(pair.nu) + pair.m)) / (mp.mpf(pair.nu) + pair.m)
        if abs(margin) < 1e-6:
            out.append(None)
        elif margin < 0:
            out.append(False)
        else:
            ratio = newton_step_ratio(pair.family.value, mp.mpf(pair.nu) + pair.m, pair.alpha, x, tol)
            out.append(None if abs(ratio - 1) < 1e-6 else bool(ratio < 1))
    return out


def test_common_matches_an_mpmath_decision():
    rng = random.Random(5)
    pairs = [I.Pair(Family.BESSEL_J, 5, 5.619812295723)]  # a common zero near x = 19.6
    for family in Family:
        for _ in range(4):
            alpha = rng.uniform(0.0, 3.0) if family is Family.CYLINDER else 0.0
            pairs.append(I.Pair(family, rng.randint(1, 12), rng.uniform(0.5, 20.0), alpha))
    refused = 0
    for pair in pairs:
        xs = bl.zeros(pair.base, 30).zeros
        for tol in (1e-8, 1e-3, 0.3):
            want = _oracle_common(pair, xs, tol)
            sure = np.array([w is not None for w in want])
            fewest, most = want.count(True), len(want) - want.count(False)  # hits, as None falls
            if fewest > pair.max_common:
                refused += 1
                with pytest.raises(RuntimeError, match="the tolerance is too loose"):
                    pair.common(xs, tol)
            elif most <= pair.max_common:
                assert pair.common(xs, tol)[sure].tolist() == [w for w in want if w is not None], (pair, tol)
    assert refused > 0
    assert pairs[0].common(bl.zeros(pairs[0].base, 30).zeros, 1e-8).any()  # the README crossing


@pytest.mark.parametrize(
    "family, m, nu, K, alpha",
    [
        (Family.DERIVATIVE, 16, 6.884285355813399, 45, 0.0),
        (Family.BESSEL_J, 41, 37.83519152288572, 44, 0.0),
        (Family.CYLINDER, 5, 0.05521188020766843, 32, 3.123333086065461),  # first zero at 6.7e-10
    ],
    ids=["jp-16", "j-41", "c-5"],
)
def test_verdict_takes_no_false_common_zero(family, m, nu, K, alpha):
    # the absolute test took a base zero where J_{nu+m} (or x itself) was merely tiny for a
    # common zero, and every later triple then read as a violation
    rep = bl.verify_generalized_interlacing(family, m, nu, K, alpha=alpha)
    assert rep.ok and rep.common_zeros == ()


def test_large_gap_verdict_takes_no_common_zero_below_the_order():
    # the shifted function J_{105.18} has no zero below 105.18; base zero 54.18 was taken for
    # one and gave 57 violations.  What remains are ties of a root and a base zero.
    rep = bl.verify_generalized_interlacing(Family.BESSEL_J, 58, 47.18447763344619, 59)
    assert rep.common_zeros == ()
    for _, low, mid, high in rep.violations:
        assert min(abs(mid - low) / low, abs(high - mid) / mid) < 1e-15


def test_detect_takes_no_common_zero_below_the_order():
    # base zero 12.78 of J'_nu lies below nu + m = 22.96, where J_{nu+m} has no zero
    assert len(bl.detect_common_zeros(Family.DERIVATIVE, 12, 10.959452931977372, 57, tol=1e-3)) == 0


def test_common_zero_at_a_large_order_is_taken():
    # R_{199,1001}'s power-basis coefficients overflow; the test reads J_{nu+m} alone
    assert I.Pair(Family.BESSEL_J, 200, 1000.0093606470992).common([3741.502874070015]).tolist() == [True]


def test_common_zero_decisions_build_no_polynomial(monkeypatch):
    def refused(*args):
        raise AssertionError("a common-zero decision built a Lommel polynomial")

    monkeypatch.setattr(I._lommel, "lommel_coefficients", refused)
    assert len(bl.detect_common_zeros(Family.BESSEL_J, 5, NU_STAR_M5, 20)) == 1
    assert bl.no_consecutive_common_zeros(5, NU_STAR_M5, 20, family=Family.DERIVATIVE)


def test_derivative_family_breakdown_at_shift_two():
    # the unique positive root of the degree-2 associated polynomial splits a
    # pair of consecutive J' zeros that plain interlacing cannot accommodate
    for nu in (0.5, 1.0, 2.7):
        rho_star = math.sqrt(2.0 * nu * (nu + 1.0))
        plain = bl.verify_plain_interlacing(Family.DERIVATIVE, 2, nu, 10)
        assert not plain.ok
        gen = bl.verify_generalized_interlacing(Family.DERIVATIVE, 2, nu, 10)
        assert gen.ok
        crit = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J_PRIME, nu), 10).as_array()
        high = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu + 2.0), 10).as_array()
        s = int(np.searchsorted(crit, rho_star))
        assert 1 <= s < len(crit)
        below, above = crit[s - 1], crit[s]
        assert below < rho_star < above
        k = int(np.searchsorted(high, below))
        lo_high = 0.0 if k == 0 else high[k - 1]
        assert lo_high < below and above < high[k]


def test_derivative_family_plain_interlacing_low_shifts():
    for m in (0, 1):
        for nu in (0.5, 1.0, 2.7):
            rep = bl.verify_plain_interlacing(Family.DERIVATIVE, m, nu, 15)
            assert rep.ok


def test_derivative_family_generalized_shifts():
    for m in (2, 3, 4, 5):
        for nu in (0.5, 1.0, 2.7):
            assert bl.verify_generalized_interlacing(Family.DERIVATIVE, m, nu, 12).ok


def test_merged_entry_functions_have_simple_zeros():
    nu, m = 1.125, 4
    high = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu + m), 15).zeros
    for z in high:
        assert abs(jvp(nu + m, z)) > 1e-6
    for r in root_positions(m - 1, nu + 1.0):
        assert abs(lommel_prime(m - 1, nu + 1.0, r)) > 1e-6


# --- Wronskian evaluations -----------------------------------------------------


def test_wronskian_positive_away_from_common_zeros():
    s = bl.wronskian_series(3, 0.5, 4.0, 1500)
    assert s.direct > 0.0 and s.series > 0.0


def test_wronskian_direct_series_agreement():
    for m, nu, x in [(1, -0.5, 2.0), (2, 0.0, 1.0), (3, 0.5, 4.0), (5, 1.125, 7.3), (4, 2.0, 1.5)]:
        s = bl.wronskian_series(m, nu, x, 3000)
        assert abs(s.direct - s.series) <= s.tail_bound + 1e-9 * max(1.0, abs(s.direct))


def test_wronskian_shift_one_reduction():
    # with a constant compensating polynomial the formula collapses to
    # W[J_nu, J_{nu+1}] = J_{nu+1}^2 [2(nu+1)/x^2 + 2 sum_k ...]
    nu, x = 0.7, 3.0
    s = bl.wronskian_series(1, nu, x, 3000)
    zs = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu + 1.0), 3000).as_array()
    tail_sum = float(np.sum((x * x + zs * zs) / (x * x - zs * zs) ** 2))
    expect = jv(nu + 1.0, x) ** 2 * (2.0 * (nu + 1.0) / (x * x) + 2.0 * tail_sum)
    assert s.series == pytest.approx(expect, rel=1e-12)
    direct = jv(nu, x) * jvp(nu + 1.0, x) - jvp(nu, x) * jv(nu + 1.0, x)
    assert s.direct == pytest.approx(direct, rel=1e-12)


def test_wronskian_half_order_closed_form():
    # W[J_{-1/2}, J_{1/2}](x) = 2/(pi x)
    s = bl.wronskian_series(1, -0.5, 2.0, 2000)
    assert s.direct == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert abs(s.direct - s.series) <= s.tail_bound + 1e-9


def test_derivative_wronskian_shift_zero_reduction():
    nu, x = 1.0, 2.0
    s = bl.derivative_wronskian_series(0, nu, x, 3000)
    zs = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu), 3000).as_array()
    tail_sum = float(np.sum((x * x + zs * zs) / (x * x - zs * zs) ** 2))
    expect = jv(nu, x) ** 2 * (nu / (x * x) + 2.0 * tail_sum)
    assert s.series == pytest.approx(expect, rel=1e-12)
    assert abs(s.direct - s.series) <= s.tail_bound + 1e-9 * max(1.0, abs(s.direct))


def test_derivative_wronskian_positive_at_order_zero():
    s = bl.derivative_wronskian_series(2, 0.0, 1.0, 1500)
    assert s.direct > 0.0 and s.series > 0.0


def test_derivative_wronskian_shift_one():
    s = bl.derivative_wronskian_series(1, 2.0, 5.0, 2000)
    assert abs(s.direct - s.series) <= s.tail_bound + 1e-9 * max(1.0, abs(s.direct))


def test_derivative_wronskian_domain():
    with pytest.raises(DomainError):
        bl.derivative_wronskian_series(1, 0.0, 1.0, 500)


@pytest.mark.parametrize("N", [0, -3])
def test_wronskian_series_reject_empty_truncation(N):
    with pytest.raises(DomainError, match="N >= 1"):
        bl.wronskian_series(3, 0.5, 4.0, N)
    with pytest.raises(DomainError, match="N >= 1"):
        bl.derivative_wronskian_series(2, 1.0, 3.0, N)
    with pytest.raises(DomainError, match="N >= 1"):
        bl.partial_fraction_check(1.0, 4.0, N)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "check",
    [
        lambda x: bl.wronskian_series(3, 0.5, x, 200),
        lambda x: bl.derivative_wronskian_series(2, 1.0, x, 200),
        lambda x: bl.partial_fraction_check(1.0, x, 50),
        lambda x: bl.lommel_wronskian_identity(3, 0.5, x),
    ],
    ids=["wronskian", "derivative-wronskian", "partial-fraction", "lommel-identity"],
)
def test_series_checks_reject_non_finite_x(check, x):
    # NaN failed no x <= 0 test: the partial fractions gave a NaN residual
    with pytest.raises(DomainError, match="0 < x < inf"):
        check(x)


# --- partial fractions ----------------------------------------------------------


def test_partial_fraction_residual():
    res = bl.partial_fraction_check(0.0, 1.0, 200)
    assert res.residual < 1e-6


def test_partial_fraction_small_argument():
    res = bl.partial_fraction_check(1.5, 1e-3, 150)
    assert res.residual < 1e-8


def test_partial_fraction_term_identity():
    res = bl.partial_fraction_check(1.0, 2.0, 150)
    assert res.term_identity_error < 1e-9


# --- cylinder structure ----------------------------------------------------------


def test_cylinder_generalized_interlacing_sample():
    for alpha in (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0):
        rep = bl.verify_generalized_interlacing(Family.CYLINDER, 3, 1.125, 12, alpha=alpha)
        assert rep.ok


def test_cylinder_prefix_structure():
    for alpha in (0.0, math.pi / 4.0, 3.0 * math.pi / 4.0):
        for m in (3, 4, 5):
            rep = bl.cylinder_prefix_alternation(alpha, 1.125, m)
            assert rep.count_ok and rep.alternation_ok and rep.sign_claims_ok
            assert rep.n_poly == rep.n_base - 1


def test_cylinder_wronskian_positive_past_first_zero():
    for alpha in (0.0, math.pi / 2.0):
        for m in (2, 4):
            assert bl.cylinder_wronskian_positivity(alpha, 1.125, m)


def test_cylinder_domain():
    # cylinder orders must be positive and the order gap at least 1, whichever
    # operation builds the base/shifted/polynomial triple
    with pytest.raises(DomainError):
        bl.verify_generalized_interlacing(Family.CYLINDER, 3, -0.5, 10, alpha=0.3)
    with pytest.raises(DomainError):
        bl.find_in_bracket(4, -0.5, -0.2, alpha=0.3)
    with pytest.raises(DomainError):
        bl.common_zero_sandwich(Family.CYLINDER, 3, -0.5, 3.0, alpha=0.3)
    with pytest.raises(DomainError):
        bl.cylinder_prefix_alternation(0.3, 1.0, 0)
