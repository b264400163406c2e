"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here and matches the library defaults.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import bessel_lommel as bl
from bessel_lommel.cli import main as cli_main
from bessel_lommel.interlace import Family
from bessel_lommel.lommel import root_positions
from bessel_lommel.special import jv

NU_GRID = (-0.5, 0.0, 1.125, 2.7, 5.0)


def _report(line: str) -> None:
    print(f"PASS: {line}")


def test_01_classical_interlacing_low_shifts():
    margin = math.inf
    for nu in NU_GRID:
        base = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu), 20).as_array()
        for m in (1, 2):
            up = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu + m), 20).as_array()
            gaps = np.concatenate([up[:-1] - base[:-1], base[1:] - up[:-1]])
            assert np.all(gaps > 1e-8), (nu, m)
            margin = min(margin, float(gaps.min()))
    _report(f"classical interlacing for shifts 1 and 2, 20 zeros, min gap {margin:.3e}")


def test_02_shift_three_breakdown_and_generalized_rescue():
    for nu in NU_GRID:
        plain = bl.verify_plain_interlacing(Family.BESSEL_J, 3, nu, 15)
        assert not plain.ok and plain.first_violation is not None, nu
        gen = bl.verify_generalized_interlacing(Family.BESSEL_J, 3, nu, 15)
        assert gen.ok, nu
    _report("shift-3 plain interlacing fails on every grid order while the "
            "generalized pattern passes")


def test_03_quadratic_root_between_consecutive_base_zeros():
    nu, m = 1.125, 3
    rho = 2.0 * math.sqrt((nu + 1.0) * (nu + 2.0))
    assert rho == pytest.approx(5.153882032022076, abs=1e-8)
    base = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu), 5).as_array()
    k = int(np.searchsorted(base, rho))
    assert 1 <= k < len(base)
    assert base[k - 1] + 1e-8 < rho < base[k] - 1e-8
    rep = bl.verify_generalized_interlacing(Family.BESSEL_J, m, nu, 16)
    assert rep.ok and rep.checked >= 15
    _report(f"root {rho:.4f} sits strictly inside a base-zero gap and 15 merged "
            "entries alternate")


def test_04_shared_zero_order_near_5p62(tmp_path):
    out = tmp_path / "sol.json"
    code = cli_main(["common-zero", "--m", "5", "--bracket", "5.619", "5.62",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    sol = doc["solutions"][0]
    nu_star, x_star = sol["nu_star"], sol["x_star"]
    assert 5.619 < nu_star < 5.62
    assert sol["residual_base"] < 1e-8 and sol["residual_shifted"] < 1e-8
    rep_out = tmp_path / "interlace.json"
    code = cli_main(["interlace", "--family", "j", "--m", "5", "--nu", repr(nu_star),
                     "--k", "20", "--out", str(rep_out)])
    assert code == 0
    rep = json.loads(rep_out.read_text())
    assert rep["ok"] is True and rep["pattern"] == "generalized"
    assert len(rep["common_zeros"]) == 1
    assert bl.common_zero_sandwich(Family.BESSEL_J, 5, nu_star, x_star)
    _report(f"order {nu_star:.9f} in (5.619, 5.62) carries exactly one shared "
            "zero, the local sandwich, and a passing generalized pattern")


def test_05_wronskian_direct_vs_series_random_samples():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 6))
        nu = float(rng.uniform(-0.9, 6.0))
        x = float(rng.uniform(0.5, 20.0))
        s = bl.wronskian_series(m, nu, x, 5000)
        allowance = s.tail_bound + 1e-9 * max(1.0, abs(s.direct))
        gap = abs(s.direct - s.series)
        assert gap <= allowance, (m, nu, x, gap, allowance)
        worst = max(worst, gap / allowance)
    _report(f"50 random Wronskian samples at N=5000 agree; worst gap/allowance "
            f"{worst:.3f}")


def test_06_order_derivative_triple_agreement():
    worst = 0.0
    for nu in (0.5, 1.0, 2.7, 5.0):
        for k in (1, 2, 3):
            od = bl.dj_dnu(nu, k)
            assert min(od.value_fd, od.value_series, od.value_watson) > 0.0
            assert od.spread <= 1e-4, (nu, k, od.spread)
            worst = max(worst, od.spread)
    _report(f"dj/dnu by finite differences, polynomial series and K0 integral "
            f"agree pairwise; worst spread {worst:.2e}")


def test_07_slope_limits_and_large_order_slopes():
    assert bl.eta_limit(2).roots == pytest.approx((2.0,), abs=1e-12)
    assert bl.eta_limit(3).roots == pytest.approx((math.sqrt(2.0),), abs=1e-12)
    assert bl.eta_limit(4).roots == pytest.approx(
        (math.sqrt(5.0) - 1.0, math.sqrt(5.0) + 1.0), abs=1e-12
    )
    for n in (2, 3, 4):
        etas = bl.eta_limit(n).roots
        up = root_positions(n, 1e4 + 1.0 + 1.0)
        dn = root_positions(n, 1e4 - 1.0 + 1.0)
        slopes = [(a - b) / 2.0 for a, b in zip(up, dn)]
        for slope, eta in zip(slopes, etas):
            assert abs(slope - eta) < 1e-2, (n, slope, eta)
    _report("slope-limit roots match the analytic values and the finite-difference "
            "slopes at order 1e4")


def test_08_rational_orders_have_no_common_zeros():
    grid = sorted({Fraction(p, q) for q in range(1, 9) for p in range(-q + 1, 4 * q + 1)})
    checked = 0
    for frac in grid:
        nu = float(frac)
        for m in range(1, 7):
            common = bl.detect_common_zeros(Family.BESSEL_J, m, nu, 20)
            assert len(common) == 0, (frac, m)
            assert len(common) <= (m - 1) // 2
            checked += 1
    _report(f"no common zeros at any of {checked} rational-order cases "
            "(denominators up to 8, shifts up to 6, 20 zeros)")


def test_09_cylinder_generalized_interlacing_and_prefix_structure():
    alphas = (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0)
    for alpha in alphas:
        for nu in (0.5, 1.125, 3.0):
            for m in (1, 2, 3, 4, 5):
                rep = bl.verify_generalized_interlacing(
                    Family.CYLINDER, m, nu, 15, alpha=alpha
                )
                assert rep.ok, (alpha, nu, m)
                prefix = bl.cylinder_prefix_alternation(alpha, nu, m)
                assert prefix.count_ok, (alpha, nu, m)
                assert prefix.alternation_ok and prefix.sign_claims_ok, (alpha, nu, m)
    _report("cylinder generalized interlacing, the N-1 prefix alternation and "
            "both sign claims hold on the full angle/order/shift grid")


def test_10_derivative_family_patterns():
    for m in (0, 1):
        for nu in (0.5, 1.0, 2.7):
            assert bl.verify_plain_interlacing(Family.DERIVATIVE, m, nu, 15).ok, (m, nu)
    for nu in (0.5, 1.0, 2.7):
        rho_star = math.sqrt(2.0 * nu * (nu + 1.0))
        plain = bl.verify_plain_interlacing(Family.DERIVATIVE, 2, nu, 12)
        assert not plain.ok, nu
        crit = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J_PRIME, nu), 12).as_array()
        high = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J, nu + 2.0), 12).as_array()
        s = int(np.searchsorted(crit, rho_star))
        assert 1 <= s < len(crit)
        assert crit[s - 1] < rho_star < crit[s]
        k = int(np.searchsorted(high, crit[s - 1]))
        lo_high = 0.0 if k == 0 else high[k - 1]
        assert lo_high < crit[s - 1] and crit[s] < high[k]
    for m in (2, 3, 4, 5):
        for nu in (0.5, 1.0, 2.7):
            assert bl.verify_generalized_interlacing(Family.DERIVATIVE, m, nu, 12).ok
    _report("derivative-family: shifts 0/1 interlace plainly, the shift-2 "
            "sandwich around sqrt(2 nu (nu+1)) appears, and shifts 2..5 pass "
            "the generalized pattern")


def test_11_identity_suite():
    xs = np.arange(0.5, 50.0 + 0.25, 0.5)
    for nu in (-0.5, 0.0, 1.125, 2.7):
        for m in range(0, 9):
            lhs = bl.lommel_eval(m - 1, nu, xs) + bl.lommel_eval(m + 1, nu, xs)
            rhs = (2.0 * (nu + m) / xs) * bl.lommel_eval(m, nu, xs)
            assert np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(rhs)))
    for m in (2, 3, 5):
        for nu, x in [(1.125, 3.0), (0.5, 1.2), (4.0, 20.0)]:
            plain, assoc = bl.lommel_wronskian_identity(m, nu, x)
            assert plain < 1e-9 and assoc < 1e-9
    for m in (1, 2, 3, 4):
        for nu, x in [(1.5, 2.0), (-0.7, 4.4)]:
            assert bl.assoc_eval(m, nu, x) == pytest.approx(
                (-1.0) ** m * bl.assoc_eval(-m, -nu, x), rel=1e-9, abs=1e-12
            )
    pf = bl.partial_fraction_check(0.0, 1.0, 200)
    assert pf.residual < 1e-6 and pf.term_identity_error < 1e-9
    nu, x = -0.5, 2.0
    w = jv(nu, x) * bl.special.jvp(-nu, x) - bl.special.jvp(nu, x) * jv(-nu, x)
    assert w == pytest.approx(-2.0 * math.sin(nu * math.pi) / (math.pi * x), rel=1e-9)
    _report("recurrences, both Wronskian identities, the sign symmetry, the "
            "partial-fraction expansion and the half-order cross product all "
            "hold within 1e-9")
