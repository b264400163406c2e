import importlib
import math

import numpy as np
import pytest

import bessel_lommel as bl
from bessel_lommel.special import DomainError, jvp

ZEROS = importlib.import_module("bessel_lommel.zeros")


def jfid(nu):
    return bl.FunctionId(bl.Kind.BESSEL_J, nu)


def test_first_zeros_of_j0():
    # frozen via the series + bisection oracle
    zl = bl.zeros(jfid(0.0), 3)
    assert zl.zeros == pytest.approx(
        (2.404825557695773, 5.520078110286311, 8.653727912911013), abs=1e-9
    )


def test_first_critical_point_of_j1():
    zl = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J_PRIME, 1.0), 1)
    assert zl.zeros[0] == pytest.approx(1.8411837813406593, abs=1e-9)


def test_first_zero_of_negative_y0():
    # C with alpha = pi/2 is -Y_0; frozen via the bisection oracle
    zl = bl.zeros(bl.FunctionId(bl.Kind.CYLINDER, 0.0, alpha=math.pi / 2.0), 1)
    assert zl.zeros[0] == pytest.approx(0.8935769662791675, abs=1e-9)


def test_zero_list_contract():
    for fid in (jfid(1.125), bl.FunctionId(bl.Kind.CYLINDER, 0.5, alpha=math.pi / 4.0)):
        zl = bl.zeros(fid, 12)
        xs = zl.as_array()
        assert np.all(np.diff(xs) > 0.0)
        assert np.all(np.diff(xs) >= 1.0)
        df = bl.special.derivative_fn(fid)
        for z, r in zip(zl.zeros, zl.residuals):
            assert r < zl.tolerance * max(1.0, abs(float(df(z))))


def test_classical_interlacing_with_adjacent_orders():
    for nu in (-0.5, 0.0, 1.125, 2.7, 5.0):
        base = bl.zeros(jfid(nu), 20).as_array()
        for shift in (1.0, 2.0):
            up = bl.zeros(jfid(nu + shift), 20).as_array()
            assert np.all(base[:-1] < up[:-1])
            assert np.all(up[:-1] < base[1:])


def test_zeros_are_simple():
    for nu in (-0.5, 0.0, 1.125, 2.7, 5.0):
        zl = bl.zeros(jfid(nu), 20)
        for z in zl.zeros:
            assert abs(jvp(nu, z)) > 1e-3


def test_critical_points_interlace_with_zeros():
    for nu in (0.5, 1.0, 2.7):
        crit = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J_PRIME, nu), 10).as_array()
        zer = bl.zeros(jfid(nu), 10).as_array()
        assert crit[0] < zer[0]
        assert np.all(crit[:10] < zer[:10])
        assert np.all(zer[:9] < crit[1:10])


def test_bulk_zeros_match_scan_path():
    nu = 0.7
    bulk = bl.zeros(jfid(nu), 120)
    assert "asymptotic" in bulk.method
    head = bl.zeros(jfid(nu), 60)
    assert bulk.zeros[:60] == pytest.approx(head.zeros, abs=1e-11)
    assert max(bulk.residuals) < 1e-12


def test_bulk_zeros_spacing_for_large_order():
    zl = bl.zeros(jfid(60.0), 50)
    xs = zl.as_array()
    assert xs[0] > 60.0
    assert np.all(np.diff(xs) >= 1.0)


def test_second_kind_zeros():
    # Y_{1/2}(x) = -sqrt(2/(pi x)) cos x, zeros at pi/2 + k pi
    zl = bl.zeros(bl.FunctionId(bl.Kind.BESSEL_Y, 0.5), 3)
    expect = (math.pi / 2.0, 3.0 * math.pi / 2.0, 5.0 * math.pi / 2.0)
    assert zl.zeros == pytest.approx(expect, abs=1e-11)


def test_lommel_kind_routing():
    # polynomial roots come from lommel_roots; zeros() takes Bessel kinds only
    nu = 1.125
    zl = bl.lommel_roots(2, nu)
    assert len(zl) == 1
    assert zl.zeros[0] == pytest.approx(2.0 * math.sqrt((nu + 1.0) * (nu + 2.0)), rel=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        bl.zeros(jfid(-1.5), 3)
    with pytest.raises(DomainError):
        bl.zeros(bl.FunctionId(bl.Kind.BESSEL_J_PRIME, -0.5), 3)
    assert len(bl.zeros(jfid(1.0), 0)) == 0


def test_order_derivative_routes_agree():
    od = bl.dj_dnu(1.0, 1)
    assert od.value_fd > 0 and od.value_series > 0 and od.value_watson > 0
    assert {type(v) for v in (od.value_fd, od.value_series, od.value_watson, od.spread)} == {float}
    assert abs(od.value_fd - od.value_series) / od.value_fd < 1e-5
    assert od.spread <= 1e-4


def test_order_derivative_large_order_trend():
    od = bl.dj_dnu(50.0, 1)
    assert 1.0 < od.value_series < 1.2


def test_order_derivative_positive_grid():
    for nu in (0.5, 2.7):
        for k in (1, 2):
            od = bl.dj_dnu(nu, k)
            assert min(od.value_fd, od.value_series, od.value_watson) > 0.0
            assert od.spread <= 1e-4


def test_order_derivative_domain():
    with pytest.raises(DomainError):
        bl.dj_dnu(0.0, 1)


@pytest.mark.parametrize("k", [0, -1])
def test_order_derivative_refuses_index_below_one(k):
    # k = 0 used to index the zero table at -1 and raise IndexError
    with pytest.raises(DomainError, match="k >= 1"):
        bl.dj_dnu(1.5, k)


def test_cylinder_zero_monotonicity():
    assert bl.cylinder_zero_monotonicity(0.0, np.arange(0.5, 5.01, 0.5), 1)
    assert bl.cylinder_zero_monotonicity(math.pi / 4.0, np.arange(1.0, 4.01, 0.5), 2)
    assert bl.cylinder_zero_monotonicity(0.0, [2.0], 1)


@pytest.mark.parametrize("k", [0, -1])
def test_cylinder_zero_monotonicity_refuses_index_below_one(k):
    # k = 0 used to read the zero table at cell k - 1 and raise IndexError
    with pytest.raises(DomainError, match="k >= 1"):
        bl.cylinder_zero_monotonicity(0.5, [1.0, 2.0], k)


def test_watson_derivative_matches_finite_difference():
    from bessel_lommel.zeros import watson_derivative

    nu = 1.5
    j = bl.zeros(jfid(nu), 2).zeros[1]
    h = 1e-4
    up = bl.zeros(jfid(nu + h), 2).zeros[1]
    dn = bl.zeros(jfid(nu - h), 2).zeros[1]
    assert watson_derivative(nu, j) == pytest.approx((up - dn) / (2.0 * h), rel=1e-6)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("K", [1, 5, 40, 81, 120])
def test_zero_table_matches_zeros_bitwise(K):
    # rows of K > 80 J_nu zeros take the asymptotic path of zeros(); the last
    # table has one row
    tables = [
        [jfid(nu) for nu in (-0.5, 0.0, 1.125, 7.3)],
        *[
            [bl.FunctionId(bl.Kind.CYLINDER, nu, alpha=alpha) for nu in (0.5, 1.5, 9.0)]
            for alpha in (math.pi / 4.0, 2.5)
        ],
        [bl.FunctionId(bl.Kind.BESSEL_J_PRIME, nu) for nu in (0.0, 2.0, 11.5)],
        [jfid(3.3)],
    ]
    for fids in tables:
        table = bl.zero_table(fids, K)
        assert table.shape == (len(fids), K)
        for fid, row in zip(fids, table):
            assert _hex(row) == _hex(bl.zeros(fid, K).zeros)


def test_zero_table_splits_long_grids_into_bounded_passes(monkeypatch):
    # both stages of the refinement run in the same bounded passes
    calls = {"_bracket_zeros": [], "_finish_zeros": []}
    monkeypatch.setattr(ZEROS, "_BATCH_BRACKETS", 10)
    for name, seen in calls.items():
        stage, at = getattr(ZEROS, name), 1 if name == "_bracket_zeros" else 2  # at: the orders
        counted = lambda *a, stage=stage, seen=seen, at=at: seen.append(a[at].size) or stage(*a)
        monkeypatch.setattr(ZEROS, name, counted)
    fids = [jfid(nu) for nu in (0.5, 1.0, 1.5, 2.0, 2.5)]
    table = bl.zero_table(fids, 5)
    for seen in calls.values():
        assert seen == [10, 10, 5]
    monkeypatch.undo()
    for fid, row in zip(fids, table):
        assert _hex(row) == _hex(bl.zeros(fid, 5).zeros)


def test_zero_table_shares_the_domain_checks_of_zeros():
    with pytest.raises(DomainError, match="nu > -1"):
        bl.zero_table([jfid(1.0), jfid(-1.0)], 3)
    with pytest.raises(DomainError, match="K >= 0"):
        bl.zero_table([jfid(1.0)], -1)
    with pytest.raises(DomainError, match="one kind and one alpha"):
        bl.zero_table([jfid(1.0), bl.FunctionId(bl.Kind.BESSEL_J_PRIME, 1.0)], 3)
    assert bl.zero_table([jfid(1.0)], 0).shape == (1, 0)
    assert bl.zero_table([], 4).shape == (0, 4)


@pytest.mark.parametrize(
    "fid",
    [jfid(1.0), bl.FunctionId(bl.Kind.CYLINDER, 1.0, alpha=0.5), bl.FunctionId(bl.Kind.BESSEL_J_PRIME, 1.0)],
    ids=["j", "c", "jp"],
)
def test_no_zeros_asked_for_give_empty_results(fid):
    # K == 0 never reaches the scan, whose passes hold _BATCH_BRACKETS // K rows
    zl = bl.zeros(fid, 0)
    assert (zl.zeros, zl.residuals) == ((), ())
    assert bl.zero_table([fid, fid], 0).shape == (2, 0)
    stages = ZEROS._zero_stages([fid], 0)
    assert stages.box.shape == (1, 0, 2) and stages.finish().size == 0


def test_stage_tables_take_bulk_rows_without_calling_zeros(monkeypatch):
    want = _hex(bl.zeros(jfid(2.5), 120).zeros)

    def refused(*args, **kwargs):
        raise AssertionError("_zero_stages called zeros()")

    monkeypatch.setattr(ZEROS, "zeros", refused)
    stages = ZEROS._zero_stages([jfid(2.5)], 120)
    exact = stages.box[0, :, 0] == stages.box[0, :, 1]
    assert not exact[:12].any() and exact[12:].all()  # the scanned head stays intervals until read
    assert _hex(stages.finish()) == want


@pytest.mark.parametrize(
    "fid, K",
    [(jfid(0.5), 10), (jfid(0.5), 120), (bl.FunctionId(bl.Kind.CYLINDER, 1.5, alpha=2.0), 30)],
    ids=["scan", "bulk", "cylinder"],
)
def test_zeros_finishes_in_one_stage_two_pass(monkeypatch, fid, K):
    passes, finish = [], ZEROS._finish_zeros
    monkeypatch.setattr(ZEROS, "_finish_zeros", lambda *a: passes.append(a[2].size) or finish(*a))
    assert len(bl.zeros(fid, K)) == K
    assert passes == [12 if K > 80 else K]  # a bulk run finishes only its scanned head


@pytest.mark.parametrize(
    "query", [lambda: bl.zeros(jfid(0.0), 1_000_001), lambda: bl.dj_dnu(1.5, 400_000)], ids=["zeros", "dj_dnu"]
)
def test_every_zero_query_shares_the_zero_cap(query):
    # dj_dnu asks for k zeros at each of three orders
    with pytest.raises(DomainError, match="at most 1000000 in all"):
        query()


def test_bulk_route_returns_exactly_k_zeros():
    # J_100 needs a head of 104 zeros before the asymptotic tail, more than the 85 asked
    zl = bl.zeros(jfid(100.0), 85)
    assert len(zl) == 85 and zl.method == "scan + bisection/Newton"
    assert bl.zero_table([jfid(100.0), jfid(101.5)], 85).shape == (2, 85)
    assert len(bl.zeros(jfid(100.0), 105)) == 105


@pytest.mark.parametrize("nu, alpha", [(63.0, 2.9), (70.0, 1.0), (100.0, 0.3), (120.0, 2.0), (80.0, 0.0)])
def test_cylinder_zeros_of_high_order_match_mpmath(nu, alpha):
    # Y_nu overflows at the old scan start x = 1e-3 from order ~62 on
    import mpmath as mp

    zs = bl.zeros(bl.FunctionId(bl.Kind.CYLINDER, nu, alpha=alpha), 3).zeros
    c = lambda x: mp.cos(alpha) * mp.besselj(nu, x) - mp.sin(alpha) * mp.bessely(nu, x)
    with mp.workdps(30):
        for k, z in enumerate(zs, 1):
            assert abs(mp.findroot(c, mp.mpf(z)) - z) <= 2e-15 * z
            if alpha > 0.0:  # c_{nu,k} lies between j_{nu,k-1} and j_{nu,k}, so none was skipped
                assert (mp.besseljzero(nu, k - 1) if k > 1 else 0) < z < mp.besseljzero(nu, k)
            else:
                assert abs(z - mp.besseljzero(nu, k)) <= 2e-15 * z


def test_cylinder_scan_starts_at_1e3_where_finite():
    value = bl.special.evaluators(bl.Kind.CYLINDER, 1.0)[0]
    (start_50, start_70), f = ZEROS._scan_start(value, bl.Kind.CYLINDER, np.array([50.0, 70.0]))
    assert start_50 == 1e-3
    assert 1e-3 < start_70 <= 70.0
    assert np.isfinite(f).all() and (f == value(np.array([50.0, 70.0]), [start_50, start_70])).all()



@pytest.mark.parametrize(
    "fid, first, rel",
    [
        (jfid(-0.9999999), 6.3246e-4, 1e-14),
        # J'_nu is (J_{nu-1} - J_{nu+1}) / 2, and nu - 1 = -1 + 1e-8 rounds by 5.5e-17, which
        # moves this zero, about sqrt(2 nu), by 2.5e-9 relative
        (bl.FunctionId(bl.Kind.BESSEL_J_PRIME, 1e-8), 1.4142e-4, 5e-9),
        (bl.FunctionId(bl.Kind.CYLINDER, 0.05, alpha=3.1), 1.9322e-7, 1e-14),
    ],
)
def test_first_zero_below_the_scan_start_matches_mpmath(fid, first, rel):
    # the scan starts at x = 1e-3; a first zero below it was skipped, and every index shifted
    import mpmath as mp

    nu, alpha = fid.order, fid.alpha or 0.0
    f = {
        bl.Kind.BESSEL_J: lambda x: mp.besselj(nu, x),
        bl.Kind.BESSEL_J_PRIME: lambda x: mp.besselj(nu, x, derivative=1),
        bl.Kind.CYLINDER: lambda x: mp.cos(alpha) * mp.besselj(nu, x) - mp.sin(alpha) * mp.bessely(nu, x),
    }[fid.kind]
    zs = bl.zeros(fid, 3).zeros
    assert zs[0] == pytest.approx(first, rel=1e-4)
    with mp.workdps(30):
        assert mp.sign(f(mp.mpf(zs[0]) / 2)) == 1  # f keeps its sign below the first zero
        for k, z in enumerate(zs):
            assert abs(mp.findroot(f, mp.mpf(z)) - z) <= (rel if k == 0 else 1e-14) * z
