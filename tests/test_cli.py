import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from oracles import lommel_sign_changes

from bessel_lommel.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"

# golden files of the README quick-start commands, in README order
GOLDEN_NAMES = ("zeros", "lommel", "interlace", "bracket", "scan", "wronskian", "trajectory", "eta")


def run_cli(capsys, *args: str):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeros_json(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--kind", "j", "--nu", "0", "--count", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["zeros"][0] == pytest.approx(2.404825557695773, abs=1e-9)
    assert doc["method"]


def test_zeros_csv(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--kind", "j", "--nu", "0", "--count", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,zero,residual"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == pytest.approx(2.404825557695773, abs=1e-9)


def test_output_determinism(capsys):
    args = ("interlace", "--family", "j", "--m", "3", "--nu", "1.125", "--k", "12")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_interlace_json_fields(capsys):
    code, out, _ = run_cli(
        capsys, "interlace", "--family", "j", "--m", "3", "--nu", "1.125", "--k", "15",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["pattern"] == "generalized"
    assert doc["family"] == "j"


def test_json_round_trip_is_lossless(capsys):
    code, out, _ = run_cli(
        capsys, "interlace", "--family", "j", "--m", "4", "--nu", "0.5", "--k", "10"
    )
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_interlace_with_every_base_zero_common_exits_1(capsys):
    # a tolerance loose enough to take all three base zeros for common zeros used to
    # leave no triple to check and still print "ok": true with "checked": -1; all three
    # lie above nu + m = 107, below which no base zero is common
    code, out, err = run_cli(
        capsys, "interlace", "--family", "j", "--m", "7", "--nu", "100", "--k", "3", "--common-tol", "1e9"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("RuntimeError: ") and "the tolerance is too loose" in err


def test_common_zero_bracket(capsys):
    code, out, _ = run_cli(capsys, "common-zero", "--m", "5", "--bracket", "5.619", "5.62")
    assert code == 0
    doc = json.loads(out)
    sol = doc["solutions"][0]
    assert 5.619 < sol["nu_star"] < 5.62
    assert sol["residual_base"] < 1e-8 and sol["residual_shifted"] < 1e-8


def test_common_zero_empty_bracket_fails(capsys):
    code, _, err = run_cli(capsys, "common-zero", "--m", "3", "--bracket", "0.1", "0.2")
    assert code == 1
    assert "no common-zero" in err


def test_common_zero_usage_error(capsys):
    code, _, err = run_cli(capsys, "common-zero", "--m", "5")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--bracket", "5.619", "5.62", "--l", "2"),
        ("--bracket", "5.619", "5.62", "--k", "6"),
        ("--bracket", "5.619", "5.62", "--nu-max", "6"),
        ("--bracket", "5.619", "5.62", "--k-max", "6"),
        ("--scan", "--nu-max", "6", "--k-max", "6", "--bracket", "5.619", "5.62"),
        ("--scan", "--nu-max", "6", "--k-max", "6", "--l", "2"),
        ("--scan", "--nu-max", "6", "--k-max", "6", "--k", "6"),
    ],
    ids=["bracket-l", "bracket-k", "bracket-nu-max", "bracket-k-max", "scan-bracket", "scan-l", "scan-k"],
)
def test_common_zero_flag_the_query_would_ignore_exits_2(capsys, flags):
    code, out, err = run_cli(capsys, "common-zero", "--m", "5", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")


def test_scan_with_no_common_zero_exits_0(capsys):
    # the window at the order floor used to print three false solutions
    code, out, _ = run_cli(capsys, "common-zero", "--m", "12", "--scan", "--nu-max", "0", "--k-max", "1")
    assert code == 0
    assert json.loads(out)["solutions"] == []


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--kind", "j", "--nu", "0", "--count", "1", "--bogus"])
    assert exc.value.code == 2


def test_wronskian_ok(capsys):
    code, out, _ = run_cli(
        capsys, "wronskian", "--m", "3", "--nu", "0.5", "--x", "4.0", "--N", "2000"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["difference"] <= doc["allowance"]


def test_wronskian_derivative_family(capsys):
    code, out, _ = run_cli(
        capsys, "wronskian", "--m", "2", "--nu", "1.0", "--x", "3.0", "--N", "1500", "--deriv"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_eta_csv(capsys):
    code, out, _ = run_cli(capsys, "eta", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,eta"
    assert float(lines[1].split(",")[1]) == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-12)


@pytest.mark.parametrize("n, count", [(60, 30), (70, 35)])
def test_eta_prints_every_slope(capsys, n, count):
    # a float root search printed 14 of 30 slopes at n = 60 and raised at n = 70
    code, out, _ = run_cli(capsys, "eta", "--n", str(n))
    assert code == 0
    assert len(json.loads(out)["roots"]) == count


def test_eta_past_the_zero_cap_exits_2(capsys):
    code, out, err = run_cli(capsys, "eta", "--n", "2000002")
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: ") and "at most 1000000" in err


def test_trajectory_negative_l_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "trajectory", "--m", "5", "--nu-from", "5", "--nu-to", "5.25",
                             "--step", "0.125", "--l-max", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: ") and "l_max >= 0" in err


def test_lommel_roots_flag(capsys):
    code, out, _ = run_cli(capsys, "lommel", "--m", "2", "--nu", "2.125", "--roots")
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] and doc["roots"]
    assert doc["roots"][0] == pytest.approx(5.153882032022076, rel=1e-10)


def test_trajectory_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys, "trajectory", "--m", "3", "--nu-from", "1.0", "--nu-to", "1.5",
        "--step", "0.25", "--k-max", "2", "--l-max", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "curve_id,nu,x"
    assert any(line.startswith("rho[2,nu,1],") for line in lines[1:])


def test_out_path(tmp_path: Path, capsys):
    target = tmp_path / "zeros.json"
    code, out, _ = run_cli(
        capsys, "zeros", "--kind", "j", "--nu", "1", "--count", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["count"] == 1


def test_config_file_and_flag_precedence(tmp_path: Path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\ntol=1e-10\n")
    code, out, _ = run_cli(
        capsys, "zeros", "--kind", "j", "--nu", "0", "--count", "1", "--config", str(cfg)
    )
    assert code == 0
    assert out.splitlines()[0] == "k,zero,residual"
    code, out, _ = run_cli(
        capsys, "zeros", "--kind", "j", "--nu", "0", "--count", "1",
        "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize("line", ["common_tol=0.5", "jobs=0", "dedup-tol=1e-7"])
def test_unknown_config_key_exits_2(tmp_path: Path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"format=csv\n{line}\n")
    code, out, err = run_cli(
        capsys, "zeros", "--kind", "j", "--nu", "0", "--count", "1", "--config", str(cfg)
    )
    assert code == 2
    assert out == ""
    assert "configuration error" in err and repr(line.split("=")[0]) in err


def test_config_keys_valid_for_every_subcommand(tmp_path: Path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=1e-10\ncommon-tol=1e-9\nn=2000\nformat=csv\n")
    code, out, _ = run_cli(capsys, "eta", "--n", "4", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "l,eta"


@pytest.mark.parametrize(
    "flags", [["--tol", "1e-3"], ["--common-tol", "0.5"], ["--verbose"]]
)
def test_flag_on_subcommand_that_ignores_it_exits_2(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["eta", "--n", "4", *flags])
    assert exc.value.code == 2


def test_cylinder_bracket_below_domain_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "common-zero", "--m", "4", "--bracket", "-0.5", "-0.2", "--alpha", "0.3"
    )
    assert code == 2
    assert "domain error" in err


def test_bracket_without_sign_change_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "common-zero", "--m", "3", "--l", "1", "--k", "1",
        "--bracket", "-0.9", "-0.1",
    )
    assert code == 1
    assert "BracketError" in err


def test_trajectory_root_deficit_exits_1(capsys):
    # a search from companion-matrix candidates found 22 of the 26 roots of
    # R_{52,nu+1} here and the trace exited 1; the Jacobi roots are complete
    code, out, err = run_cli(
        capsys, "trajectory", "--m", "53", "--nu-from", "50", "--nu-to", "50.25",
        "--step", "0.125", "--k-max", "2", "--l-max", "26",
    )
    assert code == 0 and err == ""
    _assert_root_samples_are_roots(json.loads(out), 53, 26)


def _assert_root_samples_are_roots(doc, m, count):
    """Every printed root of R_{m-1,nu+1} lies within 3e-13 of an mpmath sign change."""
    rho = [t["samples"] for t in doc["trajectories"] if t["curve_id"].startswith("rho")]
    assert len(rho) == count
    for i, (nu, _) in enumerate(rho[0]):
        assert all(lommel_sign_changes(m - 1, nu + 1.0, [curve[i][1] for curve in rho], 3e-13))


@pytest.mark.parametrize("m, l_max", [(17, 8), (29, 14)])
def test_trajectory_roots_steeper_than_the_guard_bound_exit_0(capsys, m, l_max):
    # the top root of R_{16,nu+1} moves at slope up to eta_limit(16) = 10.84, above
    # the continuity guard's bound of 10, which once refused every such trace; the
    # guard is gone
    code, out, err = run_cli(
        capsys, "trajectory", "--m", str(m), "--nu-from", "5", "--nu-to", "6",
        "--step", "0.125", "--k-max", "1", "--l-max", str(l_max),
    )
    assert code == 0 and err == ""
    _assert_root_samples_are_roots(json.loads(out), m, l_max)


@pytest.mark.parametrize("l, k", [("0", "6"), ("2", "0")])
def test_common_zero_index_out_of_range_exits_2(capsys, l, k):
    code, out, err = run_cli(
        capsys, "common-zero", "--m", "5", "--l", l, "--k", k, "--bracket", "5.619", "5.62"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: ")


@pytest.mark.parametrize("step", ["0", "-0.1"])
def test_trajectory_non_positive_step_exits_2(capsys, step):
    code, out, err = run_cli(
        capsys, "trajectory", "--m", "5", "--nu-from", "5", "--nu-to", "6", "--step", step
    )
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: ") and "step > 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("trajectory", "--m", "5", "--nu-from", "5", "--nu-to", "6", "--step", "1e-17"),
        ("trajectory", "--m", "5", "--nu-from", "5", "--nu-to", "inf", "--step", "0.125"),
        ("trajectory", "--m", "5", "--nu-from", "6", "--nu-to", "5", "--step", "0.125"),
        ("common-zero", "--m", "4", "--scan", "--nu-max", "inf", "--k-max", "1"),
    ],
)
def test_order_grid_that_never_ends_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: the order grid")


def test_interlace_near_crossing_order_exits_0(capsys):
    # 1e-7 above nu* for m = 5 there is no common zero, but the merge once took
    # a root and a shifted zero for one and reported a violation
    code, out, _ = run_cli(
        capsys, "interlace", "--family", "j", "--m", "5", "--nu", "5.6198123957", "--k", "20"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["violations"] == [] and report["common_zeros"] == []


@pytest.mark.parametrize("N", ["50", "0"])
def test_wronskian_truncation_flag_and_key_obey_one_rule(tmp_path: Path, capsys, N):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n={N}\n")
    args = ("wronskian", "--m", "3", "--nu", "0.5", "--x", "4.0")
    for extra in (("--N", N), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, *args, *extra)
        assert code == 2
        assert out == ""
        assert err == "configuration error: series truncation must be at least 100\n"


@pytest.mark.parametrize("deriv", [(), ("--deriv",)], ids=["plain", "deriv"])
@pytest.mark.parametrize("x", ["nan", "inf"])
def test_non_finite_wronskian_x_exits_2(capsys, x, deriv):
    # NaN passed the x > 0 test and printed "x": NaN, not JSON; inf leaked a
    # RuntimeWarning and then refused the truncation
    code, out, err = run_cli(capsys, "wronskian", "--m", "3", "--nu", "0.5", "--x", x, "--N", "200", *deriv)
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: ") and "0 < x < inf" in err


def test_lommel_roots_deficit_exits_1(capsys):
    # R_{52,51} has 26 positive roots, of which a search from companion-matrix
    # candidates confirmed 22; the Jacobi matrix gives all 26.  Roots that are not
    # finite, where the matrix underflows, exit 1
    code, out, err = run_cli(capsys, "lommel", "--m", "52", "--nu", "51", "--roots")
    assert code == 0 and err == ""
    roots = json.loads(out)["roots"]
    assert len(roots) == 26 and all(lommel_sign_changes(52, 51.0, roots, 3e-13))
    code, out, err = run_cli(capsys, "lommel", "--m", "2", "--nu", "1e308", "--roots")
    assert code == 1
    assert out == ""
    assert err == "ConvergenceError: the roots of R_{2,1e+308} are not all finite and positive\n"


def test_lommel_roots_whose_residuals_overflow_exit_1(capsys):
    # the coefficients of R_{199,1001} overflow, so no residual can be evaluated;
    # NaN residuals would not be valid JSON
    code, out, err = run_cli(capsys, "lommel", "--m", "199", "--nu", "1001", "--roots")
    assert code == 1
    assert out == ""
    assert err == "ConvergenceError: the residuals at the roots of R_{199,1001} are not finite\n"


def test_bracket_past_the_zero_cap_exits_2_at_once(capsys):
    # about 5.8e9 base zeros at each end lie below the largest root at nu = 2e10
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "common-zero", "--m", "4", "--bracket", "1e10", "2e10")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: the query would tabulate") and "at most 1000000" in err


@pytest.mark.parametrize(
    "args",
    [
        ("zeros", "--kind", "j", "--nu", "0", "--count", "1000001"),
        ("interlace", "--family", "j", "--m", "5", "--nu", "2", "--k", "1000001"),
        ("wronskian", "--m", "3", "--nu", "0.5", "--x", "4.0", "--N", "1000001"),
    ],
    ids=["zeros", "interlace", "wronskian"],
)
def test_count_past_the_zero_cap_exits_2_at_once(capsys, args):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "domain error: the query would tabulate 1000001 zeros at each of 1 orders; at most 1000000 in all\n"
    )


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "key, args",
    [
        ("tol", ("zeros", "--kind", "j", "--nu", "0", "--count", "3")),
        ("common-tol", ("interlace", "--family", "j", "--m", "5", "--nu", "5.619812295723271", "--k", "10")),
    ],
    ids=["tol", "common-tol"],
)
def test_non_finite_tolerance_flag_and_key_exit_2(tmp_path: Path, capsys, key, args, value):
    # a NaN common-zero tolerance lost the true common zero 26.294110115998 here, a NaN zero
    # tolerance refused residual 0, and an infinite one printed invalid JSON (Infinity)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    for extra in ((f"--{key}", value), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, *args, *extra)
        assert (code, out) == (2, "")
        assert err == "configuration error: all tolerances must be finite and positive\n"


def test_alpha_outside_family_c_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "interlace", "--family", "jp", "--m", "3", "--nu", "1.125", "--k", "6",
        "--alpha", "0.3",
    )
    assert code == 2
    assert "domain error" in err


def test_plain_value_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "lommel", "--m", "2", "--nu", "-0.5", "--roots")
    assert code == 2
    assert "invalid input" in err


def test_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "zeros", "--kind", "j", "--nu", "-2", "--count", "3")
    assert code == 2
    assert "domain error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lommel", "--m", "3", "--nu", "nan", "--roots"),
        ("zeros", "--kind", "j", "--nu", "nan", "--count", "3"),
        ("interlace", "--family", "j", "--m", "3", "--nu", "nan", "--k", "5"),
        ("zeros", "--kind", "c", "--nu", "inf", "--alpha", "1", "--count", "2"),
        ("common-zero", "--m", "5", "--bracket", "5.619", "5.619"),
        ("common-zero", "--m", "5", "--bracket", "nan", "5.62"),
    ],
    ids=["lommel-nan", "zeros-nan", "interlace-nan", "zeros-c-inf", "degenerate-bracket", "nan-bracket"],
)
def test_non_finite_order_or_bad_bracket_exits_2(capsys, argv):
    # these exited 0 with NaN output or 1 with "non-finite function value"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("domain error")


def test_float_formatting_15_digits(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--kind", "j", "--nu", "0", "--count", "1", "--format", "csv"
    )
    assert code == 0
    zero_text = out.strip().splitlines()[1].split(",")[1]
    assert len(zero_text.replace(".", "").replace("-", "").lstrip("0")) <= 16


def _readme_commands() -> list:
    prefix = "bessel-lommel "
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    return [line[len(prefix) :].split() for line in lines if line.startswith(prefix)]


def _src_env() -> dict:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_readme_commands_match_golden_output(capsys):
    commands = _readme_commands()
    assert len(commands) == len(GOLDEN_NAMES)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for name, argv in zip(GOLDEN_NAMES, commands):
        code, out, _ = run_cli(capsys, *argv)
        assert code == codes[name], name
        assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes(), name


def test_import_leaves_optimize_and_integrate_unloaded():
    # only quad is imported on first use, and nothing imports scipy.optimize, so a
    # cold CLI call that needs no quad pays for neither package
    probe = (
        "import sys, bessel_lommel; "
        "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_readme_commands_leave_optimize_unloaded():
    # each in a fresh interpreter, as a user runs it; scipy.optimize costs a cold
    # command about 0.17 s and 23 MB
    probe = (
        "import sys; from bessel_lommel.cli import main; main(sys.argv[1:]); "
        "print('scipy.optimize' in sys.modules)"
    )
    for argv in _readme_commands():
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=_src_env(), capture_output=True, text=True
        )
        assert proc.stdout.splitlines()[-1] == "False", argv


def test_trajectory_stops_at_nu_to(capsys):
    code, out, _ = run_cli(
        capsys, "trajectory", "--m", "5", "--nu-from", "5", "--nu-to", "5.0000000000035",
        "--step", "1e-12", "--k-max", "1", "--l-max", "1",
    )
    assert code == 0
    doc = json.loads(out)
    nus = [nu for t in doc["trajectories"] for nu, _ in t["samples"]]
    assert max(nus) <= 5.0000000000035
    assert len(doc["trajectories"][0]["samples"]) == 4


def test_trajectory_near_order_minus_one_exits_0(capsys):
    # j_{nu,1} ~ 2 sqrt(nu + 1) has no bounded slope as nu -> -1, where a bound on the
    # jump between samples refused this curve
    import mpmath as mp

    code, out, _ = run_cli(
        capsys, "trajectory", "--m", "3", "--nu-from", "-0.999", "--nu-to", "-0.9",
        "--step", "0.01", "--k-max", "1", "--l-max", "1",
    )
    assert code == 0
    (curve,) = [t for t in json.loads(out)["trajectories"] if t["curve_id"] == "j[nu,1]"]
    assert len(curve["samples"]) == 10
    for nu, x in curve["samples"]:
        # besseljzero refuses a negative order, so the first zero is found from 2 sqrt(nu + 1)
        zero = mp.findroot(lambda z: mp.besselj(nu, z), 2 * mp.sqrt(nu + 1))
        assert abs(x - float(zero)) < 1e-12


def test_zeros_count_is_what_was_asked(capsys):
    import mpmath as mp

    code, out, _ = run_cli(capsys, "zeros", "--kind", "j", "--nu", "100", "--count", "85", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 85
    for k, row in enumerate(rows, 1):
        zero = float(row.split(",")[1])
        assert zero == pytest.approx(float(mp.besseljzero(100, k)), rel=1e-13)


def test_high_order_cylinder_zeros_exit_0(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--kind", "c", "--nu", "70", "--alpha", "1", "--count", "3", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_bracket_finds_a_crossing_past_the_40th_zero_exits_0(capsys):
    # the crossing at k = 51 lies past the 40 base zeros a bracket once looked at
    argv = ("common-zero", "--m", "20", "--bracket", "19.58039032270774", "19.58059032270774")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    (sol,) = json.loads(out)["solutions"]
    assert (sol["k"], sol["l"]) == (51, 9)
    assert sol["nu_star"] == pytest.approx(19.58049032270774, abs=1e-9)
