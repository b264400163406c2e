import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("line", ["common_tol=0.5", "jobs=0"])
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
    cfg.write_text("tol=1e-10\ncommon-tol=1e-9\ndedup-tol=1e-8\nn=2000\nformat=csv\n")
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
    code, out, err = run_cli(
        capsys, "trajectory", "--m", "53", "--nu-from", "50", "--nu-to", "50.25",
        "--step", "0.125", "--k-max", "2", "--l-max", "26",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("ConvergenceError: found 22 of the 26 positive roots")


@pytest.mark.parametrize("l, k", [("0", "6"), ("2", "0")])
def test_common_zero_index_out_of_range_exits_2(capsys, l, k):
    code, out, err = run_cli(
        capsys, "common-zero", "--m", "5", "--l", l, "--k", k, "--bracket", "5.619", "5.62"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: ")


def test_lommel_roots_deficit_exits_1(capsys):
    # R_{52,51} has 26 positive roots; the solver confirms 22 of them
    code, out, err = run_cli(capsys, "lommel", "--m", "52", "--nu", "51", "--roots")
    assert code == 1
    assert out == ""
    assert err.startswith("ConvergenceError: found 22 of the 26 positive roots")
    assert len(err.splitlines()) == 1


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


def test_float_formatting_15_digits(capsys):
    code, out, _ = run_cli(
        capsys, "zeros", "--kind", "j", "--nu", "0", "--count", "1", "--format", "csv"
    )
    assert code == 0
    zero_text = out.strip().splitlines()[1].split(",")[1]
    assert len(zero_text.replace(".", "").replace("-", "").lstrip("0")) <= 16


def test_readme_commands_match_golden_output(capsys):
    prefix = "bessel-lommel "
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    commands = [line[len(prefix) :].split() for line in lines if line.startswith(prefix)]
    assert len(commands) == len(GOLDEN_NAMES)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for name, argv in zip(GOLDEN_NAMES, commands):
        code, out, _ = run_cli(capsys, *argv)
        assert code == codes[name], name
        assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes(), name


def test_import_leaves_optimize_and_integrate_unloaded():
    # brentq and quad are imported on first use, so a cold CLI call that
    # needs neither does not pay for scipy.optimize or scipy.integrate
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = (
        "import sys, bessel_lommel; "
        "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
