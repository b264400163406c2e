"""Command-line front end.

Every subcommand emits machine-readable JSON (default) or CSV with a fixed
field order and floats printed to 15 significant digits, so identical flags
produce byte-identical output.  Exit codes: 0 success, 1 verification or
numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import continuation as _continuation
from . import interlace as _interlace
from . import lommel as _lommel
from .interlace import Family
from .special import DomainError, FunctionId, Kind
from .zeros import ConvergenceError, zeros as _compute_zeros

_KIND_BY_FLAG = {
    "j": Kind.BESSEL_J,
    "y": Kind.BESSEL_Y,
    "c": Kind.CYLINDER,
    "jp": Kind.BESSEL_J_PRIME,
}


@dataclass
class RunConfig:
    zero_tol: float = 1e-12
    common_tol: float = 1e-8
    dedup_tol: float = 1e-7
    series_n: int = 5000
    fmt: str = "json"
    out: str | None = None
    verbose: bool = False

    def validate(self) -> None:
        if min(self.zero_tol, self.common_tol, self.dedup_tol) <= 0.0:
            raise ValueError("all tolerances must be positive")
        if self.series_n < 100:
            raise ValueError("series truncation must be at least 100")
        if self.fmt not in ("json", "csv"):
            raise ValueError("format must be json or csv")


def _fmt_float(v: float) -> str:
    return f"{v:.15g}"


def _round15(obj):
    if isinstance(obj, float):
        return float(_fmt_float(obj))
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def _emit(payload, rows, header, cfg: RunConfig) -> None:
    """payload: JSON document; rows/header: the CSV rendering of the same data."""
    if cfg.fmt == "json":
        text = json.dumps(_round15(payload), indent=2, sort_keys=False) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in row)
            )
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# config-file key -> (RunConfig field, parser); every subcommand accepts every
# key, so that one file can serve several subcommands
_CONFIG_KEYS = {
    "format": ("fmt", str),
    "tol": ("zero_tol", float),
    "common-tol": ("common_tol", float),
    "dedup-tol": ("dedup_tol", float),
    "n": ("series_n", int),
}


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    file_values = _load_config(args.config) if args.config else {}
    for key, value in file_values.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}; known keys: {', '.join(_CONFIG_KEYS)}")
        field, parse = _CONFIG_KEYS[key]
        setattr(cfg, field, parse(value))
    if args.format is not None:
        cfg.fmt = args.format
    if getattr(args, "tol", None) is not None:
        cfg.zero_tol = args.tol
    if getattr(args, "common_tol", None) is not None:
        cfg.common_tol = args.common_tol
    if args.out is not None:
        cfg.out = args.out
    cfg.verbose = getattr(args, "verbose", False)
    cfg.validate()
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--out", default=None, help="write output to PATH instead of stdout")
    parser.add_argument("--config", default=None, help="key=value config file")


def _cmd_zeros(args, cfg: RunConfig) -> int:
    kind = _KIND_BY_FLAG[args.kind]
    if kind is Kind.CYLINDER:
        fid = FunctionId(kind, args.nu, alpha=args.alpha if args.alpha is not None else 0.0)
    else:
        if args.alpha is not None:
            raise UsageError("--alpha is only valid with --kind c")
        fid = FunctionId(kind, args.nu)
    zl = _compute_zeros(fid, args.count, tolerance=cfg.zero_tol)
    payload = {
        "kind": args.kind,
        "nu": args.nu,
        "alpha": fid.alpha,
        "count": args.count,
        "zeros": list(zl.zeros),
        "residuals": list(zl.residuals),
        "method": zl.method,
        "tolerance": zl.tolerance,
    }
    rows = [(i + 1, z, r) for i, (z, r) in enumerate(zip(zl.zeros, zl.residuals))]
    _emit(payload, rows, ("k", "zero", "residual"), cfg)
    return 0


def _cmd_lommel(args, cfg: RunConfig) -> int:
    kind = _lommel.PolyKind.ASSOCIATED if args.assoc else _lommel.PolyKind.PLAIN
    coeffs = _lommel.lommel_coefficients(args.m, args.nu, kind)
    payload = coeffs.as_dict()
    rows = [(k, c) for k, c in enumerate(coeffs.coeffs)]
    header = ("k", "coefficient")
    if args.roots:
        zl = coeffs.root_list()
        payload["roots"] = list(zl.zeros)
        payload["root_residuals"] = list(zl.residuals)
        rows = [(i + 1, r) for i, r in enumerate(zl.zeros)]
        header = ("l", "root")
    _emit(payload, rows, header, cfg)
    return 0


def _cmd_interlace(args, cfg: RunConfig) -> int:
    family = Family(args.family)
    report = _interlace.verify_generalized_interlacing(
        family,
        args.m,
        args.nu,
        args.k,
        tol=cfg.common_tol,
        dedup=cfg.dedup_tol,
        alpha=args.alpha or 0.0,
    )
    payload = report.as_dict()
    if not cfg.verbose:
        payload["violations"] = payload["violations"][:1]
    rows = [
        (
            report.family.value,
            report.m,
            report.nu,
            report.alpha,
            report.pattern,
            report.ok,
            "" if report.first_violation is None else report.first_violation,
            report.checked,
            ";".join(_fmt_float(c) for c in report.common_zeros),
        )
    ]
    header = ("family", "m", "nu", "alpha", "pattern", "ok", "first_violation", "checked", "common_zeros")
    _emit(payload, rows, header, cfg)
    return 0 if report.ok else 1


def _cmd_common_zero(args, cfg: RunConfig) -> int:
    alpha = args.alpha or 0.0
    if args.scan:
        if args.nu_max is None or args.k_max is None:
            raise UsageError("--scan requires --nu-max and --k-max")
        sols = _continuation.scan_nu_star(args.m, args.k_max, args.nu_max, alpha=alpha)
    else:
        if args.bracket is None:
            raise UsageError("either --scan or --bracket LO HI is required")
        lo, hi = args.bracket
        if args.l is not None and args.k is not None:
            sols = [_continuation.solve_nu_star(args.m, args.l, args.k, lo, hi, alpha=alpha)]
        else:
            sols = _continuation.find_in_bracket(args.m, lo, hi, alpha=alpha)
        if not sols:
            sys.stderr.write("no common-zero crossing inside the bracket\n")
            return 1
    payload = {"m": args.m, "alpha": alpha, "solutions": [s.as_dict() for s in sols]}
    rows = [
        (s.m, s.l, s.k, s.nu_star, s.x_star, s.residual_j, s.residual_jm)
        for s in sols
    ]
    header = ("m", "l", "k", "nu_star", "x_star", "residual_base", "residual_shifted")
    _emit(payload, rows, header, cfg)
    return 0


def _cmd_wronskian(args, cfg: RunConfig) -> int:
    n = args.N if args.N is not None else cfg.series_n
    if args.deriv:
        sample = _interlace.derivative_wronskian_series(args.m, args.nu, args.x, n)
    else:
        sample = _interlace.wronskian_series(args.m, args.nu, args.x, n)
    gap = abs(sample.direct - sample.series)
    allowance = sample.tail_bound + 1e-9 * max(1.0, abs(sample.direct))
    ok = gap <= allowance
    payload = {
        "m": args.m,
        "nu": args.nu,
        "x": args.x,
        "derivative_family": bool(args.deriv),
        "direct": sample.direct,
        "series": sample.series,
        "truncation_n": sample.truncation_n,
        "tail_bound": sample.tail_bound,
        "difference": gap,
        "allowance": allowance,
        "near_singularity": sample.near_singularity,
        "ok": ok,
    }
    rows = [(args.m, args.nu, args.x, sample.direct, sample.series, sample.tail_bound, gap, ok)]
    header = ("m", "nu", "x", "direct", "series", "tail_bound", "difference", "ok")
    _emit(payload, rows, header, cfg)
    return 0 if ok else 1


def _cmd_trajectory(args, cfg: RunConfig) -> int:
    result = _continuation.trace_trajectories(
        args.m,
        (args.nu_from, args.nu_to),
        args.step,
        k_max=args.k_max,
        l_max=args.l_max,
        alpha=args.alpha or 0.0,
    )
    payload = {
        "m": args.m,
        "trajectories": [
            {"curve_id": t.curve_id, "samples": [[nu, x] for nu, x in t.samples]}
            for t in result.trajectories
        ],
        "crossings": [s.as_dict() for s in result.crossings],
    }
    rows = []
    for t in result.trajectories:
        for nu, x in t.samples:
            rows.append((t.curve_id, nu, x))
    _emit(payload, rows, ("curve_id", "nu", "x"), cfg)
    return 0


def _cmd_eta(args, cfg: RunConfig) -> int:
    res = _lommel.eta_limit(args.n)
    payload = {"n": res.n, "roots": list(res.roots)}
    rows = [(i + 1, r) for i, r in enumerate(res.roots)]
    _emit(payload, rows, ("l", "eta"), cfg)
    return 0


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bessel-lommel",
        description="Bessel-family zeros, Lommel polynomials, interlacing checks "
        "and common-zero orders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="positive zeros of J, Y, C or J'")
    p.add_argument("--kind", choices=tuple(_KIND_BY_FLAG), required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--tol", type=float, default=None, help="zero-residual tolerance")
    _add_common(p)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("lommel", help="Lommel polynomial coefficients and roots")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--assoc", action="store_true")
    p.add_argument("--roots", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_lommel)

    p = sub.add_parser("interlace", help="generalized interlacing verification")
    p.add_argument("--family", choices=("j", "c", "jp"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--k", type=int, required=True, help="number of base zeros to check")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--common-tol", type=float, default=None, dest="common_tol")
    p.add_argument("--verbose", action="store_true", help="list every violation")
    _add_common(p)
    p.set_defaults(func=_cmd_interlace)

    p = sub.add_parser("common-zero", help="orders nu* with a shared positive zero")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--bracket", type=float, nargs=2, default=None, metavar=("LO", "HI"))
    p.add_argument("--scan", action="store_true")
    p.add_argument("--nu-max", type=float, default=None, dest="nu_max")
    p.add_argument("--k-max", type=int, default=None, dest="k_max")
    p.add_argument("--alpha", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_common_zero)

    p = sub.add_parser("wronskian", help="direct vs series Wronskian evaluation")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--deriv", action="store_true", help="use the J' / R* family")
    _add_common(p)
    p.set_defaults(func=_cmd_wronskian)

    p = sub.add_parser("trajectory", help="zero/root trajectories over an order range")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nu-from", type=float, required=True, dest="nu_from")
    p.add_argument("--nu-to", type=float, required=True, dest="nu_to")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    p.add_argument("--l-max", type=int, default=2, dest="l_max")
    p.add_argument("--alpha", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("eta", help="limiting slopes of the Lommel root trajectories")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_eta)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    try:
        return args.func(args, cfg)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except _continuation.BracketError as exc:
        sys.stderr.write(f"BracketError: {exc}\n")
        return 1
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    except (
        _continuation.IndexCrossingError,
        ConvergenceError,
        RuntimeError,
    ) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
