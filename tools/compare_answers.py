"""Dump a benchmark workload's answers bit for bit, or compare two dumps.

    python tools/compare_answers.py dump --workload nu-star-scan --seed 1 2 3 --src src > new.json
    python tools/compare_answers.py diff old.json new.json

`dump` answers every query of one workload once, in order, for each seed
given, through `perfbench/worker.execute` with the package imported from the
given `src/` tree, and writes the answers as JSON, one run per seed, with every
float spelled as `float.hex`.  A query that raises is recorded as its exception
type and message, as the benchmark records it.  Each run also records the zero
finder's work: the stage-one brackets, those left at replay step 0, the zeros
stage two finishes and its bisection steps (48 - steps each), counted by
wrapping `zeros._bracket_zeros` and `zeros._finish_zeros`; a tree without them
records none.  The workload `interlace-api` is no benchmark workload: it is a
seeded list of `detect_common_zeros`, `merged_sequence`,
`no_consecutive_common_zeros` and `common_zero_sandwich` queries, which no
benchmark workload asks, answered through the package itself.
`diff` compares the two dumps seed by seed.  For each run it reports the
number of identical answers, or how many answers differ and the ops of their
queries.  Over the answers that differ
in their floats only, it prints the largest relative change of each float
field.  A field keeps a float's index in its own list but drops the indices of
lists that hold lists or dicts, and the bracketed part of a key: nu* of every
solution `[l, k, nu*, x*]` is one field, `solutions[][2]`, and the x of every
`rho[...]` curve sample `[nu, x]` is another, `curves.rho[][1]`.  It shows the first answer that differs in more than its floats in full,
and it exits 1 if any run differs.  It then prints each work count of the run
as base -> head ("absent" where a dump has none), which never sets the exit code.

To check that a change keeps every answer, dump the parent commit's `src/`
(from a `git clone` or `git archive` of it) and the working tree's, then diff.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import random
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _exact(value):
    """The value with every float replaced by its float.hex spelling."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _exact(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


NU_STAR_M5 = 5.619812295723  # J_nu and J_{nu+5} share the zero 26.294110115998


def _interlace_api_queries(seed: int) -> list:
    """Common-zero queries of every family, with K on both sides of 80 (J rows of more zeros
    come finished from another route), and the m = 5 common zero of J near nu = 5.6198."""
    rng, queries = random.Random(seed), []
    cases = [("j", 5, NU_STAR_M5 + d, K, 0.0, 26.294110115998) for d in (0.0, 1e-7) for K in (20, 120)]
    for i, family in enumerate(("j", "c", "jp") * 4):
        alpha = rng.uniform(0.0, math.pi) if family == "c" else 0.0
        m, nu = rng.randint(0 if family == "jp" else 1, 14), rng.uniform(0.05, 30.0)
        K = rng.randint(20, 80) if i % 2 else rng.randint(81, 150)
        cases.append((family, m, nu, K, alpha, rng.uniform(2.0, 60.0)))
    for family, m, nu, K, alpha, zeta in cases:
        base = {"family": family, "m": m, "nu": nu, "K": K, "alpha": alpha}
        tol = rng.choice((1e-8, 1e-8, 1e-3))
        queries += [{"op": "detect_common_zeros", **base, "tol": tol}, {"op": "merged_sequence", **base},
                    {"op": "no_consecutive_common_zeros", **base, "tol": tol},
                    {"op": "common_zero_sandwich", **base, "zeta": zeta}]
    return queries


def _interlace_api_answer(bl, q: dict) -> dict:
    family, m, nu, K, alpha = bl.Family(q["family"]), q["m"], q["nu"], q["K"], q["alpha"]
    if q["op"] == "detect_common_zeros":
        return {"points": bl.detect_common_zeros(family, m, nu, K, q["tol"], alpha=alpha).points}
    if q["op"] == "merged_sequence":
        entries = bl.merged_sequence(family, m, nu, K, alpha=alpha).entries
        return {"entries": [(x, source.value) for x, source in entries]}
    if q["op"] == "no_consecutive_common_zeros":
        return {"holds": bl.no_consecutive_common_zeros(m, nu, K, q["tol"], family=family, alpha=alpha)}
    return {"holds": bl.common_zero_sandwich(family, m, nu, q["zeta"], K, alpha=alpha)}


def _count_work(zeros) -> dict | None:
    """Wrap the zero finder's two stages to count their work into the dict returned, or None
    where the tree has no such stages."""
    bracket, finish = getattr(zeros, "_bracket_zeros", None), getattr(zeros, "_finish_zeros", None)
    if bracket is None or finish is None:
        return None
    work = dict.fromkeys(("stage-one brackets", "brackets left at step 0", "finished zeros",
                          "stage-two bisection steps"), 0)

    def bracketed(*args):
        steps = (state := bracket(*args))[4]
        work["stage-one brackets"] += steps.size
        work["brackets left at step 0"] += int((steps == 0).sum())
        return state

    def finished(value, derivative, orders, state, tolerance):
        work["finished zeros"] += orders.size
        work["stage-two bisection steps"] += int((48 - state[4]).sum())
        return finish(value, derivative, orders, state, tolerance)

    zeros._bracket_zeros, zeros._finish_zeros = bracketed, finished
    return work


def dump(workload: str, seeds, src: str) -> list:
    sys.path[:0] = [str(Path(src).resolve()), str(PERFBENCH)]
    if workload == "interlace-api":
        import bessel_lommel

        generate, execute = _interlace_api_queries, functools.partial(_interlace_api_answer, bessel_lommel)
    else:
        import worker
        import workloads

        generate = lambda seed: workloads.generate(workload, seed)[0]
        execute = functools.partial(worker.execute, worker._modules())
    work, runs = _count_work(sys.modules["bessel_lommel.zeros"]), []
    for seed in seeds:
        queries = generate(seed)
        before = dict(work or {})
        answers = []
        for q in queries:
            try:
                answer = execute(q)
            except Exception as exc:  # recorded as the benchmark records it
                answer = {"error": f"{type(exc).__name__}: {exc}"}
            answers.append(_exact(answer))
        runs.append({"workload": workload, "seed": seed, "queries": queries, "answers": answers,
                     "work": work and {key: n - before[key] for key, n in work.items()}})
    return runs


_HEX_FLOAT = re.compile(r"-?(0x[0-9a-f.]+p[+-]\d+|inf)|nan")


def _split(value, field: str = ""):
    """A dumped answer as (shape, floats): the shape has None for each float, and
    floats lists (field, float) in order."""
    if isinstance(value, dict):
        pairs = [(k, _split(v, f"{field}.{k.split('[')[0]}".lstrip("."))) for k, v in value.items()]
        return {k: shape for k, (shape, _) in pairs}, [f for _, (_, fs) in pairs for f in fs]
    if isinstance(value, list):
        flat = not any(isinstance(v, (dict, list)) for v in value)
        parts = [_split(v, f"{field}[{i if flat else ''}]") for i, v in enumerate(value)]
        return [shape for shape, _ in parts], [f for _, fs in parts for f in fs]
    if isinstance(value, str) and _HEX_FLOAT.fullmatch(value):
        return None, [(field, float.fromhex(value))]
    return value, []


def _relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a and math.isfinite(a) else math.inf


def _diff_run(old: dict, new: dict) -> int:
    status = _diff_answers(old, new)
    work_a, work_b = old.get("work") or {}, new.get("work") or {}
    for key in dict.fromkeys([*work_a, *work_b]):
        print(f"  {key}: {work_a.get(key, 'absent')} -> {work_b.get(key, 'absent')}")
    return status


def _diff_answers(old: dict, new: dict) -> int:
    run = f"{old['workload']} seed {old['seed']}"
    if (old["workload"], old["seed"]) != (new["workload"], new["seed"]):
        print(f"different runs: {run} vs {new['workload']} seed {new['seed']}")
        return 1
    if len(old["answers"]) != len(new["answers"]):
        print(f"answer counts differ: {len(old['answers'])} vs {len(new['answers'])}")
        return 1
    differ = [i for i, (a, b) in enumerate(zip(old["answers"], new["answers"])) if a != b]
    if not differ:
        print(f"{len(old['answers'])} answers identical ({run})")
        return 0
    ops = collections.Counter(old["queries"][i]["op"] for i in differ)
    print(f"{len(differ)} of {len(old['answers'])} answers differ ({run}): "
          + ", ".join(f"{op} {count}" for op, count in sorted(ops.items())))
    change, reshaped = {}, []
    for i in differ:
        (shape_a, floats_a), (shape_b, floats_b) = _split(old["answers"][i]), _split(new["answers"][i])
        if shape_a != shape_b:
            reshaped.append(i)
            continue
        for (field, a), (_, b) in zip(floats_a, floats_b):
            change[field] = max(change.get(field, 0.0), _relative_change(a, b))
    for field, largest in sorted(change.items()):
        print(f"  {field}: largest relative change {largest:.3g}")
    if reshaped:
        i = reshaped[0]
        print(f"  {len(reshaped)} differ in more than their floats; the first is query {i}: "
              f"{json.dumps(old['queries'][i])}")
        print(f"    old: {json.dumps(old['answers'][i])}")
        print(f"    new: {json.dumps(new['answers'][i])}")
    return 1


def diff(old: list, new: list) -> int:
    if len(old) != len(new):
        print(f"run counts differ: {len(old)} vs {len(new)}")
        return 1
    return max([_diff_run(a, b) for a, b in zip(old, new)], default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="answer one workload for each seed; JSON on stdout")
    d.add_argument("--workload", required=True)
    d.add_argument("--seed", type=int, nargs="+", required=True)
    d.add_argument("--src", required=True, help="the src/ tree to import bessel_lommel from")
    c = sub.add_parser("diff", help="compare two dumps; exit 1 if any answer differs")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "dump":
        json.dump(dump(args.workload, args.seed, args.src), sys.stdout)
        sys.stdout.write("\n")
        return 0
    with open(args.old, encoding="utf-8") as fh_old, open(args.new, encoding="utf-8") as fh_new:
        return diff(json.load(fh_old), json.load(fh_new))


if __name__ == "__main__":
    sys.exit(main())
