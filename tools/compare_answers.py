"""Dump a benchmark workload's answers bit for bit, or compare two dumps.

    python tools/compare_answers.py dump --workload nu-star-scan --seed 1 2 3 --src src > new.json
    python tools/compare_answers.py diff old.json new.json

`dump` answers every query of one workload once, in order, for each seed
given, through `perfbench/worker.execute` with the package imported from the
given `src/` tree, and writes the answers as JSON, one run per seed, with every
float spelled as `float.hex`.  A query that raises is recorded as its exception
type and message, as the benchmark records it.  `diff` compares the two dumps
seed by seed: for each run it reports the first query whose answer differs, or
the number of identical answers, and it exits 1 if any run differs.

To check that a change keeps every answer, dump the parent commit's `src/`
(from a `git clone` or `git archive` of it) and the working tree's, then diff.
"""

from __future__ import annotations

import argparse
import json
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


def dump(workload: str, seeds, src: str) -> list:
    sys.path[:0] = [str(Path(src).resolve()), str(PERFBENCH)]
    import worker
    import workloads

    mods = worker._modules()
    runs = []
    for seed in seeds:
        queries, _ = workloads.generate(workload, seed)
        answers = []
        for q in queries:
            try:
                answer = worker.execute(mods, q)
            except Exception as exc:  # recorded as the benchmark records it
                answer = {"error": f"{type(exc).__name__}: {exc}"}
            answers.append(_exact(answer))
        runs.append({"workload": workload, "seed": seed, "queries": queries, "answers": answers})
    return runs


def _diff_run(old: dict, new: dict) -> int:
    if (old["workload"], old["seed"]) != (new["workload"], new["seed"]):
        print(f"different runs: {old['workload']} seed {old['seed']} "
              f"vs {new['workload']} seed {new['seed']}")
        return 1
    if len(old["answers"]) != len(new["answers"]):
        print(f"answer counts differ: {len(old['answers'])} vs {len(new['answers'])}")
        return 1
    for i, (a, b) in enumerate(zip(old["answers"], new["answers"])):
        if a != b:
            print(f"query {i} differs: {json.dumps(old['queries'][i])}")
            print(f"  old: {json.dumps(a)}")
            print(f"  new: {json.dumps(b)}")
            return 1
    print(f"{len(old['answers'])} answers identical ({old['workload']} seed {old['seed']})")
    return 0


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
