"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Checks that generated inputs depend on the seed and on nothing else, and that
a one-second smoke run of every workload, untraced and traced, passes its
correctness gate, prints exactly the metrics BENCHMARK.json names, and checks
the same queries with the same count of wrong answers in both modes.  Every
run answers each of its seed's queries once, so this takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def check_seeding() -> None:
    for name in workloads.WORKLOADS:
        first, _ = workloads.generate(name, 1)
        again, _ = workloads.generate(name, 1)
        other, _ = workloads.generate(name, 2)
        assert first == again, f"{name}: seed 1 gave two different query streams"
        assert first != other, f"{name}: seeds 1 and 2 gave the same query stream"
        print(f"ok  {name}: inputs are a function of the seed")


def check_smoke(manifest) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        counts = set()
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, *manifest["command"][1:], "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False, timeout=180,
            )
            assert proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:\n" \
                                         f"{proc.stderr}"
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            units = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert units == expected[trace], f"{name} trace={trace}: metrics {sorted(units)}"
            assert doc["attempted"] >= 1 and doc["correct"], f"{name} trace={trace}: {doc}"
            counts.add((doc["attempted"], doc["failed"]))
            print(f"ok  {name} trace={trace}: {doc['attempted']} queries checked, "
                  f"{doc['failed']} wrong, metric names match BENCHMARK.json")
        assert len(counts) == 1, f"{name}: attempted and failed differ between modes: {counts}"


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_seeding()
    check_smoke(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
