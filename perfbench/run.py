"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Generates the run's queries from the seed,
measures set-up time, answers the queries in a closed loop (one client; the
next query is sent when the previous one returns), passing over them again
while S seconds of loop time last, checks every answer against its
reference, and prints one line per metric followed by a JSON summary as the
last line.  Latencies are rescaled to a reference host speed (calibrate.py).

--trace 0 reports the end-to-end metrics.  --trace 1 runs the untraced loop
for S/2 seconds, makes one more pass over the queries under the outside-in
tracer and reports the per-layer metrics; spans go to .perfbench_trace/.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, known_defect  # noqa: E402

SETUP_RUNS = 5  # set-up probes per run; set-up time is their median
PROBE_RUNS = 3  # interpreter and import probes per traced run
TRACE_DIR = ROOT / ".perfbench_trace"

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# fixed warm-up query per workload, answered by every set-up probe
WARMUP = {
    "verify-sweep": {"op": "verify", "family": "j", "m": 3, "nu": 1.125, "K": 15, "alpha": 0.0},
    "nu-star-scan": {"op": "bracket", "m": 5, "nu_lo": 5.619, "nu_hi": 5.62, "alpha": 0.0},
    "cli-cold": {"op": "cli", "argv": ["zeros", "--kind", "j", "--nu", "0", "--count", "3"]},
}


def _env():
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def _run(argv, stdin_text=None):
    """Run a child process to completion; (wall seconds, stdout, stderr, exit code)."""
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), input=stdin_text, capture_output=True,
                          text=True, check=False)
    return time.perf_counter() - t, proc.stdout, proc.stderr, proc.returncode


def setup_probe(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to its first answered query."""
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "setup"], cwd=ROOT,
                            env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps({"query": WARMUP[workload]}))
    proc.stdin.close()
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return elapsed


def setup_time(workload: str):
    """(rescaled, unscaled) median of SETUP_RUNS set-up probes.

    A spawn probe runs before each and after the last; their median sets the
    host factor, as on cli-cold, whose calls are mostly the same start-up."""
    probes, times = [calibrate.spawn_probe()], []
    for _ in range(SETUP_RUNS):
        times.append(setup_probe(workload))
        probes.append(calibrate.spawn_probe())
    raw = statistics.median(times)
    return raw / (statistics.median(probes) / calibrate.REF_SPAWN_S), raw


def serve(queries, seconds, finish, span_file=None, cli_commands=None):
    """One `worker.py serve` pass in a fresh interpreter; traced when a span file is given."""
    job = {"queries": queries, "seconds": seconds, "finish": finish,
           "span_file": span_file and str(span_file), "cli_commands": cli_commands}
    _, out, err, code = _run([sys.executable, str(HERE / "worker.py"), "serve"], json.dumps(job))
    if code != 0:
        raise RuntimeError(f"worker failed:\n{err}")
    return json.loads(out)


def cli_pass(queries, seconds, finish, span_file=None):
    """One pass in which each query is a fresh `python -m bessel_lommel ...` process,
    one at a time; with a span file, a fresh traced `worker.py cli` process instead.
    The deadline, `finish` and the host-speed probes work as in `worker.serve`,
    with the probe that starts an interpreter."""
    records, traces = [], []
    probes = [calibrate.spawn_probe()]
    start = end = time.perf_counter()
    paused = 0.0
    deadline = math.inf if seconds is None else start + seconds
    for i, q in enumerate(queries):
        late = time.perf_counter() >= deadline + paused
        if late and not finish:
            break
        if span_file:
            argv = [sys.executable, str(HERE / "worker.py"), "cli", str(span_file), str(i),
                    *q["argv"]]
        else:
            argv = [sys.executable, "-m", "bessel_lommel", *q["argv"]]
        wall, out, err, code = _run(argv)
        records.append([i, wall, {"code": code, "stdout": out}, late, len(probes) - 1])
        if span_file:
            traces.append(json.loads(err.rstrip("\n").rsplit("\n", 1)[-1]))
        elif not late:
            # every command lasts longer than CAL_INTERVAL: probe after each
            done = time.perf_counter()
            probes.append(calibrate.spawn_probe())
            end = time.perf_counter()
            paused += end - done
    return {"records": records, "wall_s": end - start - paused, "probes": probes,
            "ref_s": calibrate.REF_SPAWN_S, "traces": traces}


def one_pass(workload, queries, seconds, finish, span_file=None):
    """One closed-loop pass over the queries; traced when a span file is given."""
    if workload == "cli-cold":
        return cli_pass(queries, seconds, finish, span_file)
    return serve(queries, seconds, finish, span_file)


def timed_loop(workload, queries, seconds):
    """Passes over the run's queries until `seconds` of loop time are spent.

    Every pass starts in a fresh interpreter, so an answer computed in one
    pass cannot be remembered by the next.  The first pass answers every
    query, those past the deadline untimed, so that each run checks the same
    queries whatever the speed.  Each record [query, latency, answer, late]
    gains the host factor of its time (`calibrate.factors`).
    """
    records, wall = [], 0.0
    while True:
        run = one_pass(workload, queries, seconds - wall, finish=not records)
        host = calibrate.factors(run["probes"], run["ref_s"])
        records += [r[:4] + [host[r[4]]] for r in run["records"]]
        wall += run["wall_s"]
        if wall >= seconds or len(run["records"]) < len(queries) or run["records"][-1][3]:
            return records


def latency_stats(latencies):
    """Median, and the highest percentile with at least ten samples beyond it.

    Below about 22 samples no rank above the median has ten samples beyond it;
    the tail is then the upper median, so it never reads below the median.
    """
    lat = sorted(latencies)
    n = len(lat)
    rank = max(n // 2 + 1, n - 10)  # 1-based nearest rank; n - rank samples lie beyond it
    return statistics.median(lat), lat[rank - 1], 100.0 * rank / n, n - rank


def grade(checker, queries, records):
    """{query index: (reason, known-defect regime or None)} for every query with a
    wrong answer; a query answered in several passes counts once."""
    failures = {}
    for key, _, answer, *_ in records:
        why = checker.check(key, queries[key], answer)
        if why is not None and key not in failures:
            failures[key] = (why, known_defect(queries[key]))
    return failures


def cli_probe():
    """cli.* layer metrics: bare interpreter, package import and a warm pass of cli.main."""
    interp = [_run([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_RUNS)]
    timer = "import time; t = time.perf_counter(); import bessel_lommel; " \
            "print(time.perf_counter() - t)"
    imports = [float(_run([sys.executable, "-c", timer])[1]) for _ in range(PROBE_RUNS)]
    commands = [line.split() for _, line in workloads.README_COMMANDS]
    warm = serve([], None, False, cli_commands=commands)
    return {"interpreter_s": statistics.median(interp), "import_s": statistics.median(imports),
            **warm["cli"]}


def merge_traces(traces):
    total = {}
    for t in traces:
        for key, value in t.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bessel_lommel" / "__init__.py").is_file():
        sys.stderr.write(f"bessel_lommel sources not found under {ROOT / 'src'}\n")
        return 2

    queries, context = workloads.generate(args.workload, args.seed)
    checker = Checker(context)
    if not args.trace:
        setup, setup_raw = setup_time(args.workload)

    # a traced run spends half its time untraced, then replays one pass traced
    records = timed_loop(args.workload, queries, args.seconds / 2 if args.trace else args.seconds)
    failures = grade(checker, queries, records)
    timed = [r for r in records if not r[3]]
    attempted = len(queries)
    lines = [f"workload {args.workload}  seed {args.seed}  distinct queries {attempted}  "
             f"answers {len(records)} ({len(timed)} timed)  closed loop, 1 client"]
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        span_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.csv"
        span_file.unlink(missing_ok=True)
        traced = one_pass(args.workload, queries, None, True, span_file=span_file)
        for key, why in grade(checker, queries, traced["records"]).items():
            failures.setdefault(key, why)
        raw = traced.get("trace") or merge_traces(traced["traces"])
        # per-query latency sums over the same queries: the replay, and the first pass
        plain = sum(r[1] for r in records[:attempted])
        overhead = sum(r[1] for r in traced["records"]) / plain
        metrics = tracer.per_layer_metrics(raw, cli_probe(), overhead)
        lines.append(f"spans {raw['spans']}")
    else:
        # latencies rescaled to the reference host speed; the loop's wall time is
        # their sum, up to the microseconds between queries
        latency = [r[1] / r[4] for r in timed]
        p50, tail, pct, beyond = latency_stats(latency)
        right = sum(1 for r in timed if r[0] not in failures)
        values = {
            "setup_s": setup,
            "throughput_qps": right / sum(latency),
            "latency_p50_ms": 1e3 * p50,
            "latency_tail_ms": 1e3 * tail,
            # the largest child that ran the package: set-up probes and loop processes
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        raw_p50, raw_tail, _, _ = latency_stats([r[1] for r in timed])
        lines.append(f"host factor {statistics.median(r[4] for r in timed):.4g} "
                     f"(median over timed answers; above 1 the host ran slower than the "
                     f"reference); unscaled: setup_s {setup_raw:.6g} s, throughput_qps "
                     f"{right / sum(r[1] for r in timed):.6g} 1/s, latency_p50_ms "
                     f"{1e3 * raw_p50:.6g} ms, latency_tail_ms {1e3 * raw_tail:.6g} ms")
        lines.append(f"latency_p50_ms samples {len(timed)}")
        lines.append(f"latency_tail_ms is p{pct:.1f} with {beyond} samples beyond it, "
                     f"of {len(timed)}")

    lines.append(f"fail_ratio {len(failures) / attempted:.6g} 1  ({len(failures)} of {attempted})")
    regimes = collections.Counter(known or "outside the known-defect regimes"
                                  for _, known in failures.values())
    lines.extend(f"failed {n}: {regime}" for regime, n in sorted(regimes.items()))
    lines.extend(f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    lines.extend(f"FAIL {why}" + (f"  [{known}]" if known else "")
                 for why, known in list(failures.values())[:20])
    print("\n".join(lines))
    # every wrong answer counts in `failed`; the gate trips on any outside the
    # known-defect regimes, which stay in the workload so that their repair shows
    correct = all(known for _, known in failures.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
