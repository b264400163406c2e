"""Runs benchmark queries against bessel_lommel in a fresh interpreter.

Started by run.py with the repository's `src` on PYTHONPATH.  Three modes:

    worker.py serve   read {"queries", "seconds", "finish", "span_file", ...} on
                      stdin, make one pass over the queries one after another
                      (a closed loop with one client) and print one JSON
                      document with the answers, the per-query latencies and
                      the trace summary;
    worker.py setup   read one query on stdin, import the package, answer it and
                      print "ready": the set-up probe;
    worker.py cli SPANS QUERY ARG...  run one CLI command in-process under the
                      tracer, append its spans to the file SPANS under query id
                      QUERY and print the trace summary as the last line of stderr.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import time


def _modules():
    return {name: importlib.import_module(f"bessel_lommel.{name}")
            for name in ("interlace", "zeros", "continuation", "cli")}


def _solution(s):
    return [s.l, s.k, s.nu_star, s.x_star]


def execute(mods, q):
    """Answer one query; functions are looked up on each call so a tracer sees them."""
    op = q["op"]
    if op == "verify":
        il = mods["interlace"]
        r = il.verify_generalized_interlacing(
            il.Family(q["family"]), q["m"], q["nu"], q["K"], alpha=q["alpha"]
        )
        return {"ok": bool(r.ok), "violations": len(r.violations),
                "common": list(r.common_zeros), "checked": r.checked}
    if op == "dj_dnu":
        r = mods["zeros"].dj_dnu(q["nu"], q["k"])
        return {"fd": r.value_fd, "series": r.value_series, "watson": r.value_watson}
    if op == "wronskian":
        il = mods["interlace"]
        fn = il.derivative_wronskian_series if q["deriv"] else il.wronskian_series
        r = fn(q["m"], q["nu"], q["x"], q["N"])
        return {"direct": r.direct, "series": r.series, "tail": r.tail_bound}
    cont = mods["continuation"]
    if op == "scan":
        sols = cont.scan_nu_star(q["m"], q["k_max"], q["nu_max"], nu_min=q["nu_min"],
                                 alpha=q["alpha"])
        return {"solutions": [_solution(s) for s in sols]}
    if op == "bracket":
        sols = cont.find_in_bracket(q["m"], q["nu_lo"], q["nu_hi"], alpha=q["alpha"])
        return {"solutions": [_solution(s) for s in sols]}
    if op == "trace":
        r = cont.trace_trajectories(q["m"], (q["nu_from"], q["nu_to"]), q["step"],
                                    q["k_max"], q["l_max"], alpha=q["alpha"])
        return {"curves": {t.curve_id: [list(p) for p in t.samples] for t in r.trajectories},
                "crossings": [_solution(s) for s in r.crossings]}
    if op == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mods["cli"].main(q["argv"])
        return {"code": code, "stdout": out.getvalue()}
    raise ValueError(f"unknown query op {op!r}")


def serve(job) -> dict:
    """One closed-loop pass over the queries, in order.

    The pass stops at the end of the list, or at the deadline (`seconds` of
    loop time after the first query; none when it is null).  With `finish`,
    it answers the rest of the list after the deadline instead, marking those
    answers late so that they are checked but not timed.  Between queries the
    host-speed probe runs every CAL_INTERVAL seconds outside the timed region;
    each record carries the number of the last probe before it.  `wall_s` is
    the timed wall time, probes excluded.
    """
    import calibrate

    mods = _modules()
    tracer = None
    if job["span_file"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    queries, seconds, finish = job["queries"], job["seconds"], job["finish"]
    records = []
    clock = time.perf_counter
    probes = [calibrate.probe()]
    start = end = clock()
    next_probe = start + calibrate.CAL_INTERVAL
    paused = 0.0  # probe time inside the timed region
    deadline = math.inf if seconds is None else start + seconds
    for i, q in enumerate(queries):
        late = clock() >= deadline + paused
        if late and not finish:
            break
        if tracer is not None:
            tracer.query = i
        t = clock()
        try:
            answer = execute(mods, q)
        except Exception as exc:  # a failing query is counted, the run goes on
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        done = clock()
        records.append([i, done - t, answer, late, len(probes) - 1])
        if not late:
            end = done
            if done >= next_probe and tracer is None:
                probes.append(calibrate.probe())
                end = clock()
                paused += end - done
                next_probe = end + calibrate.CAL_INTERVAL
    doc = {"records": records, "wall_s": end - start - paused, "probes": probes,
           "ref_s": calibrate.REF_S}
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.summary()
        tracer.write_spans(job["span_file"])
    if job.get("cli_commands"):
        doc["cli"] = warm_cli(mods, job["cli_commands"])
    return doc


def warm_cli(mods, commands) -> dict:
    """Time one warm in-process pass of cli.main over the commands."""
    for argv in commands:
        execute(mods, {"op": "cli", "argv": argv})
    t = time.perf_counter()
    size = 0
    for argv in commands:
        size += len(execute(mods, {"op": "cli", "argv": argv})["stdout"].encode())
    return {"run_s": time.perf_counter() - t, "stdout_bytes": size}


def traced_cli(span_file, query, argv) -> int:
    import bessel_lommel.cli as cli
    import tracer as tracing

    tr = tracing.Tracer()
    tr.query = query
    tr.install()
    code = cli.main(argv)
    tr.uninstall()
    sys.stdout.flush()
    tr.write_spans(span_file, append=True)
    sys.stderr.write("\n" + json.dumps(tr.summary()) + "\n")
    return code


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli":
        return traced_cli(sys.argv[2], int(sys.argv[3]), sys.argv[4:])
    job = json.load(sys.stdin)
    if mode == "setup":
        execute(_modules(), job["query"])
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    json.dump(serve(job), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
