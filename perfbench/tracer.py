"""Outside-in tracer for bessel_lommel.

`Tracer.install()` replaces every public function of the layer modules, in
every package module that binds it under its own name (for example
`interlace.zeros`, `continuation.zeros` and `cli._compute_zeros` all bind
`zeros.zeros`), with a wrapper.  The library's source is not touched.

A span is recorded only where a call crosses from one layer into another:
(layer, function, start, end, parent span, query id).  Calls inside a layer
update counters but record no span.  Spans are kept in memory until
`write_spans()`; `summary()` turns them into self times and counters.
"""

from __future__ import annotations

import collections
import csv
import importlib
import inspect
import os
import time
import types

import numpy as np

PACKAGE = "bessel_lommel"
LAYERS = ("special", "lommel", "zeros", "interlace", "continuation", "cli")

# private evaluation kernels, counted (no span) wherever they are called from;
# a kernel that no longer exists is skipped and its count reads 0
KERNELS = {"lommel": {"_poly_eval": "lommel.poly_evals", "_poly_prime": "lommel.poly_evals"}}
# calls counted wherever these are called from, inside their layer or not
CALLS = {
    "zeros": "zeros.calls",
    "root_positions": "lommel.root_solves",
    "verify_generalized_interlacing": "interlace.verify_calls",
    "solve_nu_star": "continuation.solve_calls",
}
# inclusive time kept for these, wherever they are called from
TIMED = {
    "root_positions": "lommel.root_solve_s",
    "dj_dnu": "zeros.dj_dnu_s",
    "series_derivative": "zeros.series_route_s",
    "watson_derivative": "zeros.watson_route_s",
    "wronskian_series": "interlace.wronskian_s",
    "derivative_wronskian_series": "interlace.wronskian_s",
}

PER_LAYER = (
    ("special.calls", "count"),
    ("special.points", "count"),
    ("special.self_s", "s"),
    ("special.ns_per_point", "ns"),
    ("zeros.calls", "count"),
    ("zeros.zeros_returned", "count"),
    ("zeros.self_s", "s"),
    ("zeros.points_per_zero", "count"),
    ("zeros.bulk_fallbacks", "count"),
    ("zeros.dj_dnu_s", "s"),
    ("zeros.series_route_s", "s"),
    ("zeros.watson_route_s", "s"),
    ("lommel.root_solves", "count"),
    ("lommel.root_solve_s", "s"),
    ("lommel.poly_evals", "count"),
    ("lommel.self_s", "s"),
    ("lommel.roots_found_ratio", "1"),
    ("interlace.verify_calls", "count"),
    ("interlace.self_s", "s"),
    ("interlace.wronskian_s", "s"),
    ("interlace.violations", "count"),
    ("interlace.zeros_calls_per_verify", "count"),
    ("interlace.root_solves_per_verify", "count"),
    ("continuation.queries", "count"),
    ("continuation.self_s", "s"),
    ("continuation.solve_calls", "count"),
    ("continuation.nu_star_found", "count"),
    ("continuation.zeros_calls_per_query", "count"),
    ("continuation.root_solves_per_query", "count"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.run_s", "s"),
    ("cli.stdout_bytes", "B"),
    ("trace.overhead_ratio", "1"),
)


def _x_argument(fn):
    """(index, name) of the argument holding the evaluation points, or None."""
    for i, name in enumerate(inspect.signature(fn).parameters):
        if name in ("x", "u"):
            return i, name
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, function, start, end, parent, query]
        self.stack = []
        self.query = -1
        self.count = collections.Counter()
        self.in_zeros = 0
        self._saved = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or obj.__name__.startswith("_"):
                    continue
                pkg, _, layer = obj.__module__.rpartition(".")
                if pkg != PACKAGE or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for layer, kernels in KERNELS.items():
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, counter in kernels.items():
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType):
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._counted(fn, counter))

    def _counted(self, fn, counter):
        count = self.count

        def wrapper(*args, **kwargs):
            count[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # --- the wrapper ------------------------------------------------------------

    def _wrap(self, fn, layer):
        name = fn.__name__
        xarg = _x_argument(fn) if layer == "special" else None
        calls = CALLS.get(name)
        timer = TIMED.get(name)
        scoped = name == "verify_generalized_interlacing" or layer == "continuation"
        tracer = self
        count = self.count
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            boundary = parent < 0 or spans[parent][0] != layer
            if boundary:
                idx = len(spans)
                spans.append([layer, name, clock(), 0.0, parent, tracer.query])
                stack.append(idx)
                if xarg is not None:
                    pos, key = xarg
                    n = int(np.size(args[pos] if len(args) > pos else kwargs[key]))
                    count["special.calls"] += 1
                    count["special.points"] += n
                    if tracer.in_zeros:
                        count["zeros.points"] += n
            if scoped:
                before = (count["zeros.calls"], count["lommel.root_solves"])
            if calls:
                count[calls] += 1
            if name == "zeros":
                tracer.in_zeros += 1
            t0 = clock() if timer else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                if timer:
                    count[timer] += clock() - t0
                if name == "zeros":
                    tracer.in_zeros -= 1
                if boundary:
                    stack.pop()
                    spans[idx][3] = clock()
            tracer._after(layer, name, boundary, args, result)
            if scoped:
                dz = count["zeros.calls"] - before[0]
                dr = count["lommel.root_solves"] - before[1]
                if name == "verify_generalized_interlacing":
                    count["interlace.verify_zeros_calls"] += dz
                    count["interlace.verify_root_solves"] += dr
                elif boundary:
                    count["continuation.query_zeros_calls"] += dz
                    count["continuation.query_root_solves"] += dr
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, layer, name, boundary, args, result) -> None:
        count = self.count
        if name == "zeros":
            count["zeros.zeros_returned"] += len(result)
            fid, K = args[0], args[1]
            # the K > 80 bulk path of J_nu zeros that fell back to a full scan
            if fid.kind.value == "j" and K > 80 and "asymptotic" not in result.method:
                count["zeros.bulk_fallbacks"] += 1
        elif name == "root_positions":
            count["lommel.roots_found"] += len(result)
            count["lommel.roots_expected"] += args[0] // 2
        elif name == "verify_generalized_interlacing":
            count["interlace.violations"] += len(result.violations)
        if layer == "continuation" and boundary:
            count["continuation.queries"] += 1
            if name == "trace_trajectories":
                count["continuation.nu_star_found"] += len(result.crossings)
            elif name == "solve_nu_star":
                count["continuation.nu_star_found"] += 1
            elif isinstance(result, list):
                count["continuation.nu_star_found"] += len(result)

    # --- results ------------------------------------------------------------------

    def self_seconds(self) -> dict:
        """Per-layer self time: span time minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter()
        for i, (layer, _, start, end, _, _) in enumerate(self.spans):
            out[layer] += end - start - child[i]
        return out

    def summary(self) -> dict:
        """Counters and self times, before the per-query ratios are formed."""
        out = dict(self.count)
        for layer, seconds in self.self_seconds().items():
            out[f"{layer}.self_s"] = seconds
        out["spans"] = len(self.spans)
        return out

    def write_spans(self, path, append=False) -> None:
        """CSV of the spans; span and parent numbers count within one process."""
        new_file = not append or not os.path.exists(path)
        with open(path, "a" if append else "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if new_file:
                writer.writerow(("span", "layer", "function", "start", "end", "parent", "query"))
            for i, (layer, name, start, end, parent, query) in enumerate(self.spans):
                writer.writerow((i, layer, name, f"{start:.9f}", f"{end:.9f}", parent, query))


# per-layer metrics formed as a ratio of two counters: (numerator, denominator, scale)
RATIOS = {
    "special.ns_per_point": ("special.self_s", "special.points", 1e9),
    "zeros.points_per_zero": ("zeros.points", "zeros.zeros_returned", 1.0),
    "lommel.roots_found_ratio": ("lommel.roots_found", "lommel.roots_expected", 1.0),
    "interlace.zeros_calls_per_verify": ("interlace.verify_zeros_calls",
                                         "interlace.verify_calls", 1.0),
    "interlace.root_solves_per_verify": ("interlace.verify_root_solves",
                                         "interlace.verify_calls", 1.0),
    "continuation.zeros_calls_per_query": ("continuation.query_zeros_calls",
                                           "continuation.queries", 1.0),
    "continuation.root_solves_per_query": ("continuation.query_root_solves",
                                           "continuation.queries", 1.0),
}


def per_layer_metrics(raw: dict, cli: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from merged summaries.

    `cli` holds the cli.* probe results by their short names; a ratio whose
    denominator is 0 (a layer the workload never calls) reads 0."""
    c = collections.Counter(raw)
    out = {}
    for name, unit in PER_LAYER:
        if name in RATIOS:
            num, den, scale = RATIOS[name]
            value = scale * (c[num] / c[den]) if c[den] else 0.0
        elif name.startswith("cli."):
            value = cli[name[4:]]
        elif name == "trace.overhead_ratio":
            value = overhead_ratio
        else:
            value = c[name]
        out[name] = {"value": value, "unit": unit}
    return out
