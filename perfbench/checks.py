"""Per-query correctness gate: compares each answer with its reference.

`Checker.check(key, query, answer)` returns None for a correct answer and a
short reason otherwise.  References are computed on first use and kept per
query key, outside every timed region.
"""

from __future__ import annotations

import json
from pathlib import Path

import reference

REL_ZERO = 1e-10  # zeros and nu* against the reference
REL_DERIV = 1e-7  # each dj/dnu route against mpmath
REL_WRONSKIAN = 1e-9  # Wronskian forms against mpmath, relative to the size of their terms
RESIDUAL = 1e-8  # |f(x*)| at a reported common zero, as in the library's own contract

GOLDEN = Path(__file__).resolve().parent / "golden"

# Regimes where the seed commit's interlacing verdicts are known to be wrong.
# Wrong answers there count as failures like any other; they only leave the
# run's `correct` flag alone, so that a new defect elsewhere still trips it.
COMMON_TOL = 1e-8  # the library's default common-zero tolerance
ZERO_TOL = 1e-12  # the library's default zero tolerance
SCAN_START = 1e-3  # where the library's zero finder starts scanning cylinder functions


def known_defect(q: dict):
    """Name of the known-defect regime an interlacing query lies in, or None.

    Decided from the query's inputs alone, never from the answer."""
    if q["op"] != "verify":
        return None
    if q.get("large_gap"):
        return "large order gap"
    alpha, nu, m = q["alpha"], q["nu"], q["m"]
    if q["family"] == "c" and reference.fam(alpha, nu, SCAN_START) < 0.0:
        # C_nu -> +inf at 0+, so a negative value here means a zero below the scan start
        return "cylinder zero below the zero finder's first abscissa"
    x1 = reference.first_zeros(alpha, nu, 1, derivative=q["family"] == "jp")[0]
    if (abs(reference.fam(alpha, nu + m, x1)) < COMMON_TOL
            or reference.root_gap(q["family"], m, nu, x1) < ZERO_TOL):
        return "first base zero and a polynomial root coincide in double precision"
    return None


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


class Checker:
    def __init__(self, context):
        self.context = context
        self._refs = {}

    def check(self, key: int, q: dict, answer: dict):
        if "error" in answer:
            return answer["error"]
        if key not in self._refs:
            self._refs[key] = self._reference(q)
        return getattr(self, "_check_" + q["op"])(q, answer, self._refs[key])

    # --- references ------------------------------------------------------------------

    def _reference(self, q):
        op = q["op"]
        if op == "dj_dnu":
            return reference.dj_dnu(q["nu"], q["k"])
        if op == "wronskian":
            return reference.wronskian(q["m"], q["nu"], q["x"], q["deriv"])
        if op == "scan":
            table = self.context.tables[q["alpha"]]
            return table.within(q["m"], q["nu_min"], q["nu_max"], q["k_max"])
        if op == "bracket":
            return reference.bracket_crossings(q["alpha"], q["m"], q["nu_lo"], q["nu_hi"], 40)
        if op == "trace":
            table = self.context.tables[q["alpha"]]
            return table.within(q["m"], q["nu_from"], q["nu_to"], q["k_max"])
        if op == "cli":
            codes = json.loads((GOLDEN / "exit_codes.json").read_text())
            return (GOLDEN / f"{q['name']}.out").read_bytes(), codes[q["name"]]
        return None  # verify: theory predicts that generalized interlacing holds

    # --- checks -------------------------------------------------------------------------

    def _check_verify(self, q, a, _):
        if a["ok"] and not a["common"] and a["checked"] > 0:
            return None
        return (
            f"verify {q['family']} m={q['m']} nu={q['nu']:.6g} K={q['K']}: "
            f"{a['violations']} violations, {len(a['common'])} common zeros reported "
            "where theory predicts alternation and none"
        )

    def _check_dj_dnu(self, q, a, ref):
        bad = [r for r in ("fd", "series", "watson") if not _close(a[r], ref, REL_DERIV)]
        if not bad:
            return None
        return f"dj_dnu nu={q['nu']:.6g} k={q['k']}: routes {bad} differ from {ref:.15g}"

    def _check_wronskian(self, q, a, ref):
        w, scale = ref
        tol = REL_WRONSKIAN * scale
        # every series term is positive, so the truncated series sits below W by
        # at most the reported tail bound
        if abs(a["direct"] - w) <= tol and -tol <= w - a["series"] <= a["tail"] + tol:
            return None
        return (
            f"wronskian deriv={q['deriv']} m={q['m']} nu={q['nu']:.6g} x={q['x']:.6g}: "
            f"direct {a['direct']:.15g}, series {a['series']:.15g}, reference {w:.15g}"
        )

    def _match(self, q, sols, ref):
        """Reported (l, k, nu*, x*) against the reference (k, nu*, x*) set."""
        tag = f"{q['op']} m={q['m']} alpha={q['alpha']:.6g}"
        if len(sols) != len(ref):
            return f"{tag}: {len(sols)} crossings reported, {len(ref)} expected"
        for _, k, nu, x in sols:
            hit = [r for r in ref if r[0] == k and _close(nu, r[1], REL_ZERO)
                   and _close(x, r[2], REL_ZERO)]
            if not hit:
                return f"{tag}: crossing k={k} nu*={nu:.15g} has no reference match"
            res = max(reference.residual(q["alpha"], nu, x),
                      reference.residual(q["alpha"], nu + q["m"], x))
            if res > RESIDUAL:
                return f"{tag}: residual {res:.3g} at nu*={nu:.15g}"
        return None

    def _check_scan(self, q, a, ref):
        return self._match(q, a["solutions"], ref)

    _check_bracket = _check_scan

    def _check_trace(self, q, a, ref):
        m, alpha = q["m"], q["alpha"]
        zeros_at = {}
        for curve, samples in a["curves"].items():
            index = int(curve.rsplit(",", 1)[1].rstrip("]")) - 1
            for nu, x in samples:
                if curve.startswith("rho"):
                    bad = reference.lommel_root_residual(m - 1, nu + 1.0, x) > RESIDUAL
                else:
                    order = nu + m if f"nu+{m}" in curve else nu
                    if order not in zeros_at:
                        zeros_at[order] = reference.first_zeros(alpha, order, q["k_max"])
                    bad = not _close(x, zeros_at[order][index], REL_ZERO)
                if bad:
                    return f"trace m={m} alpha={alpha:.6g}: {curve} wrong at nu={nu:.6g}"
        return self._match(q, a["crossings"], ref)

    def _check_cli(self, q, a, ref):
        stdout, code = ref
        if a["code"] != code:
            return f"cli {q['name']}: exit code {a['code']}, golden {code}"
        if a["stdout"].encode() != stdout:
            return f"cli {q['name']}: stdout differs from the golden file"
        return None
