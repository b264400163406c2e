"""Seeded query generators for the three workloads.

A workload is a list of cycles; each cycle holds a fixed mix of query types
in a seeded order, so every run measures the same mix while the parameters
differ from seed to seed.  Generators use only numpy and the
reference module; the library sees nothing but the generated queries.
"""

from __future__ import annotations

import math

import numpy as np

import reference

WORKLOADS = ("verify-sweep", "nu-star-scan", "cli-cold")

# The eight commands of the README quick start, in README order.
README_COMMANDS = (
    ("zeros", "zeros --kind j --nu 0 --count 3"),
    ("lommel", "lommel --m 2 --nu 2.125 --roots"),
    ("interlace", "interlace --family j --m 3 --nu 1.125 --k 15"),
    ("bracket", "common-zero --m 5 --bracket 5.619 5.62"),
    ("scan", "common-zero --m 4 --scan --nu-max 20 --k-max 3"),
    ("wronskian", "wronskian --m 3 --nu 0.5 --x 4.0 --N 5000"),
    ("trajectory", "trajectory --m 5 --nu-from 5 --nu-to 6 --step 0.125 --format csv"),
    ("eta", "eta --n 4"),
)

# Distinct queries of a run, whole cycles: about what a run answers at the seed
# commit.  A run answers each of them once, and passes over them again only if
# time is left; every run thus checks the same queries for its seed, whatever
# the speed of the host, and its count of wrong answers is a function of the seed.
RUN_QUERIES = {"verify-sweep": 330, "nu-star-scan": 144, "cli-cold": 8}

NU_LO, NU_HI = 2.0, 26.0  # order range of the nu-star-scan windows
GAPS = range(4, 13)
TABLE_K = 8  # zeros tracked by the crossing table; covers k_max <= 6


def _strata(rng, n, lo, hi):
    """n values, one from each of n equal slices of [lo, hi), in a seeded order.

    Drawing a cycle's parameters this way keeps the cost of a cycle, and so the
    run's figures, close from seed to seed."""
    return [float(lo + (hi - lo) * (i + rng.random()) / n) for i in rng.permutation(n)]


def _open(rng, lo, hi):
    """Uniform on the open interval (lo, hi]."""
    return float(hi - (hi - lo) * rng.random())


def verify_sweep(seed: int):
    """Cycles of 21 interlacing checks (7 per family), 3 large-gap checks,
    3 dj/dnu and 3 Wronskian series."""
    rng = np.random.default_rng([seed, 1])
    queries = []
    n = 0
    while len(queries) < RUN_QUERIES["verify-sweep"]:
        cycle = []
        for family in ("j", "c", "jp"):
            Ks, ms, nus = _strata(rng, 7, 20, 201), _strata(rng, 7, 3, 13), _strata(rng, 7, 0, 20)
            for i in range(7):
                cycle.append({
                    "op": "verify", "family": family, "m": int(ms[i]), "nu": 20.0 - nus[i],
                    "K": int(Ks[i]),
                    "alpha": _open(rng, 0.0, math.pi - 1e-9) if family == "c" else 0.0,
                })
        us, vs, Ks = _strata(rng, 3, 0, 1), _strata(rng, 3, 0, 1), _strata(rng, 3, 40, 81)
        for i in range(3):
            if (3 * n + i) % 2 == 0:
                family, m, nu = "j", 30 + int(32 * us[i]), 20.0 + 30.0 * vs[i]
            else:
                family, m, nu = "jp", 15 + int(11 * us[i]), 5.0 + 15.0 * vs[i]
            cycle.append({"op": "verify", "family": family, "m": m, "nu": nu, "K": int(Ks[i]),
                          "alpha": 0.0, "large_gap": True})
        nus, ks, Ns = _strata(rng, 3, 0, 40), _strata(rng, 3, 1, 21), _strata(rng, 3, 1000, 5001)
        for i in range(3):
            cycle.append({"op": "dj_dnu", "nu": 40.0 - nus[i], "k": int(ks[i])})
            cycle.append({
                "op": "wronskian", "deriv": bool((3 * n + i) % 2), "m": int(rng.integers(1, 13)),
                "nu": _open(rng, 0.0, 20.0), "x": float(rng.uniform(1.0, 30.0)), "N": int(Ns[i]),
            })
        queries.extend(cycle[i] for i in rng.permutation(len(cycle)))
        n += 1
    return queries, None


class ScanContext:
    """The run's cylinder angle and a crossing table per family (alpha = 0 is J).

    Built before the run; the same tables supply the reference answers."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.alphas = (0.0, _open(rng, 0.0, math.pi - 1e-9))
        self.tables = {
            a: reference.CrossingTable(a, NU_LO - 0.1, NU_HI + 0.1, TABLE_K, GAPS)
            for a in self.alphas
        }
        # crossings (k, nu*, x*) with k <= 6 inside the order range, per family and gap
        self.hits = {
            a: {m: [c for c in t.by_gap[m] if c[0] <= 6 and NU_LO <= c[1] <= NU_HI] for m in GAPS}
            for a, t in self.tables.items()
        }

    def crossing(self, rng, alpha: float, m: int):
        """A random known crossing (k, nu*, x*) for the family and gap."""
        cands = self.hits[alpha][m]
        return cands[int(rng.integers(len(cands)))]

    def window(self, rng, alpha: float, m: int, width: float, k_max: int, want: int):
        """A scan query whose window holds exactly `want` (0 or 1) known crossings.

        Crossings are sparse, so a few seeded tries find one; holding the count
        fixed keeps the number of nu* solves per cycle, and so its cost, fixed."""
        for _ in range(100):
            if want:
                k, nu_star, _ = self.crossing(rng, alpha, m)
                k_max = int(rng.integers(max(k, 2), 7))
                lo = min(max(nu_star - width * rng.random(), NU_LO), NU_HI - width)
            else:
                lo = float(rng.uniform(NU_LO, NU_HI - width))
            if len(self.tables[alpha].within(m, lo, lo + width, k_max)) == want:
                break
        return {"op": "scan", "m": m, "k_max": k_max, "nu_min": lo, "nu_max": lo + width,
                "alpha": alpha}


def nu_star_scan(seed: int):
    """Cycles of 18 scans (each gap m = 4..12 once per family; by the parity of
    m and the cycle, half of the windows hold one known crossing and the rest
    none), 4 narrow brackets around known crossings and 2 trajectory traces."""
    ctx = ScanContext(seed)
    rng = np.random.default_rng([seed, 3])
    queries = []
    n = 0
    while len(queries) < RUN_QUERIES["nu-star-scan"]:
        cycle = []
        for alpha in ctx.alphas:
            widths, k_maxes = _strata(rng, 9, 2.0, 4.0), _strata(rng, 9, 2, 7)
            for i, m in enumerate(range(4, 13)):
                want = 1 if (m + n) % 2 == 0 and ctx.hits[alpha][m] else 0
                cycle.append(ctx.window(rng, alpha, m, widths[i], int(k_maxes[i]), want))
            gaps = [m for m in GAPS if ctx.hits[alpha][m]]
            for _ in range(2):
                m = gaps[int(rng.integers(len(gaps)))]
                hit = ctx.crossing(rng, alpha, m)
                cycle.append({"op": "bracket", "m": m, "alpha": alpha,
                              "nu_lo": hit[1] - float(rng.uniform(1e-4, 1e-3)),
                              "nu_hi": hit[1] + float(rng.uniform(1e-4, 1e-3))})
            lo = float(rng.uniform(NU_LO, NU_HI - 1.0))
            cycle.append({"op": "trace", "m": int(rng.integers(4, 13)), "nu_from": lo,
                          "nu_to": lo + 1.0, "step": 0.125, "k_max": 3, "l_max": 2,
                          "alpha": alpha})
        queries.extend(cycle[i] for i in rng.permutation(len(cycle)))
        n += 1
    return queries, ctx


def cli_cold(seed: int):
    """The README commands in round robin, in a seeded order."""
    rng = np.random.default_rng([seed, 4])
    order = rng.permutation(len(README_COMMANDS)).tolist()
    queries = []
    for n in range(RUN_QUERIES["cli-cold"]):
        name, line = README_COMMANDS[order[n % len(order)]]
        queries.append({"op": "cli", "name": name, "argv": line.split()})
    return queries, None


def generate(workload: str, seed: int):
    """(queries, context) for a workload; the context feeds the reference checks."""
    return {"verify-sweep": verify_sweep, "nu-star-scan": nu_star_scan, "cli-cold": cli_cold}[
        workload
    ](seed)
