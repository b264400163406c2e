"""Host-speed probe: rescales measured times to a fixed reference host speed.

The benchmark runs on hosts whose speed drifts by a third within minutes, and
slowly, so that medians over a run cannot remove it.  `probe()` times a fixed
kernel of the same kinds of work the package does in-process (vectorized
scipy.special evaluation, scalar Newton steps in Python) and `spawn_probe()`
times starting an interpreter that imports numpy, the kind of work that
dominates a CLI call.  Neither touches bessel_lommel, so a change to the
package cannot change their time.  The loops run a probe every CAL_INTERVAL
seconds of loop time, outside the timed region, and divide each measured time
by the host factor of its neighbourhood: the median probe time there over the
probe's time on the host of the seed baseline at its usual speed (REF_S,
REF_SPAWN_S).  A rescaled time thus reads what the same work would take on
that host.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np
from scipy import special as sp

REF_S = 0.065  # median probe() time on the seed-baseline host (see README)
REF_SPAWN_S = 0.18  # median spawn_probe() time there
CAL_INTERVAL = 0.75  # seconds of loop time between probes
WINDOW = 3  # probes on each side of an interval that set its factor

_X = np.linspace(0.5, 60.0, 400)


def _kernel() -> float:
    s = 0.0
    for i in range(60):
        nu = 0.25 * i
        s += float(sp.jv(nu, _X).sum()) + float(sp.yv(nu, _X[200:]).sum())
        # Newton steps towards the first zero of J_nu, one scalar call at a time
        x = nu + 1.86 * (nu + 1.0) ** (1.0 / 3.0) + 0.5
        for _ in range(8):
            x -= float(sp.jv(nu, x)) / float(0.5 * (sp.jv(nu - 1.0, x) - sp.jv(nu + 1.0, x)))
        s += x
    return s


_kernel()  # the first call in a process pays for warming up; no probe sees it


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


def spawn_probe() -> float:
    """Seconds to start a fresh interpreter that imports numpy."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t


def factors(probes: list, ref_s: float) -> list:
    """Host factor of each interval; interval p lies between probes p and p + 1.

    The factor is the median of the probes nearest the interval over the
    probe's reference time; above 1 the host is slower than the reference."""
    return [statistics.median(probes[max(0, p - WINDOW + 1):p + WINDOW + 1]) / ref_s
            for p in range(len(probes))]
