"""Host-speed probe: a fixed computation that uses no dersec code, timed
between solves so the benchmark can tell a slow program from a slow host.

On a shared host the CPU time of the same solve drifts by 10-25% over
minutes, as other tenants load the machine. The probe solves three fixed LPs
through ``scipy.optimize.linprog`` (HiGHS), the call that takes most of the
time of every solve the benchmark times, so its time drifts with the host's
speed as the solves do, and never with a change to dersec. It holds no
numpy or plain-Python work: those drift more than the solves do, and dividing
by them over-corrects. A run's *slowdown* is the median probe time over the
probe's time on the host the benchmark was tuned on; the run's solve times
are divided by it.
"""

from __future__ import annotations

import statistics
import time

# median probe time on the tuning host: 2 vCPUs of an Intel Xeon at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread
NOMINAL_MS = 12.6


class HostProbe:
    """Fixed inputs built once; ``sample`` times one probe on the CPU clock."""

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        self._linprog = linprog
        rng = np.random.default_rng(20160106)
        self.c = rng.standard_normal(72)
        self.A = rng.standard_normal((36, 72))
        self.b = np.abs(rng.standard_normal(36)) + 1.0
        self.samples: list[float] = []
        self._work()  # first call pays lazy imports; not a sample

    def _work(self) -> None:
        for _ in range(3):
            res = self._linprog(self.c, A_ub=self.A, b_ub=self.b, bounds=(0, 1), method="highs")
            if res.status != 0:
                raise RuntimeError(f"host probe LP failed: {res.message}")

    def sample(self) -> None:
        start = time.process_time()
        self._work()
        self.samples.append((time.process_time() - start) * 1e3)

    def slowdown(self) -> float:
        """Median probe time over the tuning host's; above 1 on a slower host."""
        return statistics.median(self.samples) / NOMINAL_MS
