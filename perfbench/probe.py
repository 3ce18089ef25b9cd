"""A speed probe for a shared host, sampled while the timed phase runs.

This benchmark runs on a few vCPUs of a shared host.  Whether another
tenant is busy on the same physical core changes how fast the workload
runs, by up to 1.8x, in spells from under a second to minutes.  A run's
wall time alone then says as much about the host as about the program.

While a ``SpeedProbe`` is active, a wall-clock timer (SIGALRM) fires
every ``PROBE_INTERVAL_S``.  Its handler runs in the main thread between
two bytecodes of the workload and times one call of ``probe_work``, a
fixed loop that touches nothing of the program.  The mean of those call
times over the phase, divided by ``PROBE_NOMINAL_S``, is the host's
slowdown over the same seconds the workload ran.  The time spent in the
handler is counted in ``spent`` so the caller can take it out of the
phase's wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PROBE_ITERATIONS = 2_000
PROBE_INTERVAL_S = 0.05
# The probe call's time on an uncontended core of the 2-vCPU Xeon the
# baseline in results/ was recorded on.  It only sets the scale.
PROBE_NOMINAL_S = 0.00055


def probe_work() -> float:
    """Tuple-keyed dict updates and float arithmetic, as the workloads do."""
    cells: dict[tuple[int, int], float] = {}
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        key = (i % 211, i & 31)
        cells[key] = cells.get(key, 0.0) + i * 0.5
        total += (i % 7) * 0.25
    return total + len(cells)


class SpeedProbe:
    """Time ``probe_work`` every ``PROBE_INTERVAL_S`` while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not change the probe's time
        try:
            started = time.perf_counter()
            probe_work()
            self.samples.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - entered

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean probe time over the nominal one: 1 on an uncontended core."""
        if not self.samples:
            raise ValueError("the speed probe took no samples")
        return statistics.fmean(self.samples) / PROBE_NOMINAL_S
