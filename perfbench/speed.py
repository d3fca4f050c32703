"""Machine-speed probe: a fixed piece of work that never touches wlkit.

The machine this benchmark was written on (2 vCPUs, Intel Xeon) shares its
cores, caches and memory bandwidth with other tenants.  The same wlkit call
took anywhere from 0.63 s to 1.04 s there within one minute, in phases
lasting seconds, with CPU time tracking wall time (no steal).  A fixed
probe slows down with the operations: over 10 s windows the median
certificate time moved by ±20% while its ratio to the probe moved by ±4%.

So every timing the benchmark gates on is scaled to a reference machine
speed, time × REF_PROBE_S / probe time: throughput and set-up by the mean
probe of their phase, each operation's latency by the probes near it.  The
raw timings stay in the run record.  The probe mixes the three kinds of
work wlkit does: a large byte-view ``np.unique`` (the refinement kernel),
small NumPy calls from a Python loop (the closures, ``validate``) and text
to dict (parsing).
"""
from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# probe time of the machine described in README.md, at a quiet moment
REF_PROBE_S = 0.009
# a probe runs this often, from a timer signal, also in the middle of an
# operation: the noise changes within a 10 s reduction
PROBE_INTERVAL_S = 0.25
# an operation is scaled by the probes within this margin of its interval
LOCAL_MARGIN_S = 1.0


class Probe:
    """Probe samples of one phase.  `spent` is the time the probes took, to
    be left out of every timing of the phase."""

    def __init__(self, tracer=None) -> None:
        rng = np.random.default_rng(20111)
        self.rows = rng.integers(0, 64, size=(6000, 33), dtype=np.int64)
        self.small = rng.integers(0, 3, size=(80, 80), dtype=np.int64)
        self.lines = [f"e {i} {j} {i % 3}" for i in range(50) for j in range(i + 1, 50)]
        self.tracer = tracer
        self.samples: list[float] = []
        self.at: list[float] = []  # end time of each sample
        self.spent = 0.0
        self._running = False
        self._work()  # warm-up, not kept

    def _work(self) -> None:
        # one large byte-view rank, as the refinement kernel does
        be = self.rows.astype(">i8")
        np.unique(be.view(f"V{8 * self.rows.shape[1]}").ravel(), return_inverse=True)
        # many small NumPy calls from a Python loop, as the closures do
        p, hit = self.small, set()
        for i in range(600):
            for w in np.flatnonzero(p[i % 80] != p[(7 * i) % 80]):
                hit.add(int(w))
        # text to dict, as parsing does
        edges = {}
        for line in self.lines:
            _, u, v, c = line.split()
            edges[(int(u), int(v))] = int(c)

    def run(self) -> None:
        if self._running or (self.tracer and self.tracer.busy):
            return  # the signal arrived inside a probe or a span update
        self._running = True
        span = self.tracer.open("probe") if self.tracer else None
        t0 = perf_counter()
        self._work()
        dt = perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        self.samples.append(dt)
        self.at.append(t0 + dt)
        self.spent += dt
        self._running = False

    @contextmanager
    def periodic(self):
        """Run a probe every PROBE_INTERVAL_S inside the block, between two
        Python bytecodes of whatever the main thread is doing."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.run())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scale(self) -> float:
        """Reference speed over measured speed: multiply a time by this."""
        return REF_PROBE_S / statistics.fmean(self.samples)

    def scale_near(self, t0: float, t1: float) -> float:
        """Scale for an operation that ran from t0 to t1, from the probes
        within LOCAL_MARGIN_S of it (at least three, widening as needed)."""
        margin = LOCAL_MARGIN_S
        while True:
            lo = bisect.bisect_left(self.at, t0 - margin)
            hi = bisect.bisect_right(self.at, t1 + margin)
            if hi - lo >= 3 or hi - lo == len(self.samples):
                return REF_PROBE_S / statistics.fmean(self.samples[lo:hi])
            margin *= 2

    def summary(self) -> dict:
        return {
            "probes": len(self.samples),
            "spent_s": self.spent,
            "mean_s": statistics.fmean(self.samples),
            "min_s": min(self.samples),
            "max_s": max(self.samples),
            "ref_s": REF_PROBE_S,
            "scale": self.scale(),
        }
