"""Host-speed probe: scales measured times to one fixed host speed.

On a shared machine the other hardware thread of the core is busy part
of the time, in episodes of a few seconds. While it is busy the Python
interpreter runs up to 1.6 times slower, so the same command on the
same input took from 4.4 s to 8.4 s within two minutes. That drift is
the host's, not the program's.

The probe measures it while the benchmark runs. A timer signal fires
every ``INTERVAL_S`` and its handler times ``_kernel``: a fixed loop
over a small numpy mask, the same kind of interpreter-bound work as the
program's labelling, training tape and CLI glue. The handler runs in
the benchmark's own thread between bytecodes, so the probe samples the
speed at which the program runs at that moment. The work done between
two probes is proportional to 1 ÷ (probe time), so a measured span,
less the probes' own time, is scaled by ``REFERENCE_S`` × the mean of
1 ÷ (probe time) over the probes that fired during it. The probe's code
is part of the benchmark, so a change to the program cannot change it.

One ``eval`` command repeated on one input in five processes took from
6.7 s to 8.9 s unscaled, and from 4.88 s to 5.15 s scaled.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
# Probe time while the other hardware thread was idle, on the 2-core
# Intel Xeon virtual machine the benchmark was defined on. Scaled times
# are the times at that speed.
REFERENCE_S = 40e-6
WARM_SAMPLES = 20
_MASK = np.random.Generator(np.random.PCG64(0)).random((12, 12)) >= 0.5


def _kernel() -> int:
    labels = np.zeros(_MASK.shape, dtype=np.int32)
    count = 0
    for y in range(_MASK.shape[0]):
        for x in range(_MASK.shape[1]):
            if _MASK[y, x] and not labels[y, x]:
                count += 1
                labels[y, x] = count
    return count


class HostSpeed:
    """Use as a context manager; ``mark`` and ``scale`` bracket a span."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        for _ in range(WARM_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int, elapsed: float) -> float:
        """Seconds measured since ``mark``, at the reference speed.

        A span shorter than the interval may hold no probe; it takes the
        speed of the latest one.
        """
        probes = self.samples[mark:]
        speed = probes or self.samples[-1:]
        return (elapsed - sum(probes)) * REFERENCE_S * sum(1.0 / p for p in speed) / len(speed)

    def summary(self, mark: int = 0) -> dict:
        """Probe times since ``mark``, in microseconds."""
        q = np.percentile(self.samples[mark:], [10, 50, 90]) * 1e6
        return {"probes": len(self.samples) - mark, "reference_us": REFERENCE_S * 1e6,
                "p10_us": float(q[0]), "p50_us": float(q[1]), "p90_us": float(q[2])}
