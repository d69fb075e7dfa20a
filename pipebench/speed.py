"""Machine-speed probe for steadier times on a shared machine.

On a shared virtual machine one core's speed drifts by 15-20% over seconds
to minutes, and the second core's drift does not predict the first's. The
benchmark therefore times a fixed reference kernel (a Python loop plus small
float32 GEMMs, no hklm code) on the same core between its timed regions, and
reports each region at the nominal speed:

    normalized = wall * NOMINAL_S / median(probe times within WINDOW_S of the region)

One probe is noisy (its 20 ms see the machine's fast jitter); the median of
the probes around a region follows the slower drift that moves whole runs.
A faster program still reads faster: the kernel does not change with it. The
raw wall times are reported alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on an idle 2-vCPU Xeon (AVX-512) KVM guest, one BLAS thread.
NOMINAL_S = 0.0075

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 128)).astype(np.float32)
_B = _rng.standard_normal((128, 256)).astype(np.float32)


def _kernel() -> int:
    s = 0
    for i in range(36000):
        s += i * i
    x = _A
    for _ in range(12):
        x = np.tanh(x @ _B) @ _B.T
    return s


# Probes within this many seconds of a region's ends speak for its speed.
WINDOW_S = 10.0


class Speedometer:
    """Probe times, taken between timed regions, and the normalization they give."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (when, kernel seconds)

    def probe(self) -> None:
        """Median of three kernel timings, recorded with the time it was taken."""
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            samples.append(time.perf_counter() - t0)
        self.probes.append((time.perf_counter(), statistics.median(samples)))

    def timed(self, fn, *args, **kwargs):
        """(result, (start, end)) of one call, with a probe on either side."""
        self.probe()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.probe()
        return result, (t0, t1)

    def normalize(self, start: float, end: float, wall: float) -> float:
        """Seconds at the nominal speed of a region [start, end] that kept the
        core busy for `wall` seconds."""
        near = [d for t, d in self.probes if start - WINDOW_S <= t <= end + WINDOW_S]
        return wall * NOMINAL_S / statistics.median(near)
