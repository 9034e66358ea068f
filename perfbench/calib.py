"""Host-speed calibration.

On a shared host the same work can take 1.5x longer for tens of seconds
at a time, in CPU time as well as wall time, because of what other tenants
run on the same cores; medians of raw times then move with the neighbours
rather than with the program.  The benchmark therefore times a fixed
calibration kernel, written here in plain numpy and independent of refseg,
at every round boundary, and scales each round's times by
``REFERENCE_S / kernel time``.  A normalized time reads as the time the
round would have taken with the kernel at its reference speed; a change to
refseg cannot move the kernel, so it moves normalized times exactly as it
moves raw ones.

The kernel has two parts, timed apart; a workload names the parts it is
calibrated with, and a sample is their geometric mean.  Neither part alone
follows every workload.  Over six runs a workload, the quartile spread of
the normalized median train step was 0.01-0.04 with both parts against
0.03-0.06 with the mixed part alone and 0.06-0.09 with the tap loop alone.
Over seven and then eight runs, that of the gradient suite's median pass was
0.03 and 0.05 with the tap loop alone, 0.03 and 0.08 with both parts, and
0.07 and 0.09 with the mixed part alone.
"""

from __future__ import annotations

import math
import time

import numpy as np

# kernel time, the geometric mean of both parts, on the reference host
# (2-vCPU Intel Xeon at 2.0 GHz, numpy 2.4.6 / OpenBLAS 0.3.31 on one
# thread) while no other tenant was busy
REFERENCE_S = 0.0040


class Calibrator:
    """The mixed part is a small mix of the work the workloads do:
    interpreter-bound calls on tiny arrays, a mid-size single-precision GEMM
    and a memory stream.  The tap part is a double-precision convolution
    written as one numpy op per tap and input channel, the pattern of the
    gradient suite's hot path."""

    def __init__(self, parts) -> None:
        self.parts = [{"mixed": self.mixed, "taps": self.tap_loop}[p] for p in parts]
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((32, 32)).astype(np.float32)
        self.b = rng.standard_normal((32, 32)).astype(np.float32)
        self.x = rng.standard_normal((256, 288)).astype(np.float32)
        self.w = rng.standard_normal((288, 32)).astype(np.float32)
        self.big = rng.standard_normal(1 << 19).astype(np.float32)
        self.out = np.empty_like(self.big)
        self.img = rng.standard_normal((18, 18, 8))
        self.tap_weights = rng.standard_normal((3, 3, 8, 8))

    def mixed(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(150):
            c = np.maximum(self.a @ self.b + 1.0, 0.0)
            acc += float(c.sum())
        for _ in range(15):
            acc += float((self.x @ self.w)[0, 0])
        for _ in range(10):
            np.multiply(self.big, 1.0001, out=self.out)
        return time.perf_counter() - t0

    def tap_loop(self) -> float:
        t0 = time.perf_counter()
        for _ in range(8):
            acc = np.zeros((16, 16, 8))
            for dy in range(3):
                for dx in range(3):
                    patch = self.img[dy : dy + 16, dx : dx + 16, :]
                    for ci in range(8):
                        acc += patch[:, :, ci : ci + 1] * self.tap_weights[dy, dx, ci, :]
        return time.perf_counter() - t0

    def sample(self, tracer=None) -> float:
        """Kernel time: the geometric mean of the chosen parts, each the best
        of three back-to-back runs; a tracer's clock stops meanwhile."""
        if tracer is not None:
            tracer.pause()
        try:
            logs = [math.log(min(part() for _ in range(3))) for part in self.parts]
            return math.exp(sum(logs) / len(logs))
        finally:
            if tracer is not None:
                tracer.resume()

    def factor(self, before: float, after: float) -> float:
        """Scale for times measured between two samples."""
        return REFERENCE_S / (0.5 * (before + after))
