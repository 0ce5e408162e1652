"""Machine-speed calibration for the untraced timings.

On a shared 2-vCPU cloud VM (Intel Xeon, no hardware counters exposed) the
CPU speed drifts by up to about 1.6x over seconds to tens of seconds (other
tenants on the host; no steal time shows in the guest). That drift moves
every timing by more than the regressions the benchmark must catch, so each
timed interval is paired with samples of a fixed kernel taken just before
and just after it, and the interval is rescaled to the speed at which the
kernel takes REFERENCE_KERNEL_S:

    calibrated_s = wall_s * REFERENCE_KERNEL_S / mean kernel time

No sample is taken during the interval. The kernel therefore never shares
the CPU, its caches or the interpreter with the program, and nothing the
program does (more threads, a different memory footprint) changes the
divisor.

The kernel is 30 power-iteration steps on a 4x4x4 tensor (einsum, norm,
divide, into preallocated arrays) and a 1000-iteration interpreter loop: the
mix of tiny numpy calls and bytecode the program spends its time in. It
allocates no arrays. Of the kernels tried (this one, a small tanh MLP forward
and backward pass in numpy, and a pure-Python graph walk), it tracked the
operations best. Over ten 20 s runs on that VM, the median calibrated time
of a run spread by 5-10%, against 10-26% for raw wall times. It is
benchmark code, so program changes never move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Mean kernel time on the 2-vCPU VM the benchmark was defined on; it only
# sets the scale of calibrated seconds.
REFERENCE_KERNEL_S = 0.25e-3
BRACKET_S = 0.25  # kernel sampling just before and just after each interval
POWER_STEPS, LOOP_STEPS = 30, 1000


class SpeedSampler:
    """Context manager that times an interval and samples the kernel for
    ``bracket_s`` seconds just before and just after it."""

    def __init__(self, bracket_s: float = BRACKET_S):
        rng = np.random.default_rng(0)
        self._tensor = rng.standard_normal((4, 4, 4))
        self._u0 = rng.standard_normal(4)
        self._u0 /= np.linalg.norm(self._u0)
        self._u, self._w = np.empty(4), np.empty(4)
        self.bracket_s = bracket_s
        self.kernel_s: list = []
        self.wall_s = 0.0

    def _kernel(self) -> float:
        u, w = self._u, self._w
        np.copyto(u, self._u0)
        for _ in range(POWER_STEPS):
            np.einsum("abc,b,c->a", self._tensor, u, u, out=w)
            np.divide(w, math.sqrt(w @ w), out=u)
        total = 0
        for i in range(LOOP_STEPS):
            total += i * i
        return float(u[0]) + total

    def _sample(self) -> None:
        end = time.perf_counter() + self.bracket_s
        while True:
            start = time.perf_counter()
            self._kernel()
            stop = time.perf_counter()
            self.kernel_s.append(stop - start)
            if stop >= end:
                return

    def __enter__(self) -> "SpeedSampler":
        self.kernel_s = []
        self._sample()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        self._sample()

    @property
    def scale(self) -> float:
        """Factor from wall seconds at the sampled speed to calibrated seconds."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s)

    @property
    def calibrated_s(self) -> float:
        """The interval's wall time in calibrated seconds."""
        return self.wall_s * self.scale
