"""Reference-speed scaling of the benchmark's timings.

The hosts this benchmark runs on change speed under it: on a shared
2-vCPU VM the same op takes 95 ms for a minute and 175 ms the next, as
the host's load and clock move.  A whole run can sit in either state, so
wall-clock medians of runs made minutes apart differ by 30-40% with no
change to the program.

To take the host out of the numbers, a worker times its workload's
reference kernel every ``SAMPLE_EVERY_S`` between ops, outside the timed
region.  Each op's wall latency is then scaled by ``reference_s / local
kernel time``, where the local kernel time is the median of the samples
nearest the op.  The result is the op's latency at reference speed: the
host speed at which the kernel takes ``reference_s``.

A kernel does the same kinds of work as its workload, so that it slows
down with the host as the workload does: small-array numpy calls from a
Python loop for every workload, plus streaming over an 8 MB array for
``dense_scale``, whose stacked arrays are far larger than the per-core
caches.  Kernels are
independent of gptlab, so a change to the program moves the scaled
numbers exactly as it moves the wall-clock ones; the wall-clock values
are printed beside them.
"""

from __future__ import annotations

import time

import numpy as np

# How often a worker times the kernel between ops.
SAMPLE_EVERY_S = 0.1
# Samples on each side of an op that its local kernel time uses.
NEIGHBOURS = 2
# Kernel calls at each end of a set-up, whose median scales its time.
SETUP_SAMPLE_REPEATS = 5

_TABLE = np.linspace(0.1, 1.0, 128).reshape(8, 16)


class Kernel:
    """``passes`` normalise-and-log passes over an 8x16 table, then
    ``streams`` passes over an 8 MB array.

    ``reference_s`` is one call's time on a 2-vCPU Xeon VM (Sapphire
    Rapids, numpy 2) in its usual state.  It defines the reference speed
    and never changes.
    """

    def __init__(self, passes: int, streams: int, reference_s: float):
        self.passes = passes
        self.streams = streams
        self.reference_s = reference_s

    def __call__(self, arrays=None) -> float:
        total = 0.0
        for _ in range(self.passes):
            rows = _TABLE / _TABLE.sum(axis=1, keepdims=True)
            total += float(np.log(rows).sum())
        if self.streams:
            src, dst = arrays
            for _ in range(self.streams):
                np.multiply(src, 1.0001, out=dst)
        return total

    def time(self, repeats: int = 1) -> float:
        """Median wall time of ``repeats`` calls, in seconds.

        The stream arrays are made and touched before the clock starts and
        freed after, so that they add neither page faults to the kernel's
        time nor memory to the workload's peak.
        """
        arrays = (np.full(1 << 20, 1.0), np.full(1 << 20, 0.0)) if self.streams else None
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self(arrays)
            times.append(time.perf_counter() - start)
        return float(np.median(times))


def kernel_for(workload: str) -> Kernel:
    if workload == "dense_scale":
        return Kernel(passes=200, streams=2, reference_s=4.8e-3)
    return Kernel(passes=100, streams=0, reference_s=0.75e-3)


class Sampler:
    """Kernel samples taken between ops, at most every ``SAMPLE_EVERY_S``."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples = []
        self._due = 0.0

    def between_ops(self):
        now = time.perf_counter()
        if now >= self._due:
            self.take()
            self._due = now + SAMPLE_EVERY_S

    def take(self):
        self.samples.append((time.perf_counter(), self.kernel.time()))


def op_scales(starts, samples, reference_s: float) -> np.ndarray:
    """Per op, ``reference_s`` over the median of the nearest samples.

    ``starts`` are the ops' start times and ``samples`` the ``(time,
    kernel seconds)`` pairs of a ``Sampler`` on the same clock, taken
    before the first op and after the last.
    """
    when = np.array([t for t, _ in samples])
    took = np.array([d for _, d in samples])
    after = np.searchsorted(when, np.asarray(starts, dtype=float))
    offsets = np.arange(-NEIGHBOURS, NEIGHBOURS)
    nearest = np.clip(after[:, None] + offsets[None, :], 0, took.size - 1)
    return reference_s / np.median(took[nearest], axis=1)
