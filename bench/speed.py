"""Machine-speed reference for timing on a shared host.

On the 2-vCPU Xeon VM this benchmark was tuned on, single-threaded Python
alternates between two speeds, about 1.8x apart, for stretches of seconds
to minutes, with thread CPU time tracking wall time (the loss is slower
execution, not descheduling).  Whole runs then read up to 1.7x slower than
their neighbours, more than any regression bound can absorb.

The benchmark therefore times a fixed pure-Python kernel before the first
op, after every op that ends INTERVAL_NS or more after the last sample, and
after the last op, and reports each op's time scaled to a machine on which
the kernel takes REFERENCE_NS:

    reported = measured * REFERENCE_NS / median(kernel times within WINDOW_NS of the op)

The kernel does not depend on tailbound, so a change that halves an op's
work still halves its reported time.  Raw wall times are reported beside
the scaled ones.

A probe only helps where the ops slow down with it, and the speed states
do not slow all work alike (:func:`for_workload` picks the probe):

* validate-stream and empirical-csv ops are interpreter-bound like the
  kernel, which cuts the drift of 14-second medians from ~0.6 to ~0.17.
* set-up and cli-oneshot ops are process start, dynamic loading and
  imports, which the states move less than the kernel.  They are scaled by
  a bare ``python -c pass`` child timed the same way
  (:func:`interpreter_speed`), against INTERPRETER_REFERENCE_NS.
* shape-search ops are numpy vector passes that slow down by only 0.14 to
  0.29 of the kernel's slow-down (log-log slope), so the kernel
  over-corrects them 2-4x; a ``math.fsum`` probe tracked them over one
  stretch and not over the next.  Their times are raw wall times.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import sys
import time

import proc

#: kernel time, in ns, on the reference machine: the fast-state median on
#: the VM above
REFERENCE_NS = 1_200_000
#: minimum spacing of kernel samples between ops
INTERVAL_NS = 50_000_000
#: samples this close to an op's start or end set its scale: one sample is
#: noisy, while the host's speed states last seconds
WINDOW_NS = 1_000_000_000
#: bare ``python -c pass`` wall time, in ns, on the reference machine: the
#: fast-state figure on the VM above
INTERPRETER_REFERENCE_NS = 50_000_000
#: minimum spacing of bare-interpreter samples between child ops
INTERPRETER_INTERVAL_NS = 400_000_000


def kernel() -> float:
    """Fixed interpreter-bound work: float math, calls, dict and str ops."""
    acc = 0.0
    parts = []
    table = {}
    for i in range(1, 3000):
        x = math.sqrt(i) / (1.0 + i * 1e-3)
        acc += x * x - math.log(i)
        table[i & 31] = acc
        if i % 8 == 0:
            parts.append(f"{acc:.6f}")
    return acc + len("".join(parts)) + len(table)


class Speed:
    """Probe samples ``(start_ns, probe_ns)`` and the scale they imply.

    The probe is :func:`kernel` unless given; with ``probe=None`` and
    ``reference_ns=None`` nothing is sampled and every scale is 1.
    ``samples`` and ``reference_ns`` are what :meth:`state` saves for a
    later process.
    """

    def __init__(self, samples=(), reference_ns=REFERENCE_NS, probe=kernel,
                 interval_ns=INTERVAL_NS):
        self.samples = [tuple(s) for s in samples]
        self.starts = [s[0] for s in self.samples]
        self.last_end = 0
        self.reference_ns = reference_ns
        self.probe = probe
        self.interval_ns = interval_ns
        self._scales = {}

    def state(self) -> dict:
        return {"samples": self.samples, "reference_ns": self.reference_ns}

    def sample(self) -> None:
        if self.probe is None:
            return
        t0 = time.perf_counter_ns()
        self.probe()
        t1 = time.perf_counter_ns()
        self.samples.append((t0, t1 - t0))
        self.starts.append(t0)
        self.last_end = t1

    def sample_if_due(self) -> None:
        if time.perf_counter_ns() - self.last_end >= self.interval_ns:
            self.sample()

    def scale(self, t0: int, t1: int) -> float:
        """reference_ns over the median probe time of the samples taken
        within WINDOW_NS of [t0, t1], or of the two bracketing it when the
        window holds fewer than two."""
        if self.reference_ns is None:
            return 1.0
        last = len(self.samples) - 1
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_NS)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_NS)
        if hi - lo < 2:
            lo = min(max(bisect.bisect_right(self.starts, t0) - 1, 0), last)
            hi = min(bisect.bisect_left(self.starts, t1), last) + 1
        if (lo, hi) not in self._scales:  # most ops share a window with the last
            self._scales[lo, hi] = self.reference_ns / statistics.median(
                s[1] for s in self.samples[lo:hi])
        return self._scales[lo, hi]


def interpreter_speed(env: dict) -> Speed:
    """A :class:`Speed` whose probe is a bare ``python -c pass`` child."""
    argv = [sys.executable, "-c", "pass"]

    def probe():
        code, _, _ = proc.spawn_wait(argv, env, os.devnull, os.devnull, 60.0)
        if code != 0:
            raise RuntimeError(f"bare interpreter exited {code}")

    return Speed(reference_ns=INTERPRETER_REFERENCE_NS, probe=probe,
                 interval_ns=INTERPRETER_INTERVAL_NS)


def for_workload(workload: str, env: dict) -> Speed:
    """The probe for one workload's timed ops (see the module docstring)."""
    if workload == "cli-oneshot":
        return interpreter_speed(env)
    if workload == "shape-search":
        return Speed(reference_ns=None, probe=None)
    return Speed()
