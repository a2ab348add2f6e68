"""Reference-speed timing for a machine whose speed drifts.

On a shared 2-vCPU virtual machine the same replay pass took anywhere
from 66 to 124 ms per trace within four minutes, the whole process
slowing and recovering together.  No statistic inside a ten-second run
removes drift that slow, so every time the benchmark reports is scaled
to a reference speed: a fixed probe kernel (an interpreter loop plus a
small HiGHS LP, the two kinds of work the program does) is timed
between operations, and each operation's wall time is multiplied by
``PROBE_REF_S / probe``, with ``probe`` the mean of the probes taken
just before and just after it.  Over the same four minutes the replay
time in probe units varied by 14% where the wall time varied by 87%.

A reported time therefore reads "seconds on a machine where the probe
takes ``PROBE_REF_S``".  The probe assumes the program does no work
between operations, which holds for every workload: they run in one
thread with ``jobs=1``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Median probe time on the reference 2-vCPU machine.
PROBE_REF_S = 4.0e-3
# Operations shorter than this share a probe.
PROBE_INTERVAL_S = 0.25

_LP_A = np.random.default_rng(0).random((20, 30))
_LP_B = np.ones(20)
_LP_C = -np.ones(30)


def _kernel() -> None:
    acc = 0.0
    table = {}
    for i in range(6000):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key]
    linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0, 1), method="highs")


def probe() -> float:
    """Seconds the probe kernel takes now (best of two)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class RefTimer:
    """Times a sequence of operations and scales them to reference speed.

    ``start()`` opens an operation, ``stop(t0)`` closes it and probes
    when ``PROBE_INTERVAL_S`` has passed since the last probe, so short
    operations share a probe and long ones are bracketed by their own.
    Probe time is never inside an operation.
    """

    def __init__(self) -> None:
        self._probes: list[tuple[float, float]] = []
        self._ops: list[tuple[float, float]] = []

    def _probe(self) -> None:
        self._probes.append((time.perf_counter(), probe()))

    def start(self) -> float:
        if not self._probes:
            self._probe()
        return time.perf_counter()

    def stop(self, t0: float) -> float:
        """Close the operation opened at ``t0``; returns the next start."""
        t1 = time.perf_counter()
        self._ops.append((t0, t1))
        if t1 - self._probes[-1][0] >= PROBE_INTERVAL_S:
            self._probe()
        return time.perf_counter()

    def scaled(self) -> list[float]:
        """Every operation's duration at reference speed, in order."""
        if not self._ops:
            return []
        if self._probes[-1][0] < self._ops[-1][1]:
            self._probe()
        out, k = [], 0
        for t0, t1 in self._ops:
            while self._probes[k + 1][0] < t1:
                k += 1
            before, after = self._probes[k][1], self._probes[k + 1][1]
            out.append((t1 - t0) * PROBE_REF_S / (0.5 * (before + after)))
        return out

    def raw(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self._ops]

    def probe_times(self) -> list[float]:
        return [p for _, p in self._probes]


def timed(fn, *args) -> tuple[object, RefTimer]:
    """Run ``fn(*args, checkpoint=...)``; returns its result and timer.

    ``fn`` calls ``checkpoint()`` between the steps of a long run, where
    the timer probes when due, so its probes cover the whole call.
    """
    timer = RefTimer()
    open_at = [timer.start()]

    def checkpoint() -> None:
        open_at[0] = timer.stop(open_at[0])

    out = fn(*args, checkpoint=checkpoint)
    timer.stop(open_at[0])
    return out, timer


def setup_scale(setups: list[RefTimer], passes: list) -> float:
    """Reference-speed factor for set-up times: the run's median probe.

    Two probes cannot speak for the speed across a 15-second call such
    as the 150-node interference LP, so set-up is scaled by the median
    of every probe the run took, set-up checkpoints and passes alike.
    """
    probes = [p for t in setups for p in t.probe_times()]
    probes += [p for result in passes for p in result.probe_s]
    return PROBE_REF_S / statistics.median(probes)
