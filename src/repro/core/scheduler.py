"""Second-step dynamic scheduler (Section V.C).

The first step fixes the *desired* execution rate ``TC(i, k)`` of every
task type on every core; at run time tasks arrive one by one and must be
mapped immediately.  The paper's scheduler tracks the *actual* rates
``ATC(i, k)`` and, for each incoming task of type *i*:

* considers only cores that are supposed to run that type
  (``TC(i, k) > 0``), are not already ahead of their desired rate
  (``ATC/TC <= 1``), and can finish the task before its deadline given
  their current queue;
* among those, picks the core with the minimum ``ATC(i, k) / TC(i, k)``
  — the core furthest *behind* its desired rate;
* drops the task when no such core exists.

``ATC(i, k)`` is maintained as assigned-count divided by elapsed time;
at time zero all ratios are zero, so early tasks spread across all
eligible cores.
"""

from __future__ import annotations

import numpy as np

from repro.datacenter.builder import DataCenter
from repro.workload.tasktypes import Workload

__all__ = ["DynamicScheduler"]


class DynamicScheduler:
    """Stateful second-step scheduler.

    Parameters
    ----------
    datacenter / workload:
        Give core types and ECS values.
    tc:
        Desired execution rates, ``(T, NCORES)`` (from Stage 3 or the
        baseline).
    pstates:
        Per-core P-states the rates were computed for; fixes execution
        times.
    """

    def __init__(self, datacenter: DataCenter, workload: Workload,
                 tc: np.ndarray, pstates: np.ndarray):
        tc = np.asarray(tc, dtype=float)
        pstates = np.asarray(pstates, dtype=int)
        t_count = workload.n_task_types
        n_cores = datacenter.n_cores
        if tc.shape != (t_count, n_cores):
            raise ValueError(
                f"tc must be ({t_count}, {n_cores}), got {tc.shape}")
        if pstates.shape != (n_cores,):
            raise ValueError(f"pstates must be ({n_cores},)")
        self.tc = tc
        # execution time of each (type, core); inf when the core cannot
        # run the type at its P-state
        ecs = workload.ecs[:, datacenter.core_type, pstates]  # (T, NCORES)
        with np.errstate(divide="ignore"):
            self.exec_time = np.where(ecs > 0.0, 1.0 / np.maximum(ecs, 1e-300),
                                      np.inf)
        eligible = (tc > 0.0) & np.isfinite(self.exec_time)
        # fault-injection support: dead cores are excluded from selection
        # until marked alive again; _any_dead keeps the healthy hot path
        # free of the extra mask.
        self._core_dead = np.zeros(n_cores, dtype=bool)
        self._any_dead = False
        # per-type candidate core lists (usually a small subset of the
        # room) plus contiguous copies of their rates/exec-times, so
        # select_core touches O(candidates) memory; _cand_assigned holds
        # the one assignment count, and _cand_pos[i][k] is core k's
        # position in type i's list (-1 when k is not a candidate)
        self._cand: list[np.ndarray] = []
        self._cand_tc: list[np.ndarray] = []
        self._cand_exec: list[np.ndarray] = []
        self._cand_assigned: list[np.ndarray] = []
        cand_pos = np.full((t_count, n_cores), -1)
        for i in range(t_count):
            idx = np.nonzero(eligible[i])[0]
            cand_pos[i, idx] = np.arange(idx.size)
            self._cand.append(idx)
            self._cand_tc.append(np.ascontiguousarray(tc[i, idx]))
            self._cand_exec.append(
                np.ascontiguousarray(self.exec_time[i, idx]))
            self._cand_assigned.append(np.zeros(idx.size))
        self._cand_pos: list[list[int]] = cand_pos.tolist()

    # ------------------------------------------------------------------
    @property
    def assigned(self) -> np.ndarray:
        """Assignment counts ``(T, NCORES)`` behind ``ATC``."""
        out = np.zeros(self.tc.shape)
        for i, idx in enumerate(self._cand):
            out[i, idx] = self._cand_assigned[i]
        return out

    def _cand_ratios(self, task_type: int, now: float) -> np.ndarray:
        """``ATC/TC`` of type ``task_type``'s candidate cores at ``now``."""
        if now <= 0.0:
            return np.zeros(self._cand[task_type].size)
        return self._cand_assigned[task_type] \
            / (self._cand_tc[task_type] * now)

    def ratios(self, task_type: int, now: float) -> np.ndarray:
        """``ATC(i, k) / TC(i, k)`` for one task type at time ``now``.

        Cores with ``TC = 0`` report ``inf`` so they are never selected.
        """
        out = np.full(self.tc.shape[1], np.inf)
        out[self._cand[task_type]] = self._cand_ratios(task_type, now)
        return out

    def select_core(self, task_type: int, deadline: float, now: float,
                    core_free_time: np.ndarray) -> int | None:
        """Pick a core for an arriving task, or ``None`` to drop it.

        ``core_free_time[k]`` is the time core *k* finishes its current
        queue; the task would start at ``max(now, free)`` and must finish
        by ``deadline``.
        """
        idx = self._cand[task_type]
        if idx.size == 0:
            return None
        ratio = self._cand_ratios(task_type, now)
        start = np.maximum(core_free_time[idx], now)
        finish = start + self._cand_exec[task_type]
        ok = (ratio <= 1.0 + 1e-12) & (finish <= deadline + 1e-12)
        if self._any_dead:
            ok &= ~self._core_dead[idx]
        masked = np.where(ok, ratio, np.inf)
        best = int(masked.argmin())  # ties go to the first candidate
        if masked[best] == np.inf:
            return None
        return int(idx[best])

    def record_assignment(self, task_type: int, core: int) -> None:
        """Count an assignment toward ``ATC``."""
        pos = self._candidate_pos(task_type, core)
        if pos < 0:
            raise ValueError(
                f"core {core} is not a planned target for type {task_type}")
        self._cand_assigned[task_type][pos] += 1.0

    def forget_assignment(self, task_type: int, core: int) -> None:
        """Reverse one :meth:`record_assignment` (stranded task).

        When a fault strands a queued task, the task was assigned but
        never executed; forgetting it keeps ``ATC`` an honest count of
        work the core actually absorbed (and lets a requeued copy pick
        any core without double-counting).
        """
        pos = self._candidate_pos(task_type, core)
        if pos < 0 or self._cand_assigned[task_type][pos] < 1.0:
            raise ValueError(
                f"no recorded assignment of type {task_type} on core {core} "
                "to forget")
        self._cand_assigned[task_type][pos] -= 1.0

    def _candidate_pos(self, task_type: int, core: int) -> int:
        """``core``'s position in type ``task_type``'s candidates, or -1."""
        row = self._cand_pos[task_type]
        return row[core] if 0 <= core < len(row) else -1

    # ------------------------------------------------------------------
    def mark_cores_dead(self, cores: np.ndarray) -> None:
        """Exclude cores from selection (node crash) until marked alive."""
        self._core_dead[np.asarray(cores, dtype=int)] = True
        self._any_dead = bool(self._core_dead.any())

    def mark_cores_alive(self, cores: np.ndarray) -> None:
        """Readmit previously dead cores (node recovery)."""
        self._core_dead[np.asarray(cores, dtype=int)] = False
        self._any_dead = bool(self._core_dead.any())

    def core_dead(self, core: int) -> bool:
        """True while ``core`` is marked dead."""
        return bool(self._core_dead[core])

    def atc(self, elapsed: float) -> np.ndarray:
        """Actual execution-rate matrix after ``elapsed`` seconds."""
        if elapsed <= 0.0:
            raise ValueError("elapsed time must be positive")
        return self.assigned / elapsed
