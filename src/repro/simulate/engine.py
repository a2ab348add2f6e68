"""Discrete-event replay of a task trace through the dynamic scheduler.

This is the paper's second-step evaluation: tasks arrive, the
:class:`~repro.core.scheduler.DynamicScheduler` maps each to a core (or
drops it), cores execute their queues FIFO, and reward is collected for
every task finished by its deadline.  Because the scheduler only assigns
tasks it can finish in time, assignment implies reward; completions are
still simulated as events so busy time and queue depths are exact.

Events pop in ``(time, kind, seq)`` order (see
:mod:`repro.simulate.events`).  The trace's arrivals are not pushed one
by one: they form one run sorted up front and merged with the event heap,
numbered in the order the trace lists them.  A trace therefore need not
be sorted — it replays exactly as the same tasks stably sorted by
arrival, and the default horizon is the latest arrival.

Fault injection (chaos-testing extension): the replay optionally
consumes :class:`~repro.simulate.events.CoreOutage` windows.  A FAULT
event kills a set of cores — queued-but-unfinished work on them is
*stranded*: its reward is never collected, its recorded busy time is
rolled back to the crash instant, and each stranded task is either
re-entered into the arrival stream at the crash time (``requeue``) or
discarded (``drop``), with explicit per-type accounting either way.  A
RECOVERY event readmits the cores with an empty queue.  With no outages
the replay is bit-identical to the fault-free engine.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.scheduler import DynamicScheduler
from repro.datacenter.builder import DataCenter
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.simulate.events import CoreOutage, EventKind, EventQueue
from repro.simulate.metrics import SimulationMetrics
from repro.workload.tasktypes import Workload
from repro.workload.trace import Task

__all__ = ["simulate_trace"]

#: Allowed dispositions for tasks stranded by a core outage.
STRANDED_POLICIES = ("requeue", "drop")


def simulate_trace(datacenter: DataCenter, workload: Workload,
                   tc: np.ndarray, pstates: np.ndarray,
                   trace: list[Task], *,
                   duration: float | None = None,
                   collect_latency: bool = True,
                   faults: Sequence[CoreOutage] | None = None,
                   stranded_policy: str = "requeue") -> SimulationMetrics:
    """Replay ``trace`` and return :class:`SimulationMetrics`.

    Parameters
    ----------
    tc / pstates:
        Desired rates and P-states from a first-step assignment (either
        technique).
    trace:
        Tasks in any order (:func:`repro.workload.trace.generate_trace`
        yields them sorted); replayed by arrival time, equal arrivals in
        listing order.  A negative or NaN arrival raises ``ValueError``.
    duration:
        Horizon used for rate metrics; defaults to the latest arrival
        (or 1s for an empty trace).  Completions beyond the horizon still
        execute — the horizon only normalizes rates.
    collect_latency:
        Record per-task response times (memory ~ one float per task);
        disable for very long runs that only need rates.
    faults:
        Optional :class:`~repro.simulate.events.CoreOutage` windows to
        inject.  ``None`` (or empty) reproduces the fault-free replay
        bit-identically.
    stranded_policy:
        ``"requeue"`` re-enters tasks stranded by an outage into the
        arrival stream at the crash instant (original deadline — they
        may still be dropped if no surviving core can make it);
        ``"drop"`` discards them.  Response times of requeued tasks are
        measured from the requeue instant.
    """
    with obs_span("des_replay", n_tasks=len(trace),
                  faulted=bool(faults)):
        metrics = _simulate_trace(
            datacenter, workload, tc, pstates, trace, duration=duration,
            collect_latency=collect_latency, faults=faults,
            stranded_policy=stranded_policy)
    obs_metrics.counter("des.replays").inc()
    obs_metrics.counter("des.tasks_completed").inc(int(metrics.completed.sum()))
    obs_metrics.counter("des.tasks_dropped").inc(int(metrics.dropped.sum()))
    obs_metrics.counter("des.fault_events").inc(metrics.n_fault_events)
    if metrics.stranded_requeued is not None:
        obs_metrics.counter("des.stranded_requeued").inc(
            int(metrics.stranded_requeued.sum()))
    if metrics.stranded_dropped is not None:
        obs_metrics.counter("des.stranded_dropped").inc(
            int(metrics.stranded_dropped.sum()))
    return metrics


def _simulate_trace(datacenter: DataCenter, workload: Workload,
                    tc: np.ndarray, pstates: np.ndarray,
                    trace: list[Task], *,
                    duration: float | None,
                    collect_latency: bool,
                    faults: Sequence[CoreOutage] | None,
                    stranded_policy: str) -> SimulationMetrics:
    if stranded_policy not in STRANDED_POLICIES:
        raise ValueError(f"stranded_policy must be one of "
                         f"{STRANDED_POLICIES}, got {stranded_policy!r}")
    queue = EventQueue((task.arrival, task) for task in trace)
    if duration is None:
        last = queue.last_arrival
        duration = max(1.0 if last is None else last, 1e-9)
    scheduler = DynamicScheduler(datacenter, workload, tc, pstates)
    n_cores = datacenter.n_cores
    t_count = workload.n_task_types
    core_free = np.zeros(n_cores)
    # per-event bookkeeping lives in Python lists (numpy scalar access
    # costs several times more); same IEEE arithmetic, converted at the end
    rewards = workload.rewards.tolist()
    exec_time = scheduler.exec_time.tolist()
    busy = [0.0] * n_cores
    busy_by_type = [[0.0] * n_cores for _ in range(t_count)]
    latencies: list[list[float]] | None = \
        [[] for _ in range(t_count)] if collect_latency else None
    completed = [0] * t_count
    dropped = [0] * t_count
    total_reward = 0.0

    # fault-injection state -------------------------------------------
    have_faults = bool(faults)
    dead_count = np.zeros(n_cores, dtype=int)
    # per-core queued work: rec_id -> (task, start, finish, latency slot)
    inflight: list[dict[int, tuple[Task, float, float, int | None]]] = \
        [{} for _ in range(n_cores)]
    cancelled: set[int] = set()
    lat_removals: list[set[int]] | None = \
        [set() for _ in range(t_count)] if collect_latency else None
    stranded_requeued = np.zeros(t_count, dtype=int)
    stranded_dropped = np.zeros(t_count, dtype=int)
    n_fault_events = 0
    next_rec = 0
    if have_faults:
        for outage in faults:
            cores = np.asarray(outage.cores, dtype=int)
            if np.any(cores < 0) or np.any(cores >= n_cores):
                raise ValueError(
                    f"outage cores must be in 0..{n_cores - 1}")
            queue.push(outage.start_s, EventKind.FAULT, tuple(cores))
            if math.isfinite(outage.end_s):
                queue.push(outage.end_s, EventKind.RECOVERY, tuple(cores))

    def clip(t: float) -> float:
        return min(t, duration)

    completion, fault, recovery = \
        EventKind.COMPLETION, EventKind.FAULT, EventKind.RECOVERY
    prev_time = 0.0
    while queue:
        now, kind, _, payload = queue.pop()
        if now < prev_time - 1e-9:
            raise AssertionError("event times went backwards")
        prev_time = now
        if kind is completion:
            task_type, core, rec_id = payload
            if rec_id in cancelled:
                cancelled.discard(rec_id)
                continue
            del inflight[core][rec_id]
            completed[task_type] += 1
            total_reward += rewards[task_type]
            continue
        if kind is fault:
            n_fault_events += 1
            newly_dead: list[int] = []
            for core in payload:
                dead_count[core] += 1
                if dead_count[core] == 1:
                    newly_dead.append(core)
            if newly_dead:
                scheduler.mark_cores_dead(np.asarray(newly_dead))
            for core in newly_dead:
                for rec_id, (task, start, finish, slot) \
                        in inflight[core].items():
                    cancelled.add(rec_id)
                    scheduler.forget_assignment(task.task_type, core)
                    # roll back busy time the task will never execute:
                    # it ran (at most) from its start until the crash
                    lost = max(0.0, clip(finish) - clip(max(start, now)))
                    busy[core] -= lost
                    busy_by_type[task.task_type][core] -= lost
                    if lat_removals is not None and slot is not None:
                        lat_removals[task.task_type].add(slot)
                    if stranded_policy == "requeue":
                        stranded_requeued[task.task_type] += 1
                        queue.push(now, EventKind.ARRIVAL,
                                   Task(arrival=now,
                                        task_type=task.task_type,
                                        uid=task.uid,
                                        deadline=task.deadline))
                    else:
                        stranded_dropped[task.task_type] += 1
                inflight[core].clear()
            continue
        if kind is recovery:
            n_fault_events += 1
            newly_alive: list[int] = []
            for core in payload:
                dead_count[core] -= 1
                if dead_count[core] == 0:
                    newly_alive.append(core)
            if newly_alive:
                scheduler.mark_cores_alive(np.asarray(newly_alive))
                # the queue was cleared at crash time; the core restarts idle
                core_free[np.asarray(newly_alive)] = now
            continue
        task: Task = payload
        task_type = task.task_type
        core = scheduler.select_core(task_type, task.deadline,
                                     task.arrival, core_free)
        if core is None:
            dropped[task_type] += 1
            continue
        scheduler.record_assignment(task_type, core)
        start = max(task.arrival, core_free.item(core))
        finish = start + exec_time[task_type][core]
        if finish > task.deadline + 1e-9:
            raise AssertionError(
                "scheduler assigned a task it cannot finish in time")
        core_free[core] = finish
        # busy time is clipped to the measurement horizon so utilization
        # stays a fraction even when queues extend past it (long-deadline
        # types may legally finish after the last arrival)
        clipped = max(0.0, clip(finish) - clip(start))
        busy[core] += clipped
        busy_by_type[task_type][core] += clipped
        slot = None
        if latencies is not None:
            slot = len(latencies[task_type])
            latencies[task_type].append(finish - task.arrival)
        queue.push(finish, completion, (task_type, core, next_rec))
        inflight[core][next_rec] = (task, start, finish, slot)
        next_rec += 1

    response_times = None
    if latencies is not None:
        response_times = []
        for i, samples in enumerate(latencies):
            if lat_removals is not None and lat_removals[i]:
                samples = [v for s, v in enumerate(samples)
                           if s not in lat_removals[i]]
            response_times.append(np.asarray(samples))

    return SimulationMetrics(
        duration=float(duration),
        total_reward=total_reward,
        completed=np.asarray(completed),
        dropped=np.asarray(dropped),
        atc=scheduler.assigned / float(duration),
        tc=np.asarray(tc, dtype=float),
        busy_time=np.asarray(busy),
        busy_by_type=np.asarray(busy_by_type),
        response_times=response_times,
        stranded_requeued=stranded_requeued if have_faults else None,
        stranded_dropped=stranded_dropped if have_faults else None,
        n_fault_events=n_fault_events,
    )
