"""Task arrival traces (Section III.B) for the dynamic scheduler.

The first-step optimization only needs arrival *rates*; the second-step
dynamic scheduler consumes an actual stream of tasks.  We model each task
type as an independent Poisson process with the workload's rate, the
standard model consistent with the paper's steady-state analysis.

For the live control service (:mod:`repro.serve`) this module also
provides *streaming* generation — :func:`stream_trace_ticks` yields one
:class:`TickDemand` per control tick — plus two profile combinators
(:class:`FlashCrowdProfile`, :class:`RegionalShiftProfile`) that wrap
any :class:`repro.workload.profiles.ArrivalProfile` with the demand
patterns the service is stress-tested against: sudden flash-crowd
bursts and slow regional demand shifts between task types.  The
combinators duck-type the profile protocol rather than import it, since
:mod:`repro.workload.profiles` already imports :class:`Task` from here.

Every non-stationary stream — :func:`stream_trace_ticks` per tick and
:func:`repro.workload.profiles.generate_nonstationary_trace` over its
whole horizon — is drawn by one Lewis-Shedler helper,
:func:`thin_tasks`, in two phases.  Phase 1 draws the candidates in a
fixed order: per task type in index order, exponential gaps at the
type's maximum rate, one uniform per candidate inside the window, and a
last gap that crosses the window's end with no uniform after it.  The
draws therefore never depend on the rates.  Phase 2 evaluates the rates
of every candidate in one ``profile.rates_at(times)`` call, checks them
against ``0 <= rates <= max_rates()`` and keeps a candidate when its
uniform is ``<= rate / max_rate``.  Profiles implement the batched
``rates_at(times) -> (len(times), T)`` once; the scalar ``rates(t)`` is
its row (:class:`BatchedProfile`).

``ValueError`` is raised for a non-finite or non-positive tick length
or duration (the candidate loop would never reach the window's end), a
negative or non-finite ``max_rates()``, and rates outside
``[0, max_rates()]`` — an understated bound would silently under-sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.workload.tasktypes import Workload

__all__ = ["Task", "generate_trace", "BatchedProfile", "FlashCrowdProfile",
           "RegionalShiftProfile", "TickDemand", "stream_trace_ticks",
           "thin_tasks"]


@dataclass(frozen=True, order=True)
class Task:
    """One task instance flowing through the data center.

    Ordered by arrival time so heaps/sorts work directly.

    Attributes
    ----------
    arrival:
        Arrival time, seconds.
    task_type:
        Index into the workload's task types.
    uid:
        Unique id (dense, per trace).
    deadline:
        ``arrival + m_i`` (Section III.B).
    """

    arrival: float
    task_type: int
    uid: int
    deadline: float


def generate_trace(workload: Workload, duration: float,
                   rng: np.random.Generator) -> list[Task]:
    """Sample a merged Poisson arrival trace over ``[0, duration)``.

    Tasks of type *i* arrive with exponential inter-arrival times of mean
    ``1 / lambda_i``; the per-type streams are merged and re-numbered in
    arrival order.  Types with zero rate produce no tasks.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    arrivals: list[tuple[float, int]] = []
    for i, rate in enumerate(workload.arrival_rates):
        if rate <= 0:
            continue
        # Expected count + 6 sigma headroom, then trim; resample the
        # rare shortfall instead of looping one-by-one in Python.
        n_expected = rate * duration
        n_draw = int(n_expected + 6.0 * np.sqrt(n_expected) + 10)
        while True:
            gaps = rng.exponential(1.0 / rate, size=n_draw)
            times = np.cumsum(gaps)
            if times[-1] >= duration:
                break
            n_draw *= 2
        times = times[times < duration]
        arrivals.extend((float(t), i) for t in times)
    arrivals.sort()
    slack = workload.deadline_slack
    return [Task(arrival=t, task_type=i, uid=uid, deadline=t + float(slack[i]))
            for uid, (t, i) in enumerate(arrivals)]


class BatchedProfile:
    """Scalar ``rates(t)`` as the one row of ``rates_at([t])``.

    Each profile writes its formula once, batched over instants; the
    scalar form returns the same bytes as the matching batched row.
    """

    def rates(self, t: float) -> np.ndarray:
        """Arrival-rate vector (tasks/s per type) at time ``t``."""
        return self.rates_at(np.array([t], dtype=float))[0]


def thin_tasks(workload: Workload, profile: object, start: float,
               end: float, first_uid: int,
               rng: np.random.Generator) -> list[Task]:
    """Lewis-Shedler thinning of ``profile`` over ``[start, end)``.

    Phase 1 draws each type's candidates at ``profile.max_rates()`` (the
    draw order is in the module docstring); phase 2 accepts them against
    one batched ``profile.rates_at`` call.  Returns the accepted tasks in
    ``(arrival, type)`` order, uids from ``first_uid``, deadlines from
    the workload's slack.  ``start`` and ``end`` must be finite.
    """
    max_rates = np.asarray(profile.max_rates(), dtype=float)
    if max_rates.shape != (workload.n_task_types,):
        raise ValueError("profile dimension does not match workload")
    if not np.all(np.isfinite(max_rates) & (max_rates >= 0.0)):
        raise ValueError(f"{type(profile).__name__}.max_rates() must be "
                         f"finite and non-negative, got {max_rates}")
    times: list[float] = []
    draws: list[float] = []
    counts = [0] * max_rates.size
    # rng.random() is bit-equal to rng.uniform() and cheaper per call
    exponential, uniform = rng.exponential, rng.random
    add_time, add_draw = times.append, draws.append
    for i, rate_max in enumerate(max_rates.tolist()):
        if rate_max <= 0:
            continue
        scale = 1.0 / rate_max
        first = len(times)
        t = start + exponential(scale)
        while t < end:
            add_time(t)
            add_draw(uniform())
            t += exponential(scale)
        counts[i] = len(times) - first
    if not times:
        return []
    at = np.array(times)
    kind = np.repeat(np.arange(max_rates.size), counts)
    rates = np.asarray(profile.rates_at(at), dtype=float)
    valid = (rates >= 0.0) & (rates <= max_rates)
    if not valid.all():
        bad = int(np.argmin(valid.all(axis=1)))
        raise ValueError(
            f"{type(profile).__name__} rates at t={times[bad]!r} are "
            f"outside [0, max_rates()]: {rates[bad]} vs {max_rates}")
    rate = rates[np.arange(at.size), kind]
    keep = np.array(draws) <= rate / max_rates[kind]
    at, kind = at[keep], kind[keep]
    # types come in index order, so a stable sort on time is the
    # (arrival, type) order
    order = np.argsort(at, kind="stable")
    at, kind = at[order], kind[order]
    return list(map(Task, at.tolist(), kind.tolist(),
                    range(first_uid, first_uid + at.size),
                    (at + workload.deadline_slack[kind]).tolist()))


@dataclass(frozen=True)
class FlashCrowdProfile(BatchedProfile):
    """Flash-crowd bursts multiplied onto an inner profile.

    Each burst is ``(start_s, duration_s, magnitude)``: every task
    type's rate is multiplied by ``magnitude`` on
    ``[start_s, start_s + duration_s)``.  Overlapping bursts compound.
    ``inner`` is any arrival profile
    (:class:`repro.workload.profiles.ArrivalProfile`).
    """

    inner: object
    bursts: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        for start, duration, magnitude in self.bursts:
            if duration <= 0:
                raise ValueError(
                    f"burst duration must be positive, got {duration}")
            if magnitude < 0:
                raise ValueError(
                    f"burst magnitude must be non-negative, got {magnitude}")
            if start < 0:
                raise ValueError(
                    f"burst start must be non-negative, got {start}")

    def rates_at(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        factor = np.ones(times.shape)
        for start, duration, magnitude in self.bursts:
            factor[(start <= times) & (times < start + duration)] *= magnitude
        return np.asarray(self.inner.rates_at(times), dtype=float) \
            * factor[:, None]

    def max_rates(self) -> np.ndarray:
        # valid thinning bound: assume every amplifying burst overlaps
        bound = 1.0
        for _, _, magnitude in self.bursts:
            bound *= max(magnitude, 1.0)
        return np.asarray(self.inner.max_rates(), dtype=float) * bound


@dataclass(frozen=True)
class RegionalShiftProfile(BatchedProfile):
    """Slow demand shift *between* task types (regions) over a cycle.

    Each task type ``i`` is modulated by
    ``1 + amplitude * sin(2 pi t / period_s + 2 pi i / T)`` — the phase
    offset staggers the types around the cycle, so total demand is
    roughly conserved while its composition rotates (follow-the-sun
    regional load).  ``inner`` is any arrival profile.
    """

    inner: object
    amplitude: float = 0.3
    period_s: float = 3600.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.period_s <= 0:
            raise ValueError("period must be positive")

    def rates_at(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        base = np.asarray(self.inner.rates_at(times), dtype=float)
        n = base.shape[1]
        phase = 2.0 * np.pi * np.arange(n) / max(n, 1)
        return base * (1.0 + self.amplitude * np.sin(
            (2.0 * np.pi * times / self.period_s)[:, None] + phase))

    def max_rates(self) -> np.ndarray:
        return np.asarray(self.inner.max_rates(), dtype=float) \
            * (1.0 + self.amplitude)


@dataclass(frozen=True)
class TickDemand:
    """Demand presented to the control service during one tick.

    Attributes
    ----------
    index / start_s:
        Tick number and its start instant (run time, seconds).
    rates:
        The profile's arrival-rate vector at ``start_s`` — what the
        rolling-horizon replanner plans against.
    tasks:
        The tick's sampled arrivals (absolute arrival times), uids
        continuous across the whole stream.
    """

    index: int
    start_s: float
    rates: np.ndarray
    tasks: tuple[Task, ...]


def stream_trace_ticks(workload: Workload, profile: object, tick_s: float,
                       n_ticks: int, rng: np.random.Generator
                       ) -> Iterator[TickDemand]:
    """Yield one :class:`TickDemand` per control tick.

    Arrivals are sampled per tick by Lewis-Shedler thinning
    (:func:`thin_tasks`) against the profile's global maximum rates;
    because Poisson increments over disjoint windows are independent,
    restarting the candidate stream at each tick boundary is still an
    exact simulation of the inhomogeneous process.  Task uids number the
    stream continuously.  Ticks are generated lazily, one per ``next()``.
    """
    if not (math.isfinite(tick_s) and tick_s > 0):
        raise ValueError(
            f"tick length must be finite and positive, got {tick_s}")
    if n_ticks <= 0:
        raise ValueError(f"tick count must be positive, got {n_ticks}")
    uid = 0
    for index in range(n_ticks):
        a = index * tick_s
        tasks = tuple(thin_tasks(workload, profile, a, a + tick_s, uid, rng))
        uid += len(tasks)
        yield TickDemand(index=index, start_s=a,
                         rates=np.asarray(profile.rates(a), dtype=float),
                         tasks=tasks)
