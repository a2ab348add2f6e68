"""Minimal discrete-event kernel used by the data center simulator.

Events are ordered by the tuple ``(time, kind, seq)``: earlier times
first, then :class:`EventKind` order at equal times, then ``seq`` — a
number unique within one queue, so events of one kind at one instant pop
in the order they were scheduled (deterministic runs) and payloads are
never compared.  :class:`Event` is a named tuple, so the heap compares
native tuples.

A queue holds two sources merged in :meth:`EventQueue.pop`: a heap for
events pushed while the run goes on (completions, faults, recoveries,
requeued arrivals) and one run of ARRIVAL events given up front (a task
trace).  The run takes ``seq`` ``0 .. N-1`` in the order given and is
sorted once, so it need not arrive sorted; already sorted input sorts
in linear time.  Pushed events number on from ``N``.

The kernel is deliberately tiny — arrivals, completions and the fault
kinds the chaos-testing layer injects — but is kept separate from the
engine so further extensions (P-state changes, thermal transients) have
a place to plug in.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterable, NamedTuple

__all__ = ["EventKind", "Event", "EventQueue", "CoreOutage"]


class EventKind(IntEnum):
    """Kinds of simulation events.

    The integer values fix the pop order at identical timestamps, and
    each adjacency is deliberate:

    * ``COMPLETION`` first — a finishing core frees up (and its task
      counts as done) before anything else happens at that instant;
    * ``FAULT`` before ``RECOVERY`` — the two compose through per-core
      counters, so a fault starting exactly when another ends leaves the
      core dead either way, but the fixed order keeps replays
      deterministic;
    * ``ARRIVAL`` last — a task arriving at the instant of a fault sees
      the core already dead, and one arriving at a recovery instant may
      already use the recovered core.
    """

    COMPLETION = 0
    FAULT = 1
    RECOVERY = 2
    ARRIVAL = 3


@dataclass(frozen=True)
class CoreOutage:
    """A window during which a set of cores cannot execute tasks.

    The DES-level shape of a node crash: the affected cores take no new
    tasks on ``[start_s, end_s)`` and any queued work is stranded at
    ``start_s``.  ``end_s = inf`` means no recovery within the run.
    Windows may overlap (cores are dead while covered by at least one).
    """

    start_s: float
    cores: tuple[int, ...]
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if not self.start_s >= 0.0:
            raise ValueError(f"outage start must be >= 0, got {self.start_s}")
        if not self.end_s > self.start_s:
            raise ValueError("outage must end after it starts")
        if not self.cores:
            raise ValueError("outage needs at least one core")


class Event(NamedTuple):
    """One scheduled event.

    Sort key is ``(time, kind, seq)``; ``seq`` is unique within a queue,
    so ``payload`` never takes part in ordering.
    """

    time: float
    kind: EventKind
    seq: int
    payload: Any = None


def _check_time(time: float) -> None:
    if not time >= 0.0:
        raise ValueError(f"event time must be non-negative, got {time}")


class EventQueue:
    """Future event list: a heap merged with one sorted arrival run.

    ``arrivals`` are ``(time, payload)`` pairs that become ARRIVAL
    events with ``seq`` ``0 .. N-1`` in the order given; times are
    checked as :meth:`push` checks them.
    """

    def __init__(self, arrivals: Iterable[tuple[float, Any]] = ()) -> None:
        run = [Event(float(time), EventKind.ARRIVAL, seq, payload)
               for seq, (time, payload) in enumerate(arrivals)]
        for event in run:
            _check_time(event.time)
        run.sort(reverse=True)  # earliest last: pops from the list's end
        #: Latest time in the arrival run (``None`` for an empty run).
        self.last_arrival: float | None = run[0].time if run else None
        self._run = run
        self._heap: list[Event] = []
        self._counter = itertools.count(len(run))

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns it (useful for assertions)."""
        _check_time(time)
        event = Event(float(time), kind, next(self._counter), payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        run, heap = self._run, self._heap
        if run and (not heap or run[-1] < heap[0]):
            return run.pop()
        if not heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(heap)

    def peek_time(self) -> float:
        """Timestamp of the earliest event."""
        heads = self._run[-1:] + self._heap[:1]
        if not heads:
            raise IndexError("peek on empty event queue")
        return min(heads).time

    def __len__(self) -> int:
        return len(self._run) + len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._run or self._heap)
