"""The sorted arrival run merged into the event queue, end to end.

``EventQueue`` takes a trace's arrivals as one run sorted up front
instead of one heap push each; these tests pin what that must keep:
the ``(time, kind, seq)`` pop order against pushed events, the input
checks ``push`` applies, and replays that do not depend on the order
the trace lists its tasks in.
"""

import math

import numpy as np
import pytest

from repro.simulate.engine import simulate_trace
from repro.simulate.events import EventKind, EventQueue
from repro.workload.trace import Task, generate_trace


class TestRunOrdering:
    def test_equal_timestamps_mix_run_and_heap(self):
        """At one instant: completion, fault, recovery, then the trace's
        own arrival, then an arrival requeued during the run."""
        q = EventQueue([(5.0, "trace arrival")])
        q.push(5.0, EventKind.ARRIVAL, "requeued arrival")
        q.push(5.0, EventKind.RECOVERY, "recovery")
        q.push(5.0, EventKind.FAULT, "fault")
        q.push(5.0, EventKind.COMPLETION, "completion")
        popped = [q.pop().payload for _ in range(5)]
        assert popped == ["completion", "fault", "recovery",
                          "trace arrival", "requeued arrival"]
        assert not q

    def test_unsorted_run_pops_sorted_ties_in_given_order(self):
        q = EventQueue([(3.0, "c"), (1.0, "a1"), (2.0, "b"), (1.0, "a2")])
        assert q.last_arrival == 3.0
        assert len(q) == 4 and q.peek_time() == 1.0
        events = [q.pop() for _ in range(4)]
        assert [e.payload for e in events] == ["a1", "a2", "b", "c"]
        assert all(e.kind is EventKind.ARRIVAL for e in events)
        with pytest.raises(IndexError, match="empty"):
            q.pop()

    def test_pushed_events_number_after_the_run(self):
        q = EventQueue([(1.0, None), (2.0, None)])
        event = q.push(1.0, EventKind.ARRIVAL)
        assert event.seq == 2
        assert [q.pop().seq for _ in range(3)] == [0, 2, 1]

    def test_peek_sees_heap_before_run(self):
        q = EventQueue([(4.0, "run")])
        q.push(2.0, EventKind.COMPLETION, "heap")
        assert q.peek_time() == 2.0
        assert q.pop().payload == "heap"
        assert q.peek_time() == 4.0

    def test_empty_run(self):
        q = EventQueue([])
        assert q.last_arrival is None and not q

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_run_times_checked_like_push(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            EventQueue([(1.0, None), (bad, None)])


def _task(arrival, task_type, uid, slack):
    return Task(arrival=arrival, task_type=task_type, uid=uid,
                deadline=arrival + slack)


class TestTraceInputs:
    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_bad_arrival_rejected(self, scenario, assignment, bad):
        trace = [_task(0.0, 0, 0, 1.0), _task(bad, 0, 1, 1.0)]
        with pytest.raises(ValueError, match="non-negative"):
            simulate_trace(scenario.datacenter, scenario.workload,
                           assignment.tc, assignment.pstates, trace)

    def test_shuffled_trace_replays_like_sorted(self, scenario, assignment):
        """A shuffled trace replays bit for bit like the same tasks
        stably sorted by arrival — default horizon included, which is
        the latest arrival rather than the last listed one."""
        wl = scenario.workload
        rng = np.random.default_rng(7)
        base = generate_trace(wl, 5.0, rng)
        # coarse arrival grid: many ties, broken by listing order
        slack = wl.deadline_slack
        trace = [_task(round(t.arrival, 2), t.task_type, t.uid,
                       float(slack[t.task_type])) for t in base]
        shuffled = [trace[i] for i in rng.permutation(len(trace))]
        ordered = sorted(shuffled, key=lambda t: t.arrival)
        assert shuffled[-1].arrival != ordered[-1].arrival

        def run(tr):
            return simulate_trace(scenario.datacenter, wl, assignment.tc,
                                  assignment.pstates, tr)

        got, want = run(shuffled), run(ordered)
        assert got.duration == want.duration == ordered[-1].arrival
        assert got.total_reward == want.total_reward
        for name in ("completed", "dropped", "atc", "busy_time",
                     "busy_by_type"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        for a, b in zip(got.response_times, want.response_times,
                        strict=True):
            np.testing.assert_array_equal(a, b)
