"""DynamicScheduler's one assignment count and its derived views.

Assignments are counted once, per candidate core of each task type;
``assigned``, ``atc()`` and ``ratios()`` are read from those counters,
and ``ratios()`` uses the same ATC/TC expression ``select_core`` ranks.
"""

import numpy as np
import pytest

from repro.core.scheduler import DynamicScheduler


@pytest.fixture()
def sched(scenario, assignment):
    return DynamicScheduler(scenario.datacenter, scenario.workload,
                            assignment.tc, assignment.pstates)


def _planned_type(assignment):
    return int(np.argmax((assignment.tc > 0).sum(axis=1)))


class TestCounts:
    def test_assigned_tracks_record_and_forget(self, assignment, sched):
        i = _planned_type(assignment)
        a, b = (int(k) for k in np.nonzero(assignment.tc[i] > 0)[0][:2])
        for core in (a, a, b, a):
            sched.record_assignment(i, core)
        sched.forget_assignment(i, a)
        want = np.zeros_like(assignment.tc)
        want[i, a], want[i, b] = 2.0, 1.0
        np.testing.assert_array_equal(sched.assigned, want)
        np.testing.assert_array_equal(sched.atc(4.0), want / 4.0)

    def test_unplanned_core_rejected(self, assignment, sched):
        i = _planned_type(assignment)
        off = np.nonzero(assignment.tc[i] == 0)[0]
        if off.size == 0:
            pytest.skip("every core serves this type")
        with pytest.raises(ValueError, match="not a planned target"):
            sched.record_assignment(i, int(off[0]))
        with pytest.raises(ValueError, match="no recorded assignment"):
            sched.forget_assignment(i, int(off[0]))

    def test_forget_without_record_rejected(self, assignment, sched):
        i = _planned_type(assignment)
        k = int(np.nonzero(assignment.tc[i] > 0)[0][0])
        with pytest.raises(ValueError, match="no recorded assignment"):
            sched.forget_assignment(i, k)

    @pytest.mark.parametrize("core", [-1, 10**6])
    def test_out_of_range_core_rejected(self, assignment, sched, core):
        i = _planned_type(assignment)
        with pytest.raises(ValueError, match="not a planned target"):
            sched.record_assignment(i, core)
        with pytest.raises(ValueError, match="no recorded assignment"):
            sched.forget_assignment(i, core)


class TestSelectionMatchesRatios:
    def test_picks_first_minimum_of_ratios(self, scenario, assignment,
                                           sched):
        i = _planned_type(assignment)
        eligible = np.nonzero(assignment.tc[i] > 0)[0]
        for n, k in enumerate(eligible[:6]):
            for _ in range((n + 1) % 3):
                sched.record_assignment(i, int(k))
        free = np.zeros(scenario.datacenter.n_cores)
        now = 50.0
        r = sched.ratios(i, now)
        r = np.where(r <= 1.0 + 1e-12, r, np.inf)
        assert sched.select_core(i, 1e9, now, free) == int(np.argmin(r))

    def test_dead_cores_skipped_and_all_dead_drops(self, scenario,
                                                   assignment, sched):
        i = _planned_type(assignment)
        free = np.zeros(scenario.datacenter.n_cores)
        first = sched.select_core(i, 1e9, 1.0, free)
        sched.mark_cores_dead(np.asarray([first]))
        second = sched.select_core(i, 1e9, 1.0, free)
        assert second is not None and second != first
        sched.mark_cores_dead(np.nonzero(assignment.tc[i] > 0)[0])
        assert sched.select_core(i, 1e9, 1.0, free) is None
        sched.mark_cores_alive(np.asarray([first]))
        assert sched.select_core(i, 1e9, 1.0, free) == first
