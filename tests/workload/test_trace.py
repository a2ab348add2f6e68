"""Tests for repro.workload.trace — Poisson task traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.tasktypes import Workload
from repro.workload.trace import Task, generate_trace


class BoundedRng:
    """A generator that fails the test rather than feed an endless loop."""

    def __init__(self, budget: int = 10_000) -> None:
        self._rng = np.random.default_rng(0)
        self._left = budget

    def _draw(self, name, *args):
        self._left -= 1
        if self._left < 0:
            raise AssertionError("thinning did not reach the window's end")
        return getattr(self._rng, name)(*args)

    def exponential(self, scale=1.0):
        return self._draw("exponential", scale)

    def uniform(self):
        return self._draw("uniform")

    def random(self):
        return self._draw("random")


class FixedRates:
    """A duck-typed profile: constant ``rates`` under a chosen bound."""

    def __init__(self, rates, bound) -> None:
        self._rates = np.asarray(rates, dtype=float)
        self._bound = np.asarray(bound, dtype=float)

    def rates_at(self, times):
        return np.tile(self._rates, (len(times), 1))

    def rates(self, t):
        return self._rates

    def max_rates(self):
        return self._bound


def tiny_workload(rates) -> Workload:
    t = len(rates)
    ecs = np.ones((t, 1, 2))
    ecs[:, :, 1] = 0.0
    return Workload(
        ecs=ecs,
        rewards=np.ones(t),
        deadline_slack=np.full(t, 2.5),
        arrival_rates=np.asarray(rates, dtype=float),
    )


class TestGenerateTrace:
    def test_sorted_by_arrival(self):
        trace = generate_trace(tiny_workload([5.0, 3.0]), 50.0,
                               np.random.default_rng(0))
        arrivals = [t.arrival for t in trace]
        assert arrivals == sorted(arrivals)

    def test_arrivals_within_horizon(self):
        trace = generate_trace(tiny_workload([5.0]), 20.0,
                               np.random.default_rng(1))
        assert all(0.0 <= t.arrival < 20.0 for t in trace)

    def test_deadlines_offset_by_slack(self):
        wl = tiny_workload([5.0])
        trace = generate_trace(wl, 20.0, np.random.default_rng(2))
        for t in trace:
            assert t.deadline == pytest.approx(t.arrival + 2.5)

    def test_uids_dense_and_ordered(self):
        trace = generate_trace(tiny_workload([4.0, 4.0]), 30.0,
                               np.random.default_rng(3))
        assert [t.uid for t in trace] == list(range(len(trace)))

    def test_rate_roughly_respected(self):
        wl = tiny_workload([10.0])
        trace = generate_trace(wl, 500.0, np.random.default_rng(4))
        observed = len(trace) / 500.0
        assert observed == pytest.approx(10.0, rel=0.1)

    def test_zero_rate_type_produces_nothing(self):
        wl = tiny_workload([0.0, 5.0])
        trace = generate_trace(wl, 50.0, np.random.default_rng(5))
        assert all(t.task_type == 1 for t in trace)
        assert len(trace) > 0

    def test_bad_duration(self):
        with pytest.raises(ValueError, match="positive"):
            generate_trace(tiny_workload([1.0]), 0.0,
                           np.random.default_rng(0))

    def test_reproducible(self):
        wl = tiny_workload([3.0])
        t1 = generate_trace(wl, 20.0, np.random.default_rng(6))
        t2 = generate_trace(wl, 20.0, np.random.default_rng(6))
        assert t1 == t2

    @given(rate=st.floats(min_value=0.2, max_value=50.0),
           seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_invariants_hold_for_any_rate(self, rate, seed):
        wl = tiny_workload([rate])
        trace = generate_trace(wl, 10.0, np.random.default_rng(seed))
        arrivals = [t.arrival for t in trace]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < 10.0 for a in arrivals)


class TestTaskOrdering:
    def test_tasks_order_by_arrival(self):
        a = Task(arrival=1.0, task_type=5, uid=10, deadline=2.0)
        b = Task(arrival=2.0, task_type=0, uid=1, deadline=2.5)
        assert a < b


class TestFlashCrowdProfile:
    def test_burst_multiplies_rates(self):
        from repro.workload.trace import FlashCrowdProfile
        from repro.workload.profiles import ConstantProfile

        base = ConstantProfile(base_rates=np.asarray([2.0, 4.0]))
        profile = FlashCrowdProfile(base, bursts=((10.0, 5.0, 3.0),))
        assert np.allclose(profile.rates(5.0), [2.0, 4.0])
        assert np.allclose(profile.rates(12.0), [6.0, 12.0])
        assert np.allclose(profile.rates(15.0), [2.0, 4.0])  # half-open

    def test_overlapping_bursts_compound(self):
        from repro.workload.trace import FlashCrowdProfile
        from repro.workload.profiles import ConstantProfile

        base = ConstantProfile(base_rates=np.asarray([1.0]))
        profile = FlashCrowdProfile(
            base, bursts=((0.0, 10.0, 2.0), (5.0, 10.0, 3.0)))
        assert np.allclose(profile.rates(7.0), [6.0])

    def test_max_rates_bounds_rates_everywhere(self):
        from repro.workload.trace import FlashCrowdProfile
        from repro.workload.profiles import ConstantProfile

        base = ConstantProfile(base_rates=np.asarray([1.5]))
        profile = FlashCrowdProfile(
            base, bursts=((1.0, 2.0, 4.0), (2.0, 2.0, 0.5)))
        bound = profile.max_rates()
        for t in np.linspace(0.0, 6.0, 61):
            assert np.all(profile.rates(t) <= bound + 1e-12)

    def test_invalid_bursts_rejected(self):
        from repro.workload.trace import FlashCrowdProfile
        from repro.workload.profiles import ConstantProfile

        base = ConstantProfile(base_rates=np.asarray([1.0]))
        with pytest.raises(ValueError, match="duration"):
            FlashCrowdProfile(base, bursts=((0.0, 0.0, 2.0),))
        with pytest.raises(ValueError, match="magnitude"):
            FlashCrowdProfile(base, bursts=((0.0, 1.0, -1.0),))


class TestRegionalShiftProfile:
    def test_phases_stagger_types(self):
        from repro.workload.trace import RegionalShiftProfile
        from repro.workload.profiles import ConstantProfile

        base = ConstantProfile(base_rates=np.asarray([10.0, 10.0]))
        profile = RegionalShiftProfile(base, amplitude=0.5, period_s=100.0)
        r = profile.rates(25.0)
        assert not np.allclose(r[0], r[1])  # opposite phases at T=2

    def test_mean_over_cycle_is_base(self):
        from repro.workload.trace import RegionalShiftProfile
        from repro.workload.profiles import ConstantProfile

        base = ConstantProfile(base_rates=np.asarray([4.0, 8.0, 2.0]))
        profile = RegionalShiftProfile(base, amplitude=0.4, period_s=60.0)
        samples = np.stack([profile.rates(t)
                            for t in np.linspace(0.0, 60.0, 600,
                                                 endpoint=False)])
        assert np.allclose(samples.mean(axis=0), [4.0, 8.0, 2.0],
                           rtol=1e-3)

    def test_invalid_amplitude_rejected(self):
        from repro.workload.trace import RegionalShiftProfile
        from repro.workload.profiles import ConstantProfile

        base = ConstantProfile(base_rates=np.asarray([1.0]))
        with pytest.raises(ValueError, match="amplitude"):
            RegionalShiftProfile(base, amplitude=1.5)


class TestStreamTraceTicks:
    def _profile(self, rates):
        from repro.workload.profiles import ConstantProfile

        return ConstantProfile(base_rates=np.asarray(rates, dtype=float))

    def test_tick_structure(self):
        from repro.workload.trace import stream_trace_ticks

        wl = tiny_workload([5.0, 3.0])
        ticks = list(stream_trace_ticks(wl, self._profile([5.0, 3.0]),
                                        10.0, 4,
                                        np.random.default_rng(0)))
        assert [t.index for t in ticks] == [0, 1, 2, 3]
        assert [t.start_s for t in ticks] == [0.0, 10.0, 20.0, 30.0]
        for tick in ticks:
            assert np.allclose(tick.rates, [5.0, 3.0])
            for task in tick.tasks:
                assert tick.start_s <= task.arrival < tick.start_s + 10.0

    def test_uids_continuous_across_ticks(self):
        from repro.workload.trace import stream_trace_ticks

        wl = tiny_workload([8.0])
        ticks = list(stream_trace_ticks(wl, self._profile([8.0]), 5.0, 5,
                                        np.random.default_rng(1)))
        uids = [task.uid for tick in ticks for task in tick.tasks]
        assert uids == list(range(len(uids)))

    def test_deterministic_for_seed(self):
        from repro.workload.trace import stream_trace_ticks

        wl = tiny_workload([4.0, 2.0])
        a = list(stream_trace_ticks(wl, self._profile([4.0, 2.0]), 5.0, 3,
                                    np.random.default_rng(9)))
        b = list(stream_trace_ticks(wl, self._profile([4.0, 2.0]), 5.0, 3,
                                    np.random.default_rng(9)))
        assert all(x.tasks == y.tasks for x, y in zip(a, b))

    def test_burst_tick_has_more_arrivals(self):
        from repro.workload.trace import (FlashCrowdProfile,
                                          stream_trace_ticks)

        wl = tiny_workload([10.0])
        profile = FlashCrowdProfile(self._profile([10.0]),
                                    bursts=((10.0, 10.0, 5.0),))
        ticks = list(stream_trace_ticks(wl, profile, 10.0, 3,
                                        np.random.default_rng(3)))
        assert len(ticks[1].tasks) > 2 * len(ticks[0].tasks)

    def test_rejects_bad_dimensions(self):
        from repro.workload.trace import stream_trace_ticks

        wl = tiny_workload([1.0, 2.0])
        with pytest.raises(ValueError, match="dimension"):
            next(stream_trace_ticks(wl, self._profile([1.0]), 1.0, 1,
                                    np.random.default_rng(0)))

    @pytest.mark.parametrize("tick_s", [float("nan"), float("inf")])
    def test_non_finite_tick_length_rejected(self, tick_s):
        from repro.workload.trace import stream_trace_ticks

        wl = tiny_workload([1.0])
        with pytest.raises(ValueError, match="finite"):
            next(stream_trace_ticks(wl, self._profile([1.0]), tick_s, 2,
                                    BoundedRng()))

    @pytest.mark.parametrize("rates, bound", [
        ([2.0, 1.0], [1.0, 1.0]),           # bound understated
        ([-0.5, 1.0], [1.0, 1.0]),          # negative rate
        ([float("nan"), 1.0], [1.0, 1.0]),  # NaN rate
        ([0.5, 1.0], [0.0, 1.0]),           # rate above a zero bound
    ])
    def test_rates_outside_bound_rejected(self, rates, bound):
        from repro.workload.trace import stream_trace_ticks

        wl = tiny_workload([1.0, 1.0])
        with pytest.raises(ValueError, match="FixedRates rates at t="):
            next(stream_trace_ticks(wl, FixedRates(rates, bound), 10.0, 1,
                                    np.random.default_rng(0)))

    @pytest.mark.parametrize("bound", [float("inf"), float("nan"), -1.0])
    def test_bad_bound_rejected(self, bound):
        from repro.workload.trace import stream_trace_ticks

        wl = tiny_workload([1.0])
        with pytest.raises(ValueError, match="max_rates"):
            next(stream_trace_ticks(wl, FixedRates([1.0], [bound]), 1.0, 1,
                                    BoundedRng()))
