"""Tests for repro.workload.profiles — non-stationary arrivals."""

import numpy as np
import pytest

from repro.workload.profiles import (ConstantProfile, DiurnalProfile,
                                     StepProfile,
                                     generate_nonstationary_trace)
from repro.workload.tasktypes import Workload

from tests.workload.test_trace import BoundedRng, FixedRates


def tiny_workload(rates) -> Workload:
    t = len(rates)
    ecs = np.ones((t, 1, 2))
    ecs[:, :, 1] = 0.0
    return Workload(ecs=ecs, rewards=np.ones(t),
                    deadline_slack=np.full(t, 2.0),
                    arrival_rates=np.asarray(rates, dtype=float))


class TestProfiles:
    def test_constant(self):
        p = ConstantProfile(np.asarray([2.0, 3.0]))
        np.testing.assert_allclose(p.rates(0.0), [2.0, 3.0])
        np.testing.assert_allclose(p.rates(1e6), p.max_rates())

    def test_diurnal_bounds(self):
        p = DiurnalProfile(np.asarray([10.0]), amplitude=0.5,
                           period_s=100.0)
        ts = np.linspace(0, 200, 400)
        vals = np.asarray([p.rates(t)[0] for t in ts])
        assert vals.max() <= 15.0 + 1e-9
        assert vals.min() >= 5.0 - 1e-9
        assert p.max_rates()[0] == pytest.approx(15.0)

    def test_diurnal_peak_position(self):
        p = DiurnalProfile(np.asarray([10.0]), amplitude=0.5,
                           period_s=100.0)
        assert p.rates(25.0)[0] == pytest.approx(15.0)  # quarter period

    def test_diurnal_validation(self):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalProfile(np.asarray([1.0]), amplitude=1.0)
        with pytest.raises(ValueError, match="period"):
            DiurnalProfile(np.asarray([1.0]), period_s=0.0)

    def test_step_profile(self):
        p = StepProfile(boundaries=np.asarray([10.0]),
                        rate_levels=np.asarray([[1.0], [5.0]]))
        assert p.rates(0.0)[0] == 1.0
        assert p.rates(9.999)[0] == 1.0
        assert p.rates(10.0)[0] == 5.0
        assert p.max_rates()[0] == 5.0

    def test_step_validation(self):
        with pytest.raises(ValueError, match="boundary"):
            StepProfile(boundaries=np.asarray([1.0, 2.0]),
                        rate_levels=np.asarray([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="increasing"):
            StepProfile(boundaries=np.asarray([2.0, 1.0]),
                        rate_levels=np.asarray([[1.0], [2.0], [3.0]]))


class TestNonstationaryTrace:
    def test_step_realizes_rates(self):
        """Arrival counts in each regime match that regime's rate."""
        wl = tiny_workload([1.0])
        p = StepProfile(boundaries=np.asarray([200.0]),
                        rate_levels=np.asarray([[2.0], [20.0]]))
        trace = generate_nonstationary_trace(wl, p, 400.0,
                                             np.random.default_rng(0))
        early = sum(1 for t in trace if t.arrival < 200.0)
        late = len(trace) - early
        assert early / 200.0 == pytest.approx(2.0, rel=0.25)
        assert late / 200.0 == pytest.approx(20.0, rel=0.15)

    def test_constant_matches_homogeneous(self):
        wl = tiny_workload([8.0])
        p = ConstantProfile(np.asarray([8.0]))
        trace = generate_nonstationary_trace(wl, p, 500.0,
                                             np.random.default_rng(1))
        assert len(trace) / 500.0 == pytest.approx(8.0, rel=0.15)

    def test_sorted_and_deadlined(self):
        wl = tiny_workload([3.0, 5.0])
        p = DiurnalProfile(np.asarray([3.0, 5.0]), amplitude=0.3,
                           period_s=60.0)
        trace = generate_nonstationary_trace(wl, p, 120.0,
                                             np.random.default_rng(2))
        arr = [t.arrival for t in trace]
        assert arr == sorted(arr)
        for t in trace:
            assert t.deadline == pytest.approx(t.arrival + 2.0)

    def test_dimension_mismatch(self):
        wl = tiny_workload([1.0, 2.0])
        p = ConstantProfile(np.asarray([1.0]))
        with pytest.raises(ValueError, match="dimension"):
            generate_nonstationary_trace(wl, p, 10.0,
                                         np.random.default_rng(0))

    def test_bad_duration(self):
        wl = tiny_workload([1.0])
        p = ConstantProfile(np.asarray([1.0]))
        with pytest.raises(ValueError, match="positive"):
            generate_nonstationary_trace(wl, p, -1.0,
                                         np.random.default_rng(0))

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        wl = tiny_workload([1.0])
        p = ConstantProfile(np.asarray([1.0]))
        with pytest.raises(ValueError, match="finite"):
            generate_nonstationary_trace(wl, p, duration, BoundedRng())

    def test_understated_bound_rejected(self):
        wl = tiny_workload([1.0])
        with pytest.raises(ValueError, match="FixedRates rates at t="):
            generate_nonstationary_trace(wl, FixedRates([3.0], [2.0]),
                                         10.0, np.random.default_rng(0))
