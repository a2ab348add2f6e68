"""Two-phase thinning against the per-candidate loop it replaced.

The oracle below is the previous Lewis-Shedler loop of
``stream_trace_ticks`` and ``generate_nonstationary_trace``, verbatim,
driven by the previous scalar rate formulas of every profile class
(:func:`legacy_rates`).  The batched path must reproduce its task
stream bit for bit: every arrival and deadline compared as
``float.hex``, every tick's rate vector as bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.profiles import (ConstantProfile, DiurnalProfile,
                                     StepProfile,
                                     generate_nonstationary_trace)
from repro.workload.tasktypes import Workload
from repro.workload.trace import (FlashCrowdProfile, RegionalShiftProfile,
                                  Task, TickDemand, stream_trace_ticks)

# the verbatim oracle divides by subnormal maximum rates in numpy
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning")


def legacy_rates(profile, t):
    """Each profile class's scalar ``rates(t)`` before batching."""
    if isinstance(profile, ConstantProfile):
        return profile.base_rates
    if isinstance(profile, DiurnalProfile):
        factor = 1.0 + profile.amplitude * np.sin(
            2.0 * np.pi * (t - profile.phase_s) / profile.period_s)
        return profile.base_rates * factor
    if isinstance(profile, StepProfile):
        level = int(np.searchsorted(np.asarray(profile.boundaries), t,
                                    side="right"))
        return np.asarray(profile.rate_levels)[level]
    if isinstance(profile, FlashCrowdProfile):
        factor = 1.0
        for start, duration, magnitude in profile.bursts:
            if start <= t < start + duration:
                factor *= magnitude
        return np.asarray(legacy_rates(profile.inner, t), dtype=float) \
            * factor
    if isinstance(profile, RegionalShiftProfile):
        base = np.asarray(legacy_rates(profile.inner, t), dtype=float)
        n = base.size
        phase = 2.0 * np.pi * np.arange(n) / max(n, 1)
        return base * (1.0 + profile.amplitude * np.sin(
            2.0 * np.pi * t / profile.period_s + phase))
    raise TypeError(type(profile).__name__)


class LegacyProfile:
    """A profile seen only through the scalar pre-batching formulas."""

    def __init__(self, profile) -> None:
        self.profile = profile

    def rates(self, t):
        return legacy_rates(self.profile, t)

    def max_rates(self):
        return self.profile.max_rates()


def legacy_stream_trace_ticks(workload, profile, tick_s, n_ticks, rng):
    """The per-candidate tick loop, verbatim (validation omitted)."""
    max_rates = np.asarray(profile.max_rates(), dtype=float)
    slack = workload.deadline_slack
    uid = 0
    for index in range(n_ticks):
        a = index * tick_s
        b = a + tick_s
        arrivals: list[tuple[float, int]] = []
        for i, rate_max in enumerate(max_rates):
            if rate_max <= 0:
                continue
            t = a
            while True:
                t += rng.exponential(1.0 / rate_max)
                if t >= b:
                    break
                if rng.uniform() <= profile.rates(t)[i] / rate_max:
                    arrivals.append((t, i))
        arrivals.sort()
        tasks = tuple(
            Task(arrival=t, task_type=i, uid=uid + j,
                 deadline=t + float(slack[i]))
            for j, (t, i) in enumerate(arrivals))
        uid += len(tasks)
        yield TickDemand(index=index, start_s=a,
                         rates=np.asarray(profile.rates(a), dtype=float),
                         tasks=tasks)


def legacy_nonstationary_trace(workload, profile, duration, rng):
    """The per-candidate whole-horizon loop, verbatim."""
    max_rates = np.asarray(profile.max_rates(), dtype=float)
    arrivals: list[tuple[float, int]] = []
    for i, rate_max in enumerate(max_rates):
        if rate_max <= 0:
            continue
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate_max)
            if t >= duration:
                break
            accept = profile.rates(t)[i] / rate_max
            if rng.uniform() <= accept:
                arrivals.append((t, i))
    arrivals.sort()
    slack = workload.deadline_slack
    return [Task(arrival=t, task_type=i, uid=uid,
                 deadline=t + float(slack[i]))
            for uid, (t, i) in enumerate(arrivals)]


def workload_for(n_types: int, slack: float = 2.5) -> Workload:
    ecs = np.ones((n_types, 1, 2))
    ecs[:, :, 1] = 0.0
    return Workload(ecs=ecs, rewards=np.ones(n_types),
                    deadline_slack=np.linspace(slack, 3.0 * slack, n_types),
                    arrival_rates=np.ones(n_types))


def task_keys(tasks):
    return [(t.arrival.hex(), t.task_type, t.uid, t.deadline.hex())
            for t in tasks]


# ---------------------------------------------------------------- profiles

_rate = st.floats(0.0, 6.0)
_instant = st.floats(0.0, 12.0)


def _rates(n):
    return st.lists(_rate, min_size=n, max_size=n).map(np.asarray)


def _leaves(n):
    constant = _rates(n).map(ConstantProfile)
    diurnal = st.builds(DiurnalProfile, base_rates=_rates(n),
                        amplitude=st.floats(0.0, 0.95),
                        period_s=st.floats(0.5, 50.0),
                        phase_s=st.floats(-10.0, 10.0))
    step = st.integers(1, 3).flatmap(lambda k: st.builds(
        StepProfile,
        boundaries=st.lists(st.floats(0.0, 12.0), min_size=k, max_size=k,
                            unique=True).map(lambda b: np.sort(b)),
        rate_levels=st.lists(_rates(n), min_size=k + 1,
                             max_size=k + 1).map(np.stack)))
    return constant | diurnal | step


def _wrap(inner):
    burst = st.tuples(_instant, st.floats(0.1, 6.0), st.floats(0.0, 3.0))
    flash = st.builds(FlashCrowdProfile, inner=inner,
                      bursts=st.lists(burst, max_size=2).map(tuple))
    shift = st.builds(RegionalShiftProfile, inner=inner,
                      amplitude=st.floats(0.0, 0.95),
                      period_s=st.floats(0.5, 50.0))
    return flash | shift


@st.composite
def profiles(draw):
    """A base profile over 1-4 types under up to two combinators."""
    profile = draw(st.integers(1, 4).flatmap(_leaves))
    for _ in range(draw(st.integers(0, 2))):
        profile = draw(_wrap(st.just(profile)))
    return profile


def edge_instants(profile) -> list[float]:
    """Instants where a formula switches: burst edges, step boundaries."""
    if isinstance(profile, StepProfile):
        return [float(b) for b in profile.boundaries]
    if isinstance(profile, FlashCrowdProfile):
        return [e for s, d, _ in profile.bursts for e in (s, s + d)] \
            + edge_instants(profile.inner)
    if isinstance(profile, RegionalShiftProfile):
        return edge_instants(profile.inner)
    return []


# ------------------------------------------------------------------ tests

class TestRatesAt:
    @given(profile=profiles(),
           ts=st.lists(_instant, min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_scalar_rates_bytewise(self, profile, ts):
        times = np.asarray(ts + edge_instants(profile), dtype=float)
        batch = profile.rates_at(times)
        assert batch.shape == (times.size, profile.max_rates().size)
        for k, t in enumerate(times.tolist()):
            row = batch[k].tobytes()
            assert row == np.asarray(profile.rates(t), dtype=float).tobytes()
            assert row == np.asarray(legacy_rates(profile, t),
                                     dtype=float).tobytes()

    @pytest.mark.parametrize("profile", [
        ConstantProfile(np.asarray([2.0, 3.0])),
        DiurnalProfile(np.asarray([2.0, 3.0]), amplitude=0.4,
                       period_s=10.0, phase_s=1.0),
        StepProfile(boundaries=np.asarray([1.0, 4.0]),
                    rate_levels=np.asarray([[1.0, 2.0], [5.0, 0.0],
                                            [3.0, 3.0]])),
        FlashCrowdProfile(ConstantProfile(np.asarray([2.0, 3.0])),
                          bursts=((1.0, 2.0, 4.0), (2.0, 2.0, 0.5))),
        RegionalShiftProfile(ConstantProfile(np.asarray([2.0, 3.0])),
                             amplitude=0.3, period_s=7.0),
    ], ids=lambda p: type(p).__name__)
    def test_every_class_at_its_edges(self, profile):
        times = np.asarray([0.0, 0.5, 2.5, 6.0] + edge_instants(profile))
        batch = profile.rates_at(times)
        for k, t in enumerate(times.tolist()):
            assert batch[k].tobytes() == np.asarray(
                legacy_rates(profile, t), dtype=float).tobytes()


class TestThinningOracle:
    @given(profile=profiles(), tick_s=st.floats(0.05, 2.0),
           n_ticks=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stream_matches_per_candidate_loop(self, profile, tick_s,
                                               n_ticks, seed):
        wl = workload_for(profile.max_rates().size)
        new = list(stream_trace_ticks(wl, profile, tick_s, n_ticks,
                                      np.random.default_rng(seed)))
        old = list(legacy_stream_trace_ticks(
            wl, LegacyProfile(profile), tick_s, n_ticks,
            np.random.default_rng(seed)))
        assert [(d.index, d.start_s) for d in new] == \
            [(d.index, d.start_s) for d in old]
        for a, b in zip(new, old):
            assert a.rates.tobytes() == b.rates.tobytes()
            assert task_keys(a.tasks) == task_keys(b.tasks)

    @given(profile=profiles(), duration=st.floats(0.05, 10.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_trace_matches_per_candidate_loop(self, profile, duration,
                                              seed):
        wl = workload_for(profile.max_rates().size)
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        new = generate_nonstationary_trace(wl, profile, duration, rng_new)
        old = legacy_nonstationary_trace(wl, LegacyProfile(profile),
                                         duration, rng_old)
        assert task_keys(new) == task_keys(old)
        # the generator is left in the same state for whoever draws next
        assert rng_new.random() == rng_old.random()


class TestUniformDraws:
    @pytest.mark.parametrize("seed", [0, 1, 7, 20120521])
    def test_random_is_bit_equal_to_uniform(self, seed):
        """Thinning draws ``rng.random()`` in place of ``rng.uniform()``."""
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        for _ in range(2000):
            assert a.exponential(0.37) == b.exponential(0.37)
            assert a.uniform().hex() == b.random().hex()
        assert a.bit_generator.state == b.bit_generator.state
