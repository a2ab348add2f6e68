"""Stage 1 on the live HiGHS model against the scipy-only path.

Stage 1 scores its outlet-temperature probes on one live model per
:func:`solve_stage1` call and commits the winner's cold solve, which is
bit-identical to :func:`scipy.optimize.linprog`'s (see
:mod:`repro.optimize.linprog`).
These tests pin what that must not change: every probe's verdict, the
committed bits, history independence, warm replay, the scipy fallback
and the model's lifetime.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.optimize.linprog as linprog_mod
from repro import obs
from repro.core.api import SolveRequest, solve
from repro.core.stage1 import solve_stage1
from repro.datacenter import build_datacenter, power_bounds
from repro.datacenter.coretypes import shrunken_node_types
from repro.optimize.linprog import InfeasibleError, LinearProgram, LiveLP
from repro.thermal import attach_thermal_model
from repro.workload import generate_workload

FEW = settings(max_examples=8, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])


def _room(seed: int, n_nodes: int, n_crac: int, cap_frac: float):
    rng = np.random.default_rng(seed)
    dc = build_datacenter(n_nodes=n_nodes, n_crac=n_crac,
                          node_types=shrunken_node_types(2), rng=rng,
                          nodes_per_rack=4)
    attach_thermal_model(dc, rng=rng)
    wl = generate_workload(dc, rng, n_task_types=4)
    bounds = power_bounds(dc)
    return dc, wl, bounds.p_min + cap_frac * (bounds.p_max - bounds.p_min)


rooms = st.builds(_room, seed=st.integers(0, 10_000),
                  n_nodes=st.integers(4, 10), n_crac=st.integers(1, 3),
                  cap_frac=st.floats(0.05, 0.95))


def _bits(solution, result) -> tuple:
    return (solution.t_crac_out.tobytes(), solution.core_power_kw.tobytes(),
            solution.node_power_kw.tobytes(), repr(solution.objective),
            result.temperatures.tobytes(), repr(result.score))


def _scipy_only(dc, wl, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linprog_mod, "_highs", None)
        return solve_stage1(dc, wl, p_const=cap)


def _counters(fn):
    obs.reset()
    obs.enable()
    try:
        out = fn()
        snap = obs.current_registry().snapshot()
    finally:
        obs.disable()
        obs.reset()
    return out, {k: v["value"] for k, v in snap.items() if "value" in v}


class TestDifferential:
    @FEW
    @given(room=rooms)
    def test_every_probe_agrees_with_scipy(self, room):
        dc, wl, cap = room
        pairs = []
        live_solve = LiveLP.solve

        def checked(self):
            try:
                live = live_solve(self)
            except InfeasibleError:
                live = None
            try:
                ref = linprog_mod._solve_scipy(self.name, self._maximize,
                                               *self._current_args())
            except InfeasibleError:
                ref = None
            pairs.append((live, ref))
            if live is None:
                raise InfeasibleError("live probe infeasible")
            return live

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LiveLP, "solve", checked)
            solve_stage1(dc, wl, p_const=cap)
        assert pairs
        for live, ref in pairs:
            assert (live is None) == (ref is None)
            if live is not None:
                assert live.objective == pytest.approx(ref.objective,
                                                       rel=1e-9, abs=0.0)

    @FEW
    @given(room=rooms)
    def test_committed_plan_equals_scipy_only_run(self, room):
        dc, wl, cap = room
        assert _bits(*solve_stage1(dc, wl, p_const=cap)) \
            == _bits(*_scipy_only(dc, wl, cap))

    @FEW
    @given(room=rooms, other=rooms)
    def test_history_independent(self, room, other):
        dc, wl, cap = room
        first = _bits(*solve_stage1(dc, wl, p_const=cap))
        solve_stage1(other[0], other[1], p_const=other[2])
        solve_stage1(dc, wl, p_const=0.9 * cap + 0.1 * other[2])
        assert _bits(*solve_stage1(dc, wl, p_const=cap)) == first

    @FEW
    @given(room=rooms, bump=st.floats(1.01, 1.5))
    def test_warm_stage1_chain_replays_the_commit(self, room, bump):
        dc, wl, cap = room
        cold = solve(SolveRequest(dc, wl, cap))
        request = SolveRequest(dc, replace(
            wl, arrival_rates=wl.arrival_rates * bump), cap)
        reference = solve(request)
        cold_solves = []
        original = LinearProgram.solve

        def counting(self):
            cold_solves.append(self.name)
            return original(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LinearProgram, "solve", counting)
            warm = solve(replace(request, warm_start=cold.state))
        assert warm.state.runtime.level == "stage1"
        assert "stage1" not in cold_solves      # the commit was replayed
        for a, b in ((warm.stage1, reference.stage1),
                     (warm.stage1, cold.stage1)):
            assert a.core_power_kw.tobytes() == b.core_power_kw.tobytes()
            assert a.t_crac_out.tobytes() == b.t_crac_out.tobytes()
            assert repr(a.objective) == repr(b.objective)
        assert np.array_equal(warm.pstates, reference.pstates)
        assert warm.reward_rate == reference.reward_rate


@pytest.fixture(scope="module")
def room():
    return _room(7, 10, 2, 0.4)


class TestFallback:
    def test_missing_binding_runs_every_lp_on_scipy(self, room):
        dc, wl, cap = room
        live, live_counts = _counters(lambda: solve_stage1(dc, wl,
                                                           p_const=cap))
        scipy, counts = _counters(lambda: _scipy_only(dc, wl, cap))
        assert _bits(*scipy) == _bits(*live)
        assert "lp.fallbacks.stage1" not in live_counts
        # every probe and the cold commit ran on scipy.linprog
        assert counts["lp.fallbacks.stage1"] == counts["lp.solves.stage1"]
        assert counts["lp.solves.stage1"] == live_counts["lp.solves.stage1"]

    def test_failed_resolve_reruns_probe_on_scipy(self, room, monkeypatch):
        dc, wl, cap = room
        reference = _bits(*solve_stage1(dc, wl, p_const=cap))
        monkeypatch.setitem(linprog_mod._LIVE_OPTIONS,
                            "simplex_iteration_limit", 3)
        failed, counts = _counters(lambda: solve_stage1(dc, wl,
                                                        p_const=cap))
        assert counts["lp.fallbacks.stage1"] > 0
        assert _bits(*failed) == reference

    def test_commit_clamp_keeps_the_probe_vertex(self, room, monkeypatch):
        import repro.core.stage1 as stage1_mod

        dc, wl, cap = room
        normal, _ = solve_stage1(dc, wl, p_const=cap)
        monkeypatch.setattr(stage1_mod, "solve_stage1_fixed_temps",
                            lambda *args, **kwargs: None)
        probe, result = solve_stage1(dc, wl, p_const=cap)
        assert probe.t_crac_out.tobytes() == normal.t_crac_out.tobytes()
        assert probe.objective == pytest.approx(normal.objective, rel=1e-9)
        assert result.score == probe.objective


def _live_handles() -> list:
    return [o for o in gc.get_objects() if isinstance(o, LiveLP)]


class TestLifetime:
    def test_no_live_model_outlives_the_call(self, room):
        dc, wl, cap = room
        made = []
        original = LinearProgram.live

        def tracking(self):
            made.append(self.name)
            return original(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LinearProgram, "live", tracking)
            solve(SolveRequest(dc, wl, cap))
        assert made                 # the probes did run on live models
        assert not _live_handles()

    def test_no_live_model_outlives_a_failed_call(self, room):
        dc, wl, cap = room

        def failing(self):
            raise ValueError("boom")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LiveLP, "solve", failing)
            with pytest.raises(ValueError, match="boom"):
                solve_stage1(dc, wl, p_const=cap)
        assert not _live_handles()
