"""The five benchmark workloads: inputs, timed operations, output checks.

Every workload has the same shape:

* ``setup(seed, checkpoint)`` builds the inputs (room, power bounds,
  traces, ...), records how long each public call took in
  ``inputs.setup_times`` and calls ``checkpoint()`` between steps, where
  the set-up timer may probe the machine's speed (:func:`refclock.timed`);
* ``run(inputs)`` is one *pass*: it times each operation from outside,
  around one public call, with a :class:`refclock.RefTimer`, and
  returns a :class:`PassResult`;
* ``check(inputs, result)`` raises :class:`CheckError` when an output
  is wrong.

Rooms are fixed fixtures (``Sizes.room_seed``); ``--seed`` draws the
traffic: the caps of a ladder, task traces and streams.  Measured
across five to eight seeds, rooms drawn from the seed moved the median
cold-plan latency by 59%, the DES replay time by 47% and the chaos run
time by 63% (interquartile range over median), far beyond any bound a
regression gate can use, so the room is not what a seed varies.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from refclock import RefTimer
from repro.control import make_forecast
from repro.core.api import SolveRequest, solve
from repro.core.stage1_zonal import solve_stage1_zonal
from repro.core.stage2 import convert_power_to_pstates
from repro.core.stage3 import solve_stage3
from repro.datacenter import build_datacenter, power_bounds
from repro.datacenter.power import total_power
from repro.experiments import PAPER_SET_1, generate_scenario, scaled_down
from repro.experiments.chaos import ChaosConfig, ChaosPoint, run_chaos_point
from repro.faults.model import FaultSchedule
from repro.faults.policy import FaultAwareController, ReactionPolicy
from repro.faults.schedule import generate_fault_schedule
from repro.serve import ControlService, ServeConfig
from repro.simulate import simulate_trace
from repro.thermal.sparse import attach_zonal_thermal
from repro.workload import (DiurnalProfile, FlashCrowdProfile,
                            RegionalShiftProfile, generate_workload,
                            stream_trace_ticks)
from repro.workload.trace import generate_trace

# Relative tolerance of the cap and redline audits (the one
# ``AssignmentResult.verify`` uses by default).
TOL = 1e-6


class CheckError(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes: :data:`BENCH` benchmarks, :data:`TINY` self-tests."""

    room_seed: int = 2012
    cold_nodes: int = 150
    cold_caps: int = 12
    zonal_nodes: int = 1500
    zonal_cracs: int = 30
    zonal_caps: int = 16
    zonal_outlet_c: float = 18.0
    serve_nodes: int = 40
    serve_ticks: int = 100
    serve_tick_s: float = 1.0
    chaos_nodes: int = 20
    chaos_seed: int = 5
    chaos_horizon_s: float = 30.0
    chaos_factors: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    chaos_traces: int = 2
    des_nodes: int = 30
    des_traces: int = 8
    des_horizon_s: float = 30.0


BENCH = Sizes()
TINY = Sizes(cold_nodes=12, cold_caps=3, zonal_nodes=60, zonal_cracs=3,
             zonal_caps=2, serve_nodes=10, serve_ticks=6, chaos_nodes=8,
             chaos_horizon_s=4.0, chaos_factors=(0.0, 1.0), chaos_traces=1,
             des_nodes=10, des_traces=2, des_horizon_s=5.0)


@dataclass
class PassResult:
    """One pass over a workload's inputs.

    Times are at reference speed (:mod:`refclock`); ``scale`` is their
    ratio to the wall times they came from, ``probe_s`` the probes taken
    around them.  ``outcome`` holds every
    deterministic output of the pass (rewards, counts, tick logs); two
    passes over the same inputs, traced or not, must produce the same
    ``outcome``.
    """

    op_s: list[float]
    scale: float
    probe_s: list[float]
    outcome: list[Any]
    reward_rate: float
    task_loss_fraction: float
    attempted: int
    failed: int
    planned_reward_rate: float
    sim_s: float = 0.0
    violation_minutes: float = 0.0
    #: Plans kept for ``check``; not part of the compared outcome.
    plans: list[Any] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)

    def outcome_key(self) -> str:
        return json.dumps(self.outcome, sort_keys=True)


@dataclass
class Inputs:
    """What ``setup`` built; ``setup_times`` maps layer metric -> seconds."""

    setup_times: dict[str, float] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)


def _timed(times: dict[str, float], key: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    times[key] = times.get(key, 0.0) + time.perf_counter() - t0
    return out


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent, reproducible random stream ``stream`` of ``seed``."""
    return np.random.default_rng([int(seed), int(stream)])


def _ladder(lo: float, hi: float, n: int, seed: int) -> list[float]:
    """``n`` caps, one drawn in the middle fifth of each of ``n`` equal
    steps of ``(lo, hi)``.

    Drawing each cap in its own step (not one offset for all), close to
    its centre, keeps the ladder's mean reward within about 1% across
    seeds; a full-step draw moved it by up to 7%.
    """
    u = _rng(seed, 0).uniform(0.4, 0.6, size=n)
    return [lo + (k + float(u[k])) / n * (hi - lo) for k in range(n)]


def _run_ops(items: list, op: Callable[[Any], Any]
             ) -> tuple[list, dict[str, Any]]:
    """Time ``op`` on each item; an exception becomes that item's result.

    Returns the results and the timing fields of a :class:`PassResult`.
    Exceptions are counted in ``failed`` by the caller, never hidden:
    their tracebacks go to standard error.
    """
    timer = RefTimer()
    results = []
    for item in items:
        t0 = timer.start()
        try:
            results.append(op(item))
        except Exception as exc:  # the op boundary: record and go on
            traceback.print_exception(exc)
            results.append(exc)
        timer.stop(t0)
    return results, _timing(timer)


def _timing(timer: RefTimer) -> dict[str, Any]:
    scaled = timer.scaled()
    return {"op_s": scaled, "scale": sum(scaled) / sum(timer.raw()),
            "probe_s": timer.probe_times()}


def _error(exc: Exception) -> dict:
    return {"error": type(exc).__name__}


def _ok(results: list) -> list:
    return [r for r in results if not isinstance(r, Exception)]


def _served_fraction(tc: np.ndarray, arrival_rates: np.ndarray) -> float:
    return float(np.sum(tc)) / float(np.sum(arrival_rates))


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


class ColdPlan:
    name = "cold_plan"
    why = ("cold three-stage solves over a cap ladder on the 150-node "
           "Figure-6 room: the Stage 1 LP layer does most of the work")
    setup_reps = 1

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, checkpoint=lambda: None) -> Inputs:
        s = self.sizes
        inputs = Inputs()
        sc = _timed(inputs.setup_times, "experiments.scenario_s",
                    generate_scenario,
                    scaled_down(PAPER_SET_1, s.cold_nodes), s.room_seed)
        inputs.data.update(
            datacenter=sc.datacenter, workload=sc.workload,
            caps=_ladder(sc.bounds.p_min, sc.bounds.p_max, s.cold_caps,
                         seed))
        return inputs

    def run(self, inputs: Inputs) -> PassResult:
        dc, wl = inputs.data["datacenter"], inputs.data["workload"]
        plans, timing = _run_ops(
            inputs.data["caps"], lambda cap: solve(SolveRequest(dc, wl, cap)))
        ok = _ok(plans)
        reward = _mean([p.reward_rate for p in ok])
        return PassResult(
            **timing,
            outcome=[_error(p) if isinstance(p, Exception) else
                     {"reward_rate": p.reward_rate,
                      "t_crac_out": p.t_crac_out.tolist(),
                      "pstates": p.pstates.tolist()} for p in plans],
            reward_rate=reward, planned_reward_rate=reward,
            task_loss_fraction=_mean(
                [1.0 - _served_fraction(p.tc, wl.arrival_rates)
                 for p in ok]),
            attempted=len(plans), failed=len(plans) - len(ok), plans=plans)

    def check(self, inputs: Inputs, result: PassResult) -> None:
        dc = inputs.data["datacenter"]
        for cap, plan in zip(inputs.data["caps"], result.plans):
            if isinstance(plan, Exception):
                continue
            try:
                plan.verify(dc, cap, tol=TOL)
            except AssertionError as exc:
                raise CheckError(
                    f"cold plan at cap {cap:.3f} kW: {exc}") from exc


class ZonalPlan:
    name = "zonal_plan"
    why = ("cold zonal Stage 1 plus Stages 2-3 over a cap ladder on a "
           "1,500-node, 30-CRAC sparse room: the only stage1_zonal load")
    # set-up takes 0.04 s, but the first one or two in a process can
    # take 0.5 s; the median of five skips them
    setup_reps = 5

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, checkpoint=lambda: None) -> Inputs:
        s = self.sizes
        inputs = Inputs()
        times = inputs.setup_times
        rng = np.random.default_rng(s.room_seed)
        dc = _timed(times, "experiments.scenario_s", build_datacenter,
                    n_nodes=s.zonal_nodes, n_crac=s.zonal_cracs, rng=rng)
        checkpoint()
        model = _timed(times, "thermal.sparse_build_s",
                       attach_zonal_thermal, dc, backend="sparse")
        checkpoint()
        wl = _timed(times, "experiments.scenario_s", generate_workload,
                    dc, rng)
        checkpoint()
        # power_bounds' outlet grid search is exponential in the CRAC
        # count; at fixed outlets the bounds are two total_power calls
        t_fix = np.full(dc.n_crac, s.zonal_outlet_c)
        t0 = time.perf_counter()
        p_off = total_power(dc, t_fix,
                            dc.node_power_kw(dc.all_off_pstates())).total
        p_full = total_power(dc, t_fix,
                             dc.node_power_kw(dc.all_p0_pstates())).total
        times["datacenter.power_bounds_s"] = time.perf_counter() - t0
        inputs.data.update(datacenter=dc, workload=wl, model=model,
                           t_fix=t_fix,
                           caps=_ladder(p_off, p_full, s.zonal_caps, seed))
        return inputs

    def run(self, inputs: Inputs) -> PassResult:
        d = inputs.data
        dc, wl, t_fix = d["datacenter"], d["workload"], d["t_fix"]

        def plan(cap: float):
            s1, _ = solve_stage1_zonal(dc, wl, p_const=cap, t_crac_out=t_fix,
                                       max_sweeps=2)
            s2 = convert_power_to_pstates(dc, s1.core_power_kw,
                                          s1.node_power_kw)
            return s1, s2, solve_stage3(dc, wl, s2.pstates)

        plans, timing = _run_ops(d["caps"], plan)
        ok = _ok(plans)
        reward = _mean([s3.reward_rate for _, _, s3 in ok])
        return PassResult(
            **timing,
            outcome=[_error(p) if isinstance(p, Exception) else
                     {"objective": p[0].objective, "sweeps": p[0].sweeps,
                      "reward_rate": p[2].reward_rate,
                      "pstates": p[1].pstates.tolist()} for p in plans],
            reward_rate=reward, planned_reward_rate=reward,
            task_loss_fraction=_mean(
                [1.0 - _served_fraction(s3.tc, wl.arrival_rates)
                 for _, _, s3 in ok]),
            attempted=len(plans), failed=len(plans) - len(ok), plans=plans)

    def check(self, inputs: Inputs, result: PassResult) -> None:
        d = inputs.data
        dc, model, t_fix = d["datacenter"], d["model"], d["t_fix"]
        if model.backend != "sparse":
            raise CheckError(f"zonal room built a {model.backend} model")
        for cap, plan in zip(d["caps"], result.plans):
            if isinstance(plan, Exception):
                continue
            node_kw = plan[1].node_power_kw
            used = total_power(dc, t_fix, node_kw).total
            if used > cap + TOL * max(1.0, cap):
                raise CheckError(
                    f"zonal plan draws {used:.3f} kW over cap {cap:.3f} kW")
            margin = model.redline_margin(t_fix, node_kw, dc.redline_c)
            if margin.min() < -TOL:
                raise CheckError(
                    f"zonal plan at cap {cap:.3f} kW exceeds a redline by "
                    f"{-margin.min():.4f} C at unit {int(margin.argmin())}")


def _composite_profile(base_rates: np.ndarray, horizon_s: float):
    """``repro serve --trace composite``: diurnal + shift + x4 flash crowd."""
    diurnal = DiurnalProfile(base_rates=base_rates, amplitude=0.4,
                             period_s=horizon_s)
    shifted = RegionalShiftProfile(diurnal, amplitude=0.3,
                                   period_s=horizon_s / 2.0)
    return FlashCrowdProfile(
        shifted, bursts=((horizon_s / 3.0, horizon_s / 6.0, 4.0),))


async def _drain(service: ControlService, ticks, timer: RefTimer) -> list:
    """Consume the stream; a tick lasts from one record to the next."""
    records = []
    t0 = timer.start()
    async for record in service.stream(ticks):
        records.append(record)
        t0 = timer.stop(t0)
    return records


class ServeStream:
    name = "serve_stream"
    why = ("closed-loop MPC serving of a composite trace, one tick at a "
           "time: per-tick warm replans, Stage 3, transients, admission")
    setup_reps = 1

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, checkpoint=lambda: None) -> Inputs:
        s = self.sizes
        inputs = Inputs()
        times = inputs.setup_times
        sc = _timed(times, "experiments.scenario_s", generate_scenario,
                    scaled_down(PAPER_SET_1, s.serve_nodes), s.room_seed)
        checkpoint()
        profile = _composite_profile(sc.workload.arrival_rates,
                                     s.serve_ticks * s.serve_tick_s)
        source = stream_trace_ticks(sc.workload, profile, s.serve_tick_s,
                                    s.serve_ticks, _rng(seed, 1))
        ticks = []
        for _ in range(s.serve_ticks):
            ticks.append(_timed(times, "workload.stream_s", next, source))
            checkpoint()
        inputs.data.update(scenario=sc, profile=profile, ticks=ticks,
                           n_tasks=sum(len(t.tasks) for t in ticks))
        return inputs

    def run(self, inputs: Inputs) -> PassResult:
        s, d = self.sizes, inputs.data
        sc = d["scenario"]
        service = ControlService(
            sc.datacenter, sc.workload, sc.p_const,
            ServeConfig(tick_s=s.serve_tick_s, controller="mpc"),
            make_forecast("oracle", d["profile"]))
        timer = RefTimer()
        records = asyncio.run(_drain(service, d["ticks"], timer))
        arrived = sum(r.arrived for r in records)
        reward = _mean([r.reward_rate for r in records])
        return PassResult(
            **_timing(timer),
            outcome=[r.to_dict() for r in records],
            reward_rate=reward, planned_reward_rate=reward,
            task_loss_fraction=sum(r.shed_tasks for r in records)
            / max(arrived, 1),
            attempted=len(records),
            failed=sum(1 for r in records if r.warm_level == "shed"),
            sim_s=len(records) * s.serve_tick_s)

    def check(self, inputs: Inputs, result: PassResult) -> None:
        ticks = inputs.data["ticks"]
        if len(result.outcome) != len(ticks):
            raise CheckError(f"served {len(result.outcome)} of "
                             f"{len(ticks)} ticks")
        for demand, rec in zip(ticks, result.outcome):
            if (rec["arrived"] != len(demand.tasks)
                    or rec["admitted"] + rec["shed_tasks"] != rec["arrived"]
                    or rec["reward_rate"] < 0.0):
                raise CheckError(f"tick {demand.index} accounting is "
                                 f"inconsistent: {rec}")


# IntervalRecord fields a task trace cannot change: plans are solved for
# the stationary workload under the fault inventory, never for arrivals.
PLAN_FIELDS = ("start_s", "end_s", "cause", "n_nodes_alive",
               "crac_capacity", "cap_kw", "plan_reward_rate", "derated",
               "transient_overshoot_c", "violation_minutes", "shed",
               "precooled")


def _plan_side(point: dict) -> str:
    """The trace-independent part of a ChaosPoint document, as JSON."""
    return json.dumps({
        "factor": point["factor"],
        "n_fault_events": point["n_fault_events"],
        "n_replans": point["n_replans"],
        "intervals": [{k: iv[k] for k in PLAN_FIELDS}
                      for iv in point["detail"]["intervals"]],
    }, sort_keys=True)


def _chaos_outcome(factor: float, result) -> dict:
    """A ChaosPoint document without its measured wall-time fields."""
    point = ChaosPoint.from_result(factor, result).to_dict()
    point.pop("mean_replan_s")
    point["detail"].pop("mean_replan_s")
    for iv in point["detail"]["intervals"]:
        iv.pop("replan_wall_s")
    return point


class ChaosFaults:
    name = "chaos_faults"
    why = ("fault-injected interval control on a 20-node room: thousands "
           "of small Stage 1 LPs in transient-guard derate loops, plus DES")
    setup_reps = 3

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes
        self.config = ChaosConfig(n_nodes=sizes.chaos_nodes,
                                  seed=sizes.chaos_seed,
                                  horizon_s=sizes.chaos_horizon_s)

    def setup(self, seed: int, checkpoint=lambda: None) -> Inputs:
        """``run_chaos_point``'s room and fault timelines, seeded traces.

        Room and timelines come from the fixed :class:`ChaosConfig`
        exactly as ``run_chaos_point`` draws them.  Each factor replays
        ``chaos_traces`` task traces of its own, drawn from ``--seed``;
        one trace per run would leave the achieved reward to the luck of
        a single 30-second draw.
        """
        cfg, s = self.config, self.sizes
        inputs = Inputs()
        times = inputs.setup_times
        sc = _timed(times, "experiments.scenario_s", generate_scenario,
                    scaled_down(PAPER_SET_1, cfg.n_nodes), cfg.seed)
        checkpoint()
        n_crac = sc.datacenter.n_crac
        runs = []
        for i, factor in enumerate(s.chaos_factors):
            schedule = FaultSchedule.empty() if factor == 0 else \
                generate_fault_schedule(
                    cfg.n_nodes, n_crac, cfg.horizon_s,
                    cfg.resolved_rates(n_crac).scaled(factor),
                    np.random.default_rng(cfg.seed + 2))
            for k in range(s.chaos_traces):
                trace = _timed(times, "workload.trace_s", generate_trace,
                               sc.workload, cfg.horizon_s,
                               _rng(seed, 20 + i * s.chaos_traces + k))
                runs.append((factor, schedule, trace))
                checkpoint()
        inputs.data.update(scenario=sc, runs=runs)
        return inputs

    def _room(self, inputs: Inputs):
        """The set-up room for the first run, a regenerated one after.

        Every timed run thus starts from the same per-room memo state:
        kernel tables and the heat-flow factorization built, the
        ``without_nodes`` LRU empty.
        """
        sc = inputs.data.pop("scenario", None)
        if sc is None:
            sc = generate_scenario(
                scaled_down(PAPER_SET_1, self.config.n_nodes),
                self.config.seed)
        return sc

    def run(self, inputs: Inputs) -> PassResult:
        cfg, runs = self.config, inputs.data["runs"]
        policy = ReactionPolicy(psi=cfg.psi, stranded=cfg.stranded,
                                controller=cfg.controller)
        timer = RefTimer()
        results = []
        for _, schedule, trace in runs:
            sc = self._room(inputs)
            controller = FaultAwareController(sc.datacenter, sc.workload,
                                              sc.p_const, policy)
            t0 = timer.start()
            try:
                results.append(controller.run(trace, cfg.horizon_s,
                                              schedule))
            except Exception as exc:  # the op boundary: record and go on
                traceback.print_exception(exc)
                results.append(exc)
            timer.stop(t0)
        ok = [(r, len(trace)) for r, (_, _, trace) in zip(results, runs)
              if not isinstance(r, Exception)]
        errors = len(results) - len(ok)
        return PassResult(
            **_timing(timer),
            outcome=[_error(r) if isinstance(r, Exception) else
                     _chaos_outcome(factor, r)
                     for r, (factor, _, _) in zip(results, runs)],
            reward_rate=_mean([r.reward_rate for r, _ in ok]),
            planned_reward_rate=_mean([
                sum(iv.plan_reward_rate * (iv.end_s - iv.start_s)
                    for iv in r.intervals) / r.horizon_s for r, _ in ok]),
            task_loss_fraction=sum(r.tasks_lost for r, _ in ok)
            / max(sum(n for _, n in ok), 1),
            attempted=sum(len(r.intervals) for r, _ in ok) + errors,
            failed=sum(r.shed_intervals for r, _ in ok) + errors,
            sim_s=cfg.horizon_s * len(ok),
            violation_minutes=sum(r.violation_minutes for r, _ in ok))

    def check(self, inputs: Inputs, result: PassResult) -> None:
        """Each run reproduces ``run_chaos_point`` and loses no task.

        The timed runs replay seeded traces, so only the fields no trace
        can change are compared with ``run_chaos_point``'s point: the
        fault timeline, every interval's inventory, cap, committed plan
        reward, derates and transient exposure.
        """
        want = {}
        for (factor, _, trace), got in zip(inputs.data["runs"],
                                           result.outcome):
            if "error" in got:
                continue
            if factor not in want:
                want[factor] = _plan_side(
                    run_chaos_point(self.config, factor).to_dict())
            if _plan_side(got) != want[factor]:
                raise CheckError(f"chaos factor {factor}: the timed run "
                                 "differs from run_chaos_point")
            seen = 0
            for iv in got["detail"]["intervals"]:
                m = iv["metrics"]
                seen += sum(m["completed"]) + sum(m["dropped"]) \
                    + sum(m["stranded_dropped"] or [])
            if seen != len(trace):
                raise CheckError(f"chaos factor {factor}: {seen} of "
                                 f"{len(trace)} tasks accounted for")


class DesReplay:
    name = "des_replay"
    why = ("independent Poisson traces replayed by the DES against one "
           "static three-stage plan on a 30-node room: LP work under 3%")
    setup_reps = 3

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, checkpoint=lambda: None) -> Inputs:
        s = self.sizes
        inputs = Inputs()
        times = inputs.setup_times
        sc = _timed(times, "experiments.scenario_s", generate_scenario,
                    scaled_down(PAPER_SET_1, s.des_nodes), s.room_seed)
        checkpoint()
        plan = solve(SolveRequest(sc.datacenter, sc.workload, sc.p_const))
        checkpoint()
        traces = []
        for k in range(s.des_traces):
            traces.append(_timed(times, "workload.trace_s", generate_trace,
                                 sc.workload, s.des_horizon_s,
                                 _rng(seed, 10 + k)))
            checkpoint()
        inputs.data.update(scenario=sc, plan=plan, traces=traces)
        return inputs

    def run(self, inputs: Inputs) -> PassResult:
        s, d = self.sizes, inputs.data
        sc, plan = d["scenario"], d["plan"]
        runs, timing = _run_ops(d["traces"], lambda trace: simulate_trace(
            sc.datacenter, sc.workload, plan.tc, plan.pstates, trace,
            duration=s.des_horizon_s))
        ok = [(m, len(t)) for m, t in zip(runs, d["traces"])
              if not isinstance(m, Exception)]
        return PassResult(
            **timing,
            outcome=[_error(m) if isinstance(m, Exception) else
                     {"total_reward": m.total_reward,
                      "completed": m.completed.tolist(),
                      "dropped": m.dropped.tolist()} for m in runs],
            reward_rate=_mean([m.reward_rate for m, _ in ok]),
            planned_reward_rate=plan.reward_rate,
            task_loss_fraction=sum(int(m.dropped.sum()) for m, _ in ok)
            / max(sum(n for _, n in ok), 1),
            attempted=len(runs), failed=len(runs) - len(ok),
            sim_s=s.des_horizon_s * len(ok))

    def check(self, inputs: Inputs, result: PassResult) -> None:
        for trace, rec in zip(inputs.data["traces"], result.outcome):
            if "error" in rec:
                continue
            done = sum(rec["completed"]) + sum(rec["dropped"])
            if done != len(trace):
                raise CheckError(f"DES accounted for {done} of "
                                 f"{len(trace)} tasks")
        sc = inputs.data["scenario"]
        try:
            inputs.data["plan"].verify(sc.datacenter, sc.p_const, tol=TOL)
        except AssertionError as exc:
            raise CheckError(f"static plan: {exc}") from exc


WORKLOADS = {cls.name: cls for cls in
             (ColdPlan, ZonalPlan, ServeStream, ChaosFaults, DesReplay)}


def time_power_bounds(inputs: Inputs) -> None:
    """Time ``power_bounds`` on the built room (traced runs only).

    ``generate_scenario`` calls it internally, so set-up never pays for
    it twice; the zonal room records its fixed-outlet bounds in set-up.
    """
    if "datacenter.power_bounds_s" in inputs.setup_times:
        return
    sc = inputs.data.get("scenario")
    dc = sc.datacenter if sc is not None else inputs.data["datacenter"]
    _timed(inputs.setup_times, "datacenter.power_bounds_s", power_bounds, dc)
