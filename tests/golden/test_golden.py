"""Golden-value regression suite.

Each test runs one headline pipeline at a fixed seed under the default
(vectorized) kernel and pins its observable outputs — reward rates,
per-core P-states, CRAC outlets, inlet temperatures, CRAC powers — to a
committed JSON baseline.  Wall-clock measurements are deliberately
excluded (they are the only nondeterministic outputs).

The suite is the repo's early-warning system for silent numeric drift:
a kernel change, an LP-tie flip or a generator reordering shows up here
as a per-path diff long before it would move a paper figure.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import SolveOptions, SolveRequest, solve
from repro.experiments.chaos import ChaosConfig, sweep_chaos
from repro.experiments.config import PAPER_SET_1, paper_sets, scaled_down
from repro.experiments.figures import fig6_data
from repro.experiments.generator import generate_scenario
from repro.experiments.sweeps import sweep_power_cap
from repro.experiments.tournament import TournamentConfig, sweep_tournament

from tests.conftest import SEED


def test_solver_detail_golden(golden):
    """Full three-stage output on one room, down to per-core P-states."""
    sc = generate_scenario(scaled_down(PAPER_SET_1, 12), SEED)
    result = solve(SolveRequest(sc.datacenter, sc.workload, sc.p_const,
                                options=SolveOptions(psi=50.0)))
    result.verify(sc.datacenter, sc.p_const)
    power = result.power(sc.datacenter)
    steady = sc.datacenter.require_thermal().steady_state(
        result.t_crac_out, result.stage2.node_power_kw)
    golden("solver_detail", {
        "p_const_kw": float(sc.p_const),
        "reward_rate": float(result.reward_rate),
        "stage1_objective": float(result.stage1.objective),
        "t_crac_out_c": result.t_crac_out.tolist(),
        "pstates": [int(p) for p in result.pstates],
        "node_power_kw": result.stage2.node_power_kw.tolist(),
        "crac_power_kw": power.crac_kw.tolist(),
        "inlet_temperatures_c": steady.t_in.tolist(),
    })


def test_fig6_golden(golden):
    """The headline experiment, shrunk: 2 runs x 10 nodes x 3 sets."""
    configs = [scaled_down(c, 10) for c in paper_sets()]
    results = fig6_data(n_runs=2, base_seed=1000, configs=configs)
    document = {}
    for name, set_result in results.items():
        document[name] = {
            "runs": [r.to_dict() for r in set_result.runs],
            "improvement_means": {
                label: float(ci.mean)
                for label, ci in set_result.intervals.items()},
            "n_degenerate": len(set_result.degenerate),
            "n_failed": len(set_result.failures),
        }
    golden("fig6_small", document)


def test_capacity_sweep_golden(golden):
    """Reward-vs-cap curve at three caps on one 10-node room."""
    sc = generate_scenario(scaled_down(PAPER_SET_1, 10), SEED)
    caps = np.linspace(sc.bounds.p_min * 1.05, sc.bounds.p_max, 3)
    points = sweep_power_cap(sc.datacenter, sc.workload, caps)
    golden("capacity_sweep", {
        "points": [{
            "p_const_kw": p.p_const,
            "reward_three_stage": p.reward_three_stage,
            "reward_baseline": p.reward_baseline,
            "power_used_kw": p.power_used_kw,
        } for p in points],
    })


def test_tournament_golden(golden):
    """Each backend's seeded output on one small room.

    Pins every backend's full operating point — reward, outlets,
    P-states, evaluation counts — so a metaheuristic RNG/repair change
    can't silently drift the tournament results.
    """
    config = TournamentConfig(n_nodes=10, seed=SEED, sets=(1,),
                              backends=("three_stage", "annealing",
                                        "evolution"),
                              backend_seed=0, max_evals=200)
    points = sweep_tournament(config)
    from repro.core.api import SolveRequest as _Req
    from repro.experiments.generator import generate_scenario as _gen
    sc = _gen(scaled_down(PAPER_SET_1, 10), SEED)
    details = {}
    for backend in ("annealing", "evolution"):
        result = solve(_Req(sc.datacenter, sc.workload, sc.p_const,
                            options=SolveOptions(backend=backend, seed=0,
                                                 max_evals=200)))
        details[backend] = result.to_dict()
    golden("tournament", {
        "points": [p.to_dict() for p in points],
        "details": details,
    })


def test_stage1_zonal_golden(golden):
    """Zonal Stage 1 vs the monolithic LP on the shrunken fig6 room.

    Pins the decomposition's objective (equal to the monolithic optimum
    at the same fixed outlets), the per-node power plan and the
    reconciliation diagnostics, so a sweep/coordination change that
    degrades the decomposition shows up as a baseline diff.
    """
    from repro.core.stage1 import (build_arr_functions,
                                   solve_stage1_fixed_temps)
    from repro.core.stage1_zonal import solve_stage1_zonal
    from repro.thermal.constraints import ThermalLinearization

    sc = generate_scenario(scaled_down(PAPER_SET_1, 30), 1000)
    t_fixed = np.asarray([18.0, 17.0, 17.0])
    result, _ = solve_stage1_zonal(sc.datacenter, sc.workload,
                                   p_const=sc.p_const, t_crac_out=t_fixed)
    arrs = build_arr_functions(sc.datacenter, sc.workload, 50.0)
    lin = ThermalLinearization.build(
        sc.datacenter.require_thermal(), t_fixed, sc.datacenter.redline_c,
        sc.datacenter.cracs[0].cop_model)
    mono = solve_stage1_fixed_temps(sc.datacenter, arrs, lin, sc.p_const)
    golden("stage1_zonal", {
        "p_const_kw": float(sc.p_const),
        "t_crac_out_c": t_fixed.tolist(),
        "objective": float(result.objective),
        "monolithic_objective": float(mono.objective),
        "node_power_kw": result.node_power_kw.tolist(),
        "sweeps": int(result.sweeps),
        "repair_scale": float(result.repair_scale),
    })


def test_mpc_trajectory_golden(golden):
    """One MPC controller run, epoch by epoch, on a flash-crowd trace.

    Pins the committed operating points (CRAC outlets, reward rates),
    the escalation ladder (pre-cool/derate levels) and the measured
    transition diagnostics, so a planner/predictor change that moves
    any decision shows up as a per-epoch diff.
    """
    from repro.control.mpc import MPCConfig, MPCController
    from repro.workload import ConstantProfile, FlashCrowdProfile

    sc = generate_scenario(scaled_down(PAPER_SET_1, 10), SEED)
    profile = FlashCrowdProfile(
        ConstantProfile(base_rates=sc.workload.arrival_rates),
        bursts=((30.0, 30.0, 3.0),))
    controller = MPCController(
        sc.datacenter, sc.workload, sc.p_const,
        MPCConfig(horizon_steps=3, step_s=30.0, tau_s=60.0,
                  settle_factor=3.0))
    result = controller.run(profile, 90.0, np.random.default_rng(SEED + 1))
    golden("mpc_trajectory", {
        "reward_rate": result.reward_rate,
        "total_reward": result.total_reward,
        "violation_minutes": result.violation_minutes,
        "precools": result.precools,
        "derates": result.derates,
        "shed_epochs": result.shed_epochs,
        "epochs": [{
            "start_s": e.start_s,
            "end_s": e.end_s,
            "rates": [float(r) for r in e.rates],
            "plan_reward_rate": float(e.plan.reward_rate),
            "t_crac_out_c": [float(t) for t in e.plan.t_crac_out],
            "precooled": e.precooled,
            "derated": e.derated,
            "predicted_overshoot_c": e.predicted_overshoot_c,
            "transient_overshoot_c": e.transient_overshoot_c,
            "violation_minutes": e.violation_minutes,
            "warm_level": e.warm_level,
            "shed": e.shed,
        } for e in result.epochs],
    })


def test_control_sweep_golden(golden):
    """MPC vs interval on one faulted flash-crowd room.

    Control points carry no wall-clock fields by design, so the whole
    point payload is pinned verbatim — including the escalation counts
    that tell the two control laws apart.
    """
    from repro.experiments.control import ControlConfig, sweep_control

    config = ControlConfig(n_nodes=6, seed=SEED, horizon_s=120.0,
                           epoch_s=30.0, burst_start_s=30.0,
                           burst_duration_s=60.0)
    points = sweep_control(config, [0.0, 1.0])
    golden("control_sweep", {
        "points": [p.to_dict() for p in points],
    })


def test_chaos_golden(golden):
    """Fault-injection sweep: healthy control plus factor 1.

    ``mean_replan_s`` (measured wall time) is the one nondeterministic
    field of a chaos point; everything else is pure in (config, factor).
    """
    config = ChaosConfig(n_nodes=6, seed=SEED, horizon_s=20.0)
    points = sweep_chaos(config, [0.0, 1.0])
    golden("chaos_sweep", {
        "points": [{
            "factor": p.factor,
            "n_fault_events": p.n_fault_events,
            "reward_rate": p.reward_rate,
            "violation_minutes": p.violation_minutes,
            "tasks_lost": p.tasks_lost,
            "tasks_requeued": p.tasks_requeued,
            "n_replans": p.n_replans,
            "reward_retained": p.reward_retained,
        } for p in points],
    })


def _digest(*arrays) -> str:
    """sha256 over the raw bytes of ``arrays`` (lengths included)."""
    import hashlib

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_des_replay_golden(golden):
    """DES replays pinned bit for bit on one 10-node room.

    Golden floats compare to 1e-6, so exactness comes through strings:
    ``float.hex()`` of the reward and horizon, sha256 digests of the
    ``atc``, busy-time and response-time bytes.  Covers a fault-free
    replay (default horizon), core outages with each stranded-task
    policy, and a replay without latency collection.
    """
    from repro.simulate.engine import simulate_trace
    from repro.simulate.events import CoreOutage
    from repro.workload.trace import generate_trace

    sc = generate_scenario(scaled_down(PAPER_SET_1, 10), SEED)
    plan = solve(SolveRequest(sc.datacenter, sc.workload, sc.p_const,
                              options=SolveOptions(psi=50.0)))
    trace = generate_trace(sc.workload, 20.0, np.random.default_rng(SEED))
    n_cores = sc.datacenter.n_cores
    outages = [
        CoreOutage(start_s=5.0, cores=tuple(range(0, n_cores, 2)),
                   end_s=12.0),
        CoreOutage(start_s=8.0, cores=tuple(range(n_cores // 3))),
    ]
    cases = {
        "fault_free": dict(),
        "outage_requeue": dict(duration=20.0, faults=outages,
                               stranded_policy="requeue"),
        "outage_drop": dict(duration=20.0, faults=outages,
                            stranded_policy="drop"),
        "no_latency": dict(duration=20.0, collect_latency=False),
    }

    def counts(a):
        return None if a is None else [int(v) for v in a]

    document = {"n_tasks": len(trace)}
    for name, kwargs in cases.items():
        m = simulate_trace(sc.datacenter, sc.workload, plan.tc,
                           plan.pstates, trace, **kwargs)
        document[name] = {
            "duration": float(m.duration).hex(),
            "total_reward": float(m.total_reward).hex(),
            "completed": counts(m.completed),
            "dropped": counts(m.dropped),
            "stranded_requeued": counts(m.stranded_requeued),
            "stranded_dropped": counts(m.stranded_dropped),
            "n_fault_events": int(m.n_fault_events),
            "atc": _digest(m.atc),
            "busy_time": _digest(m.busy_time),
            "busy_by_type": _digest(m.busy_by_type),
            "response_times": None if m.response_times is None
            else _digest(*m.response_times),
        }
    golden("des_replay", document)


def _task_stream_digest(tasks) -> str:
    """sha256 over ``float.hex`` of every task's arrival and deadline."""
    import hashlib

    h = hashlib.sha256()
    for task in tasks:
        h.update(f"{task.arrival.hex()} {task.task_type} {task.uid} "
                 f"{task.deadline.hex()}\n".encode())
    return h.hexdigest()


def test_arrival_stream_golden(golden):
    """Thinned arrival streams pinned bit for bit on one 12-node room.

    ``repro serve --trace composite`` at three CLI seeds (the stream is
    drawn from ``seed + 1`` exactly as the CLI does), hashed per task
    and per tick rate vector, plus ``generate_nonstationary_trace`` on
    the same composite profile and on a step profile.
    """
    from repro.cli import _serve_profile
    from repro.workload import (StepProfile, generate_nonstationary_trace,
                                stream_trace_ticks)

    sc = generate_scenario(scaled_down(PAPER_SET_1, 12), SEED)
    rates = sc.workload.arrival_rates
    tick_s, n_ticks = 2.0, 15
    profile = _serve_profile("composite", rates, tick_s, n_ticks)
    document = {}
    for seed in (1, 2, 7):
        ticks = list(stream_trace_ticks(sc.workload, profile, tick_s,
                                        n_ticks,
                                        np.random.default_rng(seed + 1)))
        document[f"serve_seed{seed}"] = {
            "n_tasks": sum(len(t.tasks) for t in ticks),
            "tasks": _task_stream_digest(
                task for t in ticks for task in t.tasks),
            "rates": _digest(*(t.rates for t in ticks)),
        }
    step = StepProfile(boundaries=np.array([10.0, 20.0]),
                       rate_levels=np.stack([0.5 * rates, 1.5 * rates,
                                             rates]))
    for name, p in (("composite", profile), ("step", step)):
        trace = generate_nonstationary_trace(
            sc.workload, p, tick_s * n_ticks, np.random.default_rng(SEED))
        document[f"nonstationary_{name}"] = {
            "n_tasks": len(trace), "tasks": _task_stream_digest(trace)}
    golden("arrival_stream", document)
