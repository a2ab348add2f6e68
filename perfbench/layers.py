"""Per-layer numbers from a traced pass.

Spans and counters are the ones ``repro.obs`` already records under
``obs.capture()``; nothing here adds instrumentation to the program.
A layer's *self time* is the total duration of its spans minus the
durations of their direct child spans.  Times are at reference speed,
like every time the benchmark reports (``refclock``).  A layer a
workload never enters reports 0.

``PER_LAYER`` is the single list of names, units and directions that
``BENCHMARK.json`` declares; :func:`per_layer` returns exactly these
keys.
"""

from __future__ import annotations

WARM_LEVELS = ("none", "request", "stage1", "structure")

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    # setup: generation and room build
    "experiments.scenario_s": ("s", "lower"),
    "thermal.interference_lp_s": ("s", "lower"),
    "datacenter.power_bounds_s": ("s", "lower"),
    "thermal.sparse_build_s": ("s", "lower"),
    "workload.stream_s": ("s", "lower"),
    "workload.stream_us_per_task": ("us", "lower"),
    "workload.trace_s": ("s", "lower"),
    # Stage 1 and its LPs
    "optimize.lp_solves.stage1": ("count", "lower"),
    "optimize.lp_s.stage1": ("s", "lower"),
    "optimize.lp_ms_per_solve.stage1": ("ms", "lower"),
    "optimize.lp_warm_hit_ratio.stage1": ("ratio", "higher"),
    "core.stage1_self_s": ("s", "lower"),
    "core.stage1_probes": ("count", "lower"),
    "core.stage1_infeasible_ratio": ("ratio", "lower"),
    # zonal Stage 1
    "core.stage1_zonal_self_s": ("s", "lower"),
    "optimize.lp_solves.stage1_zone": ("count", "lower"),
    "optimize.lp_s.stage1_zone": ("s", "lower"),
    "optimize.lp_solves.stage1_zonal_master": ("count", "lower"),
    "core.zonal_sweeps": ("count", "lower"),
    "core.zonal_cuts": ("count", "lower"),
    # serving and MPC
    "control.mpc_s": ("s", "lower"),
    "control.lookahead_s": ("s", "lower"),
    "control.lookahead_solves": ("count", "lower"),
    "control.precools": ("count", "lower"),
    "core.stage3_s": ("s", "lower"),
    "optimize.lp_solves.stage3": ("count", "lower"),
    "core.stage2_s": ("s", "lower"),
    "core.stage2_reuses": ("count", "higher"),
    "core.warm_level.none": ("count", "lower"),
    "core.warm_level.request": ("count", "higher"),
    "core.warm_level.stage1": ("count", "higher"),
    "core.warm_level.structure": ("count", "higher"),
    "thermal.transient_s": ("s", "lower"),
    "thermal.transient_calls": ("count", "lower"),
    "serve.tick_self_s": ("s", "lower"),
    # faults and the transient guard
    "core.transient_guard_s": ("s", "lower"),
    "core.derates": ("count", "lower"),
    "core.derate_exhausted_ratio": ("ratio", "lower"),
    "faults.replans": ("count", "lower"),
    "faults.shed_events": ("count", "lower"),
    "faults.interval_self_s": ("s", "lower"),
    "faults.violation_minutes": ("min", "lower"),
    "thermal.censored_rebuilds": ("count", "lower"),
    "thermal.censored_hit_ratio": ("ratio", "higher"),
    "thermal.steady_state_calls": ("count", "lower"),
    # DES
    "simulate.des_replay_s": ("s", "lower"),
    "simulate.des_us_per_task": ("us", "lower"),
    "simulate.tasks_completed": ("count", "higher"),
    "simulate.tasks_dropped": ("count", "lower"),
    "simulate.sim_speed": ("sim_s/s", "higher"),
    "core.planned_reward_rate": ("reward/s", "higher"),
    # tracing itself
    "obs.overhead_pct": ("%", "lower"),
}


def _spans(snapshot: dict, name: str) -> list[dict]:
    return [r for r in snapshot["spans"] if r["name"] == name]


def _total_s(snapshot: dict, name: str) -> float:
    return sum(r["dur"] for r in _spans(snapshot, name))


def _self_s(snapshot: dict, name: str) -> float:
    """Spans named ``name`` minus their direct children."""
    children = 0.0
    for rec in snapshot["spans"]:
        parent = rec["path"][:-len(rec["name"])].rstrip(".")
        if parent == name or parent.endswith("." + name):
            children += rec["dur"]
    return _total_s(snapshot, name) - children


def _count(snapshot: dict, metric: str) -> float:
    return float(snapshot["metrics"].get(metric, {}).get("value", 0))


def _lp_s(snapshot: dict, lp: str) -> float:
    return sum(r["dur"] for r in _spans(snapshot, "lp")
               if r["attrs"].get("lp") == lp)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _scaled(snapshot: dict, scale: float) -> dict:
    """The snapshot with every span duration scaled to reference speed."""
    return {"metrics": snapshot["metrics"],
            "spans": [dict(r, dur=r["dur"] * scale)
                      for r in snapshot["spans"]]}


def per_layer(setup_snap: dict, setup_times: dict[str, float],
              setup_scale: float, pass_snap: dict, result,
              overhead_pct: float, n_stream_tasks: int = 0
              ) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass and its set-up.

    Times are scaled to reference speed by the run's set-up factor
    (``setup_scale``, from ``refclock.setup_scale``) or the pass's own
    (``result.scale``).
    """
    s, c = _scaled(pass_snap, result.scale), (
        lambda m: _count(pass_snap, m))

    def setup_s(key: str) -> float:
        return setup_times.get(key, 0.0) * setup_scale

    out: dict[str, float] = {
        "experiments.scenario_s": setup_s("experiments.scenario_s"),
        "thermal.interference_lp_s": setup_scale * sum(
            r["dur"] for r in _spans(setup_snap, "lp")
            if r["path"] == "lp"
            and r["attrs"].get("lp") == "interference-feasibility"),
        "datacenter.power_bounds_s": setup_s("datacenter.power_bounds_s"),
        "thermal.sparse_build_s": setup_s("thermal.sparse_build_s"),
        "workload.stream_s": setup_s("workload.stream_s"),
        "workload.stream_us_per_task": 1e6 * _ratio(
            setup_s("workload.stream_s"), n_stream_tasks),
        "workload.trace_s": setup_s("workload.trace_s"),
    }
    solves = c("lp.solves.stage1")
    lp_s = _lp_s(s, "stage1")
    probes = c("stage1.probes")
    out.update({
        "optimize.lp_solves.stage1": solves,
        "optimize.lp_s.stage1": lp_s,
        "optimize.lp_ms_per_solve.stage1": 1e3 * _ratio(lp_s, solves),
        "optimize.lp_warm_hit_ratio.stage1": _ratio(
            c("lp.warm_hits.stage1"), c("lp.warm_hits.stage1") + solves),
        "core.stage1_self_s": _self_s(s, "stage1"),
        "core.stage1_probes": probes,
        "core.stage1_infeasible_ratio": _ratio(
            c("stage1.infeasible_probes"), probes),
        "core.stage1_zonal_self_s": _self_s(s, "stage1_zonal"),
        "optimize.lp_solves.stage1_zone": c("lp.solves.stage1_zone"),
        "optimize.lp_s.stage1_zone": _lp_s(s, "stage1_zone"),
        "optimize.lp_solves.stage1_zonal_master": c(
            "lp.solves.stage1_zonal_master"),
        "core.zonal_sweeps": c("stage1.zonal_sweeps"),
        "core.zonal_cuts": c("stage1.zonal_cuts"),
        "control.mpc_s": _total_s(s, "mpc"),
        "control.lookahead_s": _total_s(s, "lookahead"),
        "control.lookahead_solves": c("mpc.lookahead_solves"),
        "control.precools": c("mpc.precools"),
        "core.stage3_s": _total_s(s, "stage3"),
        "optimize.lp_solves.stage3": c("lp.solves.stage3"),
        "core.stage2_s": _total_s(s, "stage2"),
        "core.stage2_reuses": c("stage2.reuses"),
    })
    for level in WARM_LEVELS:
        out[f"core.warm_level.{level}"] = c(f"solve.warm_level.{level}")
    guards = len(_spans(s, "transient_guard"))
    rebuilds = c("thermal.censored_rebuilds")
    des_s = _total_s(s, "des_replay")
    des_tasks = sum(r["attrs"].get("n_tasks", 0)
                    for r in _spans(s, "des_replay"))
    out.update({
        "thermal.transient_s": _total_s(s, "transient"),
        "thermal.transient_calls": float(len(_spans(s, "transient"))),
        "serve.tick_self_s": _self_s(s, "serve.tick"),
        "core.transient_guard_s": _total_s(s, "transient_guard"),
        "core.derates": c("controller.derates"),
        "core.derate_exhausted_ratio": _ratio(
            c("controller.derate_exhausted"), guards),
        "faults.replans": c("chaos.replans"),
        "faults.shed_events": c("chaos.shed_events"),
        "faults.interval_self_s": _self_s(s, "interval"),
        "faults.violation_minutes": result.violation_minutes,
        "thermal.censored_rebuilds": rebuilds,
        "thermal.censored_hit_ratio": _ratio(
            c("thermal.censored_cache_hits"),
            c("thermal.censored_cache_hits") + rebuilds),
        "thermal.steady_state_calls": c("thermal.steady_state_calls"),
        "simulate.des_replay_s": des_s,
        "simulate.des_us_per_task": 1e6 * _ratio(des_s, des_tasks),
        "simulate.tasks_completed": c("des.tasks_completed"),
        "simulate.tasks_dropped": c("des.tasks_dropped"),
        "simulate.sim_speed": _ratio(result.sim_s, result.wall_s),
        "core.planned_reward_rate": result.planned_reward_rate,
        "obs.overhead_pct": overhead_pct,
    })
    return {name: float(out[name]) for name in PER_LAYER}
