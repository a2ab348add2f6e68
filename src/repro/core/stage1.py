"""Stage 1 — power-to-cores and CRAC outlet assignment (Section V.B.2).

For *fixed* CRAC outlet temperatures the relaxed problem (Eq. 9) is a
linear program: maximize the summed concave ``ARR`` of every core subject
to the total power cap (Constraint 1) and the redlines (Constraint 2),
both of which are affine in node powers
(:class:`repro.thermal.constraints.ThermalLinearization`).

Scalability comes from an exact aggregation (DESIGN.md §3.1): cores in a
node are identical and ``ARR`` is concave, so the node's best aggregate
reward from total core power ``C`` is the concave PWL whose segments are
the per-core hull segments with capacities multiplied by the core count.
The LP therefore has one variable per (node, hull segment) —
``O(NCN * eta)`` — instead of one per core, and per-core powers are
recovered by a breakpoint-quantized greedy fill whose values are real
P-state powers except for at most one partial core per node (which keeps
the Stage 2 integer conversion nearly lossless).

The outer search over CRAC outlet temperatures is the paper's
coarse-to-fine discretized scan (:func:`repro.optimize.search.coarse_to_fine_search`).
Between its probes only the right-hand sides and the power-cap row of
the LP change, so :func:`solve_stage1` scores them on one live HiGHS
model edited in place, then commits the winner's cold solve (see
:mod:`repro.optimize.linprog`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import kernels
from repro.core.arr import AggregateRewardRate, aggregate_reward_rate
from repro.datacenter.builder import DataCenter
from repro.obs import metrics as obs_metrics
from repro.obs.trace import annotate as obs_annotate
from repro.obs.trace import span as obs_span
from repro.core.warmstart import WarmContext
from repro.optimize.linprog import (InfeasibleError, LinearProgram,
                                    LiveLP, LPSolution)
from repro.optimize.search import (SearchResult, coarse_to_fine_search,
                                   seeded_coordinate_search,
                                   uniform_then_coordinate_search)
from repro.thermal.constraints import ThermalLinearization
from repro.workload.tasktypes import Workload

__all__ = ["Stage1Solution", "build_arr_functions",
           "solve_stage1_fixed_temps", "solve_stage1", "distribute_node_power"]


@dataclass
class Stage1Solution:
    """Output of Stage 1 for one CRAC outlet vector.

    Attributes
    ----------
    t_crac_out:
        Assigned CRAC outlet temperatures, C.
    core_power_kw:
        ``PCORE_k`` for every core (global index), kW.
    node_power_kw:
        Total node power including base, kW (Eq. 1 with relaxed cores).
    objective:
        Predicted aggregate reward rate (the Eq. 9 objective).
    linearization:
        The thermal/power linear view the LP was built from, reused by
        Stage 2 feasibility checks.
    arr_functions:
        ``ARR_j`` per node type, as used (for diagnostics/plots).
    """

    t_crac_out: np.ndarray
    core_power_kw: np.ndarray
    node_power_kw: np.ndarray
    objective: float
    linearization: ThermalLinearization
    arr_functions: list[AggregateRewardRate]


def build_arr_functions(datacenter: DataCenter, workload: Workload,
                        psi: float) -> list[AggregateRewardRate]:
    """One ``ARR_j`` per node type in the catalog."""
    return [
        aggregate_reward_rate(workload, spec, t, psi)
        for t, spec in enumerate(datacenter.node_types)
    ]


def _node_segments(datacenter: DataCenter,
                   arrs: list[AggregateRewardRate]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-node hull segments for the LP (via the active kernel).

    Returns ``(node_of_var, capacity, slope)`` — one entry per
    (node, segment) variable; capacity is segment length times the
    node's core count.
    """
    return kernels.active().assemble_segments(datacenter, arrs)


#: Sentinel distinguishing "no cache entry" from a cached infeasibility.
_LP_MISS = object()


def _lp_rhs(datacenter: DataCenter, lin: ThermalLinearization,
            p_const: float) -> tuple[np.ndarray, float] | None:
    """Right-hand sides of the redline rows and the power-cap row.

    The LP's variables are the core powers above base, so both sides
    are net of base power.  ``None`` when even all-cores-off violates a
    redline or the cap.
    """
    base = datacenter.node_base_power
    base_inlet_load = lin.inlet_gain @ base
    if np.any(base_inlet_load > lin.redline_rhs + 1e-9):
        return None
    base_total = float(base.sum()) + lin.crac_const \
        + float(lin.crac_coeff @ base)
    if base_total > p_const + 1e-9:
        return None
    return lin.redline_rhs - base_inlet_load, p_const - base_total


def _stage1_lp(lin: ThermalLinearization, node_of_var: np.ndarray,
               caps: np.ndarray, slopes: np.ndarray,
               rhs: tuple[np.ndarray, float]) -> LinearProgram:
    """The Stage 1 LP: redline rows first, the power-cap row last."""
    lp = LinearProgram(name="stage1", maximize=True)
    lp.add_variables(caps.size, lb=0.0, ub=caps, objective=slopes)
    # Redline rows: gain[u] @ (base + C) <= redline_rhs[u].
    # Expand node coefficients onto segment variables.
    lp.add_dense_le_rows(lin.inlet_gain[:, node_of_var], rhs[0])
    # Power cap: sum_j (1 + crac_coeff_j) * C_j <= Pconst - base_total.
    lp.add_dense_le_rows(_power_row(lin, node_of_var)[None, :],
                         np.asarray([rhs[1]]))
    return lp


def _power_row(lin: ThermalLinearization,
               node_of_var: np.ndarray) -> np.ndarray:
    return (1.0 + lin.crac_coeff)[node_of_var]


def _core_sums(datacenter: DataCenter, lin: ThermalLinearization,
               node_of_var: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """Per-node core power of LP solution ``x``; None if CRACs clamp.

    Validity of the linearized CRAC power: every CRAC inlet must be at
    or above its assigned outlet, otherwise Eq. 3 clamps and the LP
    under-counted cooling power.
    """
    core_sums = np.bincount(node_of_var, weights=x,
                            minlength=datacenter.n_nodes)
    t_in = lin.inlet_temperatures(datacenter.node_base_power + core_sums)
    n_crac = lin.t_crac_out.size
    if np.any(t_in[:n_crac] < lin.t_crac_out - 1e-6):
        return None
    return core_sums


def _cached_lp(lp_cache: dict[str, LPSolution | None], lp_key: str):
    """``lp_cache[lp_key]`` (or :data:`_LP_MISS`), counting the replay."""
    cached = lp_cache.get(lp_key, _LP_MISS)
    if cached is None:          # this exact LP was infeasible before
        obs_metrics.counter("stage1.infeasible_lp_replays").inc()
    elif cached is not _LP_MISS:
        obs_metrics.counter("lp.warm_hits.stage1").inc()
    return cached


def _disabled_caps(datacenter: DataCenter, node_of_var: np.ndarray,
                   caps: np.ndarray,
                   disabled_nodes: np.ndarray | None) -> np.ndarray:
    if disabled_nodes is None:
        return caps
    disabled_nodes = np.asarray(disabled_nodes, dtype=bool)
    if disabled_nodes.shape != (datacenter.n_nodes,):
        raise ValueError("disabled_nodes mask shape mismatch")
    return np.where(disabled_nodes[node_of_var], 0.0, caps)


def solve_stage1_fixed_temps(datacenter: DataCenter,
                             arrs: list[AggregateRewardRate],
                             linearization: ThermalLinearization,
                             p_const: float,
                             disabled_nodes: np.ndarray | None = None,
                             *,
                             segments: tuple[np.ndarray, np.ndarray,
                                             np.ndarray] | None = None,
                             lp_cache: dict[str, LPSolution | None]
                             | None = None,
                             lp_key: str | None = None
                             ) -> Stage1Solution | None:
    """Solve the Stage 1 LP at fixed CRAC outlet temperatures.

    Returns ``None`` when the temperatures admit no feasible operating
    point (even all-cores-off violates a redline or the power cap) or
    when the linearized CRAC model is invalid at the optimum (a CRAC's
    inlet below its outlet, so Eq. 3 would clamp; see DESIGN.md §3.3).

    ``disabled_nodes`` (boolean mask) removes nodes' cores from the
    optimization — used by the consolidation extension for powered-down
    chassis, whose base power the caller zeroes separately.

    ``segments`` lets the caller hoist the (temperature-independent)
    hull-segment assembly out of the probe loop.  ``lp_cache`` /
    ``lp_key`` replay a previous solve: when the key is present, the
    stored LP solution (or stored infeasibility) is replayed
    bit-for-bit and counted in ``lp.warm_hits.stage1``; otherwise the
    cold solve's outcome is cached under it.  The key must determine
    the assembled LP exactly — Stage 1 derives it from the warm-start
    digests (see :mod:`repro.core.warmstart`).
    """
    lin = linearization
    rhs = _lp_rhs(datacenter, lin, p_const)
    if rhs is None:
        return None
    node_of_var, caps, slopes = segments if segments is not None \
        else _node_segments(datacenter, arrs)
    caps = _disabled_caps(datacenter, node_of_var, caps, disabled_nodes)

    caching = lp_cache is not None and lp_key is not None
    sol = _cached_lp(lp_cache, lp_key) if caching else _LP_MISS
    if sol is _LP_MISS:
        try:
            sol = _stage1_lp(lin, node_of_var, caps, slopes, rhs).solve()
        except InfeasibleError:
            sol = None
        if caching:
            lp_cache[lp_key] = sol
    if sol is None:
        return None
    return _stage1_solution(datacenter, arrs, lin, node_of_var, sol)


def _stage1_solution(datacenter: DataCenter,
                     arrs: list[AggregateRewardRate],
                     lin: ThermalLinearization, node_of_var: np.ndarray,
                     sol: LPSolution) -> Stage1Solution | None:
    core_sums = _core_sums(datacenter, lin, node_of_var, sol.x)
    if core_sums is None:
        return None
    return Stage1Solution(
        t_crac_out=lin.t_crac_out.copy(),
        core_power_kw=distribute_node_power(datacenter, arrs, core_sums),
        node_power_kw=datacenter.node_base_power + core_sums,
        objective=float(sol.objective),
        linearization=lin,
        arr_functions=arrs,
    )


def distribute_node_power(datacenter: DataCenter,
                          arrs: list[AggregateRewardRate],
                          node_core_power: np.ndarray) -> np.ndarray:
    """Split each node's total core power onto its cores.

    Breakpoint-quantized greedy (DESIGN.md §3.1): raise all cores of the
    node through the concave-hull breakpoints in order; within the last
    affordable level, advance as many whole cores as possible and give
    the remainder to a single partial core.  Every resulting per-core
    power is a hull breakpoint (a real, "good" P-state power) except at
    most one per node, and the summed ``ARR`` equals the LP objective.
    Dispatches to the active kernel (``docs/KERNELS.md``); the kernels
    agree bit-for-bit.
    """
    return kernels.active().distribute_node_power(datacenter, arrs,
                                                  node_core_power)


def solve_stage1(datacenter: DataCenter, workload: Workload, *,
                 p_const: float, psi: float = 50.0,
                 search: str = "fast",
                 coarse_step: float = 5.0,
                 final_step: float = 1.0,
                 disabled_nodes: np.ndarray | None = None,
                 warm: WarmContext | None = None
                 ) -> tuple[Stage1Solution, SearchResult]:
    """Full Stage 1: discretized CRAC temperature search around the LP.

    The canonical call is ``solve_stage1(datacenter, workload,
    p_const=cap, psi=50.0)`` — the same ``(datacenter, workload,
    p_const)`` order as every other solver (see
    :mod:`repro.core.api`); every tuning knob is keyword-only.

    Parameters
    ----------
    search:
        ``"fast"`` — uniform scalar scan at 1-degree granularity plus
        coordinate descent (near-optimal for homogeneous CRACs, and the
        default because the full grid "increases exponentially with the
        number of CRAC units" as the paper notes); ``"full"`` — the
        paper's coarse-to-fine product-grid scan.
    warm:
        A :class:`repro.core.warmstart.WarmContext` carrying the
        previous solve's caches; ARR hulls, hull segments, thermal
        linearizations, probe LP outcomes and the committed LP solution
        replay from it (value-exact by construction), and — in
        ``"fast"`` mode with a seed vector — the scalar scan is replaced
        by coordinate descent from the previous optimum, with a cold
        fallback when the seed went infeasible.

    Returns the best solution and the search trace.  Raises
    ``RuntimeError`` if no outlet-temperature vector admits a feasible
    operating point (e.g. ``p_const`` below the idle power of the room).
    """
    model = datacenter.require_thermal()
    redline = datacenter.redline_c
    lows = [c.outlet_range_c[0] for c in datacenter.cracs]
    highs = [c.outlet_range_c[1] for c in datacenter.cracs]
    if warm is not None and warm.arrs is not None:
        arrs = warm.arrs
    else:
        arrs = build_arr_functions(datacenter, workload, psi)
    if warm is not None and warm.segments is not None:
        segments = warm.segments
    else:
        segments = _node_segments(datacenter, arrs)
    if warm is not None:
        warm.arrs = arrs
        warm.segments = segments
    # the active kernel picks the CoP evaluation strategy (direct vs
    # memoized lookup — bit-identical values either way)
    cop_model = kernels.active().wrap_cop(datacenter.cracs[0].cop_model)
    # linearizations are pure in (structure, t_vec); memoize per solve
    # and across warm-chained solves
    lin_cache = warm.lin_cache if warm is not None else {}
    lp_cache = warm.lp_cache if warm is not None else {}
    if disabled_nodes is None:
        disabled_key = "-"
    else:
        disabled_key = np.asarray(disabled_nodes,
                                  dtype=bool).tobytes().hex()
    key_prefix = f"{warm.stage1_key if warm is not None else ''}" \
                 f"|d{disabled_key}|t"
    node_of_var = segments[0]
    caps = _disabled_caps(datacenter, node_of_var, segments[1],
                          disabled_nodes)
    n_rows = model.n_units + 1
    live: LiveLP | None = None
    probes = infeasible = 0

    def probe_lp(lin: ThermalLinearization,
                 rhs: tuple[np.ndarray, float]) -> LPSolution | None:
        # Only the right-hand sides and the power row depend on the
        # outlets; the redline block depends on the structure alone.
        nonlocal live
        if live is None:
            live = _stage1_lp(lin, node_of_var, caps, segments[2],
                              rhs).live()
        else:
            live.set_row_upper(np.arange(n_rows), np.append(*rhs))
            live.set_row_coeffs(n_rows - 1, np.arange(caps.size),
                                _power_row(lin, node_of_var))
        try:
            return live.solve()
        except InfeasibleError:
            return None

    def objective(t_vec: np.ndarray) -> float | None:
        nonlocal probes, infeasible
        probes += 1
        t_key = t_vec.tobytes()
        lin = lin_cache.get(t_key)
        if lin is None:
            lin = ThermalLinearization.build(model, t_vec, redline,
                                             cop_model)
            lin_cache[t_key] = lin
        rhs = _lp_rhs(datacenter, lin, p_const)
        sol = None
        if rhs is not None:
            lp_key = key_prefix + t_key.hex()
            sol = _cached_lp(lp_cache, lp_key)
            if sol is _LP_MISS:
                sol = lp_cache[lp_key] = probe_lp(lin, rhs)
        if sol is None or _core_sums(datacenter, lin, node_of_var,
                                     sol.x) is None:
            infeasible += 1
            return None
        return sol.objective

    seed = warm.seed_t if warm is not None else None
    with obs_span("stage1", mode=search, n_crac=datacenter.n_crac):
        try:
            result = _search(objective, search, seed, datacenter.n_crac,
                             min(lows), max(highs), coarse_step, final_step)
        finally:
            if live is not None:
                live.close()
            live = None
        obs_annotate(probes=probes, infeasible_probes=infeasible,
                     warm_seeded=seed is not None)
        obs_metrics.counter("stage1.probes").inc(probes)
        obs_metrics.counter("stage1.infeasible_probes").inc(infeasible)
        # Commit the winner's cold solve, not the live vertex (see
        # repro.optimize.linprog); cached apart from the probes' entries.
        t_key = result.temperatures.tobytes()
        lin = lin_cache[t_key]
        lp_key = key_prefix + t_key.hex()
        solution = solve_stage1_fixed_temps(
            datacenter, arrs, lin, p_const, disabled_nodes=disabled_nodes,
            segments=segments, lp_cache=lp_cache, lp_key=lp_key + "|commit")
        if solution is None:    # only the cold vertex clamps a CRAC
            solution = _stage1_solution(datacenter, arrs, lin, node_of_var,
                                        lp_cache[lp_key])
    return solution, replace(result, score=solution.objective)


def _search(objective, search: str, seed: np.ndarray | None, n_crac: int,
            low: float, high: float, coarse_step: float,
            final_step: float) -> SearchResult:
    """Run the outlet-temperature search mode ``search`` over ``objective``."""
    if search == "fast":
        if seed is not None:
            result = seeded_coordinate_search(
                objective, seed, n_crac, low, high, step=final_step,
                maximize=True)
            if result is not None:
                obs_metrics.counter("stage1.warm_seeded").inc()
                return result
        return uniform_then_coordinate_search(
            objective, n_crac, low, high, step=final_step, maximize=True)
    if search == "full":
        return coarse_to_fine_search(
            objective, n_crac, low, high, coarse_step=coarse_step,
            final_step=final_step, uniform_first=True, maximize=True)
    raise ValueError(
        f"unknown search mode {search!r} (use 'fast' or 'full')")
