"""Bit-identity tier: the direct HiGHS cold solve against ``scipy.linprog``.

:meth:`LinearProgram.solve` hands HiGHS the program, options and
post-check :func:`scipy.optimize.linprog` would, without going through
``linprog``.  These tests pin the contract that makes that safe: on
random programs and on one instance of every LP family the library
builds, the direct solve returns the same ``x`` bytes and objective as
``linprog`` and agrees with it on infeasibility.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.optimize.linprog as linprog_mod
from repro.core.api import SolveRequest, solve
from repro.core.baseline import solve_baseline
from repro.core.minpower import minimize_power
from repro.core.stage1_zonal import solve_stage1_zonal
from repro.core.stage3_power import solve_stage3_power_aware
from repro.datacenter import build_datacenter, power_bounds
from repro.datacenter.coretypes import shrunken_node_types
from repro.datacenter.power import total_power
from repro.optimize.linprog import InfeasibleError, LinearProgram
from repro.power.taskpower import TaskPowerModel
from repro.thermal import attach_thermal_model, attach_zonal_thermal
from repro.thermal.constraints import ThermalLinearization
from repro.workload import generate_workload

pytestmark = pytest.mark.skipif(linprog_mod._highs is None,
                                reason="scipy without the HiGHS binding")


def _outcome(fn):
    """``x`` bytes and objective of a solve, or ``"infeasible"``."""
    try:
        sol = fn()
    except InfeasibleError:
        return "infeasible"
    if sol is None:
        return None
    return sol.x.tobytes(), repr(sol.objective)


def _both(lp: LinearProgram) -> tuple:
    """(direct HiGHS outcome, ``scipy.linprog`` outcome) of one program."""
    return (_outcome(lp._solve_cold),
            _outcome(lambda: linprog_mod._solve_scipy(
                lp.name, lp.maximize, *lp._arrays())))


# ----------------------------------------------------------------------
# random programs

coeffs = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1.25])
lower = st.sampled_from([-np.inf, -5.0, -1.0, 0.0, 0.0, 1.0])
span = st.sampled_from([np.inf, 0.0, 1.0, 2.5, 10.0])


@st.composite
def programs(draw) -> LinearProgram:
    n = draw(st.integers(1, 6))
    lp = LinearProgram(name="random", maximize=draw(st.booleans()))
    lb = np.asarray(draw(st.lists(lower, min_size=n, max_size=n)))
    width = np.asarray(draw(st.lists(span, min_size=n, max_size=n)))
    ub = np.where(np.isinf(lb), 0.0, lb) + width
    lp.add_variables(n, lb=lb, ub=ub,
                     objective=draw(st.lists(coeffs, min_size=n,
                                             max_size=n)))
    rhs = st.floats(-5.0, 10.0, allow_nan=False).map(lambda v: round(v, 2))
    for _ in range(draw(st.integers(0, 5))):
        row = draw(st.lists(coeffs, min_size=n, max_size=n))
        kind = draw(st.sampled_from(["le", "le", "ge", "eq", "dense"]))
        if kind == "dense":
            lp.add_dense_le_rows(np.asarray([row]), [draw(rhs)])
        else:
            add = {"le": lp.add_le_constraint, "ge": lp.add_ge_constraint,
                   "eq": lp.add_eq_constraint}[kind]
            add(dict(enumerate(row)), draw(rhs))
    return lp


class TestRandomPrograms:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lp=programs())
    def test_direct_solve_is_bit_identical_to_linprog(self, lp):
        direct, reference = _both(lp)
        assert direct is not None          # no fallback was needed
        assert direct == reference

    def test_infeasible_and_unbounded_verdicts_agree(self):
        infeasible = LinearProgram(name="infeasible")
        infeasible.add_variables(2, lb=0.0, ub=1.0)
        infeasible.add_ge_constraint({0: 1.0, 1: 1.0}, 3.0)
        unbounded = LinearProgram(name="unbounded", maximize=True)
        unbounded.add_variables(2, lb=0.0, objective=1.0)
        unbounded.add_le_constraint({0: 1.0, 1: -1.0}, 1.0)
        empty_row = LinearProgram(name="empty-row")
        empty_row.add_variables(1)
        empty_row.add_le_constraint({0: 0.0}, -1.0)
        for lp in (infeasible, unbounded, empty_row):
            assert _both(lp) == ("infeasible", "infeasible"), lp.name


# ----------------------------------------------------------------------
# every LP family on tiny rooms

def _tiny_room(seed: int = 3):
    rng = np.random.default_rng(seed)
    dc = build_datacenter(n_nodes=8, n_crac=2,
                          node_types=shrunken_node_types(2), rng=rng,
                          nodes_per_rack=4)
    attach_thermal_model(dc, rng=rng)
    wl = generate_workload(dc, rng, n_task_types=3)
    bounds = power_bounds(dc)
    return dc, wl, bounds.p_min + 0.5 * (bounds.p_max - bounds.p_min)


def _three_stage():
    dc, wl, cap = _tiny_room()
    result = solve(SolveRequest(dc, wl, cap))
    lin = ThermalLinearization.build(dc.thermal, result.t_crac_out,
                                     dc.redline_c)
    solve_stage3_power_aware(
        dc, wl, result.pstates,
        TaskPowerModel(factors=np.full(wl.n_task_types, 1.1),
                       idle_fraction=0.6),
        lin, cap)
    minimize_power(dc, wl, reward_target=0.5 * result.reward_rate)
    solve_baseline(dc, wl, cap)


def _zonal():
    rng = np.random.default_rng(5)
    dc = build_datacenter(n_nodes=12, n_crac=2, rng=rng)
    attach_zonal_thermal(dc, backend="sparse")
    wl = generate_workload(dc, np.random.default_rng(6))
    t = np.full(2, 16.0)
    p_off = total_power(dc, t, dc.node_power_kw(dc.all_off_pstates())).total
    p_full = total_power(dc, t, dc.node_power_kw(dc.all_p0_pstates())).total
    solve_stage1_zonal(dc, wl, p_const=p_off + 0.6 * (p_full - p_off),
                       t_crac_out=t)


@pytest.fixture(scope="module")
def family_pairs():
    """Every cold solve of the tiny-room pipelines, solved both ways."""
    pairs: dict[str, list] = defaultdict(list)
    original = LinearProgram.solve

    def recording(self):
        pairs[self.name].append(_both(self))
        return original(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearProgram, "solve", recording)
        _three_stage()
        _zonal()
    return pairs


@pytest.mark.parametrize("family", [
    "interference-feasibility", "stage1", "stage1_zone",
    "stage1_zonal_master", "stage3", "stage3-power-aware", "minpower",
    "baseline"])
def test_family_is_bit_identical_to_linprog(family_pairs, family):
    pairs = family_pairs[family]
    assert pairs, f"no {family} LP was solved"
    for direct, reference in pairs:
        assert direct is not None
        assert direct == reference
