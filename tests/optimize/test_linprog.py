"""Tests for repro.optimize.linprog — the LP wrapper."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.optimize.linprog import InfeasibleError, LinearProgram


class TestVariables:
    def test_add_returns_range(self):
        lp = LinearProgram()
        r = lp.add_variables(3)
        assert list(r) == [0, 1, 2]
        assert lp.num_variables == 3

    def test_second_block_continues_indices(self):
        lp = LinearProgram()
        lp.add_variables(2)
        r = lp.add_variables(2)
        assert list(r) == [2, 3]

    def test_vector_bounds(self):
        lp = LinearProgram(maximize=True)
        lp.add_variables(2, lb=0.0, ub=[1.0, 2.0], objective=1.0)
        sol = lp.solve()
        assert sol.objective == pytest.approx(3.0)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            LinearProgram().add_variables(0)

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            LinearProgram().add_variables(1, lb=2.0, ub=1.0)

    def test_set_bounds(self):
        lp = LinearProgram(maximize=True)
        x = lp.add_variables(1, ub=10.0, objective=1.0)
        lp.set_bounds(x[0], 0.0, 4.0)
        assert lp.solve().objective == pytest.approx(4.0)

    def test_set_bounds_bad_index(self):
        lp = LinearProgram()
        lp.add_variables(1)
        with pytest.raises(IndexError):
            lp.set_bounds(5, 0.0, 1.0)


class TestConstraints:
    def test_docstring_example(self):
        lp = LinearProgram(name="toy", maximize=True)
        x = lp.add_variables(2, lb=0.0, ub=4.0, objective=[1.0, 2.0])
        lp.add_le_constraint({x[0]: 1.0, x[1]: 1.0}, 5.0)
        assert lp.solve().objective == pytest.approx(9.0)

    def test_ge_constraint(self):
        lp = LinearProgram(maximize=False)
        x = lp.add_variables(1, objective=1.0)
        lp.add_ge_constraint({x[0]: 1.0}, 3.0)
        sol = lp.solve()
        assert sol.x[0] == pytest.approx(3.0)

    def test_eq_constraint(self):
        lp = LinearProgram(maximize=True)
        x = lp.add_variables(2, ub=10.0, objective=[1.0, 1.0])
        lp.add_eq_constraint({x[0]: 1.0, x[1]: 2.0}, 6.0)
        sol = lp.solve()
        assert sol.x[0] + 2 * sol.x[1] == pytest.approx(6.0)

    def test_unknown_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variables(1)
        with pytest.raises(IndexError, match="out of range"):
            lp.add_le_constraint({3: 1.0}, 1.0)

    def test_dense_rows(self):
        lp = LinearProgram(maximize=True)
        lp.add_variables(3, ub=5.0, objective=1.0)
        lp.add_dense_le_rows(np.eye(3) * 2.0, np.asarray([2.0, 4.0, 6.0]))
        sol = lp.solve()
        np.testing.assert_allclose(sol.x, [1.0, 2.0, 3.0])

    def test_dense_rows_shape_check(self):
        lp = LinearProgram()
        lp.add_variables(2)
        with pytest.raises(ValueError, match="width"):
            lp.add_dense_le_rows(np.ones((1, 3)), np.ones(1))
        with pytest.raises(ValueError, match="mismatch"):
            lp.add_dense_le_rows(np.ones((2, 2)), np.ones(1))


class TestSolve:
    def test_infeasible_raises_with_name(self):
        lp = LinearProgram(name="broken")
        x = lp.add_variables(1, lb=0.0, ub=1.0)
        lp.add_ge_constraint({x[0]: 1.0}, 5.0)
        with pytest.raises(InfeasibleError, match="broken"):
            lp.solve()

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError, match="no variables"):
            LinearProgram().solve()

    def test_minimize_sense(self):
        lp = LinearProgram(maximize=False)
        lp.add_variables(1, lb=2.0, ub=8.0, objective=1.0)
        assert lp.solve().objective == pytest.approx(2.0)

    def test_transportation_problem(self):
        """2x2 transportation LP with a known optimum."""
        lp = LinearProgram(maximize=False)
        # costs: [[1, 3], [2, 1]]; supply [5, 5]; demand [5, 5]
        x = lp.add_variables(4, objective=[1.0, 3.0, 2.0, 1.0])
        lp.add_eq_constraint({x[0]: 1, x[1]: 1}, 5.0)
        lp.add_eq_constraint({x[2]: 1, x[3]: 1}, 5.0)
        lp.add_eq_constraint({x[0]: 1, x[2]: 1}, 5.0)
        lp.add_eq_constraint({x[1]: 1, x[3]: 1}, 5.0)
        assert lp.solve().objective == pytest.approx(10.0)


class _Proxy:
    """Stands in for a live HiGHS model, recording the edits it forwards."""

    def __init__(self, highs, status=None):
        self._highs, self._status, self.coeff_calls = highs, status, []

    def changeCoeff(self, row, col, value):
        self.coeff_calls.append((row, col, value))
        return self._highs.changeCoeff(row, col, value)

    def getModelStatus(self):
        return self._status or self._highs.getModelStatus()

    def __getattr__(self, name):
        return getattr(self._highs, name)


def _metrics(fn):
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        fn()
        return obs.current_registry().snapshot()
    finally:
        obs.disable()
        obs.reset()


class TestLive:
    def _lp(self, rhs=3.0):
        lp = LinearProgram(maximize=True, name="livetest")
        lp.add_variables(2, lb=0.0, ub=2.0, objective=[1.0, 2.0])
        lp.add_le_constraint({0: 1.0, 1: 1.0}, rhs)
        lp.add_le_constraint({0: 1.0, 1: 3.0}, 10.0)
        return lp

    def test_first_solve_matches_cold(self):
        live = self._lp().live()
        sol = live.solve()
        cold = self._lp().solve()
        np.testing.assert_allclose(sol.x, cold.x)
        assert sol.objective == pytest.approx(cold.objective)

    def test_row_upper_edits_match_rebuilt_program(self):
        live = self._lp().live()
        live.solve()
        for rhs in (1.0, 2.5, 4.0):
            live.set_row_upper([0], [rhs])
            assert live.solve().objective == pytest.approx(
                self._lp(rhs=rhs).solve().objective)

    def test_coeff_edits_pass_only_changed_entries(self):
        live = self._lp().live()
        live.solve()
        proxy = live._highs = _Proxy(live._highs)
        live.set_row_coeffs(1, [0, 1], [1.0, 4.0])
        assert proxy.coeff_calls == [(1, 1, 4.0)]
        live.set_row_coeffs(1, [0, 1], [1.0, 4.0])
        assert len(proxy.coeff_calls) == 1
        sol = live.solve()
        lp = LinearProgram(maximize=True)
        lp.add_variables(2, lb=0.0, ub=2.0, objective=[1.0, 2.0])
        lp.add_le_constraint({0: 1.0, 1: 1.0}, 3.0)
        lp.add_le_constraint({0: 1.0, 1: 4.0}, 10.0)
        assert sol.objective == pytest.approx(lp.solve().objective)

    def test_infeasible_raises_and_counts(self):
        def run():
            live = self._lp().live()
            live.set_row_upper([0], [-1.0])
            with pytest.raises(InfeasibleError, match="livetest"):
                live.solve()
        snap = _metrics(run)
        assert snap["lp.infeasible.livetest"]["value"] == 1
        assert snap["lp.solves.livetest"]["value"] == 1
        assert "lp.fallbacks.livetest" not in snap

    def test_failure_status_reruns_on_scipy(self):
        from scipy.optimize._highspy import _core

        def run():
            live = self._lp().live()
            live._highs = _Proxy(
                live._highs, _core.HighsModelStatus.kIterationLimit)
            live.set_row_upper([0], [2.5])
            live.set_row_coeffs(1, [1], [4.0])
            sol = live.solve()
            assert sol.objective == pytest.approx(4.5)
        snap = _metrics(run)
        assert snap["lp.fallbacks.livetest"]["value"] == 1
        assert snap["lp.solves.livetest"]["value"] == 1

    def test_missing_binding_takes_scipy_path(self, monkeypatch):
        import repro.optimize.linprog as linprog_mod

        monkeypatch.setattr(linprog_mod, "_highs", None)

        def run():
            live = self._lp().live()
            assert live.solve().objective == pytest.approx(
                self._lp().solve().objective)
            live.set_row_upper([0], [-1.0])
            with pytest.raises(InfeasibleError):
                live.solve()
        snap = _metrics(run)
        # two live re-solves plus the cold reference solve
        assert snap["lp.fallbacks.livetest"]["value"] == 3

    def test_only_le_rows_are_editable(self):
        lp = self._lp()
        lp.add_eq_constraint({0: 1.0}, 1.0)
        live = lp.live()
        with pytest.raises(IndexError):
            live.set_row_upper([2], [1.0])
        with pytest.raises(IndexError):
            live.set_row_coeffs(-1, [0], [1.0])
        assert live.solve().x[0] == pytest.approx(1.0)

    def test_closed_handle_cannot_solve(self):
        live = self._lp().live()
        live.close()
        with pytest.raises(ValueError, match="closed"):
            live.solve()

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError, match="no variables"):
            LinearProgram().live()


class _Tampered(_Proxy):
    """A HiGHS model whose reported row activities are off by ``shift``."""

    def __init__(self, highs, shift):
        super().__init__(highs)
        self._shift = shift

    def getSolution(self):
        sol = self._highs.getSolution()
        return SimpleNamespace(
            col_value=sol.col_value,
            row_value=[v + self._shift for v in sol.row_value])


class TestCold:
    def _lp(self):
        lp = LinearProgram(maximize=True, name="coldtest")
        lp.add_variables(2, lb=0.0, ub=2.0, objective=[1.0, 2.0])
        lp.add_le_constraint({0: 1.0, 1: 1.0}, 3.0)
        lp.add_eq_constraint({0: 1.0, 1: -1.0}, -1.0)
        return lp

    def _patch_model(self, monkeypatch, wrap):
        import repro.optimize.linprog as linprog_mod

        real = linprog_mod._pass_model
        monkeypatch.setattr(linprog_mod, "_pass_model",
                            lambda *args: wrap(real(*args)))

    def test_post_check_rejects_a_violated_row(self, monkeypatch):
        # HiGHS says optimal, but the binding <= row reads 1e-3 over b_ub
        self._patch_model(monkeypatch, lambda h: _Tampered(h, 1e-3))

        def run():
            with pytest.raises(InfeasibleError, match="coldtest"):
                self._lp().solve()
        snap = _metrics(run)
        assert snap["lp.infeasible.coldtest"]["value"] == 1
        assert "lp.fallbacks.coldtest" not in snap

    def test_post_check_tolerates_solver_noise(self, monkeypatch):
        self._patch_model(monkeypatch, lambda h: _Tampered(h, 1e-6))
        assert self._lp().solve().objective == pytest.approx(5.0)

    def test_failure_status_reruns_on_scipy(self, monkeypatch):
        from scipy.optimize._highspy import _core

        reference = self._lp().solve()
        self._patch_model(monkeypatch, lambda h: _Proxy(
            h, _core.HighsModelStatus.kIterationLimit))
        snap = _metrics(lambda: self._check_equal(reference))
        assert snap["lp.fallbacks.coldtest"]["value"] == 1
        assert snap["lp.solves.coldtest"]["value"] == 1

    def test_missing_binding_solves_on_scipy_and_counts(self, monkeypatch):
        import repro.optimize.linprog as linprog_mod

        reference = self._lp().solve()
        monkeypatch.setattr(linprog_mod, "_highs", None)

        def run():
            self._check_equal(reference)
            lp = self._lp()
            lp.add_le_constraint({0: 1.0}, -1.0)
            with pytest.raises(InfeasibleError, match="coldtest"):
                lp.solve()
        snap = _metrics(run)
        assert snap["lp.fallbacks.coldtest"]["value"] == 2
        assert snap["lp.solves.coldtest"]["value"] == 2
        assert snap["lp.infeasible.coldtest"]["value"] == 1

    def test_non_finite_input_is_rejected_as_linprog_does(self):
        lp = self._lp()
        lp.add_le_constraint({0: 1.0}, np.inf)
        with pytest.raises(ValueError, match="b_ub"):
            lp.solve()

    def _check_equal(self, reference):
        sol = self._lp().solve()
        assert sol.x.tobytes() == reference.x.tobytes()
        assert sol.objective == reference.objective
