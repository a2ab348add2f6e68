"""Thin wrapper around HiGHS: :func:`scipy.optimize.linprog` plus live models.

All linear programs in the library are built as sparse inequality /
equality systems and solved with the HiGHS dual simplex, which is exact
enough for the small-to-medium LPs produced after the aggregation
described in DESIGN.md section 3.1.

The wrapper exists so that

* every LP in the code base states its intent (maximize vs minimize)
  explicitly,
* infeasibility is reported with the model name attached, and
* constraint matrices can be assembled incrementally row-by-row without
  each call site repeating the scipy boilerplate.

Two ways to solve an assembled :class:`LinearProgram`:

* :meth:`LinearProgram.solve` — a cold :func:`scipy.optimize.linprog`
  solve.  Deterministic in the program alone; every committed plan
  comes from it.
* :meth:`LinearProgram.live` — a :class:`LiveLP` handle: the program is
  passed once to a HiGHS model kept alive, edited in place
  (``changeRowBounds`` / ``changeCoeff``) and re-solved from the basis
  HiGHS retained.  Stage 1 scores its outlet-temperature probes on one
  such model per :func:`repro.core.stage1.solve_stage1` call and closes
  it before returning: a call owns its basis history, so cold, warm and
  ``--jobs`` runs stay deterministic, and no model outlives the call.

A re-solve's ``x`` depends on the basis it started from.  When the LP
has several optimal vertices it can differ from the cold solve's at the
same objective — on the ``control_sweep`` golden, committing the live
``x`` moved one point to another vertex that lost a task downstream.
So the live model only *scores*; the winner is re-solved cold and that
solution is committed (the cold-commit rule).

The live model uses ``scipy.optimize._highspy._core._Highs``, a private
binding scipy does not promise to keep.  If it cannot be imported, or a
re-solve ends in a status other than optimal or infeasible, the solve
runs on the :func:`scipy.optimize.linprog` path instead and counts in
``lp.live_fallbacks.{name}``; results never depend on the binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog as _scipy_linprog

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span

try:  # private scipy API: see the module docstring
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # pragma: no cover - depends on the scipy build
    _highs = None

__all__ = ["LinearProgram", "LiveLP", "LPSolution", "InfeasibleError"]

#: HiGHS options of a live model: silent serial dual simplex, as
#: :func:`scipy.optimize.linprog` runs it.
_LIVE_OPTIONS = {"output_flag": False, "log_to_console": False,
                 "solver": "simplex", "simplex_strategy": 1}


class InfeasibleError(RuntimeError):
    """Raised when an LP that is expected to be feasible is not."""


@dataclass
class LPSolution:
    """Result of an LP solve.

    Attributes
    ----------
    x:
        Optimal variable vector.
    objective:
        Optimal objective value *in the caller's sense* (i.e. already
        negated back for maximization problems).
    status:
        HiGHS status code (0 = optimal).
    """

    x: np.ndarray
    objective: float
    status: int


@dataclass
class LinearProgram:
    """Incrementally assembled linear program.

    Variables are identified by integer index; the caller allocates them
    with :meth:`add_variables` which returns the index range.

    Example
    -------
    >>> lp = LinearProgram(name="toy", maximize=True)
    >>> x = lp.add_variables(2, lb=0.0, ub=4.0, objective=[1.0, 2.0])
    >>> lp.add_le_constraint({x[0]: 1.0, x[1]: 1.0}, 5.0)
    >>> sol = lp.solve()
    >>> float(sol.objective)
    9.0
    """

    name: str = "lp"
    maximize: bool = False
    _num_vars: int = field(default=0, init=False)
    _obj: list[float] = field(default_factory=list, init=False)
    _lb: list[float] = field(default_factory=list, init=False)
    _ub: list[float] = field(default_factory=list, init=False)
    # COO triplets for A_ub / A_eq
    _ub_rows: list[int] = field(default_factory=list, init=False)
    _ub_cols: list[int] = field(default_factory=list, init=False)
    _ub_vals: list[float] = field(default_factory=list, init=False)
    _b_ub: list[float] = field(default_factory=list, init=False)
    _eq_rows: list[int] = field(default_factory=list, init=False)
    _eq_cols: list[int] = field(default_factory=list, init=False)
    _eq_vals: list[float] = field(default_factory=list, init=False)
    _b_eq: list[float] = field(default_factory=list, init=False)

    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        return len(self._b_ub) + len(self._b_eq)

    def add_variables(self, n: int, lb: float | Sequence[float] = 0.0,
                      ub: float | Sequence[float] = np.inf,
                      objective: float | Sequence[float] = 0.0) -> range:
        """Allocate ``n`` new variables, returning their index range."""
        if n <= 0:
            raise ValueError(f"variable count must be positive, got {n}")
        lb_arr = np.broadcast_to(np.asarray(lb, dtype=float), (n,))
        ub_arr = np.broadcast_to(np.asarray(ub, dtype=float), (n,))
        obj_arr = np.broadcast_to(np.asarray(objective, dtype=float), (n,))
        if np.any(lb_arr > ub_arr):
            raise ValueError("lower bound exceeds upper bound")
        start = self._num_vars
        self._num_vars += n
        self._lb.extend(lb_arr.tolist())
        self._ub.extend(ub_arr.tolist())
        self._obj.extend(obj_arr.tolist())
        return range(start, start + n)

    def set_bounds(self, index: int, lb: float, ub: float) -> None:
        """Tighten the bounds of an existing variable."""
        if not 0 <= index < self._num_vars:
            raise IndexError(f"variable index {index} out of range")
        if lb > ub:
            raise ValueError(f"lower bound {lb} exceeds upper bound {ub}")
        self._lb[index] = float(lb)
        self._ub[index] = float(ub)

    def _check_coeffs(self, coeffs: dict[int, float]) -> None:
        for idx in coeffs:
            if not 0 <= idx < self._num_vars:
                raise IndexError(f"variable index {idx} out of range "
                                 f"(have {self._num_vars} variables)")

    def add_le_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i <= rhs``."""
        self._check_coeffs(coeffs)
        row = len(self._b_ub)
        for idx, val in coeffs.items():
            if val != 0.0:
                self._ub_rows.append(row)
                self._ub_cols.append(idx)
                self._ub_vals.append(float(val))
        self._b_ub.append(float(rhs))

    def add_ge_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i >= rhs`` (stored negated)."""
        self.add_le_constraint({i: -v for i, v in coeffs.items()}, -rhs)

    def add_eq_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i == rhs``."""
        self._check_coeffs(coeffs)
        row = len(self._b_eq)
        for idx, val in coeffs.items():
            if val != 0.0:
                self._eq_rows.append(row)
                self._eq_cols.append(idx)
                self._eq_vals.append(float(val))
        self._b_eq.append(float(rhs))

    def add_dense_le_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Add many dense ``<=`` rows at once (shape checks included)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if rows.shape[0] != rhs.shape[0]:
            raise ValueError("row/rhs count mismatch")
        if rows.shape[1] != self._num_vars:
            raise ValueError(
                f"row width {rows.shape[1]} != variable count {self._num_vars}")
        base = len(self._b_ub)
        r_idx, c_idx = np.nonzero(rows)
        self._ub_rows.extend((r_idx + base).tolist())
        self._ub_cols.extend(c_idx.tolist())
        self._ub_vals.extend(rows[r_idx, c_idx].tolist())
        self._b_ub.extend(rhs.tolist())

    def add_sparse_le_rows(self, rows: "sparse.spmatrix",
                           rhs: np.ndarray) -> None:
        """Add many ``<=`` rows given as a scipy sparse matrix.

        Same contract as :meth:`add_dense_le_rows` without ever
        materializing the dense row block — used by the zonal Stage 1
        master LP, whose constraint rows are zone-local and would be
        ~99% explicit zeros at 100x room sizes.
        """
        coo = sparse.coo_matrix(rows)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if coo.shape[0] != rhs.shape[0]:
            raise ValueError("row/rhs count mismatch")
        if coo.shape[1] != self._num_vars:
            raise ValueError(
                f"row width {coo.shape[1]} != variable count {self._num_vars}")
        base = len(self._b_ub)
        keep = coo.data != 0.0
        self._ub_rows.extend((coo.row[keep] + base).tolist())
        self._ub_cols.extend(coo.col[keep].tolist())
        self._ub_vals.extend(coo.data[keep].tolist())
        self._b_ub.extend(rhs.tolist())

    # ------------------------------------------------------------------
    def solve(self) -> LPSolution:
        """Solve with HiGHS (through :func:`scipy.optimize.linprog`).

        Raises
        ------
        InfeasibleError
            If the LP is infeasible/unbounded or the solver fails.
        """
        if self._num_vars == 0:
            raise ValueError(f"LP '{self.name}' has no variables")
        with obs_span("lp", lp=self.name, vars=self._num_vars,
                      constraints=self.num_constraints):
            _count_solve(self.name, self._num_vars, self.num_constraints)
            return _solve_scipy(self.name, self.maximize, *self._arrays())

    def live(self) -> "LiveLP":
        """Pass the assembled program once to a live HiGHS model.

        See :class:`LiveLP`; :meth:`LiveLP.close` the handle when the
        re-solve sequence ends.
        """
        if self._num_vars == 0:
            raise ValueError(f"LP '{self.name}' has no variables")
        return LiveLP(self)

    def _arrays(self) -> tuple:
        """``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` in minimization form."""
        c = np.asarray(self._obj, dtype=float)
        if self.maximize:
            c = -c
        n = self._num_vars
        a_ub = b_ub = a_eq = b_eq = None
        if self._b_ub:
            a_ub = sparse.csr_matrix(
                (self._ub_vals, (self._ub_rows, self._ub_cols)),
                shape=(len(self._b_ub), n))
            b_ub = np.asarray(self._b_ub, dtype=float)
        if self._b_eq:
            a_eq = sparse.csr_matrix(
                (self._eq_vals, (self._eq_rows, self._eq_cols)),
                shape=(len(self._b_eq), n))
            b_eq = np.asarray(self._b_eq, dtype=float)
        bounds = np.column_stack([self._lb, self._ub])
        return c, a_ub, b_ub, a_eq, b_eq, bounds


def _count_solve(name: str, n_vars: int, n_constraints: int) -> None:
    obs_metrics.counter(f"lp.solves.{name}").inc()
    obs_metrics.histogram(f"lp.vars.{name}").observe(n_vars)
    obs_metrics.histogram(f"lp.constraints.{name}").observe(n_constraints)


def _solve_scipy(name: str, maximize: bool, c, a_ub, b_ub, a_eq, b_eq,
                 bounds) -> LPSolution:
    res = _scipy_linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                         bounds=bounds, method="highs")
    if not res.success:
        obs_metrics.counter(f"lp.infeasible.{name}").inc()
        raise InfeasibleError(
            f"LP '{name}' failed: {res.message} (status {res.status})")
    obj = float(res.fun)
    if maximize:
        obj = -obj
    return LPSolution(x=np.asarray(res.x, dtype=float), objective=obj,
                      status=int(res.status))


class LiveLP:
    """One live HiGHS model re-solved under row-bound and row edits.

    Made by :meth:`LinearProgram.live`.  :meth:`set_row_upper` and
    :meth:`set_row_coeffs` edit ``<=`` rows (indexed in the order they
    were added) in place; :meth:`solve` re-solves from the basis HiGHS
    retained from the previous solve.  It records the same ``lp`` span
    and ``lp.solves`` / ``lp.infeasible`` counters as
    :meth:`LinearProgram.solve` and raises the same
    :class:`InfeasibleError`.

    A re-solve that ends in any other status (iteration limit, solver
    error, ...) is re-run on the :func:`scipy.optimize.linprog` path
    from the current program and counted in ``lp.live_fallbacks``; the
    live basis is dropped so the next re-solve starts cold.  Without the
    private binding every solve takes that path.

    The solution of a re-solve depends on the basis it started from,
    so when the LP has several optimal vertices, ``x`` may differ from a
    cold solve's (the objective agrees to solver tolerance).  Callers
    that commit ``x`` re-solve the winner with
    :meth:`LinearProgram.solve`.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.name = lp.name
        self._maximize = lp.maximize
        self._n_vars = lp.num_variables
        self._n_constraints = lp.num_constraints
        self._args = lp._arrays()
        # dense copies of the rows set_row_coeffs has edited
        self._edited: dict[int, np.ndarray] = {}
        self._closed = False
        self._highs = None if _highs is None else self._pass_model()

    def _pass_model(self):
        c, a_ub, b_ub, a_eq, b_eq, bounds = self._args
        blocks = [a for a in (a_ub, a_eq) if a is not None]
        a = sparse.vstack(blocks, format="csc") if blocks \
            else sparse.csc_matrix((0, self._n_vars))
        n_ub = 0 if b_ub is None else b_ub.size
        upper = np.concatenate([b_ub if b_ub is not None else [],
                                b_eq if b_eq is not None else []])
        lower = upper.copy()
        lower[:n_ub] = -np.inf
        model = _highs.HighsLp()
        model.num_col_ = self._n_vars
        model.num_row_ = a.shape[0]
        model.a_matrix_.num_col_ = self._n_vars
        model.a_matrix_.num_row_ = a.shape[0]
        model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        model.a_matrix_.start_ = a.indptr
        model.a_matrix_.index_ = a.indices
        model.a_matrix_.value_ = a.data
        model.col_cost_ = c
        model.col_lower_ = bounds[:, 0].copy()
        model.col_upper_ = bounds[:, 1].copy()
        model.row_lower_ = lower
        model.row_upper_ = upper
        highs = _highs._Highs()
        for option, value in _LIVE_OPTIONS.items():
            highs.setOptionValue(option, value)
        if highs.passModel(model) == _highs.HighsStatus.kError:
            return None
        return highs

    # ------------------------------------------------------------------
    def _check_row(self, rows: np.ndarray) -> None:
        n_ub = 0 if self._args[2] is None else self._args[2].size
        if rows.size and (rows.min() < 0 or rows.max() >= n_ub):
            raise IndexError(f"LP '{self.name}' has {n_ub} <= rows")

    def set_row_upper(self, rows: Sequence[int] | np.ndarray,
                      values: Sequence[float] | np.ndarray) -> None:
        """Set the right-hand sides of ``<=`` rows ``rows`` to ``values``."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        values = np.broadcast_to(np.asarray(values, dtype=float), rows.shape)
        self._check_row(rows)
        self._args[2][rows] = values
        if self._highs is not None:
            for r, v in zip(rows.tolist(), values.tolist()):
                self._highs.changeRowBounds(r, -np.inf, v)

    def set_row_coeffs(self, row: int, cols: Sequence[int] | np.ndarray,
                       values: Sequence[float] | np.ndarray) -> None:
        """Set ``A[row, cols] = values`` for one ``<=`` row.

        Only the entries whose value changes are passed to HiGHS.
        """
        self._check_row(np.asarray([row]))
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        values = np.broadcast_to(np.asarray(values, dtype=float), cols.shape)
        dense = self._edited.get(row)
        if dense is None:
            dense = self._args[1].getrow(row).toarray().ravel()
            self._edited[row] = dense
        changed = np.flatnonzero(dense[cols] != values)
        dense[cols[changed]] = values[changed]
        if self._highs is not None:
            for col, v in zip(cols[changed].tolist(),
                              values[changed].tolist()):
                self._highs.changeCoeff(row, col, v)

    # ------------------------------------------------------------------
    def solve(self) -> LPSolution:
        """Re-solve from the retained basis.

        Raises
        ------
        InfeasibleError
            If the LP is infeasible (or the scipy fallback fails).
        """
        if self._closed:
            raise ValueError(f"live LP '{self.name}' is closed")
        with obs_span("lp", lp=self.name, vars=self._n_vars,
                      constraints=self._n_constraints):
            _count_solve(self.name, self._n_vars, self._n_constraints)
            if self._highs is not None:
                sol = self._solve_live()
                if sol is not None:
                    return sol
            obs_metrics.counter(f"lp.live_fallbacks.{self.name}").inc()
            return _solve_scipy(self.name, self._maximize,
                                *self._current_args())

    def _solve_live(self) -> LPSolution | None:
        """The live re-solve; None when HiGHS ended in a failure status."""
        highs = self._highs
        highs.run()
        status = highs.getModelStatus()
        if status == _highs.HighsModelStatus.kOptimal:
            obj = float(highs.getInfo().objective_function_value)
            return LPSolution(
                x=np.asarray(highs.getSolution().col_value, dtype=float),
                objective=-obj if self._maximize else obj, status=0)
        if status in (_highs.HighsModelStatus.kInfeasible,
                      _highs.HighsModelStatus.kUnboundedOrInfeasible):
            obs_metrics.counter(f"lp.infeasible.{self.name}").inc()
            raise InfeasibleError(f"LP '{self.name}' failed: "
                                  f"{highs.modelStatusToString(status)}")
        highs.clearSolver()
        return None

    def _current_args(self) -> tuple:
        c, a_ub, b_ub, a_eq, b_eq, bounds = self._args
        if self._edited:
            a_ub = a_ub.tolil()
            for row, dense in self._edited.items():
                a_ub[row, :] = dense
            a_ub = a_ub.tocsr()
        return c, a_ub, b_ub, a_eq, b_eq, bounds

    def close(self) -> None:
        """Free the HiGHS model; the handle cannot solve afterwards."""
        self._highs = None
        self._closed = True
