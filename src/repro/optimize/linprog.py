"""Thin wrapper around HiGHS: cold solves and live models.

All linear programs in the library are built as sparse inequality /
equality systems and solved with the HiGHS dual simplex, which is exact
enough for the small-to-medium LPs produced after the aggregation
described in DESIGN.md section 3.1.

The wrapper exists so that

* every LP in the code base states its intent (maximize vs minimize)
  explicitly,
* infeasibility is reported with the model name attached, and
* constraint matrices can be assembled incrementally — each ``add_*``
  call stores one numpy chunk of row, column and value arrays —
  without each call site repeating the solver boilerplate.

Two ways to solve an assembled :class:`LinearProgram`:

* :meth:`LinearProgram.solve` — a cold solve: a fresh HiGHS model fed
  exactly what :func:`scipy.optimize.linprog` (``method="highs"``) feeds
  it — the same options, the same ``vstack(A_ub, A_eq)`` CSC matrix —
  followed by ``linprog``'s own feasibility post-check.  It bypasses
  ``linprog``'s input cleaning and result wrapping and stays
  bit-identical to it: the same ``x``, objective and infeasibility
  verdicts (verified on scipy 1.17.1 by
  ``tests/optimize/test_linprog_identity.py``).  Deterministic in the
  program alone; every committed plan comes from it.
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

Both paths use ``scipy.optimize._highspy._core._Highs``, a private
binding scipy does not promise to keep; :func:`scipy.optimize.linprog`
remains the fallback and the test oracle.  If the binding cannot be
imported, or a solve ends in a status other than optimal, infeasible or
unbounded, the solve runs on ``linprog`` instead and counts in
``lp.fallbacks.{name}``; results never depend on the binding.
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

#: HiGHS options of a cold solve: the ones :func:`scipy.optimize.linprog`
#: sets for ``method="highs"`` (presolve on, dual simplex, silent).
_COLD_OPTIONS = {"presolve": "on", "highs_debug_level": 0,
                 "log_to_console": False, "output_flag": False,
                 "simplex_strategy": 1}

#: HiGHS options of a live model: silent serial dual simplex.
_LIVE_OPTIONS = {"output_flag": False, "log_to_console": False,
                 "solver": "simplex", "simplex_strategy": 1}

#: Tolerance of ``linprog``'s post-check: ``sqrt(tol) * 10`` at its
#: default ``tol=1e-9``.
_CHECK_TOL = np.sqrt(1e-9) * 10


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


class _Rows:
    """One block of constraint rows as numpy chunks.

    Each :meth:`add` stores one ``(rows, cols, vals, rhs)`` chunk;
    :meth:`arrays` concatenates them once and keeps the result as the
    only chunk, so a program re-solved after more rows were added
    concatenates only the new ones.
    """

    def __init__(self) -> None:
        self.count = 0
        self._chunks: list[tuple[np.ndarray, ...]] = []

    def add(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
            rhs: np.ndarray) -> None:
        """Add ``rhs.size`` rows; ``rows`` index them from 0, zeros dropped."""
        keep = vals != 0.0
        self._chunks.append((rows[keep] + self.count, cols[keep],
                             vals[keep], rhs))
        self.count += rhs.size

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(rows, cols, vals, rhs)`` of every row added so far."""
        if not self._chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0), np.empty(0)
        if len(self._chunks) > 1:
            self._chunks = [tuple(np.concatenate(part)
                                  for part in zip(*self._chunks))]
        return self._chunks[0]


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
    # (3, n) chunks of lower bound, upper bound and objective
    _col_chunks: list[np.ndarray] = field(default_factory=list, init=False)
    _ub: _Rows = field(default_factory=_Rows, init=False)
    _eq: _Rows = field(default_factory=_Rows, init=False)

    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        return self._ub.count + self._eq.count

    def add_variables(self, n: int, lb: float | Sequence[float] = 0.0,
                      ub: float | Sequence[float] = np.inf,
                      objective: float | Sequence[float] = 0.0) -> range:
        """Allocate ``n`` new variables, returning their index range."""
        if n <= 0:
            raise ValueError(f"variable count must be positive, got {n}")
        cols = np.array([np.broadcast_to(np.asarray(v, dtype=float), (n,))
                         for v in (lb, ub, objective)])
        if np.any(cols[0] > cols[1]):
            raise ValueError("lower bound exceeds upper bound")
        start = self._num_vars
        self._num_vars += n
        self._col_chunks.append(cols)
        return range(start, start + n)

    def _columns(self) -> np.ndarray:
        """``(3, n)`` lower bounds, upper bounds and objective, one chunk."""
        if len(self._col_chunks) > 1:
            self._col_chunks = [np.concatenate(self._col_chunks, axis=1)]
        return self._col_chunks[0]

    def set_bounds(self, index: int, lb: float, ub: float) -> None:
        """Tighten the bounds of an existing variable."""
        if not 0 <= index < self._num_vars:
            raise IndexError(f"variable index {index} out of range")
        if lb > ub:
            raise ValueError(f"lower bound {lb} exceeds upper bound {ub}")
        cols = self._columns()
        cols[0, index] = lb
        cols[1, index] = ub

    def _add_row(self, block: _Rows, coeffs: dict[int, float],
                 rhs: float) -> None:
        cols = np.fromiter(coeffs.keys(), dtype=np.int64, count=len(coeffs))
        bad = (cols < 0) | (cols >= self._num_vars)
        if bad.any():
            raise IndexError(f"variable index {cols[bad][0]} out of range "
                             f"(have {self._num_vars} variables)")
        vals = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
        block.add(np.zeros(cols.size, dtype=np.int64), cols, vals,
                  np.array([rhs], dtype=float))

    def add_le_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i <= rhs``."""
        self._add_row(self._ub, coeffs, rhs)

    def add_ge_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i >= rhs`` (stored negated)."""
        self.add_le_constraint({i: -v for i, v in coeffs.items()}, -rhs)

    def add_eq_constraint(self, coeffs: dict[int, float], rhs: float) -> None:
        """Add ``sum coeffs[i] * x_i == rhs``."""
        self._add_row(self._eq, coeffs, rhs)

    def _check_rows(self, shape: tuple[int, int], rhs: np.ndarray) -> None:
        if shape[0] != rhs.shape[0]:
            raise ValueError("row/rhs count mismatch")
        if shape[1] != self._num_vars:
            raise ValueError(
                f"row width {shape[1]} != variable count {self._num_vars}")

    def add_dense_le_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Add many dense ``<=`` rows at once (shape checks included)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        self._check_rows(rows.shape, rhs)
        r_idx, c_idx = np.nonzero(rows)
        self._ub.add(r_idx, c_idx, rows[r_idx, c_idx], rhs.copy())

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
        self._check_rows(coo.shape, rhs)
        self._ub.add(coo.row.astype(np.int64), coo.col.astype(np.int64),
                     coo.data.astype(float), rhs.copy())

    # ------------------------------------------------------------------
    def solve(self) -> LPSolution:
        """Cold solve on a fresh HiGHS model (see the module docstring).

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
            if _highs is not None:
                sol = self._solve_cold()
                if sol is not None:
                    return sol
            obs_metrics.counter(f"lp.fallbacks.{self.name}").inc()
            return _solve_scipy(self.name, self.maximize, *self._arrays())

    def _solve_cold(self) -> LPSolution | None:
        """The direct HiGHS solve; None when ``linprog`` must run instead."""
        program = self._highs_arrays()
        c, a, lower, upper, col_lower, col_upper = program
        if not (np.isfinite(c).all() and np.isfinite(a.data).all()
                and np.isfinite(upper).all()
                and not np.isnan(col_lower).any()
                and not np.isnan(col_upper).any()):
            return None     # linprog rejects or reinterprets these inputs
        highs = _pass_model(program, _COLD_OPTIONS)
        if highs is None:
            return None
        return _run(highs, self.name, self.maximize, program,
                    self._ub.count)

    def live(self) -> "LiveLP":
        """Pass the assembled program once to a live HiGHS model.

        See :class:`LiveLP`; :meth:`LiveLP.close` the handle when the
        re-solve sequence ends.
        """
        if self._num_vars == 0:
            raise ValueError(f"LP '{self.name}' has no variables")
        return LiveLP(self)

    def _highs_arrays(self) -> tuple:
        """``(c, A, row_lower, row_upper, col_lower, col_upper)`` for HiGHS.

        ``A`` is the CSC matrix of the ``<=`` rows stacked over the
        ``=`` rows; ``<=`` rows have lower bound ``-inf``.
        """
        lb, ub, obj = self._columns()
        ub_rows, ub_cols, ub_vals, b_ub = self._ub.arrays()
        eq_rows, eq_cols, eq_vals, b_eq = self._eq.arrays()
        a = sparse.csc_matrix(
            (np.concatenate([ub_vals, eq_vals]),
             (np.concatenate([ub_rows, eq_rows + b_ub.size]),
              np.concatenate([ub_cols, eq_cols]))),
            shape=(self.num_constraints, self._num_vars))
        upper = np.concatenate([b_ub, b_eq])
        lower = upper.copy()
        lower[:b_ub.size] = -np.inf
        return -obj if self.maximize else obj, a, lower, upper, lb, ub

    def _arrays(self) -> tuple:
        """``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` as ``linprog`` takes them."""
        lb, ub, obj = self._columns()
        n = self._num_vars
        blocks = []
        for rows in (self._ub, self._eq):
            if not rows.count:
                blocks += [None, None]
                continue
            r, col, val, rhs = rows.arrays()
            blocks += [sparse.csr_matrix((val, (r, col)),
                                         shape=(rows.count, n)), rhs.copy()]
        return (-obj if self.maximize else obj, *blocks,
                np.column_stack([lb, ub]))


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


def _pass_model(program: tuple, options: dict):
    """A fresh HiGHS model holding ``program``; None if HiGHS rejects it.

    ``program`` is :meth:`LinearProgram._highs_arrays`'s tuple.  The
    model is filled as ``linprog`` fills it, so both cold paths hand
    HiGHS the same problem.  Vectors go in as memoryviews: the binding
    copies them element by element, several times faster than from a
    numpy array and without the transient Python list ``tolist`` makes.
    """
    c, a, lower, upper, col_lower, col_upper = program
    model = _highs.HighsLp()
    model.num_col_ = a.shape[1]
    model.num_row_ = a.shape[0]
    model.a_matrix_.num_col_ = a.shape[1]
    model.a_matrix_.num_row_ = a.shape[0]
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.col_cost_ = memoryview(c)
    model.col_lower_ = memoryview(col_lower)
    model.col_upper_ = memoryview(col_upper)
    model.row_lower_ = memoryview(lower)
    model.row_upper_ = memoryview(upper)
    model.a_matrix_.start_ = memoryview(a.indptr)
    model.a_matrix_.index_ = memoryview(a.indices)
    model.a_matrix_.value_ = memoryview(a.data)
    highs = _highs._Highs()
    for option, value in options.items():
        highs.setOptionValue(option, value)
    if highs.passModel(model) == _highs.HighsStatus.kError:
        return None
    return highs


def _run(highs, name: str, maximize: bool, program: tuple | None = None,
         n_ub: int = 0) -> LPSolution | None:
    """Run ``highs`` and read its verdict.

    Returns the solution, raises :class:`InfeasibleError` on an
    infeasible or unbounded verdict, and returns None on any other
    status (iteration limit, solver error, ...).  With ``program``
    (:meth:`LinearProgram._highs_arrays`, first ``n_ub`` rows ``<=``),
    an optimal solution must also pass ``linprog``'s post-check —
    bounds, ``<=`` slack and equality residual within
    :data:`_CHECK_TOL`, no NaN — or the solve counts as infeasible.
    """
    highs.run()
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        obj = highs.getInfo().objective_function_value
        if program is None or _post_check(x, obj, solution, program, n_ub):
            return LPSolution(x=x, objective=-obj if maximize else obj,
                              status=0)
        reason = ("the solution does not satisfy the constraints within "
                  f"{_CHECK_TOL:.2E}")
    elif status in (_highs.HighsModelStatus.kInfeasible,
                    _highs.HighsModelStatus.kUnbounded,
                    _highs.HighsModelStatus.kUnboundedOrInfeasible):
        reason = highs.modelStatusToString(status)
    else:
        highs.clearSolver()
        return None
    obs_metrics.counter(f"lp.infeasible.{name}").inc()
    raise InfeasibleError(f"LP '{name}' failed: {reason}")


def _post_check(x: np.ndarray, obj: float, solution, program: tuple,
                n_ub: int) -> bool:
    """``linprog``'s ``_check_result`` feasibility test of a solution."""
    _, _, _, upper, col_lower, col_upper = program
    residual = upper - np.array(solution.row_value)
    if np.isnan(x).any() or np.isnan(obj) or np.isnan(residual).any():
        return False
    tol = _CHECK_TOL
    return bool(np.all((x >= col_lower - tol) & (x <= col_upper + tol))
                and not (residual[:n_ub] < -tol).any()
                and not (np.abs(residual[n_ub:]) > tol).any())


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
    from the current program and counted in ``lp.fallbacks``; the
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
        self._highs = None if _highs is None \
            else _pass_model(lp._highs_arrays(), _LIVE_OPTIONS)

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
                sol = _run(self._highs, self.name, self._maximize)
                if sol is not None:
                    return sol
            obs_metrics.counter(f"lp.fallbacks.{self.name}").inc()
            return _solve_scipy(self.name, self._maximize,
                                *self._current_args())

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
