"""The one LP engine: the HiGHS dual revised simplex (Huangfu & Hall,
Math. Prog. Comp. 2018), whose compiled core ships inside scipy.

run() solves   min c.x   s.t.   row_lower <= A x <= row_upper,
lower <= x <= upper,   with A given as compressed sparse columns
(SparseProgram); lp.solve_lp builds those arrays straight from the model,
and csc() lays out any (row, col, value) entries in that form.

Every solve uses the fixed HIGHS_OPTIONS, plus HiGHS's objective_bound
when the caller gives one: the dual simplex then stops once its dual
objective passes that bound.  The HiGHS statuses optimal, objective bound,
infeasible and unbounded are returned as such; any other status (an
iteration limit, a solver error) raises NumericalFailure.  An optimal
result, and one stopped at the objective bound, carries HiGHS's row duals
y (with c - A'y the reduced costs), and dual_bound() turns any y into a
lower bound on the program by weak duality, clipping y to each row's bound
type and taking each column's reduced cost at its cheaper bound, so the
bound does not depend on the solver's tolerances or its reported
objective, nor on why the solver stopped.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

# Fixed for every solve, never a flag or a parameter.  One thread starts no
# worker pool, so the pivot sequence (and lp_iterations in report.txt) does
# not depend on the host.  Presolve is off because the rounded compression
# depends on which optimal vertex HiGHS returns: with the default options
# the lambda-path sweep (5-doc ladder with cuts, lambda 0 to 2) rounds to
# 196.0 in total, with presolve off to 194.75, the certified integer
# optimum.  Rounding that does not depend on the vertex is still open.
HIGHS_OPTIONS = {"output_flag": False, "threads": 1, "presolve": "off"}

_CORE = "scipy.optimize._highspy._core"
_STATUSES = {"kOptimal": "optimal", "kObjectiveBound": "objective_bound",
             "kInfeasible": "infeasible", "kUnbounded": "unbounded"}


@dataclass
class SparseProgram:
    """A program with its matrix in compressed sparse columns: column j has
    the entries value[start[j]:start[j + 1]] in the rows
    index[start[j]:start[j + 1]].  Infinite bounds are np.inf."""

    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray


@dataclass
class SimplexResult:
    status: str  # optimal | objective_bound | infeasible | unbounded
    x: np.ndarray | None
    objective: float  # c.x; only the optimum's is the program's value
    iterations: int
    row_dual: np.ndarray | None  # HiGHS's row duals y, with c - A'y the reduced costs


def _box_min(lower: np.ndarray, upper: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per entry, the least r*v over lower <= v <= upper (0 where r is 0)."""
    return (np.where(r > 0, lower, 0.0) * np.maximum(r, 0.0)
            + np.where(r < 0, upper, 0.0) * np.minimum(r, 0.0))


def dual_bound(program: SparseProgram, y: np.ndarray) -> float:
    """A lower bound on c.x over the program, from any row prices y, by
    weak duality: c.x = (c - A'y).x + y.(Ax), and each term is at least
    its least value over the column's or the row's box.  y is first
    clipped to the row's bound type (y >= 0 on a row with no upper bound,
    y <= 0 on one with no lower bound), so the row terms stay finite.
    The bound never reads the solver's objective, so it holds whatever
    tolerances produced y."""
    y = np.where(np.isinf(program.row_upper), np.maximum(y, 0.0), y)
    y = np.where(np.isinf(program.row_lower), np.minimum(y, 0.0), y)
    n = len(program.cost)
    column = np.repeat(np.arange(n), np.diff(program.start))
    reduced = program.cost - np.bincount(column, weights=program.value * y[program.index],
                                         minlength=n)
    return float(_box_min(program.row_lower, program.row_upper, y).sum()
                 + _box_min(program.lower, program.upper, reduced).sum())


def csc(n_cols: int, rows: np.ndarray, cols: np.ndarray,
        values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, index, value) of the matrix with the given (row, col, value)
    entries, each column's entries in row order."""
    order = np.lexsort((rows, cols))
    start = np.searchsorted(cols[order], np.arange(n_cols + 1)).astype(np.int32)
    return start, rows[order].astype(np.int32), values[order].astype(float)


def _highs_core():
    """HiGHS's compiled core, loaded by file path on the first solve.

    Importing it by name runs scipy.optimize's package init, which raises
    the resident memory of a bare interpreter from 26.8 to 76.0 MiB; the
    extension alone adds about 5 MiB.  It is loaded on the first solve, not
    when deepdict is imported, so runs that never solve pay nothing.  It is
    registered under its own name, so a later import of scipy.optimize
    reuses this module object."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is not None:
        folder = os.path.join(os.path.dirname(scipy_spec.origin), "optimize", "_highspy")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_core" + suffix)
            if os.path.exists(path):
                spec = importlib.util.spec_from_file_location(_CORE, path)
                core = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(core)
                sys.modules[_CORE] = core
                return core
    return importlib.import_module(_CORE)


def run(program: SparseProgram, objective_bound: float | None = None) -> SimplexResult:
    """One HiGHS run on the program with HIGHS_OPTIONS.  With an objective
    bound, the dual simplex may stop as soon as its dual objective passes
    the bound, with status objective_bound and the row duals it stopped
    at; whether they prove the bound is for dual_bound to say."""
    core = _highs_core()
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(program.cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(program.row_lower)
    lp.col_cost_ = program.cost
    lp.col_lower_ = program.lower
    lp.col_upper_ = program.upper
    lp.row_lower_ = program.row_lower
    lp.row_upper_ = program.row_upper
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = program.start
    lp.a_matrix_.index_ = program.index
    lp.a_matrix_.value_ = program.value
    highs = core._Highs()
    options = dict(HIGHS_OPTIONS)
    if objective_bound is not None:
        options["objective_bound"] = float(objective_bound)
    for name, value in options.items():
        if highs.setOptionValue(name, value) == core.HighsStatus.kError:
            raise NumericalFailure(f"HiGHS rejected the option {name}={value!r}")
    if highs.passModel(lp) == core.HighsStatus.kError:
        raise NumericalFailure("HiGHS rejected the program")
    highs.run()
    model_status = highs.getModelStatus()
    iterations = highs.getInfo().simplex_iteration_count
    if model_status == core.HighsModelStatus.kModelEmpty:
        # no columns: HiGHS does not look at the rows, so x = () decides
        feasible = np.all(program.row_lower <= 0.0) and np.all(program.row_upper >= 0.0)
        status = "optimal" if feasible else "infeasible"
    else:
        status = _STATUSES.get(model_status.name)
    if status is None:
        raise NumericalFailure(
            f"HiGHS stopped with status {highs.modelStatusToString(model_status)}")
    if status in ("infeasible", "unbounded"):
        objective = float("nan") if status == "infeasible" else float("-inf")
        return SimplexResult(status, None, objective, iterations, None)
    solution = highs.getSolution()
    x = np.array(solution.col_value, dtype=float)
    y = np.array(solution.row_dual, dtype=float).reshape(len(program.row_lower))
    return SimplexResult(status, x, float(program.cost @ x), iterations, y)

