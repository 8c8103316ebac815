"""Bounded-variable primal simplex on a dense tableau.

Solves   min c.x   s.t.   A x (<= | = | >=) b,   lower <= x <= upper.

Implementation notes:
  - Rows are normalized to <= / = form; each row gets a slack column whose
    upper bound encodes the sense (inf for <=, 0 for =).
  - The starting point places structural variables at caller-supplied bound
    values (default lower bounds).  Rows violated by that point receive a
    phase-1 artificial; rows satisfied by it start with their slack basic,
    so a feasible start skips phase 1 entirely.
  - Both entry points share one two-phase session, IncrementalSolver:
    solve() runs it once on a fixed program (the dense reference solver),
    and column generation keeps it alive while appending columns and rows.
    Row prices are read from the slack columns of the tableau.
  - Pricing is Devex reference weights with an automatic switch to Bland's
    rule after a run of degenerate steps, which restores the termination
    guarantee; it switches back once a step makes progress.
  - Moves that hit the entering variable's opposite bound first are plain
    bound flips and do not change the basis.

Tolerances: pivot/reduced-cost 1e-9, feasibility 1e-7 (checked on the
final solution; a breach raises NumericalFailure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

LE, EQ, GE = -1, 0, 1

AT_LOWER, AT_UPPER, BASIC = 0, 1, 2

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
DEGENERATE_SWITCH = 40


@dataclass
class LinearProgram:
    objective: np.ndarray
    rows: np.ndarray  # dense (m, n); may be empty with shape (0, n)
    senses: np.ndarray  # (m,) values in {LE, EQ, GE}
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class SimplexResult:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float
    iterations: int
    basic: np.ndarray | None  # basis column ids; slack i is column n + i
    duals: np.ndarray | None = None  # row prices in original-sense convention


class _Tableau:
    def __init__(self, lp: LinearProgram, start: np.ndarray):
        m, n = lp.rows.shape
        self.m, self.n = m, n
        rows = np.array(lp.rows, dtype=float)
        rhs = np.array(lp.rhs, dtype=float)
        senses = np.asarray(lp.senses)
        flip = senses == GE
        rows[flip] *= -1.0
        rhs[flip] *= -1.0
        slack_upper = np.where(senses == EQ, 0.0, np.inf)

        start = np.clip(start, lp.lower, lp.upper)
        # snap to the nearer bound; nonbasic variables must sit on a bound
        upper_finite = np.isfinite(lp.upper)
        to_upper = upper_finite & (np.abs(start - lp.upper) <= np.abs(start - lp.lower))
        resid = rhs - rows @ np.where(to_upper, lp.upper, lp.lower)
        slack_val = np.clip(resid, 0.0, slack_upper)
        art_resid = resid - slack_val
        art_rows = np.flatnonzero(np.abs(art_resid) > PIVOT_TOL)

        cols = [rows, np.eye(m)]
        self.art_cols = np.arange(len(art_rows)) + n + m
        if len(art_rows):
            art = np.zeros((m, len(art_rows)))
            art[art_rows, np.arange(len(art_rows))] = np.sign(art_resid[art_rows])
            cols.append(art)
        self.T = np.ascontiguousarray(np.hstack(cols))
        # normalize rows whose artificial carries a -1 so the starting basis
        # matrix is the identity
        for j, i in enumerate(art_rows):
            if art_resid[i] < 0:
                self.T[i] *= -1.0
        self.ncols = self.T.shape[1]
        self.lower = np.concatenate([lp.lower, np.zeros(m), np.zeros(len(art_rows))])
        self.upper = np.concatenate([lp.upper, slack_upper, np.full(len(art_rows), np.inf)])
        self.vstat = np.full(self.ncols, AT_LOWER, dtype=np.int8)
        self.vstat[:n][to_upper] = AT_UPPER
        self.basic = np.array([n + i for i in range(m)], dtype=int)
        self.xB = slack_val.copy()
        for j, i in enumerate(art_rows):
            self.basic[i] = n + m + j
            self.xB[i] = abs(art_resid[i])
        self.vstat[self.basic] = BASIC
        self._scratch = np.empty_like(self.T)
        self.iterations = 0

    def nonbasic_value(self, j: int) -> float:
        return self.lower[j] if self.vstat[j] == AT_LOWER else self.upper[j]

    def values(self) -> np.ndarray:
        x = np.where(self.vstat == AT_UPPER, self.upper, self.lower)
        x[~np.isfinite(x)] = 0.0
        x[self.basic] = self.xB
        return x

    def objective_value(self, cost: np.ndarray) -> float:
        return float(cost @ self.values())

    def minimize(self, cost: np.ndarray, max_iterations: int,
                 stop_objective: float | None = None) -> str:
        """Run the simplex loop for the given cost vector (padded to ncols).

        Pricing is Devex (reference weights approximating steepest edge)
        with a Bland's-rule fallback under sustained degeneracy.  Reduced
        costs are refreshed from the tableau periodically so long runs of
        tiny pivots cannot let drift masquerade as eligible columns.  When
        stop_objective is given, the loop exits as soon as the tracked
        objective reaches it (used by phase 1, whose optimum is known)."""
        T, lower, upper, vstat = self.T, self.lower, self.upper, self.vstat
        red = cost - cost[self.basic] @ T
        movable = (upper - lower) > PIVOT_TOL
        weights = np.ones(self.ncols)
        objective = self.objective_value(cost)
        degen_run = 0
        bland = False
        since_refresh = 0
        while True:
            if stop_objective is not None and objective <= stop_objective:
                objective = self.objective_value(cost)  # confirm against drift
                if objective <= stop_objective:
                    return "optimal"
            if self.iterations >= max_iterations:
                raise NumericalFailure("simplex iteration limit reached")
            if since_refresh >= 512:
                red = cost - cost[self.basic] @ T
                red[self.basic] = 0.0
                objective = self.objective_value(cost)
                since_refresh = 0
            down = (vstat == AT_LOWER) & (red < -PIVOT_TOL) & movable
            up = (vstat == AT_UPPER) & (red > PIVOT_TOL) & movable
            eligible = down | up
            if not eligible.any():
                return "optimal"
            if bland:
                j = int(np.flatnonzero(eligible)[0])
            else:
                score = np.where(eligible, red * red / weights, -1.0)
                j = int(np.argmax(score))
            direction = 1.0 if vstat[j] == AT_LOWER else -1.0
            col = T[:, j]
            dircol = direction * col
            with np.errstate(divide="ignore", invalid="ignore"):
                lim = np.full(self.m, np.inf)
                pos = dircol > PIVOT_TOL
                neg = dircol < -PIVOT_TOL
                lim[pos] = (self.xB[pos] - lower[self.basic[pos]]) / dircol[pos]
                lim[neg] = (self.xB[neg] - upper[self.basic[neg]]) / dircol[neg]
            np.maximum(lim, 0.0, out=lim)
            bound_gap = upper[j] - lower[j]
            if self.m:
                row_step = lim.min()
            else:
                row_step = np.inf
            step = min(row_step, bound_gap)
            if not np.isfinite(step):
                return "unbounded"
            self.iterations += 1
            since_refresh += 1
            if bound_gap <= row_step:
                # bound flip: no basis change; x_j moves by the full gap
                self.xB -= dircol * bound_gap
                vstat[j] = AT_UPPER if vstat[j] == AT_LOWER else AT_LOWER
                objective += red[j] * direction * bound_gap
                degen_run = 0
                bland = False
                continue
            # prefer numerically solid pivots among the tied rows; Bland's
            # index rule then applies within that set
            ties = np.flatnonzero(lim <= row_step + 1e-12)
            solid = ties[np.abs(dircol[ties]) >= 1e-7]
            pool = solid if len(solid) else ties
            if bland:
                leave = int(pool[np.argmin(self.basic[pool])])
            else:
                leave = int(pool[np.argmax(np.abs(dircol[pool]))])
            enter_val = self.nonbasic_value(j) + direction * step
            leaving = self.basic[leave]
            self.xB -= dircol * step
            vstat[leaving] = AT_LOWER if dircol[leave] > 0 else AT_UPPER
            pivot = T[leave, j]
            prow = T[leave] / pivot
            colv = T[:, j].copy()
            colv[leave] = 0.0
            self._rank1_update(colv, prow, leave, j)
            objective += red[j] * direction * step
            red = red - red[j] * prow
            red[j] = 0.0
            # Devex reference-weight update, clamped against overflow
            wq = min(weights[j], 1e12)
            np.maximum(weights, prow * prow * wq, out=weights)
            np.minimum(weights, 1e14, out=weights)
            weights[leaving] = max(wq / (pivot * pivot), 1.0)
            weights[j] = 1.0
            self.basic[leave] = j
            vstat[j] = BASIC
            self.xB[leave] = enter_val
            if step <= 1e-12:
                degen_run += 1
                if degen_run >= DEGENERATE_SWITCH:
                    bland = True
            else:
                degen_run = 0
                bland = False

    def _rank1_update(self, colv: np.ndarray, prow: np.ndarray,
                      leave: int, j: int) -> None:
        """T -= outer(colv, prow) followed by pivot row/column cleanup.
        Exact zero patterns in the factors are skipped, which keeps early
        iterations cheap while the tableau is still sparse."""
        T = self.T
        rows = np.flatnonzero(colv)
        if len(rows) * 4 < self.m:
            cols = np.flatnonzero(prow)
            T[np.ix_(rows, cols)] -= colv[rows, None] * prow[cols]
        else:
            np.multiply(colv[:, None], prow[None, :], out=self._scratch)
            np.subtract(T, self._scratch, out=T)
        T[leave] = prow
        T[:, j] = 0.0
        T[leave, j] = 1.0


def solve(lp: LinearProgram, start: np.ndarray | None = None,
          max_iterations: int = 200000, want_duals: bool = False) -> SimplexResult:
    """Dense reference solve: one IncrementalSolver session that never
    grows.  Row prices, when wanted, are the session's slack-column prices."""
    session = IncrementalSolver(lp, start, max_iterations)
    status = session.optimize()
    if status != "optimal":
        objective = float("nan") if status == "infeasible" else float("-inf")
        return SimplexResult(status, None, objective, session.tab.iterations, None)
    x = session.values()
    _verify(lp, x)
    duals = session.duals() if want_duals else None
    return SimplexResult("optimal", x, session.objective(), session.tab.iterations,
                         session.tab.basic.copy(), duals)


class IncrementalSolver:
    """Two-phase simplex session that also continues across column and row
    appends, for delayed generation schemes.

    Construction runs phase 1 from the start point (default: lower bounds,
    or 0 where a lower bound is infinite); status is then "infeasible" or
    "feasible", and optimize() runs phase 2 from the current basis.
    The driving program may grow between optimize() calls: new columns
    enter nonbasic at their lower bound and new rows must hold, with
    nonnegative slack, at the current point, so the working basis stays
    primal feasible and re-optimization continues where it stopped.  Row
    prices come from the slack columns of the tableau, so no basis
    factorization is ever rebuilt."""

    def __init__(self, lp: LinearProgram, start: np.ndarray | None = None,
                 max_iterations: int = 200000):
        self.max_iterations = max_iterations
        self.senses = np.asarray(lp.senses).copy()
        self.objective_vec = np.array(lp.objective, dtype=float)
        if start is None:
            start = np.where(np.isfinite(lp.lower), lp.lower, 0.0)
        self.tab = _Tableau(lp, np.asarray(start, dtype=float))
        self.struct_cols = list(range(self.tab.n))
        self.slack_cols = list(range(self.tab.n, self.tab.n + self.tab.m))
        self.status = "feasible"
        if len(self.tab.art_cols):
            phase1 = np.zeros(self.tab.ncols)
            phase1[self.tab.art_cols] = 1.0
            status = self.tab.minimize(phase1, max_iterations,
                                       stop_objective=0.01 * FEAS_TOL)
            if status != "optimal":
                raise NumericalFailure("phase 1 did not terminate cleanly")
            infeas = float(self.tab.xB[np.isin(self.tab.basic,
                                               self.tab.art_cols)].sum())
            if infeas > FEAS_TOL:
                self.status = "infeasible"
                return
            _expel_artificials(self.tab)
            self.tab.upper[self.tab.art_cols] = 0.0

    def _cost_vector(self) -> np.ndarray:
        cost = np.zeros(self.tab.ncols)
        cost[self.struct_cols] = self.objective_vec
        return cost

    def optimize(self) -> str:
        """Phase 2 from the current basis: "optimal", "unbounded", or
        "infeasible" when phase 1 found no feasible point."""
        if self.status != "infeasible":
            self.status = self.tab.minimize(self._cost_vector(),
                                            self.max_iterations)
        return self.status

    def values(self) -> np.ndarray:
        return self.tab.values()[self.struct_cols]

    def objective(self) -> float:
        return float(self.objective_vec @ self.values())

    def duals(self) -> np.ndarray:
        """Row prices in the original-sense convention (reduced cost of a
        structural column j is c_j - duals @ A[:, j])."""
        tab = self.tab
        cost = self._cost_vector()
        y = cost[tab.basic] @ tab.T[:, self.slack_cols]
        return np.where(self.senses == GE, -y, y)

    def append(self, cols: np.ndarray, col_costs: np.ndarray,
               rows_struct: np.ndarray, rhs: np.ndarray) -> None:
        """Grow the program: cols is (m, k) over the existing rows in their
        original senses; rows_struct is (r, n_struct + k) of <= rows over
        all structural columns (new columns included) with right-hand side
        rhs.  New columns start at bounds [0, 1]; the current solution must
        satisfy the new rows."""
        tab = self.tab
        # the pivot buffer is tableau-sized; release it before the grown
        # tableau is allocated (it is reallocated at the new size below)
        tab._scratch = None
        m, n = tab.m, tab.ncols
        k, r = cols.shape[1], rows_struct.shape[0]
        if r:
            # new columns enter at their lower bound 0
            current = np.concatenate([self.values(), np.zeros(k)])
            slack_vals = rhs - rows_struct @ current
            if np.any(slack_vals < -FEAS_TOL):
                raise NumericalFailure("appended row violated at the current point")
        cols_norm = np.array(cols, dtype=float)
        cols_norm[self.senses == GE] *= -1.0
        t_new = tab.T[:, self.slack_cols] @ cols_norm
        # the grown tableau is allocated once: [[T, t_new, 0], [bottom, I]]
        T = np.zeros((m + r, n + k + r))
        T[:m, :n] = tab.T
        T[:m, n:n + k] = t_new
        tab.T = T
        tab.lower = np.concatenate([tab.lower, np.zeros(k + r)])
        tab.upper = np.concatenate([tab.upper, np.ones(k), np.full(r, np.inf)])
        tab.vstat = np.concatenate([tab.vstat, np.full(k, AT_LOWER, dtype=np.int8),
                                    np.full(r, BASIC, dtype=np.int8)])
        tab.ncols += k + r
        tab.m += r
        self.struct_cols.extend(range(n, n + k))
        self.objective_vec = np.concatenate([self.objective_vec, col_costs])
        if r:
            bottom = T[m:, :n + k]
            bottom[:, self.struct_cols] = rows_struct
            bottom -= bottom[:, tab.basic] @ T[:m, :n + k]
            T[m:, n + k:] = np.eye(r)
            tab.basic = np.concatenate([tab.basic, np.arange(n + k, n + k + r)])
            tab.xB = np.concatenate([tab.xB, np.maximum(slack_vals, 0.0)])
            self.slack_cols.extend(range(n + k, n + k + r))
            self.senses = np.concatenate([self.senses, np.full(r, LE)])
        tab._scratch = np.empty_like(tab.T)


def _expel_artificials(tab: _Tableau) -> None:
    """Pivot basic artificials (at value 0) out of the basis when a usable
    pivot element exists; rows without one are redundant and keep their
    artificial fixed at zero."""
    for i in range(tab.m):
        var = tab.basic[i]
        if var not in tab.art_cols:
            continue
        row = tab.T[i, :tab.n + tab.m]
        pivots = np.flatnonzero((np.abs(row) > 1e-7) & (tab.vstat[:tab.n + tab.m] != BASIC))
        if len(pivots) == 0:
            continue
        j = int(pivots[0])
        pivot = tab.T[i, j]
        prow = tab.T[i] / pivot
        colv = tab.T[:, j].copy()
        colv[i] = 0.0
        tab._rank1_update(colv, prow, i, j)
        tab.vstat[var] = AT_LOWER
        entering_val = tab.nonbasic_value(j)
        tab.basic[i] = j
        tab.vstat[j] = BASIC
        tab.xB[i] = entering_val


def _verify(lp: LinearProgram, x: np.ndarray) -> None:
    if np.any(x < lp.lower - FEAS_TOL) or np.any(x > lp.upper + FEAS_TOL):
        raise NumericalFailure("solution violates variable bounds")
    if lp.rows.shape[0]:
        ax = lp.rows @ x
        le = lp.senses == LE
        ge = lp.senses == GE
        eq = lp.senses == EQ
        if np.any(ax[le] > lp.rhs[le] + FEAS_TOL):
            raise NumericalFailure("solution violates a <= row beyond tolerance")
        if np.any(ax[ge] < lp.rhs[ge] - FEAS_TOL):
            raise NumericalFailure("solution violates a >= row beyond tolerance")
        if np.any(np.abs(ax[eq] - lp.rhs[eq]) > FEAS_TOL):
            raise NumericalFailure("solution violates an = row beyond tolerance")
