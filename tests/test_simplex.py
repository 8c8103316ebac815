import os
import random
import subprocess
import sys

import numpy as np
import pytest

from deepdict import simplex
from deepdict.errors import NumericalFailure

from oracles import EQ, GE, LE, LinearProgram, solve_dense


def make_lp(c, rows, senses, rhs, upper=None, lower=None):
    c = np.asarray(c, dtype=float)
    rows = np.asarray(rows, dtype=float).reshape(len(senses), len(c))
    return LinearProgram(
        c, rows, np.asarray(senses), np.asarray(rhs, dtype=float),
        np.zeros(len(c)) if lower is None else np.asarray(lower, dtype=float),
        np.ones(len(c)) if upper is None else np.asarray(upper, dtype=float))


def test_box_maximization():
    lp = make_lp([-1.0, -1.0], [[1.0, 1.0]], [LE], [1.5])
    res = solve_dense(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.5)


def test_equality_row():
    lp = make_lp([1.0, 0.0], [[1.0, 1.0]], [EQ], [1.0])
    res = solve_dense(lp)
    assert res.objective == pytest.approx(0.0)
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-9)


def test_infeasible_detection():
    lp = make_lp([1.0, 1.0], [[1.0, 1.0]], [GE], [3.0])
    assert solve_dense(lp).status == "infeasible"
    # no columns: HiGHS reports an empty model, and the rows alone decide
    assert solve_dense(make_lp([], [], [GE], [1.0])).status == "infeasible"
    assert solve_dense(make_lp([], [], [LE], [1.0])).status == "optimal"


def test_unbounded_detection():
    lp = LinearProgram(np.array([-1.0]), np.zeros((0, 1)),
                       np.zeros(0, dtype=int), np.zeros(0),
                       np.zeros(1), np.array([np.inf]))
    assert solve_dense(lp).status == "unbounded"


def test_degenerate_cover_lp():
    # several overlapping covers of equal cost; heavy primal degeneracy
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
    lp = make_lp([1.0, 1.0, 1.0, 1.0], rows,
                 [GE] * 3, [1.0, 1.0, 1.0])
    res = solve_dense(lp)
    assert res.objective == pytest.approx(2.0)


def test_start_hint_respected():
    # HiGHS chooses its own starting basis; whichever it takes, the row
    # covered by either column must end on the cheaper, later column
    lp = make_lp([2.0, 1.0], [[1.0, 1.0]], [GE], [1.0])
    res = solve_dense(lp)
    assert res.objective == pytest.approx(1.0)
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-9)


def test_iteration_limit_raises(monkeypatch):
    rng = random.Random(0)
    rows = [[rng.choice([0.0, 1.0]) for _ in range(8)] for _ in range(6)]
    lp = make_lp([1.0] * 8, rows, [GE] * 6, [1.0] * 6)
    monkeypatch.setitem(simplex.HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    with pytest.raises(NumericalFailure, match="[Ii]teration limit"):
        solve_dense(lp)


def test_random_lps_against_enumeration():
    # vertices of box-constrained LPs with few rows can be enumerated by
    # brute force over active sets of binary corners plus row intersections;
    # here we simply compare against scanning a fine lattice of feasible
    # binary-ish points, which is exact for totally unimodular instances
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        rows = [[float(rng.randint(0, 1)) for _ in range(n)] for _ in range(m)]
        rhs = [float(rng.randint(0, max(1, sum(map(int, row)))))
               for row in rows]
        c = [float(rng.randint(-4, 4)) for _ in range(n)]
        senses = [rng.choice([LE, GE]) for _ in range(m)]
        lp = make_lp(c, rows, senses, rhs)
        res = solve_dense(lp)
        best = None
        feasible_exists = False
        for mask in range(1 << n):
            x = np.array([(mask >> j) & 1 for j in range(n)], dtype=float)
            ok = True
            for row, sense, b in zip(rows, senses, rhs):
                val = float(np.dot(row, x))
                if sense == LE and val > b + 1e-9:
                    ok = False
                if sense == GE and val < b - 1e-9:
                    ok = False
            if ok:
                feasible_exists = True
                val = float(np.dot(c, x))
                best = val if best is None else min(best, val)
        if feasible_exists:
            assert res.status == "optimal"
            # interval-matrix rows with binary rhs give integral vertices,
            # but fractional optima can undercut the binary sweep; only the
            # bound direction is universally valid
            assert res.objective <= best + 1e-9
        else:
            assert res.status in ("infeasible", "optimal")



def test_dual_bound_holds_for_any_row_prices():
    # HiGHS's own duals give the optimum; any other row prices, of either
    # sign and on rows of every bound type, give a lower bound, also with
    # unbounded columns
    rng = np.random.default_rng(4)
    for _ in range(60):
        n, m = rng.integers(1, 6), rng.integers(1, 5)
        rows = rng.integers(-2, 3, size=(m, n)).astype(float)
        row_idx, col_idx = np.nonzero(rows)
        row_lower = np.where(rng.random(m) < 0.3, -np.inf, rng.integers(-2, 2, size=m))
        row_upper = np.where(rng.random(m) < 0.3, np.inf, row_lower + rng.integers(0, 3, size=m))
        row_upper = np.where(np.isinf(row_lower) & np.isinf(row_upper), 1.0, row_upper)
        upper = np.where(rng.random(n) < 0.2, np.inf, 1.0)
        program = simplex.SparseProgram(
            rng.integers(-3, 4, size=n).astype(float), np.zeros(n), upper, row_lower,
            row_upper, *simplex.csc(n, row_idx, col_idx, rows[row_idx, col_idx]))
        res = simplex.run(program)
        if res.status != "optimal":
            assert res.row_dual is None
            continue
        assert simplex.dual_bound(program, res.row_dual) == pytest.approx(res.objective,
                                                                          abs=1e-9)
        for y in (rng.normal(size=m), rng.normal(size=m) * 10, np.zeros(m)):
            assert simplex.dual_bound(program, y) <= res.objective + 1e-9


LOADER_CHECK = """
import sys
from deepdict import simplex
from deepdict.corpus import ingest, enumerate_candidates
from deepdict.lp import build_lp, solve_lp
from deepdict.model import build_model

assert simplex._CORE not in sys.modules
corpus = ingest(["abab", "baba"], "char")
model = build_model(corpus, enumerate_candidates(corpus, 3, 1), 0.0, 1.0, 1.0)
solve_lp(build_lp(model))
core = sys.modules[simplex._CORE]
assert hasattr(core, "_Highs")
assert "scipy.optimize" not in sys.modules
import scipy.optimize
from scipy.optimize._highspy import _highs_wrapper
assert _highs_wrapper._h is core
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                             bounds=[(0, 1), (0, 1)], method="highs")
assert res.status == 0 and abs(res.fun - 1.0) < 1e-9
print("ok")
"""


def test_highs_core_loads_without_scipy_optimize():
    # a fresh interpreter: the core is loaded on the first solve, without
    # scipy.optimize's package init, and scipy.optimize later reuses it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", LOADER_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
