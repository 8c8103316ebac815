"""Independent oracles and reference forms used to pin expected values.

The brute-force oracles work on raw text and plain tuples, separately from
the package's candidate scan, DP, and LP machinery, so the two sides can be
cross-checked against each other.  entries and same_entries read a
feature matrix's coordinate arrays back as plain values.

The reference checks below are what the tests compare the program with;
the package itself never runs them:
- LinearProgram and solve_dense: a dense program whose rows carry a sense
  (<=, =, >=) and a right-hand side, solved through simplex.run as the
  same CSC arrays and checked against its dense rows (feasibility 1e-7; a
  breach raises NumericalFailure).
- dense_program: the full compression LP as one dense matrix, built one
  Pointer at a time, in sparse_program's row and column order.
- solve_fractional: a reconstruction instance's covering LP, with demand
  v in [0, 1] and per-interval upper bounds.
- to_flow and solve_flow: the same instance as a min-cost flow over
  position nodes, solved as an LP over the node balance rows.
- invariance_check: the paper's claim that an unregularized linear model
  predicts the same on diffused and on raw features.
- alpha_depth_check: at alpha < 1/k, every dictionary string of length
  <= k is built from character slots alone.
- reference_prune_descent: lp.prune_descent without its per-target
  cache, every trial re-solving every reconstruction.
- reference_compress: compress without the LP bound's skips, so every
  rounding is pruned (by reference_prune_descent) and every deep job also
  rounds its character-only restriction; epsilon_rounding is the rounding
  it prunes.
- write_corpus, read_matrix and write_labels: the file formats read back
  or written the other way round.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from deepdict import lp as lp_module
from deepdict import simplex
from deepdict.corpus import Corpus
from deepdict.errors import DimensionMismatch, Infeasible, InvalidParam, NumericalFailure
from deepdict.features import SparseMatrix, diffuse
from deepdict.lp import (EXACT_LIMIT, Compression, LPInstance, LPSolution, build_lp,
                         cut_classes, exact_solve, price, solve_lp)
from deepdict.model import CHAR_CODE, DICT_CHAR, ModelInstance, character_only
from deepdict.pipeline import CompressJob, build_job_model, compress
from deepdict.recon import ReconInstance


def split_symbols(text: str, mode: str = "char") -> list[str]:
    return list(text) if mode == "char" else text.split()


def brute_candidates(texts: list[str], max_len: int, min_count: int,
                     mode: str = "char") -> dict[tuple[str, ...], list[tuple[int, int]]]:
    """Every distinct substring of length <= max_len with >= min_count
    occurrences, and every unigram whatever its count, by direct scanning;
    positions are (doc, 1-based start)."""
    occ: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    for k, text in enumerate(texts):
        syms = split_symbols(text, mode)
        for i in range(len(syms)):
            for length in range(1, min(max_len, len(syms) - i) + 1):
                occ.setdefault(tuple(syms[i:i + length]), []).append((k, i + 1))
    return {s: sorted(o) for s, o in occ.items() if len(o) >= min_count or len(s) == 1}


def bon_counts(texts: list[str], max_len: int, min_count: int,
               mode: str = "char") -> dict[tuple[str, ...], int]:
    """Classic bag-of-n-grams occurrence counts over the filtered universe."""
    return {s: len(o) for s, o in
            brute_candidates(texts, max_len, min_count, mode).items()}


def follower_classes(cands: dict[tuple[str, ...], list[tuple[int, int]]],
                     texts: list[str], mode: str = "char") -> list[frozenset]:
    """Equivalence classes via the follower-set rule: s joins s+a when every
    occurrence of s is followed by the same single symbol a and s+a is in
    the universe.  Classes are the transitive closure of that relation."""
    symbolized = [split_symbols(t, mode) for t in texts]
    parent: dict[tuple, tuple] = {s: s for s in cands}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for s, occs in cands.items():
        followers = set()
        complete = True
        for doc, start in occs:
            j = start - 1 + len(s)
            if j >= len(symbolized[doc]):
                complete = False
                break
            followers.add(symbolized[doc][j])
        if complete and len(followers) == 1:
            ext = s + (next(iter(followers)),)
            if ext in cands:
                ra, rb = find(s), find(ext)
                if ra != rb:
                    parent[ra] = rb
    groups: dict[tuple, set] = {}
    for s in cands:
        groups.setdefault(find(s), set()).add(s)
    return [frozenset(g) for g in groups.values()]


def min_cover_subsets(n: int, intervals: list[tuple[int, int, float]]) -> float:
    """Minimum-cost full cover by enumerating every subset of intervals
    (start, length, cost); infinity when no subset covers."""
    best = math.inf
    for mask in range(1 << len(intervals)):
        covered = set()
        cost = 0.0
        for idx, (start, length, c) in enumerate(intervals):
            if mask >> idx & 1:
                covered.update(range(start, start + length))
                cost += c
        if covered >= set(range(1, n + 1)) and cost < best:
            best = cost
    return best


def min_cover_search(n: int, intervals: list[tuple[int, int, float]]) -> float:
    """Exhaustive branch on the first uncovered position (no memoization)."""
    best = [math.inf]

    def recurse(prefix: int, cost: float) -> None:
        if cost >= best[0]:
            return
        if prefix >= n:
            best[0] = cost
            return
        pos = prefix + 1
        for start, length, c in intervals:
            if start <= pos <= start + length - 1:
                recurse(max(prefix, start + length - 1), cost + c)

    recurse(0, 0.0)
    return best[0]


def naive_exact(model, limit: int = 20) -> float:
    """Independent exhaustive binary optimum: enumerate dictionary subsets
    and cover every target with the recursive search above."""
    from deepdict.model import DICT_CHAR

    cands = model.candidates
    ncand = len(cands)
    assert ncand <= limit
    doc_pointers, dict_pointers = list(model.doc_pointers), list(model.dict_pointers)
    best = math.inf
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(ncand), r) for r in range(1, ncand + 1)):
        member = set(subset)
        cost = sum(model.costs.string_costs[cid] for cid in member)
        if cost >= best:
            continue
        feasible = True
        for doc in model.corpus.docs:
            ivs = [(p.location, cands.length(p.source), model.costs.doc_costs[i])
                   for i, p in enumerate(doc_pointers)
                   if p.target == doc.id and p.source in member]
            part = min_cover_search(len(doc), ivs)
            if not math.isfinite(part):
                feasible = False
                break
            cost += part
        if not feasible or cost >= best:
            continue
        for cid in member:
            ivs = [(p.location, cands.length(p.source), model.costs.dict_costs[i])
                   for i, p in enumerate(dict_pointers)
                   if p.target == cid and (p.kind == DICT_CHAR or p.source in member)]
            part = min_cover_search(cands.length(cid), ivs)
            if not math.isfinite(part):
                feasible = False
                break
            cost += part
        if feasible and cost < best:
            best = cost
    return best


def reference_pointers(corpus, candidates):
    """The pointer universe built one Pointer at a time: every occurrence
    of every candidate in the documents, sorted by (target, location,
    source); every character slot and indexed substring occurrence in the
    candidates, sorted by (target, location, string kind last, source)."""
    from deepdict.model import DICT_CHAR, DICT_STRING, DOCUMENT, Pointer

    doc_ptrs = [Pointer(DOCUMENT, doc, start, cid)
                for cid in range(len(candidates))
                for doc, start in candidates.occurrences[cid]]
    doc_ptrs.sort(key=lambda p: (p.target, p.location, p.source))
    dict_ptrs = []
    for cid, s in enumerate(candidates.strings):
        dict_ptrs.extend(Pointer(DICT_CHAR, cid, pos, candidates.unigram_id(sym))
                         for pos, sym in enumerate(s, start=1))
        dict_ptrs.extend(Pointer(DICT_STRING, cid, loc, sub)
                         for sub, loc in candidates.substring_index[cid])
    dict_ptrs.sort(key=lambda p: (p.target, p.location, p.kind == DICT_STRING, p.source))
    return doc_ptrs, dict_ptrs


def pointer_is_valid(ptr, corpus, candidates) -> bool:
    """Substring-match check of one pointer: its target and source ids
    exist, and the target's symbols at the pointer location equal the
    source string, with kind-specific source rules."""
    from deepdict.model import DICT_CHAR, DOCUMENT

    targets = corpus.docs if ptr.kind == DOCUMENT else candidates.strings
    if not (0 <= ptr.source < len(candidates) and 0 <= ptr.target < len(targets)):
        return False
    src = candidates.strings[ptr.source]
    if ptr.kind == DOCUMENT:
        target = corpus.docs[ptr.target].symbols
    else:
        target = candidates.strings[ptr.target]
        if ptr.kind == DICT_CHAR:
            if len(src) != 1:
                return False
        elif len(src) >= len(target):
            return False  # string-kind sources must be proper substrings
    lo = ptr.location - 1
    hi = lo + len(src)
    if lo < 0 or hi > len(target):
        return False
    return tuple(target[lo:hi]) == src


def entries(mat) -> dict[tuple[int, int], float]:
    """A feature matrix's nonzeros as {(row, col): value}."""
    return dict(zip(zip(mat.rows.tolist(), mat.cols.tolist()), mat.values.tolist()))


def same_entries(a, b) -> bool:
    """Exact equality of two feature matrices: shape, rows, cols and values."""
    return ((a.n_rows, a.n_cols) == (b.n_rows, b.n_cols)
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("rows", "cols", "values")))


def random_corpus(rng, n_docs=1, max_doc_len=10, alphabet="abc",
                  min_doc_len=2) -> list[str]:
    return ["".join(rng.choice(alphabet)
                    for _ in range(rng.randint(min_doc_len, max_doc_len)))
            for _ in range(n_docs)]


LADDER_WORDS = ("abra", "cad", "abra", "xyz", "ab", "ra", "ca", "dab")


def ladder_texts(n_docs: int, rng) -> list[str]:
    """The corpus ladder of the benchmark: each document is 3-6 words."""
    return ["".join(rng.choice(LADDER_WORDS) for _ in range(rng.randint(3, 6)))
            for _ in range(n_docs)]


def labelled_ladder(n_docs: int, seed: int, rate: float) -> tuple[list[str], list[int]]:
    """The benchmark's labelled ladder: document k has 3 + k % 4 ladder
    words and class k % 3, whose planted word is inserted at a random word
    boundary with probability `rate`."""
    planted = ("fig", "hum", "jot")
    rng = random.Random(seed)
    texts, labels = [], []
    for k in range(n_docs):
        words = [rng.choice(LADDER_WORDS) for _ in range(3 + k % 4)]
        if rng.random() < rate:
            words.insert(rng.randint(0, len(words)), planted[k % 3])
        texts.append("".join(words))
        labels.append(k % 3)
    return texts, labels


LE, EQ, GE = -1, 0, 1

FEAS_TOL = 1e-7


@dataclass
class LinearProgram:
    objective: np.ndarray
    rows: np.ndarray  # dense (m, n); may be empty with shape (0, n)
    senses: np.ndarray  # (m,) values in {LE, EQ, GE}
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def solve_dense(lp: LinearProgram) -> simplex.SimplexResult:
    """Solve a dense program through simplex.run, then check the optimum
    against its dense rows."""
    rows = np.asarray(lp.rows, dtype=float)
    rhs = np.asarray(lp.rhs, dtype=float)
    senses = np.asarray(lp.senses)
    row_idx, col_idx = np.nonzero(rows)
    start, index, value = simplex.csc(rows.shape[1], row_idx, col_idx,
                                      rows[row_idx, col_idx])
    result = simplex.run(simplex.SparseProgram(
        np.asarray(lp.objective, dtype=float), np.asarray(lp.lower, dtype=float),
        np.asarray(lp.upper, dtype=float), np.where(senses == LE, -np.inf, rhs),
        np.where(senses == GE, np.inf, rhs), start, index, value))
    if result.status == "optimal":
        _verify(lp, result.x)
    return result


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


def _coverage_rows(model: ModelInstance):
    """Names of the coverage rows (one per document position, then one per
    candidate position) and the first row of each document and candidate."""
    row_meta: list[tuple] = []
    doc_base = {}
    dict_base = {}
    for doc in model.corpus.docs:
        doc_base[doc.id] = len(row_meta)
        row_meta.extend(("doc_cov", doc.id, pos) for pos in range(1, len(doc) + 1))
    for cid in range(len(model.candidates)):
        dict_base[cid] = len(row_meta)
        row_meta.extend(("dict_cov", cid, pos)
                        for pos in range(1, model.candidates.length(cid) + 1))
    return row_meta, doc_base, dict_base


def _pointer_column(model: ModelInstance, doc_base: dict[int, int],
                    dict_base: dict[int, int], i: int, is_doc: bool):
    """Document (is_doc) or dictionary pointer i as a column: the coverage
    rows [start, stop) it fills, its cost, and the string whose membership
    bounds it through its linking row (None when it has no linking row)."""
    if is_doc:
        ptr = model.doc_pointers[i]
        start = doc_base[ptr.target] + ptr.location - 1
        cost = model.costs.doc_costs[i]
        source = ptr.source
    else:
        ptr = model.dict_pointers[i]
        start = dict_base[ptr.target] + ptr.location - 1
        cost = model.costs.dict_costs[i]
        source = None if ptr.kind == DICT_CHAR else ptr.source
    return start, start + model.candidates.length(ptr.source), cost, source


def dense_program(lp: LPInstance, pinned: dict[int, float] | None = None
                  ) -> tuple[LinearProgram, list[tuple]]:
    """The full program as one dense (rows, variables) matrix, and the name
    of each row: ("doc_cov", doc, pos), ("dict_cov", cid, pos),
    ("link_doc", i), ("link_dict", i) or ("cut", members).  pinned fixes
    membership variables (lower = upper = value).  This is the reference
    form for solve_dense and for sparse_program; its matrix grows as
    rows x variables, so the compression path never builds it."""
    model = lp.model
    cands = model.candidates
    n_strings = len(cands)
    row_meta, doc_base, dict_base = _coverage_rows(model)
    n_cov = len(row_meta)
    pointers = ([(i, True) for i in range(len(model.doc_pointers))]
                + [(i, False) for i in range(len(model.dict_pointers))])
    columns = [_pointer_column(model, doc_base, dict_base, i, is_doc)
               for i, is_doc in pointers]
    links = []
    for c, ((i, is_doc), (_, _, _, source)) in enumerate(zip(pointers, columns)):
        if source is not None:
            row_meta.append(("link_doc" if is_doc else "link_dict", i))
            links.append((n_strings + c, source))
    row_meta.extend(("cut", tuple(members)) for members in lp.cut_members)

    n = n_strings + len(pointers)
    rows = np.zeros((len(row_meta), n))
    for cid in range(n_strings):
        base = dict_base[cid]
        rows[base: base + cands.length(cid), cid] = -1.0
    for c, (start, stop, _, _) in enumerate(columns):
        rows[start:stop, n_strings + c] = 1.0
    for r, (col, source) in enumerate(links, n_cov):
        rows[r, col] = 1.0
        rows[r, source] = -1.0
    for r, members in enumerate(lp.cut_members, n_cov + len(links)):
        rows[r, members] = 1.0
    kinds = [meta[0] for meta in row_meta]
    senses = np.array([GE if kind.endswith("_cov") else LE for kind in kinds], dtype=int)
    rhs = np.array([1.0 if kind in ("doc_cov", "cut") else 0.0 for kind in kinds])
    objective = np.array(model.costs.string_costs + [col[2] for col in columns],
                         dtype=float)
    program = LinearProgram(objective, rows, senses, rhs, np.zeros(n), np.ones(n))
    for cid, value in (pinned or {}).items():
        program.lower[cid] = program.upper[cid] = value
    return program, row_meta


def _interval_bounds(instance: ReconInstance, demand: float,
                     bounds: list[float] | None) -> list[float]:
    """The per-interval upper bounds (default 1), after checking that the
    demand lies in [0, 1] and the bounds align with the intervals."""
    if not 0.0 <= demand <= 1.0:
        raise InvalidParam("demand must lie in [0, 1]")
    if bounds is None:
        return [1.0] * len(instance.intervals)
    if len(bounds) != len(instance.intervals):
        raise InvalidParam("bounds must align with intervals")
    return bounds


def solve_fractional(instance: ReconInstance, demand: float = 1.0,
                     bounds: list[float] | None = None) -> tuple[float, list[float]]:
    """LP relaxation of the covering problem: every position must receive
    total weight >= demand, weights respect the per-interval bounds."""
    n = len(instance.target)
    k = len(instance.intervals)
    bounds = _interval_bounds(instance, demand, bounds)
    if any(not 0.0 <= b <= 1.0 for b in bounds):
        raise InvalidParam("interval bounds must lie in [0, 1]")
    if demand == 0.0:
        return 0.0, [0.0] * k
    rows = np.zeros((n, k))
    for idx, iv in enumerate(instance.intervals):
        rows[iv.start - 1:iv.end, idx] = 1.0
    lp = LinearProgram(
        objective=np.array([iv.cost for iv in instance.intervals], dtype=float),
        rows=rows,
        senses=np.full(n, GE),
        rhs=np.full(n, demand),
        lower=np.zeros(k),
        upper=np.array(bounds, dtype=float),
    )
    result = solve_dense(lp)
    if result.status == "infeasible":
        raise Infeasible("fractional cover does not exist")
    if result.status != "optimal":
        raise InvalidParam("covering LP must be bounded; got " + result.status)
    return result.objective, list(result.x)


POINTER_ARC = "pointer"
SLACK_ARC = "slack"


@dataclass(frozen=True)
class Arc:
    tail: int  # node ids: 1..n are positions, n+1 is the end node
    head: int
    cost: float
    upper: float
    kind: str
    ref: int  # interval index for pointer arcs, position for slack arcs


@dataclass
class FlowInstance:
    """Min-cost-flow form of a reconstruction: pointer arcs jump forward
    from their start position to one past their end, unit slack arcs run
    backward, and the demand enters at position 1.  The position-node rows
    of the incidence matrix reproduce the difference-transformed covering
    constraints exactly."""

    n_positions: int
    arcs: list[Arc]
    demand: float
    pointer_arcs: list[int] = field(default_factory=list)  # arc indices
    slack_arcs: list[int] = field(default_factory=list)

    def incidence(self) -> np.ndarray:
        """Rows = position nodes 1..n (the end node row is omitted, which
        is the source/sink completion)."""
        n = self.n_positions
        mat = np.zeros((n, len(self.arcs)))
        for j, arc in enumerate(self.arcs):
            if arc.tail <= n:
                mat[arc.tail - 1, j] += 1.0
            if arc.head <= n:
                mat[arc.head - 1, j] -= 1.0
        return mat


def to_flow(instance: ReconInstance, demand: float = 1.0,
            bounds: list[float] | None = None) -> FlowInstance:
    n = len(instance.target)
    bounds = _interval_bounds(instance, demand, bounds)
    arcs: list[Arc] = []
    pointer_arcs = []
    for idx, iv in enumerate(instance.intervals):
        arcs.append(Arc(iv.start, iv.end + 1, iv.cost, bounds[idx], POINTER_ARC, idx))
        pointer_arcs.append(len(arcs) - 1)
    slack_arcs = []
    for pos in range(1, n + 1):
        arcs.append(Arc(pos + 1, pos, 0.0, math.inf, SLACK_ARC, pos))
        slack_arcs.append(len(arcs) - 1)
    return FlowInstance(n, arcs, demand, pointer_arcs, slack_arcs)


def solve_flow(flow: FlowInstance) -> tuple[float, list[float]]:
    """Solve the flow form as an LP over the position-node balance rows;
    returns (optimal cost, pointer arc flows)."""
    n = flow.n_positions
    mat = flow.incidence()
    rhs = np.zeros(n)
    rhs[0] = flow.demand
    upper = np.array([a.upper for a in flow.arcs])
    lp = LinearProgram(
        objective=np.array([a.cost for a in flow.arcs], dtype=float),
        rows=mat,
        senses=np.full(n, EQ),
        rhs=rhs,
        lower=np.zeros(len(flow.arcs)),
        upper=upper,
    )
    result = solve_dense(lp)
    if result.status == "infeasible":
        raise Infeasible("flow instance admits no feasible flow")
    if result.status != "optimal":
        raise InvalidParam("flow LP must be bounded; got " + result.status)
    weights = [result.x[j] for j in flow.pointer_arcs]
    return result.objective, weights


def invariance_check(top: SparseMatrix, dictionary: SparseMatrix,
                     beta: np.ndarray) -> float:
    """Max absolute prediction difference between the diffused-feature model
    with coefficients beta and the raw-feature model with the transformed
    coefficients; equals zero for exact arithmetic."""
    if dictionary.n_rows != dictionary.n_cols:
        raise DimensionMismatch("dictionary matrix must be square")
    if top.n_cols != dictionary.n_rows or len(beta) != dictionary.n_rows:
        raise DimensionMismatch("coefficient length must match feature count")
    x = top.to_dense()
    g = dictionary.to_dense()
    xhat = diffuse(top, dictionary, rho=1.0).to_dense()
    eye = np.eye(g.shape[0])
    eta = np.linalg.solve(eye - g, beta)
    return float(np.max(np.abs(xhat @ beta - x @ eta))) if x.size else 0.0


def alpha_depth_check(corpus: Corpus, job: CompressJob, alpha: float,
                      k_check: int) -> bool:
    """True when, in the rounded compression at the given alpha, every
    dictionary string of length <= k_check is built purely from character
    slots."""
    if alpha >= 1.0 / k_check:
        raise InvalidParam("requires alpha < 1/k_check")
    comp, _, model = compress(replace(job, corpus=corpus, alpha=alpha))
    ptrs = comp.dict_pointers
    short = model.candidates.lengths[ptrs.target] <= k_check
    return not (short & (ptrs.kind != CHAR_CODE)).any()


def epsilon_rounding(solution: LPSolution, model: ModelInstance) -> Compression:
    """The solution's epsilon-rounding before any pruning: every string of
    membership weight above ROUND_EPS, its unused strings dropped."""
    members = {cid for cid in range(len(model.candidates))
               if solution.string_value(cid) > lp_module.ROUND_EPS}
    return lp_module._assemble(model, *lp_module._solve_members(model, members))


def reference_prune_descent(comp: Compression, model: ModelInstance,
                            bound: float = -math.inf) -> Compression:
    """lp.prune_descent without its cache: every trial, the infeasible
    ones included, re-solves every reconstruction from scratch."""
    members = set(comp.dictionary)
    best = None
    best_objective = comp.objective
    all_cids = set(range(len(model.candidates)))
    universe = len(model.doc_pointers) + len(model.dict_pointers)
    while True:
        outside = sorted(all_cids - members)
        trials = [members - {cid} for cid in sorted(members) if len(members) > 1]
        if (len(members) + 1) * len(outside) * universe <= lp_module.SWAP_BUDGET:
            trials.extend(members - {cid} | {new} for cid in sorted(members) for new in outside)
            trials.extend(members | {new} for new in outside)
        improved = None
        for trial in trials:
            try:
                candidate = lp_module._select(model, *lp_module._solve_members(model, trial))
            except Infeasible:
                continue
            if candidate.objective < best_objective - 1e-9 and (
                    improved is None or candidate.objective < improved.objective - 1e-9):
                improved = candidate
                if lp_module.reaches_bound(improved.objective, bound):
                    return lp_module._compression(model, improved)
        if improved is None:
            return comp if best is None else lp_module._compression(model, best)
        best = improved
        best_objective = best.objective
        members = set(best.retained)


def _reference_rounding(solution: LPSolution, model: ModelInstance) -> Compression:
    """The epsilon-rounding of the solution, always pruned with no bound."""
    return reference_prune_descent(epsilon_rounding(solution, model), model)


def reference_compress(job: CompressJob) -> Compression:
    """pipeline.compress's compression, computed without skipping anything:
    the deep rounding is always pruned, and a deep job always solves, rounds
    and prunes its character-only restriction, keeping it when it is
    cheaper by more than 1e-9."""
    model = build_job_model(job)
    if job.exact_if_small and len(model.candidates) <= EXACT_LIMIT:
        return exact_solve(model, classes=cut_classes(model) if job.cuts else None)
    comp = _reference_rounding(solve_lp(build_lp(model, cuts=job.cuts)), model)
    if not job.cfl_mode:
        restricted = character_only(model)
        shallow = _reference_rounding(solve_lp(build_lp(restricted, cuts=job.cuts)),
                                      restricted)
        shallow = replace(shallow, objective=price(shallow, model))
        if shallow.objective < comp.objective - 1e-9:
            comp = shallow
    return comp


def write_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.docs:
            fh.write(corpus.doc_text(doc.id))
            fh.write("\n")


def read_matrix(path: str) -> SparseMatrix:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    n_rows, n_cols, nnz = (int(x) for x in lines[0].split())
    fields = [ln.split() for ln in lines[1:nnz + 1]]
    return SparseMatrix.from_triplets(n_rows, n_cols, [int(f[0]) for f in fields],
                                      [int(f[1]) for f in fields],
                                      [float(f[2]) for f in fields])


def write_labels(path: str, labels: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label in labels:
            fh.write(f"{label}\n")
