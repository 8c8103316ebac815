"""Full compression LP: instance, cuts, HiGHS solve, rounding, exact oracle.

Variables are ordered as all dictionary-membership weights (one per
candidate), then all document pointer weights, then all dictionary pointer
weights, every one bounded to [0, 1].  Rows are per-position coverage for
documents (>= 1) and candidates (>= membership weight), one linking row
per string-using pointer, and optional per-class cut rows limiting each
right-extension equivalence class to one dictionary member.

An LPInstance is the model plus its cut rows; no matrix is built for it.
solve_lp builds the full program once as compressed sparse columns
(sparse_program) and solves it in one simplex.run.  dense_program builds
the same program as one dense matrix: the reference form that the tests
compare sparse_program with and solve through simplex.solve.

Once the dictionary is fixed, the program splits into one interval-cover
DP per document and per member string.  Each model builds one
reconstruction instance per target once (ModelInstance.recon_instances);
_solve_members runs one DP per target on them, which skips the intervals
whose source is not a member, and rounding, prune_descent and exact_solve
all evaluate dictionaries through it.  Rounding keeps every candidate with
membership weight above a snap threshold, re-solves all reconstructions
restricted to that dictionary, and prunes strings that end up unused
(taking the transitive closure of use through string-kind reconstruction
pointers, which is the fixed point of repeated pruning).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from . import simplex
from .corpus import EquivalenceClasses, equivalence_classes
from .errors import Infeasible, InvalidParam, NumericalFailure, TooLarge
from .model import (CONSTANT_DICT_COST, DICT_STRING, ModelInstance,
                    Pointer, pointer_is_valid)
from .recon import ReconResult, solve_dp

ROUND_EPS = 1e-6
EXACT_LIMIT = 12  # most candidates exact_solve enumerates by default


@dataclass
class LPInstance:
    """The relaxation of a model's storage program plus its cut rows, one
    per multi-member equivalence class; rows and columns are read from the
    model, never stored."""

    model: ModelInstance
    cut_members: list[list[int]]

    @property
    def n_vars(self) -> int:
        model = self.model
        return len(model.candidates) + len(model.doc_pointers) + len(model.dict_pointers)

    @property
    def n_rows(self) -> int:
        """Rows of the full program: coverage, linking and cut rows."""
        model = self.model
        cands = model.candidates
        return (model.corpus.total_symbols
                + sum(cands.length(cid) for cid in range(len(cands)))
                + len(model.doc_pointers)
                + sum(ptr.kind == DICT_STRING for ptr in model.dict_pointers)
                + len(self.cut_members))


@dataclass
class LPSolution:
    values: np.ndarray
    objective: float
    status: str
    basis_summary: dict
    instance: LPInstance

    def string_value(self, cid: int) -> float:
        return float(self.values[cid])

    def doc_value(self, i: int) -> float:
        return float(self.values[len(self.instance.model.candidates) + i])

    def dict_value(self, i: int) -> float:
        model = self.instance.model
        return float(self.values[len(model.candidates) + len(model.doc_pointers) + i])

    def is_integral(self) -> bool:
        v = self.values
        return bool(np.all((np.abs(v) <= ROUND_EPS) | (np.abs(v - 1.0) <= ROUND_EPS)))


def build_lp(model: ModelInstance, cuts: bool = False) -> LPInstance:
    """The model's relaxation; with cuts, one cut row per multi-member
    right-extension class."""
    if not cuts:
        return LPInstance(model, [])
    scheme = model.costs.scheme
    if scheme is None or scheme.negate or scheme.dict_cost_mode != CONSTANT_DICT_COST:
        raise InvalidParam("equivalence cuts require the symmetric cost scheme")
    return LPInstance(model, equivalence_classes(model.candidates).multi_member())


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
        source = ptr.source if ptr.kind == DICT_STRING else None
    return start, start + model.candidates.length(ptr.source), cost, source


def dense_program(lp: LPInstance, pinned: dict[int, float] | None = None
                  ) -> tuple[simplex.LinearProgram, list[tuple]]:
    """The full program as one dense (rows, variables) matrix, and the name
    of each row: ("doc_cov", doc, pos), ("dict_cov", cid, pos),
    ("link_doc", i), ("link_dict", i) or ("cut", members).  pinned fixes
    membership variables (lower = upper = value).  This is the reference
    form for simplex.solve and for sparse_program; its matrix grows as
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
    senses = np.array([simplex.GE if kind.endswith("_cov") else simplex.LE
                       for kind in kinds], dtype=int)
    rhs = np.array([1.0 if kind in ("doc_cov", "cut") else 0.0 for kind in kinds])
    objective = np.array(model.costs.string_costs + [col[2] for col in columns],
                         dtype=float)
    program = simplex.LinearProgram(objective, rows, senses, rhs,
                                    np.zeros(n), np.ones(n))
    for cid, value in (pinned or {}).items():
        program.lower[cid] = program.upper[cid] = value
    return program, row_meta


def sparse_program(lp: LPInstance) -> simplex.SparseProgram:
    """The full program as CSC arrays, with the rows and variables of
    dense_program in the same order: coverage rows (document positions
    >= 1, candidate positions >= 0), one linking row (<= 0) per pointer
    with a source string, in pointer order, then the cut rows (<= 1)."""
    model = lp.model
    cands = model.candidates
    row_meta, doc_base, dict_base = _coverage_rows(model)
    n_cov = len(row_meta)
    entries: list[tuple[int, int, float]] = []  # (row, column, value)
    for cid in range(len(cands)):
        base = dict_base[cid]
        entries.extend((row, cid, -1.0) for row in range(base, base + cands.length(cid)))
    costs = list(model.costs.string_costs)
    link = n_cov
    for is_doc, pointers in ((True, model.doc_pointers), (False, model.dict_pointers)):
        for i in range(len(pointers)):
            col = len(costs)
            start, stop, cost, source = _pointer_column(model, doc_base, dict_base,
                                                        i, is_doc)
            costs.append(cost)
            entries.extend((row, col, 1.0) for row in range(start, stop))
            if source is not None:
                entries += [(link, col, 1.0), (link, source, -1.0)]
                link += 1
    for cut, members in enumerate(lp.cut_members, link):
        entries.extend((cut, cid, 1.0) for cid in members)
    n = len(costs)
    rows, cols, values = (np.array(part) for part in zip(*entries))
    n_doc_cov, n_links, n_cuts = model.corpus.total_symbols, link - n_cov, len(lp.cut_members)
    row_lower = np.concatenate([np.ones(n_doc_cov), np.zeros(n_cov - n_doc_cov),
                                np.full(n_links + n_cuts, -np.inf)])
    row_upper = np.concatenate([np.full(n_cov, np.inf), np.zeros(n_links), np.ones(n_cuts)])
    return simplex.SparseProgram(np.array(costs, dtype=float), np.zeros(n), np.ones(n),
                                 row_lower, row_upper, *simplex.csc(n, rows, cols, values))


def check_coverable(model: ModelInstance) -> None:
    """Every document position must admit at least one pointer, which holds
    exactly when the unigram on that position survived the count filter:
    no longer n-gram through it occurs more often than the unigram."""
    for doc in model.corpus.docs:
        for pos, sym in enumerate(doc.symbols, start=1):
            if (sym,) not in model.candidates.index:
                raise Infeasible(
                    f"document {doc.id} position {pos} has no covering pointer; "
                    f"the min-count filter (m={model.candidates.min_count}) removed "
                    "every candidate there")


def solve_lp(lp: LPInstance) -> LPSolution:
    """Optimal solution of the instance's relaxation: the full program,
    built once as CSC arrays, in one HiGHS run."""
    if not lp.model.costs.nonnegative():
        raise InvalidParam("the simplex path requires nonnegative costs; "
                           "negative-cost landmarks are solved by inspection")
    check_coverable(lp.model)
    # coverable rows and [0, 1] variables make the program feasible and
    # bounded, so any other status is a solver failure
    result = simplex.run(sparse_program(lp))
    if result.status != "optimal":
        raise NumericalFailure(f"the relaxation came back {result.status}")
    return LPSolution(result.x, result.objective, "optimal",
                      {"iterations": result.iterations}, lp)


@dataclass(frozen=True)
class Compression:
    """A binary compression: the dictionary, the document pointer set, and
    the dictionary pointer set, with its objective under the cost model."""

    dictionary: tuple[int, ...]
    doc_pointers: tuple[Pointer, ...]
    dict_pointers: tuple[Pointer, ...]
    objective: float

    def fingerprint(self) -> str:
        blob = repr((self.dictionary, self.doc_pointers, self.dict_pointers))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _solve_members(model: ModelInstance, members: set[int]
                   ) -> tuple[list[ReconResult], dict[int, ReconResult]]:
    """The cheapest reconstruction of every document (in doc id order) and
    of every member string (in id order) under the dictionary members.
    Each DP skips the intervals whose source is not a member; raises
    Infeasible when a target cannot be covered."""
    doc_inst, dict_inst = model.recon_instances
    docs = [solve_dp(inst, members) for inst in doc_inst]
    strings = {cid: solve_dp(dict_inst[cid], members) for cid in sorted(members)}
    return docs, strings


def _assemble(model: ModelInstance, docs: list[ReconResult],
              strings: dict[int, ReconResult]) -> Compression:
    """Prune to the transitive closure of actual use (the fixed point of
    dropping unused strings) and price the result."""
    doc_chosen = [i for res in docs for i in res.chosen]
    used = {model.doc_pointers[i].source for i in doc_chosen}
    frontier = list(used)
    while frontier:
        cid = frontier.pop()
        for i in strings[cid].chosen:
            ptr = model.dict_pointers[i]
            if ptr.kind == DICT_STRING and ptr.source not in used:
                used.add(ptr.source)
                frontier.append(ptr.source)
    retained = sorted(used)
    dict_ptr_idx = sorted(i for cid in retained for i in strings[cid].chosen)
    doc_ptr_idx = sorted(doc_chosen)
    objective = (sum(model.costs.doc_costs[i] for i in doc_ptr_idx)
                 + sum(model.costs.dict_costs[i] for i in dict_ptr_idx)
                 + sum(model.costs.string_costs[cid] for cid in retained))
    return Compression(tuple(retained),
                       tuple(model.doc_pointers[i] for i in doc_ptr_idx),
                       tuple(model.dict_pointers[i] for i in dict_ptr_idx),
                       objective)


def round_to_compression(solution: LPSolution, model: ModelInstance) -> Compression:
    members = {cid for cid in range(len(model.candidates))
               if solution.string_value(cid) > ROUND_EPS}
    comp = _assemble(model, *_solve_members(model, members))
    return prune_descent(comp, model)


SWAP_BUDGET = 80000  # cap on (moves x pointer universe) for swap/add search


def prune_descent(comp: Compression, model: ModelInstance) -> Compression:
    """Best-improvement local search over the rounded dictionary: drop one
    member at a time (and, on small instances, swap a member for an outside
    candidate or add one), re-solving every reconstruction against the new
    dictionary, while the objective strictly decreases.  Each step keeps a
    valid binary compression, so this only sharpens the rounding and is a
    no-op when the input is already a binary optimum."""
    members = set(comp.dictionary)
    best = comp
    all_cids = set(range(len(model.candidates)))
    universe = len(model.doc_pointers) + len(model.dict_pointers)
    while True:
        outside = sorted(all_cids - members)
        trials: list[set[int]] = [members - {cid} for cid in sorted(members)
                                  if len(members) > 1]
        if (len(members) + 1) * len(outside) * universe <= SWAP_BUDGET:
            trials.extend(members - {cid} | {new}
                          for cid in sorted(members) for new in outside)
            trials.extend(members | {new} for new in outside)
        improved = None
        for trial in trials:
            try:
                candidate = _assemble(model, *_solve_members(model, trial))
            except Infeasible:
                continue
            if candidate.objective < best.objective - 1e-9 and (
                    improved is None or candidate.objective < improved.objective - 1e-9):
                improved = candidate
        if improved is None:
            return best
        best = improved
        members = set(best.dictionary)


def price(comp: Compression, model: ModelInstance) -> float:
    """The compression's objective under the model's costs; a pointer
    outside the model's universe raises KeyError."""
    doc_idx = {ptr: i for i, ptr in enumerate(model.doc_pointers)}
    dict_idx = {ptr: i for i, ptr in enumerate(model.dict_pointers)}
    return (sum(model.costs.string_costs[cid] for cid in comp.dictionary)
            + sum(model.costs.doc_costs[doc_idx[p]] for p in comp.doc_pointers)
            + sum(model.costs.dict_costs[dict_idx[p]] for p in comp.dict_pointers))


def compression_errors(comp: Compression, model: ModelInstance) -> list[str]:
    """Full validity check: coverage of documents and dictionary strings,
    membership of every string-using pointer source, proper-substring rule,
    acyclicity, and the recorded objective."""
    errors = []
    members = set(comp.dictionary)
    for ptr in comp.doc_pointers + comp.dict_pointers:
        if not pointer_is_valid(ptr, model.corpus, model.candidates):
            errors.append(f"invalid pointer {ptr}")
    # indexed by target as pointer_is_valid indexes the corpus, so a target
    # that got past it has a slot
    doc_covered: list[set[int]] = [set() for _ in model.corpus.docs]
    for ptr in comp.doc_pointers:
        doc_covered[ptr.target].update(
            range(ptr.location, ptr.location + model.candidates.length(ptr.source)))
    for doc, covered in zip(model.corpus.docs, doc_covered):
        if covered != set(range(1, len(doc) + 1)):
            errors.append(f"document {doc.id} not fully reconstructed")
    by_target: dict[int, set[int]] = {cid: set() for cid in members}
    for ptr in comp.dict_pointers:
        if ptr.target not in members:
            errors.append(f"dictionary pointer targets non-member {ptr}")
            continue
        by_target[ptr.target].update(
            range(ptr.location, ptr.location + model.candidates.length(ptr.source)))
    for cid in members:
        if by_target[cid] != set(range(1, model.candidates.length(cid) + 1)):
            errors.append(f"dictionary string {cid} not fully reconstructed")
    for ptr in comp.doc_pointers:
        if ptr.source not in members:
            errors.append(f"document pointer uses non-member source {ptr}")
    for ptr in comp.dict_pointers:
        if ptr.kind == DICT_STRING:
            if ptr.source not in members:
                errors.append(f"string pointer uses non-member source {ptr}")
            if model.candidates.length(ptr.source) >= model.candidates.length(ptr.target):
                errors.append(f"string pointer source not a proper substring {ptr}")
    try:
        recorded = price(comp, model)
    except KeyError:
        errors.append("compression contains pointers outside the model universe")
    else:
        if abs(recorded - comp.objective) > 1e-6:
            errors.append(f"objective mismatch: {recorded} vs {comp.objective}")
    return errors


def exact_solve(model: ModelInstance, limit: int = EXACT_LIMIT,
                classes: EquivalenceClasses | None = None) -> Compression:
    """Brute-force binary optimum: enumerate dictionary subsets, solve every
    reconstruction by DP, and take the cheapest total.  Ties prefer the
    smaller dictionary, then the lexicographically first id tuple.  When
    classes are given, subsets with two members of one class are skipped."""
    ncand = len(model.candidates)
    if ncand > limit:
        raise TooLarge(f"{ncand} candidates exceed the exhaustive limit {limit}")
    if not model.costs.nonnegative():
        raise InvalidParam("exact_solve requires nonnegative costs")
    check_coverable(model)
    class_sets = [set(members) for members in classes.multi_member()] if classes else []
    best = None
    # by size, then lexicographically: the tie order, so only a strictly
    # cheaper subset replaces the best one
    for size in range(1, ncand + 1):
        for subset in itertools.combinations(range(ncand), size):
            members = set(subset)
            if any(len(members & cls) > 1 for cls in class_sets):
                continue
            try:
                docs, strings = _solve_members(model, members)
            except Infeasible:
                continue
            cost = 0.0
            for res in docs:
                cost += res.cost
            for cid, res in strings.items():
                cost += res.cost + model.costs.string_costs[cid]
            if best is None or cost < best[0] - 1e-9:
                best = (cost, subset, docs, strings)
    if best is None:
        raise Infeasible("no dictionary subset reconstructs the corpus")
    cost, subset, docs, strings = best
    doc_idx = sorted(i for res in docs for i in res.chosen)
    dict_idx = sorted(i for res in strings.values() for i in res.chosen)
    return Compression(subset,
                       tuple(model.doc_pointers[i] for i in doc_idx),
                       tuple(model.dict_pointers[i] for i in dict_idx),
                       cost)
