"""Full compression LP: instance, cuts, HiGHS solve, rounding, exact oracle.

Variables are ordered as all dictionary-membership weights (one per
candidate), then all document pointer weights, then all dictionary pointer
weights, every one bounded to [0, 1].  Rows are per-position coverage for
documents (>= 1) and candidates (>= membership weight), one linking row
per string-using pointer, and optional per-class cut rows limiting each
right-extension equivalence class to one dictionary member.

An LPInstance is the model plus its cut rows; no matrix is built for it.
solve_lp builds the full program once as compressed sparse columns
(sparse_program) and solves it in one simplex.run.  The model's pointers
are int arrays (model.Pointers), so sparse_program lays out every column's
coverage rows with repeat and arange, and the row count is one count of
string-kind pointers.

Once the dictionary is fixed, the program splits into one interval-cover
DP per document and per member string.  Each model builds one
reconstruction instance per target once (ModelInstance.recon_instances);
_solve_members runs one DP per target on them, which skips the intervals
whose source is not a member, and rounding, prune_descent and exact_solve
all evaluate dictionaries through it.  Rounding keeps every candidate with
membership weight above a snap threshold, re-solves all reconstructions
restricted to that dictionary, and prunes strings that end up unused
(taking the transitive closure of use through string-kind reconstruction
pointers, which is the fixed point of repeated pruning).  These steps work
on pointer id lists; a Compression's pointer arrays are gathered from the
model once, for the compression that is returned.  price and
compression_errors are array operations on those arrays: pointers are found
in the model by packed keys, substrings are matched by one gather per
source position, and coverage is counted per target from run offsets.
Each pointer set packs and sorts its keys once, and each model builds
its symbol pool once, on first use.

solve_lp also returns a certified lower bound, LPSolution.bound: the
weak-duality bound of HiGHS's row duals (simplex.dual_bound), computed
here from the program, never read from the solver.  No binary compression
costs less than the LP value (cut rows included, since they keep a binary
optimum), so none costs less than the bound.  Rounding uses it to skip
work whose result would be discarded: a compression counts as reaching
the bound when it costs at most BOUND_MARGIN = 1e-10 more, a tenth of the
1e-9 by which a cheaper compression must beat an incumbent.  So an
epsilon-rounding that reaches the bound is returned without
prune_descent, and prune_descent ends its scan and its descent at the
first trial that reaches it: no later trial could beat either by 1e-9.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import simplex
from .corpus import EquivalenceClasses, equivalence_classes
from .errors import Infeasible, InvalidParam, NumericalFailure, TooLarge
from .model import CHAR_CODE, DOCUMENT_CODE, STRING_CODE, ModelInstance, Pointers
from .recon import ReconResult, solve_dp

ROUND_EPS = 1e-6
EXACT_LIMIT = 12  # most candidates exact_solve enumerates by default
# a compression within this of a lower bound counts as reaching it: a tenth
# of the 1e-9 that a cheaper compression must beat an incumbent by, so float
# error in summed costs cannot turn a skip into a lost improvement
BOUND_MARGIN = 1e-10


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
        return (model.corpus.total_symbols + int(model.candidates.lengths.sum())
                + len(model.doc_pointers)
                + int(np.count_nonzero(model.dict_pointers.kind == STRING_CODE))
                + len(self.cut_members))


@dataclass
class LPSolution:
    values: np.ndarray
    objective: float
    bound: float  # weak-duality bound from HiGHS's row duals, <= every compression
    basis_summary: dict
    instance: LPInstance

    def string_value(self, cid: int) -> float:
        return float(self.values[cid])

    def is_integral(self) -> bool:
        v = self.values
        return bool(np.all((np.abs(v) <= ROUND_EPS) | (np.abs(v - 1.0) <= ROUND_EPS)))


def cut_classes(model: ModelInstance) -> EquivalenceClasses:
    """Right-extension classes for the LP's and the exhaustive oracle's cuts,
    which need nonnegative costs and one membership cost for every string."""
    costs = model.costs
    if not costs.nonnegative() or len(set(costs.string_costs)) > 1:
        raise InvalidParam("equivalence cuts require the symmetric cost scheme")
    return equivalence_classes(model.candidates)


def build_lp(model: ModelInstance, cuts: bool = False) -> LPInstance:
    """The model's relaxation; with cuts, one cut row per multi-member
    right-extension class."""
    return LPInstance(model, cut_classes(model).multi_member() if cuts else [])


def sparse_program(lp: LPInstance) -> simplex.SparseProgram:
    """The full program as CSC arrays.  Variables are in n_vars order;
    rows are the coverage rows (document positions >= 1, candidate
    positions >= 0), one linking row (<= 0) per pointer with a source
    string, in pointer order, then the cut rows (<= 1).
    Each column's coverage entries are one run of rows, laid out with
    repeat and arange from the column's first row and length."""
    model = lp.model
    lengths = model.candidates.lengths
    n_strings = len(lengths)
    doc_first = np.cumsum([0] + [len(doc) for doc in model.corpus.docs])[:-1]
    n_doc_cov = model.corpus.total_symbols
    cand_first = n_doc_cov + np.cumsum(lengths) - lengths
    n_cov = n_doc_cov + int(lengths.sum())
    docs, dicts = model.doc_pointers, model.dict_pointers
    # coverage: each membership column -1 on its string's rows, each pointer
    # column +1 on the rows it fills
    first = np.concatenate([cand_first, doc_first[docs.target] + docs.location - 1,
                            cand_first[dicts.target] + dicts.location - 1])
    count = lengths[np.concatenate([np.arange(n_strings), docs.source, dicts.source])]
    run_start = np.cumsum(count) - count
    cov_rows = np.arange(int(count.sum())) + np.repeat(first - run_start, count)
    cov_cols = np.repeat(np.arange(len(first)), count)
    # linking: pointer column +1 and its source's membership column -1
    linked = np.concatenate([np.ones(len(docs), dtype=bool), dicts.kind == STRING_CODE])
    link_cols = n_strings + np.flatnonzero(linked)
    link_sources = np.concatenate([docs.source, dicts.source])[linked]
    n_links = len(link_cols)
    link_rows = n_cov + np.arange(n_links)
    cut_rows = n_cov + n_links + np.repeat(np.arange(len(lp.cut_members)),
                                           [len(members) for members in lp.cut_members])
    cut_cols = np.fromiter(itertools.chain.from_iterable(lp.cut_members), dtype=np.int64,
                           count=len(cut_rows))
    rows = np.concatenate([cov_rows, link_rows, link_rows, cut_rows])
    cols = np.concatenate([cov_cols, link_cols, link_sources, cut_cols])
    values = np.ones(len(rows))
    values[:int(lengths.sum())] = -1.0
    values[len(cov_rows) + n_links:len(cov_rows) + 2 * n_links] = -1.0
    costs = model.costs
    n = len(first)
    n_cuts = len(lp.cut_members)
    row_lower = np.concatenate([np.ones(n_doc_cov), np.zeros(n_cov - n_doc_cov),
                                np.full(n_links + n_cuts, -np.inf)])
    row_upper = np.concatenate([np.full(n_cov, np.inf), np.zeros(n_links), np.ones(n_cuts)])
    cost = np.array(costs.string_costs + costs.doc_costs + costs.dict_costs, dtype=float)
    return simplex.SparseProgram(cost, np.zeros(n), np.ones(n), row_lower, row_upper,
                                 *simplex.csc(n, rows, cols, values))


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
    program = sparse_program(lp)
    try:
        result = simplex.run(program)
    except MemoryError:
        raise TooLarge(f"out of memory solving the relaxation: {lp.n_rows} rows, "
                       f"{lp.n_vars} columns") from None
    if result.status != "optimal":
        raise NumericalFailure(f"the relaxation came back {result.status}")
    return LPSolution(result.x, result.objective, simplex.dual_bound(program, result.row_dual),
                      {"iterations": result.iterations}, lp)


def reaches_bound(objective: float, bound: float) -> bool:
    """Whether a compression of this objective is as cheap as any can be
    under the lower bound, so no other one can beat it by 1e-9."""
    return bound >= objective - BOUND_MARGIN


@dataclass(frozen=True)
class Compression:
    """A binary compression: the dictionary, the document pointer set, and
    the dictionary pointer set, with its objective under the cost model.
    The fingerprint hashes the repr of the three, the pointer sets written
    as tuples of Pointer values."""

    dictionary: tuple[int, ...]
    doc_pointers: Pointers
    dict_pointers: Pointers
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


class _Selection(NamedTuple):
    """A dictionary's reconstruction: retained strings and chosen pointer
    ids, ascending, with their total cost."""

    retained: list[int]
    doc_idx: list[int]
    dict_idx: list[int]
    objective: float


def _select(model: ModelInstance, docs: list[ReconResult],
            strings: dict[int, ReconResult]) -> _Selection:
    """Prune to the transitive closure of actual use (the fixed point of
    dropping unused strings) and price the result, on id lists only."""
    doc_sources, dict_needs = model.needs
    doc_chosen = [i for res in docs for i in res.chosen]
    used = {doc_sources[i] for i in doc_chosen}
    frontier = list(used)
    while frontier:
        cid = frontier.pop()
        for i in strings[cid].chosen:
            source = dict_needs[i]
            if source is not None and source not in used:
                used.add(source)
                frontier.append(source)
    retained = sorted(used)
    dict_idx = sorted(i for cid in retained for i in strings[cid].chosen)
    doc_idx = sorted(doc_chosen)
    costs = model.costs
    objective = (sum(costs.doc_costs[i] for i in doc_idx)
                 + sum(costs.dict_costs[i] for i in dict_idx)
                 + sum(costs.string_costs[cid] for cid in retained))
    return _Selection(retained, doc_idx, dict_idx, objective)


def _compression(model: ModelInstance, selection: _Selection) -> Compression:
    return Compression(tuple(selection.retained), model.doc_pointers[selection.doc_idx],
                       model.dict_pointers[selection.dict_idx], selection.objective)


def _assemble(model: ModelInstance, docs: list[ReconResult],
              strings: dict[int, ReconResult]) -> Compression:
    return _compression(model, _select(model, docs, strings))


def round_to_compression(solution: LPSolution, model: ModelInstance) -> Compression:
    """The epsilon-rounding of the solution, sharpened by prune_descent
    unless it already reaches the solution's bound."""
    members = {cid for cid in range(len(model.candidates))
               if solution.string_value(cid) > ROUND_EPS}
    comp = _assemble(model, *_solve_members(model, members))
    if reaches_bound(comp.objective, solution.bound):
        return comp
    return prune_descent(comp, model, solution.bound)


SWAP_BUDGET = 80000  # cap on (moves x pointer universe) for swap/add search


def prune_descent(comp: Compression, model: ModelInstance,
                  bound: float = -math.inf) -> Compression:
    """Best-improvement local search over the rounded dictionary: drop one
    member at a time (and, on small instances, swap a member for an outside
    candidate or add one), re-solving every reconstruction against the new
    dictionary, while the objective strictly decreases.  Each step keeps a
    valid binary compression, so this only sharpens the rounding and is a
    no-op when the input is already a binary optimum.  Trials are compared
    on id lists; only the result is laid out as pointer arrays.  A trial
    that reaches the lower bound ends the scan and the descent, since no
    later trial could beat it."""
    members = set(comp.dictionary)
    best: _Selection | None = None
    best_objective = comp.objective
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
                candidate = _select(model, *_solve_members(model, trial))
            except Infeasible:
                continue
            if candidate.objective < best_objective - 1e-9 and (
                    improved is None or candidate.objective < improved.objective - 1e-9):
                improved = candidate
                if reaches_bound(improved.objective, bound):
                    return _compression(model, improved)
        if improved is None:
            return comp if best is None else _compression(model, best)
        best = improved
        best_objective = best.objective
        members = set(best.retained)


def price(comp: Compression, model: ModelInstance) -> float:
    """The compression's objective under the model's costs, each pointer
    found in the model by its packed key; a pointer or a dictionary id
    outside the model's universe raises KeyError."""
    costs = model.costs
    doc_idx = model.doc_pointers.find(comp.doc_pointers)
    dict_idx = model.dict_pointers.find(comp.dict_pointers)
    if ((doc_idx < 0).any() or (dict_idx < 0).any()
            or not all(0 <= cid < len(costs.string_costs) for cid in comp.dictionary)):
        raise KeyError("pointer or string outside the model universe")
    return (sum(costs.string_costs[cid] for cid in comp.dictionary)
            + sum([costs.doc_costs[i] for i in doc_idx.tolist()])
            + sum([costs.dict_costs[i] for i in dict_idx.tolist()]))


def _within(ids: np.ndarray, n: int) -> np.ndarray:
    return (ids >= 0) & (ids < n)


def _valid_placements(ptrs: Pointers, model: ModelInstance) -> np.ndarray:
    """Per pointer: its target and source ids exist, its kind's source rule
    holds (a unigram for a character slot, a proper substring for a string
    pointer), and the target's symbols at its location equal the source.
    The match is one gather per source position from a pool of every
    document's symbols followed by the candidates' padded symbol rows."""
    pool, padded, doc_len = model.symbol_pool
    n_strings, width = padded.shape
    doc_first = np.cumsum(doc_len) - doc_len
    n_symbols = len(pool) - padded.size
    lengths = model.candidates.lengths
    is_doc = ptrs.kind == DOCUMENT_CODE
    valid = (_within(ptrs.source, n_strings)
             & _within(ptrs.target, np.where(is_doc, len(doc_len), n_strings)))
    source = np.where(valid, ptrs.source, 0)
    doc_target = np.where(valid & is_doc, ptrs.target, 0)
    cand_target = np.where(valid & ~is_doc, ptrs.target, 0)
    src_len = lengths[source]
    tgt_len = np.where(is_doc, doc_len[doc_target], lengths[cand_target])
    valid &= np.where(ptrs.kind == CHAR_CODE, src_len == 1, True)
    valid &= np.where(ptrs.kind == STRING_CODE, src_len < tgt_len, True)
    lo = ptrs.location - 1
    valid &= (lo >= 0) & (lo + src_len <= tgt_len)
    at = np.where(is_doc, doc_first[doc_target], n_symbols + cand_target * width)
    at = np.where(valid, at + lo, 0)  # where the source's first symbol lands
    for j in range(width):
        used = valid & (j < src_len)
        valid &= ~used | (pool[np.where(used, at + j, 0)] == padded[source, j])
    return valid


def _misfits(first: np.ndarray, length: np.ndarray, target: np.ndarray,
             target_len: np.ndarray) -> np.ndarray:
    """Per target: whether the runs [first, first + length) (1-based, one
    per pointer into that target) leave a position uncovered or cover one
    past either end."""
    spills = (first < 1) | (first - 1 + length > target_len[target])
    misfit = np.zeros(len(target_len), dtype=bool)
    misfit[target[spills]] = True
    fits = ~spills
    offset = np.cumsum(target_len) - target_len
    lo = offset[target[fits]] + first[fits] - 1
    size = int(target_len.sum())
    depth = np.cumsum(np.bincount(lo, minlength=size + 1)
                      - np.bincount(lo + length[fits], minlength=size + 1))
    uncovered = np.add.reduceat(depth[:size] == 0, offset) > 0
    return misfit | uncovered


def compression_errors(comp: Compression, model: ModelInstance) -> list[str]:
    """Full validity check: coverage of documents and dictionary strings,
    membership of every string-using pointer source, proper-substring rule,
    acyclicity, and the recorded objective.  Every check is an array
    operation over the pointer sets; a pointer whose target or source id
    does not exist is reported invalid and takes part in no other check,
    and a dictionary id that does not exist is reported and dropped."""
    errors = []
    docs, dicts = comp.doc_pointers, comp.dict_pointers
    lengths = model.candidates.lengths
    n_docs, n_cands = len(model.corpus.docs), len(lengths)
    members = set(comp.dictionary)
    unknown = sorted(cid for cid in members if not 0 <= cid < n_cands)
    for cid in unknown:
        errors.append(f"dictionary string {cid} does not exist")
    members.difference_update(unknown)
    member = np.zeros(n_cands, dtype=bool)
    member[list(members)] = True

    def is_member(ids):
        return _within(ids, n_cands) & member[np.where(_within(ids, n_cands), ids, 0)]

    both = docs + dicts
    for i in np.flatnonzero(~_valid_placements(both, model)).tolist():
        errors.append(f"invalid pointer {both[i]}")
    known = _within(docs.target, n_docs) & _within(docs.source, n_cands)
    _, _, doc_len = model.symbol_pool
    misfit = _misfits(docs.location[known], lengths[docs.source[known]],
                      docs.target[known], doc_len)
    for d in np.flatnonzero(misfit).tolist():
        errors.append(f"document {model.corpus.docs[d].id} not fully reconstructed")
    into_member = is_member(dicts.target)
    for i in np.flatnonzero(~into_member).tolist():
        errors.append(f"dictionary pointer targets non-member {dicts[i]}")
    known = into_member & _within(dicts.source, n_cands)
    misfit = _misfits(dicts.location[known], lengths[dicts.source[known]],
                      dicts.target[known], lengths)
    for cid in members:
        if misfit[cid]:
            errors.append(f"dictionary string {cid} not fully reconstructed")
    for i in np.flatnonzero(~is_member(docs.source)).tolist():
        errors.append(f"document pointer uses non-member source {docs[i]}")
    string = dicts.kind == STRING_CODE
    outside = string & ~is_member(dicts.source)
    known = _within(dicts.source, n_cands) & _within(dicts.target, n_cands)
    improper = string & known & (lengths[np.where(known, dicts.source, 0)]
                                 >= lengths[np.where(known, dicts.target, 0)])
    for i in np.flatnonzero(outside | improper).tolist():
        if outside[i]:
            errors.append(f"string pointer uses non-member source {dicts[i]}")
        if improper[i]:
            errors.append(f"string pointer source not a proper substring {dicts[i]}")
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
    return Compression(subset, model.doc_pointers[doc_idx], model.dict_pointers[dict_idx],
                       cost)
