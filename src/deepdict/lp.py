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
whose source is not a member, and rounding and exact_solve evaluate
dictionaries through it.  prune_descent solves its starting dictionary
the same way, then keeps every target's result and, per trial, solves
again only the targets whose result the trial can change; it skips
without a DP the drop trials that would leave a document position
uncovered, and prices only the trials that an estimate of their
objective cannot rule out.  Rounding keeps every candidate with
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
Given the objective of a compression in hand as a cutoff, solve_lp lets
HiGHS stop once its dual objective passes it, and returns early only
when the bound of the duals it stopped at reaches the cutoff.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Iterable
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
    objective: float  # the LP value; nan when the solve stopped at a cutoff
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
    exactly when the unigram on that position is a candidate: no longer
    n-gram through it occurs more often than the unigram.  Candidates from
    enumerate_candidates keep every unigram, so only a candidate set
    filtered some other way can fail this."""
    for doc in model.corpus.docs:
        for pos, sym in enumerate(doc.symbols, start=1):
            if (sym,) not in model.candidates.index:
                raise Infeasible(
                    f"document {doc.id} position {pos} has no covering pointer; "
                    "its unigram is not a candidate")


def solve_lp(lp: LPInstance, cutoff: float | None = None) -> LPSolution:
    """Optimal solution of the instance's relaxation: the full program,
    built once as CSC arrays, in one HiGHS run.  A cutoff is the objective
    of a compression already in hand.  HiGHS gets it as its objective
    bound, and where it stops there and the bound certified from the duals
    it stopped at reaches the cutoff, that solution is returned: only its
    bound counts, its values are not optimal and its objective is nan.
    Where that bound falls short, the program is solved again without the
    cutoff.  Running out of memory raises TooLarge with the program's
    size."""
    if not lp.model.costs.nonnegative():
        raise InvalidParam("the simplex path requires nonnegative costs; "
                           "negative-cost landmarks are solved by inspection")
    check_coverable(lp.model)
    # coverable rows and [0, 1] variables make the program feasible and
    # bounded, so any other status is a solver failure
    stage = "assembling"
    try:
        program = sparse_program(lp)
        stage = "solving"
        result = simplex.run(program, cutoff)
        iterations = result.iterations
        bound = simplex.dual_bound(program, result.row_dual)
        if result.status == "objective_bound":
            if reaches_bound(cutoff, bound):
                return LPSolution(result.x, math.nan, bound, {"iterations": iterations}, lp)
            result = simplex.run(program)
            iterations += result.iterations
            bound = simplex.dual_bound(program, result.row_dual)
    except MemoryError:
        raise TooLarge(f"out of memory {stage} the relaxation: {lp.n_rows} rows, "
                       f"{lp.n_vars} columns") from None
    if result.status != "optimal":
        raise NumericalFailure(f"the relaxation came back {result.status}")
    return LPSolution(result.x, result.objective, bound, {"iterations": iterations}, lp)


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
    used = set().union(*(res.uses for res in docs))
    frontier = list(used)
    while frontier:
        new = strings[frontier.pop()].uses - used
        used |= new
        frontier += new
    retained = sorted(used)
    doc_idx = sorted(itertools.chain.from_iterable(res.chosen for res in docs))
    dict_idx = sorted(itertools.chain.from_iterable(strings[cid].chosen for cid in retained))
    # summed in ascending id order, one list at a time, whichever results
    # the lists come from, so that equal selections price to equal floats
    costs = model.costs
    objective = (sum(map(costs.doc_costs.__getitem__, doc_idx))
                 + sum(map(costs.dict_costs.__getitem__, dict_idx))
                 + sum(map(costs.string_costs.__getitem__, retained)))
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
# a trial whose estimated objective exceeds the one to beat by more than
# this share of it cannot be accepted: a float sum of N nonnegative costs,
# the estimate's or _select's, is within N * 2**-53 of it relatively, far
# inside this for any N below 10**8
ESTIMATE_SLACK = 1e-6


def _users(results: Iterable[tuple[int, ReconResult]]) -> dict[int, list[int]]:
    """Per string: the targets, of the (target, result) pairs, whose chosen
    reconstruction uses it."""
    users: dict[int, list[int]] = {}
    for target, res in results:
        for source in res.uses:
            users.setdefault(source, []).append(target)
    return users


def _essential(model: ModelInstance, members: set[int], doc_first: np.ndarray) -> set[int]:
    """The members that some document position cannot do without.  Per
    position, the least and the greatest source among the member-sourced
    document pointers that cover it are equal exactly when one member
    covers it alone.  Dropping such a member leaves the position without a
    pointer, and dropping any other leaves every position a pointer, from
    which the DP builds a cover (member strings keep their character
    slots); so a drop trial is infeasible exactly when the member is
    essential."""
    ptrs = model.doc_pointers
    member = np.zeros(len(model.candidates), dtype=bool)
    member[list(members)] = True
    keep = member[ptrs.source]
    source = ptrs.source[keep]
    length = model.candidates.lengths[source]
    first = doc_first[ptrs.target[keep]] + ptrs.location[keep] - 1
    run_start = np.cumsum(length) - length
    position = np.arange(int(length.sum())) + np.repeat(first - run_start, length)
    covering = np.repeat(source, length)
    n_symbols = model.corpus.total_symbols
    least = np.full(n_symbols, len(model.candidates))
    np.minimum.at(least, position, covering)
    greatest = np.full(n_symbols, -1)
    np.maximum.at(greatest, position, covering)
    return set(least[least == greatest].tolist())


class _Reconstructions:
    """prune_descent's state: every target's reconstruction under the
    current dictionary, the strings that the selection of those results
    retains, so that each member is used by a document or another member,
    with the targets that use each member and the selection's objective."""

    def __init__(self, model: ModelInstance, docs: list[ReconResult],
                 strings: dict[int, ReconResult], selection: _Selection) -> None:
        self.model = model
        self.docs = docs
        self.strings = {cid: strings[cid] for cid in selection.retained}
        self.objective = selection.objective
        self.doc_users = _users(enumerate(docs))
        self.string_users = _users(self.strings.items())

    def solve_trial(self, dropped: int | None, added: int | None
                    ) -> tuple[dict[int, ReconResult], dict[int, ReconResult]]:
        """The reconstructions that a trial dropping and adding these
        strings changes, by document and by string: solved again for the
        targets whose chosen cover uses the dropped string, the targets
        with a pointer that needs the added one, and the added one itself.
        Raises Infeasible when one of them cannot be covered."""
        trial = set(self.strings)
        doc_redo: set[int] = set()
        string_redo: set[int] = set()
        if dropped is not None:
            trial.remove(dropped)
            doc_redo.update(self.doc_users.get(dropped, ()))
            string_redo.update(self.string_users.get(dropped, ()))
        if added is not None:
            trial.add(added)
            doc_dependents, string_dependents = self.model.dependents
            doc_redo |= doc_dependents[added]
            string_redo |= string_dependents[added] & trial
            string_redo.add(added)
        doc_inst, dict_inst = self.model.recon_instances
        return ({k: solve_dp(doc_inst[k], trial) for k in doc_redo},
                {cid: solve_dp(dict_inst[cid], trial) for cid in string_redo})

    def estimate(self, dropped: int | None, docs: dict[int, ReconResult],
                 strings: dict[int, ReconResult]) -> float:
        """The trial's objective, up to float error, from what it changes:
        the changed results' costs, and the strings that leave the
        dictionary because no retained target uses them any more (found by
        counting users, in cascade, since covers use shorter strings)."""
        string_costs = self.model.costs.string_costs
        total = self.objective
        change: dict[int, int] = {}  # change in each string's number of users

        def count(res: ReconResult, step: int) -> None:
            for cid in res.uses:
                change[cid] = change.get(cid, 0) + step

        for k, res in docs.items():
            total += res.cost - self.docs[k].cost
            count(self.docs[k], -1)
            count(res, 1)
        for cid, res in strings.items():
            old = self.strings.get(cid)
            if old is None:  # the added string
                total += string_costs[cid] + res.cost
                change.setdefault(cid, 0)
            else:
                total += res.cost - old.cost
                count(old, -1)
            count(res, 1)
        if dropped is not None:
            total -= string_costs[dropped] + self.strings[dropped].cost
            count(self.strings[dropped], -1)

        def unused(cid: int) -> bool:
            users = len(self.doc_users.get(cid, ())) + len(self.string_users.get(cid, ()))
            return cid != dropped and users + change.get(cid, 0) == 0

        leaving = [cid for cid in change if unused(cid)]
        while leaving:
            cid = leaving.pop()
            res = strings[cid] if cid in strings else self.strings[cid]
            total -= string_costs[cid] + res.cost
            count(res, -1)
            leaving += [source for source in res.uses if unused(source)]
        return total

    def results(self, dropped: int | None, docs: dict[int, ReconResult],
                strings: dict[int, ReconResult]
                ) -> tuple[list[ReconResult], dict[int, ReconResult]]:
        """Every reconstruction under the trial dictionary, as _solve_members
        lists them: the changed results over the current ones."""
        trial_docs = list(self.docs)
        for k, res in docs.items():
            trial_docs[k] = res
        trial_strings = {cid: res for cid, res in self.strings.items() if cid != dropped}
        trial_strings.update(strings)
        return trial_docs, trial_strings


def prune_descent(comp: Compression, model: ModelInstance,
                  bound: float = -math.inf) -> Compression:
    """Best-improvement local search over a valid compression's dictionary,
    from the strings its reconstructions use (all of it, for a compression
    that rounding assembles): drop one member at a time (and, on small
    instances, swap a member for an outside candidate or add one), while
    the objective strictly decreases.  Each step keeps a valid binary
    compression, so this only sharpens the rounding and is a no-op when the
    input is already a binary optimum.  Trials are compared on id lists;
    only the result is laid out as pointer arrays.  A trial that reaches
    the lower bound ends the scan and the descent, since no later trial
    could beat it.

    The search is incremental, and its outputs are those of re-solving
    every reconstruction per trial.  It keeps each target's reconstruction
    under the current dictionary, and a trial solves again only the
    targets whose result can change (_Reconstructions.solve_trial).  Every
    other target keeps its result, which is what solve_dp returns on the
    trial:
    - Removing intervals that the chosen cover does not use can only raise
      dp values.  The chosen path keeps its values, every interval ranked
      before it on its end only gets dearer, and a prefix ranked before
      its predecessor only dearer too, so the tie rules pick the same
      intervals.
    - Adding intervals changes nothing for a target that has none of them.
    A drop trial of an essential member (_essential) raises Infeasible, so
    it is skipped unsolved.  A trial whose estimated objective exceeds the
    one to beat by more than ESTIMATE_SLACK of it, far beyond float error,
    cannot be accepted and is not priced.  Every other feasible trial is
    priced by _select on its full result lists, so objectives sum in the
    order of a full re-solve.  The accepted trial's results, restricted to
    its retained strings (whose covers use no other), are the next
    round's, so the estimate can count on every member being used."""
    doc_first = np.cumsum([0] + [len(doc) for doc in model.corpus.docs])[:-1]
    docs, strings = _solve_members(model, set(comp.dictionary))
    state = _Reconstructions(model, docs, strings, _select(model, docs, strings))
    best: _Selection | None = None
    best_objective = comp.objective
    all_cids = set(range(len(model.candidates)))
    universe = len(model.doc_pointers) + len(model.dict_pointers)
    while True:
        members = set(state.strings)
        outside = sorted(all_cids - members)
        trials: list[tuple[int | None, int | None]] = []  # (dropped, added)
        if len(members) > 1:
            essential = _essential(model, members, doc_first)
            trials += [(cid, None) for cid in sorted(members) if cid not in essential]
        if (len(members) + 1) * len(outside) * universe <= SWAP_BUDGET:
            trials += [(cid, new) for cid in sorted(members) for new in outside]
            trials += [(None, new) for new in outside]
        improved = None
        for dropped, added in trials:
            try:
                docs, strings = state.solve_trial(dropped, added)
            except Infeasible:
                continue
            to_beat = (best_objective if improved is None else improved[0].objective) - 1e-9
            estimate = state.estimate(dropped, docs, strings)
            if estimate - ESTIMATE_SLACK * (1.0 + abs(estimate)) >= to_beat:
                continue
            results = state.results(dropped, docs, strings)
            candidate = _select(model, *results)
            if candidate.objective < to_beat:
                improved = (candidate, results)
                if reaches_bound(candidate.objective, bound):
                    return _compression(model, candidate)
        if improved is None:
            return comp if best is None else _compression(model, best)
        best, (docs, strings) = improved
        best_objective = best.objective
        state = _Reconstructions(model, docs, strings, best)


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
    # cheaper subset replaces the best one.  The unigrams form a subset that
    # covers a coverable model, and no class holds two of them, so some
    # subset always does
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
    cost, subset, docs, strings = best
    doc_idx = sorted(i for res in docs for i in res.chosen)
    dict_idx = sorted(i for res in strings.values() for i in res.chosen)
    return Compression(subset, model.doc_pointers[doc_idx], model.dict_pointers[dict_idx],
                       cost)
