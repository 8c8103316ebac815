"""Full compression LP: assembly, cuts, simplex solve, rounding, exact oracle.

Variables are ordered as all dictionary-membership weights (one per
candidate), then all document pointer weights, then all dictionary pointer
weights, every one bounded to [0, 1].  Rows are per-position coverage for
documents (>= 1) and candidates (>= membership weight), one linking row
per string-using pointer, and optional per-class cut rows limiting each
right-extension equivalence class to one dictionary member.

solve_lp always solves by delayed column generation in one simplex
session, at every size; the dense program that build_lp assembles is the
reference form that simplex.solve and lp_text read.

Rounding keeps every candidate with membership weight above a snap
threshold, re-solves all reconstructions restricted to that dictionary,
and prunes strings that end up unused (taking the transitive closure of
use through string-kind reconstruction pointers, which is the fixed point
of repeated pruning).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import simplex
from .corpus import EquivalenceClasses, equivalence_classes
from .errors import Infeasible, InvalidParam, NumericalFailure, TooLarge
from .model import (CONSTANT_DICT_COST, DICT_CHAR, DICT_STRING, DOCUMENT,
                    ModelInstance, Pointer)
from .recon import Interval, ReconInstance, solve_dp

ROUND_EPS = 1e-6


@dataclass
class LPInstance:
    model: ModelInstance
    program: simplex.LinearProgram
    n_strings: int
    n_doc: int
    n_dict: int
    row_meta: list[tuple]
    cuts: bool = False

    @property
    def n_vars(self) -> int:
        return self.n_strings + self.n_doc + self.n_dict

    def string_col(self, cid: int) -> int:
        return cid

    def doc_col(self, i: int) -> int:
        return self.n_strings + i

    def dict_col(self, i: int) -> int:
        return self.n_strings + self.n_doc + i

    def fixing_strings(self, values: dict[int, float]) -> "LPInstance":
        """A copy of this instance with the given membership variables
        pinned (lower = upper = value)."""
        prog = self.program
        lower = prog.lower.copy()
        upper = prog.upper.copy()
        for cid, val in values.items():
            lower[cid] = val
            upper[cid] = val
        fixed = simplex.LinearProgram(prog.objective, prog.rows, prog.senses,
                                      prog.rhs, lower, upper)
        return LPInstance(self.model, fixed, self.n_strings, self.n_doc,
                          self.n_dict, self.row_meta, self.cuts)


@dataclass
class LPSolution:
    values: np.ndarray
    objective: float
    status: str
    basis_summary: dict
    instance: LPInstance

    def string_value(self, cid: int) -> float:
        return float(self.values[self.instance.string_col(cid)])

    def doc_value(self, i: int) -> float:
        return float(self.values[self.instance.doc_col(i)])

    def dict_value(self, i: int) -> float:
        return float(self.values[self.instance.dict_col(i)])

    def is_integral(self, eps: float = ROUND_EPS) -> bool:
        v = self.values
        return bool(np.all((np.abs(v) <= eps) | (np.abs(v - 1.0) <= eps)))


def _cut_rows(model: ModelInstance,
              classes: EquivalenceClasses | None) -> list[list[int]]:
    if classes is None:
        classes = equivalence_classes(model.candidates, model.corpus)
    scheme = model.costs.scheme
    if scheme is None or scheme.negate or scheme.dict_cost_mode != CONSTANT_DICT_COST:
        raise InvalidParam("equivalence cuts require the symmetric cost scheme")
    return classes.multi_member()


def _assemble_program(model: ModelInstance, doc_idx: list[int], dict_idx: list[int],
                      cut_members: list[list[int]]):
    """Dense program over the membership variables plus the given subset of
    pointer variables; pointers outside the subset are fixed at zero, which
    only their own linking rows would reference."""
    cands = model.candidates
    n_strings = len(cands)
    n = n_strings + len(doc_idx) + len(dict_idx)

    row_meta: list[tuple] = []
    doc_cov_base = {}
    for doc in model.corpus.docs:
        doc_cov_base[doc.id] = len(row_meta)
        for pos in range(1, len(doc) + 1):
            row_meta.append(("doc_cov", doc.id, pos))
    dict_cov_base = {}
    for cid in range(n_strings):
        dict_cov_base[cid] = len(row_meta)
        for pos in range(1, cands.length(cid) + 1):
            row_meta.append(("dict_cov", cid, pos))
    n_cov = len(row_meta)
    for i in doc_idx:
        row_meta.append(("link_doc", i))
    for i in dict_idx:
        if model.dict_pointers[i].kind == DICT_STRING:
            row_meta.append(("link_dict", i))
    for members in cut_members:
        row_meta.append(("cut", tuple(members)))

    m = len(row_meta)
    rows = np.zeros((m, n))
    senses = np.empty(m, dtype=int)
    rhs = np.zeros(m)
    senses[:n_cov] = simplex.GE
    for r in range(n_cov):
        rhs[r] = 1.0 if row_meta[r][0] == "doc_cov" else 0.0
    for cid in range(n_strings):
        base = dict_cov_base[cid]
        rows[base: base + cands.length(cid), cid] = -1.0
    for col, i in enumerate(doc_idx):
        ptr = model.doc_pointers[i]
        base = doc_cov_base[ptr.target] + ptr.location - 1
        rows[base: base + cands.length(ptr.source), n_strings + col] = 1.0
    for col, i in enumerate(dict_idx):
        ptr = model.dict_pointers[i]
        base = dict_cov_base[ptr.target] + ptr.location - 1
        rows[base: base + cands.length(ptr.source),
             n_strings + len(doc_idx) + col] = 1.0
    doc_col = {i: n_strings + c for c, i in enumerate(doc_idx)}
    dict_col = {i: n_strings + len(doc_idx) + c for c, i in enumerate(dict_idx)}
    for r in range(n_cov, m):
        meta = row_meta[r]
        senses[r] = simplex.LE
        if meta[0] == "link_doc":
            rhs[r] = 0.0
            rows[r, doc_col[meta[1]]] = 1.0
            rows[r, model.doc_pointers[meta[1]].source] = -1.0
        elif meta[0] == "link_dict":
            rhs[r] = 0.0
            rows[r, dict_col[meta[1]]] = 1.0
            rows[r, model.dict_pointers[meta[1]].source] = -1.0
        else:
            rhs[r] = 1.0
            for cid in meta[1]:
                rows[r, cid] = 1.0
    costs = model.costs
    objective = np.concatenate([
        np.array(costs.string_costs, dtype=float),
        np.array([costs.doc_costs[i] for i in doc_idx], dtype=float),
        np.array([costs.dict_costs[i] for i in dict_idx], dtype=float),
    ])
    program = simplex.LinearProgram(objective, rows, senses, rhs,
                                    np.zeros(n), np.ones(n))
    return program, row_meta, doc_cov_base, dict_cov_base


def build_lp(model: ModelInstance, cuts: bool = False,
             classes: EquivalenceClasses | None = None) -> LPInstance:
    cut_members = _cut_rows(model, classes) if cuts else []
    program, row_meta, _, _ = _assemble_program(
        model, list(range(len(model.doc_pointers))),
        list(range(len(model.dict_pointers))), cut_members)
    return LPInstance(model, program, len(model.candidates),
                      len(model.doc_pointers), len(model.dict_pointers),
                      row_meta, cuts)


def add_equivalence_cuts(lp: LPInstance, classes: EquivalenceClasses) -> LPInstance:
    if lp.cuts:
        return lp
    return build_lp(lp.model, cuts=True, classes=classes)


def check_coverable(model: ModelInstance) -> None:
    """Every document position must admit at least one pointer, which holds
    exactly when every unigram on that position survived the count filter."""
    for doc in model.corpus.docs:
        covered = [False] * len(doc)
        for ptr in model.doc_pointers:
            if ptr.target != doc.id:
                continue
            length = model.candidates.length(ptr.source)
            for pos in range(ptr.location - 1, ptr.location - 1 + length):
                covered[pos] = True
        for pos, ok in enumerate(covered):
            if not ok:
                raise Infeasible(
                    f"document {doc.id} position {pos + 1} has no covering pointer; "
                    f"the min-count filter (m={model.candidates.min_count}) removed "
                    "every candidate there")


def _crash_vector(model: ModelInstance, doc_idx: list[int],
                  dict_idx: list[int]) -> np.ndarray:
    """Feasible warm start: every unigram in the dictionary, documents
    covered position by position, unigram strings built from their own
    character slot.  Satisfies coverage, linking, and cut rows."""
    cands = model.candidates
    n_strings = len(cands)
    start = np.zeros(n_strings + len(doc_idx) + len(dict_idx))
    for cid in range(n_strings):
        if cands.length(cid) == 1:
            start[cid] = 1.0
    for col, i in enumerate(doc_idx):
        if cands.length(model.doc_pointers[i].source) == 1:
            start[n_strings + col] = 1.0
    for col, i in enumerate(dict_idx):
        ptr = model.dict_pointers[i]
        if ptr.kind == DICT_CHAR and cands.length(ptr.target) == 1:
            start[n_strings + len(doc_idx) + col] = 1.0
    return start


COLGEN_BATCH = 24  # new columns per reconstruction target per round
COLGEN_ROUNDS = 80


def _seed_columns(pointers, lengths) -> set[int]:
    """Longest pointer at every (target, start): a cheap cover basis that
    seeds the restricted program with useful long columns."""
    by_start: dict[tuple[int, int], int] = {}
    for i, ptr in enumerate(pointers):
        key = (ptr.target, ptr.location)
        best = by_start.get(key)
        if best is None or lengths(ptr.source) > lengths(pointers[best].source):
            by_start[key] = i
    return set(by_start.values())


def _colgen_solve(model: ModelInstance, cut_members: list[list[int]]):
    """Delayed column-and-row generation: pointers outside the active set
    are fixed at zero (their linking rows are then vacuous), and a pointer
    is activated when the coverage prices of the positions it fills exceed
    its cost.  Activated pointers are appended into a live simplex session
    together with their linking rows, so each round continues from the
    previous basis instead of re-solving.  Termination certifies optimality
    for the full program."""
    cands = model.candidates
    n_strings = len(cands)
    active_doc = {i for i, p in enumerate(model.doc_pointers)
                  if cands.length(p.source) == 1}
    active_doc |= _seed_columns(model.doc_pointers, cands.length)
    # dictionary coverage is always satisfiable through the character
    # slots; string-kind seeds are worthwhile only while they keep the
    # starting program small
    active_dict = {i for i, p in enumerate(model.dict_pointers)
                   if p.kind == DICT_CHAR}
    dict_seeds = _seed_columns(model.dict_pointers, cands.length) - active_dict
    if len(dict_seeds) <= 200:
        active_dict |= dict_seeds
    doc_idx = sorted(active_doc)
    dict_idx = sorted(active_dict)
    program, _, doc_base, dict_base = _assemble_program(
        model, doc_idx, dict_idx, cut_members)
    session = simplex.IncrementalSolver(program, _crash_vector(model, doc_idx, dict_idx))
    # struct column registry: membership variables first, then pointers in
    # activation order
    doc_pos = {i: n_strings + c for c, i in enumerate(doc_idx)}
    dict_pos = {i: n_strings + len(doc_idx) + c for c, i in enumerate(dict_idx)}

    for _ in range(COLGEN_ROUNDS):
        status = session.optimize()
        if status != "optimal":
            raise NumericalFailure(f"restricted program came back {status}")
        y = session.duals()
        new_by_target: dict[tuple, list[tuple[float, int, bool]]] = {}
        for i, ptr in enumerate(model.doc_pointers):
            if i in active_doc:
                continue
            base = doc_base[ptr.target] + ptr.location - 1
            slack = y[base: base + cands.length(ptr.source)].sum() \
                - model.costs.doc_costs[i]
            if slack > 1e-9:
                new_by_target.setdefault(("doc", ptr.target), []).append((slack, i, True))
        for i, ptr in enumerate(model.dict_pointers):
            if i in active_dict:
                continue
            base = dict_base[ptr.target] + ptr.location - 1
            slack = y[base: base + cands.length(ptr.source)].sum() \
                - model.costs.dict_costs[i]
            if slack > 1e-9:
                new_by_target.setdefault(("str", ptr.target), []).append((slack, i, False))
        if not new_by_target:
            values = np.zeros(n_strings + len(model.doc_pointers)
                              + len(model.dict_pointers))
            x = session.values()
            values[:n_strings] = x[:n_strings]
            for i, pos in doc_pos.items():
                values[n_strings + i] = x[pos]
            off = n_strings + len(model.doc_pointers)
            for i, pos in dict_pos.items():
                values[off + i] = x[pos]
            return values, session.objective(), session.tab.iterations
        added: list[tuple[int, bool]] = []
        for entries in new_by_target.values():
            entries.sort(key=lambda e: (-e[0], e[1]))
            for _, i, is_doc in entries[:COLGEN_BATCH]:
                added.append((i, is_doc))
                (active_doc if is_doc else active_dict).add(i)
        m_now = len(session.senses)
        n_struct_before = len(session.struct_cols)
        cols = np.zeros((m_now, len(added)))
        costs = np.empty(len(added))
        link_rows = []
        for c, (i, is_doc) in enumerate(added):
            ptr = model.doc_pointers[i] if is_doc else model.dict_pointers[i]
            if is_doc:
                base = doc_base[ptr.target] + ptr.location - 1
                costs[c] = model.costs.doc_costs[i]
                doc_pos[i] = n_struct_before + c
            else:
                base = dict_base[ptr.target] + ptr.location - 1
                costs[c] = model.costs.dict_costs[i]
                dict_pos[i] = n_struct_before + c
            cols[base: base + cands.length(ptr.source), c] = 1.0
            if is_doc or ptr.kind == DICT_STRING:
                link_rows.append((n_struct_before + c, ptr.source))
        rows = np.zeros((len(link_rows), n_struct_before + len(added)))
        for r, (col_pos, src) in enumerate(link_rows):
            rows[r, col_pos] = 1.0
            rows[r, src] = -1.0
        session.append(cols, costs, rows, np.zeros(len(link_rows)))
    raise NumericalFailure("column generation did not converge")


def solve_lp(lp: LPInstance) -> LPSolution:
    """Optimal solution of the instance's relaxation, by column generation
    over its model and cut rows.  lp.program is the dense reference form of
    the same program; column generation cannot honour bounds pinned in it
    (fixing_strings), so such instances are rejected."""
    prog = lp.program
    if np.any(prog.lower != 0.0) or np.any(prog.upper != 1.0):
        raise InvalidParam("solve_lp keeps every variable in [0, 1]; solve a "
                           "program with pinned variables with simplex.solve")
    if not lp.model.costs.nonnegative():
        raise InvalidParam("the simplex path requires nonnegative costs; "
                           "negative-cost landmarks are solved by inspection")
    check_coverable(lp.model)
    cut_members = [list(meta[1]) for meta in lp.row_meta if meta[0] == "cut"]
    values, objective, iterations = _colgen_solve(lp.model, cut_members)
    return LPSolution(values, objective, "optimal", {"iterations": iterations}, lp)


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


def _doc_intervals(model: ModelInstance, doc_id: int, members: set[int]) -> list[Interval]:
    out = []
    for i, ptr in enumerate(model.doc_pointers):
        if ptr.target == doc_id and ptr.source in members:
            out.append(Interval(ptr.location, model.candidates.length(ptr.source),
                                model.costs.doc_costs[i], i))
    return out


def _dict_intervals(model: ModelInstance, cid: int, members: set[int]) -> list[Interval]:
    out = []
    for i, ptr in enumerate(model.dict_pointers):
        if ptr.target != cid or ptr.kind == DOCUMENT:
            continue
        if ptr.kind == DICT_STRING and ptr.source not in members:
            continue
        out.append(Interval(ptr.location, model.candidates.length(ptr.source),
                            model.costs.dict_costs[i], i))
    return out


def _solve_members(model: ModelInstance,
                   members: set[int]) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    doc_chosen: list[int] = []
    for doc in model.corpus.docs:
        result = solve_dp(ReconInstance(doc.symbols,
                                        _doc_intervals(model, doc.id, members)))
        doc_chosen.extend(result.chosen)
    dict_chosen: dict[int, tuple[int, ...]] = {}
    for cid in sorted(members):
        result = solve_dp(ReconInstance(model.candidates.strings[cid],
                                        _dict_intervals(model, cid, members)))
        dict_chosen[cid] = result.chosen
    return doc_chosen, dict_chosen


def _assemble(model: ModelInstance, doc_chosen: list[int],
              dict_chosen: dict[int, tuple[int, ...]]) -> Compression:
    """Prune to the transitive closure of actual use (the fixed point of
    dropping unused strings) and price the result."""
    used = {model.doc_pointers[i].source for i in doc_chosen}
    frontier = list(used)
    while frontier:
        cid = frontier.pop()
        for i in dict_chosen[cid]:
            ptr = model.dict_pointers[i]
            if ptr.kind == DICT_STRING and ptr.source not in used:
                used.add(ptr.source)
                frontier.append(ptr.source)
    retained = sorted(used)
    dict_ptr_idx = sorted(i for cid in retained for i in dict_chosen[cid])
    doc_ptr_idx = sorted(doc_chosen)
    objective = (sum(model.costs.doc_costs[i] for i in doc_ptr_idx)
                 + sum(model.costs.dict_costs[i] for i in dict_ptr_idx)
                 + sum(model.costs.string_costs[cid] for cid in retained))
    return Compression(tuple(retained),
                       tuple(model.doc_pointers[i] for i in doc_ptr_idx),
                       tuple(model.dict_pointers[i] for i in dict_ptr_idx),
                       objective)


def round_to_compression(solution: LPSolution, model: ModelInstance,
                         eps: float = ROUND_EPS, improve: bool = True) -> Compression:
    members = {cid for cid in range(len(model.candidates))
               if solution.string_value(cid) > eps}
    doc_chosen, dict_chosen = _solve_members(model, members)
    comp = _assemble(model, doc_chosen, dict_chosen)
    if improve:
        comp = prune_descent(comp, model)
    return comp


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
                doc_chosen, dict_chosen = _solve_members(model, trial)
            except Infeasible:
                continue
            candidate = _assemble(model, doc_chosen, dict_chosen)
            if candidate.objective < best.objective - 1e-9 and (
                    improved is None or candidate.objective < improved.objective - 1e-9):
                improved = candidate
        if improved is None:
            return best
        best = improved
        members = set(best.dictionary)


def compression_errors(comp: Compression, model: ModelInstance) -> list[str]:
    """Full validity check: coverage of documents and dictionary strings,
    membership of every string-using pointer source, proper-substring rule,
    acyclicity, and the recorded objective."""
    from .model import pointer_is_valid

    errors = []
    members = set(comp.dictionary)
    for ptr in comp.doc_pointers + comp.dict_pointers:
        if not pointer_is_valid(ptr, model.corpus, model.candidates):
            errors.append(f"invalid pointer {ptr}")
    for doc in model.corpus.docs:
        covered = set()
        for ptr in comp.doc_pointers:
            if ptr.target == doc.id:
                covered.update(range(ptr.location,
                                     ptr.location + model.candidates.length(ptr.source)))
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
    recorded = (sum(model.costs.string_costs[cid] for cid in members))
    doc_idx = {ptr: i for i, ptr in enumerate(model.doc_pointers)}
    dict_idx = {ptr: i for i, ptr in enumerate(model.dict_pointers)}
    try:
        recorded += sum(model.costs.doc_costs[doc_idx[p]] for p in comp.doc_pointers)
        recorded += sum(model.costs.dict_costs[dict_idx[p]] for p in comp.dict_pointers)
        if abs(recorded - comp.objective) > 1e-6:
            errors.append(f"objective mismatch: {recorded} vs {comp.objective}")
    except KeyError:
        errors.append("compression contains pointers outside the model universe")
    return errors


def exact_solve(model: ModelInstance, limit: int = 12,
                classes: EquivalenceClasses | None = None) -> Compression:
    """Brute-force binary optimum: enumerate dictionary subsets, solve every
    reconstruction by DP, and take the cheapest total.  Ties prefer the
    smaller dictionary, then the lexicographically first id tuple.  When
    classes are given, subsets with two members of one class are skipped."""
    cands = model.candidates
    ncand = len(cands)
    if ncand > limit:
        raise TooLarge(f"{ncand} candidates exceed the exhaustive limit {limit}")
    if not model.costs.nonnegative():
        raise InvalidParam("exact_solve requires nonnegative costs")
    check_coverable(model)

    doc_iv = {doc.id: _doc_intervals(model, doc.id, set(range(ncand)))
              for doc in model.corpus.docs}
    dict_iv = {cid: _dict_intervals(model, cid, set(range(ncand)))
               for cid in range(ncand)}
    cover_mask = {doc.id: [0] * ncand for doc in model.corpus.docs}
    for doc in model.corpus.docs:
        for iv in doc_iv[doc.id]:
            src = model.doc_pointers[iv.pointer].source
            for pos in range(iv.start - 1, iv.end):
                cover_mask[doc.id][src] |= 1 << pos
    full_mask = {doc.id: (1 << len(doc)) - 1 for doc in model.corpus.docs}
    class_masks = []
    if classes is not None:
        for members in classes.multi_member():
            bits = 0
            for cid in members:
                bits |= 1 << cid
            class_masks.append(bits)

    best: tuple[float, int, tuple[int, ...]] | None = None
    best_parts = None
    for mask in range(1, 1 << ncand):
        skip = False
        for bits in class_masks:
            hit = mask & bits
            if hit and hit & (hit - 1):
                skip = True
                break
        if skip:
            continue
        subset = [cid for cid in range(ncand) if mask >> cid & 1]
        feasible = True
        for doc in model.corpus.docs:
            agg = 0
            for cid in subset:
                agg |= cover_mask[doc.id][cid]
            if agg != full_mask[doc.id]:
                feasible = False
                break
        if not feasible:
            continue
        member_set = set(subset)
        cost = 0.0
        doc_parts = []
        dict_parts = {}
        try:
            for doc in model.corpus.docs:
                ivs = [iv for iv in doc_iv[doc.id]
                       if model.doc_pointers[iv.pointer].source in member_set]
                res = solve_dp(ReconInstance(doc.symbols, ivs))
                cost += res.cost
                doc_parts.extend(res.chosen)
            for cid in subset:
                ivs = [iv for iv in dict_iv[cid]
                       if model.dict_pointers[iv.pointer].kind == DICT_CHAR
                       or model.dict_pointers[iv.pointer].source in member_set]
                res = solve_dp(ReconInstance(cands.strings[cid], ivs))
                cost += res.cost + model.costs.string_costs[cid]
                dict_parts[cid] = res.chosen
        except Infeasible:
            continue
        key = (cost, len(subset), tuple(subset))
        if best is None or cost < best[0] - 1e-9 or (
                abs(cost - best[0]) <= 1e-9 and key[1:] < best[1:]):
            best = key
            best_parts = (tuple(subset), tuple(sorted(doc_parts)),
                          tuple(sorted(i for c in subset for i in dict_parts[c])))
    if best is None:
        raise Infeasible("no dictionary subset reconstructs the corpus")
    subset, doc_idx, dict_idx = best_parts
    return Compression(subset,
                       tuple(model.doc_pointers[i] for i in doc_idx),
                       tuple(model.dict_pointers[i] for i in dict_idx),
                       best[0])


def lp_text(lp: LPInstance) -> str:
    """Dump in a plain LP interchange format for external cross-checks."""
    prog = lp.program
    names = ([f"t{c}" for c in range(lp.n_strings)]
             + [f"wd{i}" for i in range(lp.n_doc)]
             + [f"wp{i}" for i in range(lp.n_dict)])
    lines = ["Minimize", " obj: " + " + ".join(
        f"{prog.objective[j]:.12g} {names[j]}" for j in range(lp.n_vars)
        if prog.objective[j] != 0.0)]
    lines.append("Subject To")
    sense_txt = {simplex.LE: "<=", simplex.EQ: "=", simplex.GE: ">="}
    for r in range(prog.rows.shape[0]):
        terms = []
        for j in np.flatnonzero(prog.rows[r]):
            coef = prog.rows[r, j]
            terms.append(f"{'+' if coef > 0 else '-'} {abs(coef):.12g} {names[j]}")
        lines.append(f" r{r}: " + " ".join(terms)
                     + f" {sense_txt[int(prog.senses[r])]} {prog.rhs[r]:.12g}")
    lines.append("Bounds")
    for j in range(lp.n_vars):
        lines.append(f" {prog.lower[j]:.12g} <= {names[j]} <= {prog.upper[j]:.12g}")
    lines.append("End")
    return "\n".join(lines) + "\n"
