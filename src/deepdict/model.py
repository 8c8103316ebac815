"""Pointer universe and storage cost models.

A pointer places a copy of a source n-gram at a location inside a target
(a document or a longer candidate).  Document pointers may use any
candidate and always require the source to be in the dictionary.
Dictionary reconstruction uses one character slot per position of the
target (usable whether or not the unigram is in the dictionary) plus, in
full (deep) mode, one pointer per occurrence of each proper substring of
length >= 2 that is itself a candidate; those require dictionary
membership of the source.  Excluded pointers and strings are represented
by omission and never become variables.  A model groups its pointers into
one reconstruction instance per target, once, the first time they are
asked for; every dictionary evaluation solves those instances, filtering
by membership inside the DP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .corpus import CandidateSet, Corpus
from .errors import InvalidParam
from .recon import Interval, ReconInstance

DOCUMENT = "document"
DICT_CHAR = "dict-char"
DICT_STRING = "dict-string"

CONSTANT_DICT_COST = "constant"
LENGTH_DICT_COST = "length"


@dataclass(frozen=True, order=True)
class Pointer:
    kind: str
    target: int  # doc id for DOCUMENT, candidate id otherwise
    location: int  # 1-based start within the target
    source: int  # candidate id (a unigram for DICT_CHAR)


@dataclass(frozen=True)
class SchemeParams:
    tau: float
    lam: float
    alpha: float
    dict_cost_mode: str = CONSTANT_DICT_COST
    negate: bool = False


@dataclass
class CostModel:
    doc_costs: list[float]  # aligned with ModelInstance.doc_pointers
    dict_costs: list[float]  # aligned with ModelInstance.dict_pointers
    string_costs: list[float]  # aligned with candidate ids
    scheme: SchemeParams | None = None

    def nonnegative(self) -> bool:
        return (all(c >= 0 for c in self.doc_costs)
                and all(c >= 0 for c in self.dict_costs)
                and all(c >= 0 for c in self.string_costs))


def build_pointers(corpus: Corpus, candidates: CandidateSet,
                   cfl_mode: bool = False) -> tuple[list[Pointer], list[Pointer]]:
    """Enumerate the full finite-cost pointer universe.

    Returns (document pointers, dictionary pointers), each in a fixed
    deterministic order so downstream variable ids are reproducible.
    In cfl_mode the string-kind dictionary pointers are omitted, which
    restricts every dictionary string to be built from characters.
    """
    if len(candidates) == 0:
        raise InvalidParam("candidate set is empty")
    doc_ptrs: list[Pointer] = []
    for cid in range(len(candidates)):
        for doc, start in candidates.occurrences[cid]:
            doc_ptrs.append(Pointer(DOCUMENT, doc, start, cid))
    doc_ptrs.sort(key=lambda p: (p.target, p.location, p.source))

    dict_ptrs: list[Pointer] = []
    for cid in range(len(candidates)):
        s = candidates.strings[cid]
        for pos, sym in enumerate(s, start=1):
            dict_ptrs.append(Pointer(DICT_CHAR, cid, pos, candidates.unigram_id(sym)))
        if not cfl_mode:
            for sub_cid, loc in candidates.substring_index[cid]:
                dict_ptrs.append(Pointer(DICT_STRING, cid, loc, sub_cid))
    dict_ptrs.sort(key=lambda p: (p.target, p.location, p.kind == DICT_STRING, p.source))
    return doc_ptrs, dict_ptrs


@dataclass
class ModelInstance:
    corpus: Corpus
    candidates: CandidateSet
    doc_pointers: list[Pointer]
    dict_pointers: list[Pointer]
    costs: CostModel
    cfl_mode: bool = False

    @functools.cached_property
    def recon_instances(self) -> tuple[list[ReconInstance], list[ReconInstance]]:
        """One reconstruction instance per target, built on first use: per
        document (indexed by doc id) its pointers, per candidate its
        character slots (source None: they need no member) and its string
        pointers.  Each interval list keeps the model's pointer order."""
        length = self.candidates.length
        doc_iv: list[list[Interval]] = [[] for _ in self.corpus.docs]
        for i, ptr in enumerate(self.doc_pointers):
            doc_iv[ptr.target].append(Interval(ptr.location, length(ptr.source),
                                               self.costs.doc_costs[i], i, ptr.source))
        dict_iv: list[list[Interval]] = [[] for _ in self.candidates.strings]
        for i, ptr in enumerate(self.dict_pointers):
            dict_iv[ptr.target].append(
                Interval(ptr.location, length(ptr.source), self.costs.dict_costs[i], i,
                         None if ptr.kind == DICT_CHAR else ptr.source))
        docs = [ReconInstance(doc.symbols, ivs) for doc, ivs in zip(self.corpus.docs, doc_iv)]
        strings = [ReconInstance(s, ivs) for s, ivs in zip(self.candidates.strings, dict_iv)]
        return docs, strings


def scheme_costs(doc_pointers: list[Pointer], dict_pointers: list[Pointer],
                 candidates: CandidateSet, tau: float, lam: float, alpha: float,
                 dict_cost_mode: str = CONSTANT_DICT_COST) -> CostModel:
    """The parametric cost scheme: document pointers cost 1, dictionary
    membership costs tau (or the string length in 'length' mode), and
    dictionary pointers cost lam when they use a string and alpha*lam when
    they use a character."""
    if not all(math.isfinite(v) for v in (tau, lam, alpha)):
        raise InvalidParam("tau, lam and alpha must be finite")
    if tau < 0 or lam < 0:
        raise InvalidParam("tau and lam must be nonnegative")
    if not 0 <= alpha <= 1:
        raise InvalidParam("alpha must lie in [0, 1]")
    if dict_cost_mode not in (CONSTANT_DICT_COST, LENGTH_DICT_COST):
        raise InvalidParam(f"unknown dict cost mode {dict_cost_mode!r}")
    doc_costs = [1.0] * len(doc_pointers)
    dict_costs = [alpha * lam if p.kind == DICT_CHAR else lam for p in dict_pointers]
    if dict_cost_mode == CONSTANT_DICT_COST:
        string_costs = [float(tau)] * len(candidates)
    else:
        string_costs = [float(len(s)) for s in candidates.strings]
    return CostModel(doc_costs, dict_costs, string_costs,
                     SchemeParams(tau, lam, alpha, dict_cost_mode))


def bon_landmark_costs(doc_pointers: list[Pointer], dict_pointers: list[Pointer],
                       candidates: CandidateSet, max_len: int) -> CostModel:
    """Uniform negative costs whose optimum keeps every pointer and string,
    yielding the fully redundant all-n-grams representation."""
    if max_len < 1:
        raise InvalidParam("max_len must be >= 1")
    if any(len(s) > max_len for s in candidates.strings):
        raise InvalidParam(
            "candidate set contains strings longer than the landmark cap; "
            "re-enumerate candidates with max_len <= %d" % max_len)
    return CostModel([-1.0] * len(doc_pointers), [-1.0] * len(dict_pointers),
                     [-1.0] * len(candidates),
                     SchemeParams(-1.0, -1.0, 1.0, CONSTANT_DICT_COST, negate=True))


def build_model(corpus: Corpus, candidates: CandidateSet, tau: float, lam: float,
                alpha: float, cfl_mode: bool = False,
                dict_cost_mode: str = CONSTANT_DICT_COST) -> ModelInstance:
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates, cfl_mode)
    costs = scheme_costs(doc_ptrs, dict_ptrs, candidates, tau, lam, alpha, dict_cost_mode)
    return ModelInstance(corpus, candidates, doc_ptrs, dict_ptrs, costs, cfl_mode)


def pointer_is_valid(ptr: Pointer, corpus: Corpus, candidates: CandidateSet) -> bool:
    """Substring-match check: the target's symbols at the pointer location
    must equal the source string, with kind-specific source rules."""
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
