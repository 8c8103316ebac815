"""Pointer universe and storage cost models.

A pointer places a copy of a source n-gram at a location inside a target
(a document or a longer candidate).  Document pointers may use any
candidate and always require the source to be in the dictionary.
Dictionary reconstruction uses one character slot per position of the
target (usable whether or not the unigram is in the dictionary) plus one
pointer per occurrence of each proper substring of length >= 2 that is
itself a candidate; those require dictionary membership of the source,
and character_only() drops them to give the shallow problem.  Excluded
pointers and strings are omitted and never become variables.  A model
groups its pointers into one reconstruction instance per target, once,
the first time they are asked for; every dictionary evaluation solves
those instances, filtering by membership inside the DP.

A pointer set is a Pointers: four parallel int64 arrays (kind code,
target, 1-based location, source), one entry per pointer, so memory stays
linear in the pointer universe and enumeration, the LP program, pricing,
validation and features are array operations.  Models and compressions
hold their pointers this way.  A Pointer value exists only at the edges:
iterating a Pointers, or indexing it at one position, makes them (for
tests, compression.json, the recon command and error messages).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .corpus import CandidateSet, Corpus
from .errors import InvalidParam, TooLarge
from .recon import Interval, ReconInstance

DOCUMENT = "document"
DICT_CHAR = "dict-char"
DICT_STRING = "dict-string"
KINDS = (DOCUMENT, DICT_CHAR, DICT_STRING)  # a kind code indexes this tuple
DOCUMENT_CODE, CHAR_CODE, STRING_CODE = range(len(KINDS))

CONSTANT_DICT_COST = "constant"
LENGTH_DICT_COST = "length"


@dataclass(frozen=True, order=True)
class Pointer:
    kind: str
    target: int  # doc id for DOCUMENT, candidate id otherwise
    location: int  # 1-based start within the target
    source: int  # candidate id (a unigram for DICT_CHAR)


_FIELDS = ("kind", "target", "location", "source")
_PREFIX = tuple(f"Pointer(kind={kind!r}, target=" for kind in KINDS)


@dataclass(frozen=True, eq=False)
class Pointers:
    """Pointers as parallel int64 arrays: kind codes (indexes into KINDS),
    targets, 1-based locations and sources.  Indexing one position gives a
    Pointer; a slice, mask or index array gives Pointers; iteration yields
    Pointer values in order, and the repr is that of their tuple."""

    kind: np.ndarray
    target: np.ndarray
    location: np.ndarray
    source: np.ndarray

    @classmethod
    def of(cls, pointers: Iterable[Pointer]) -> Pointers:
        rows = [(KINDS.index(p.kind), p.target, p.location, p.source) for p in pointers]
        return cls(*np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy())

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            kind, target, location, source = (int(getattr(self, f)[index]) for f in _FIELDS)
            return Pointer(KINDS[kind], target, location, source)
        return Pointers(*(getattr(self, f)[index] for f in _FIELDS))

    def __iter__(self):
        return map(Pointer, [KINDS[k] for k in self.kind.tolist()], self.target.tolist(),
                   self.location.tolist(), self.source.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pointers):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _FIELDS)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f).tobytes() for f in _FIELDS))

    def __add__(self, other: Iterable[Pointer]) -> Pointers:
        other = other if isinstance(other, Pointers) else Pointers.of(other)
        return Pointers(*(np.concatenate([getattr(self, f), getattr(other, f)])
                          for f in _FIELDS))

    def __repr__(self) -> str:
        items = [f"{_PREFIX[k]}{t}, location={loc}, source={s})" for k, t, loc, s in
                 zip(self.kind.tolist(), self.target.tolist(), self.location.tolist(),
                     self.source.tolist())]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"

    def find(self, query: Pointers) -> np.ndarray:
        """The position of each query pointer in this set, -1 where it has
        none: both sides packed into one int64 key per pointer, then one
        sorted search."""
        if not len(self):
            return np.full(len(query), -1)
        radices = [int(getattr(self, f).max()) + 1 for f in _FIELDS]  # values are nonnegative
        if math.prod(radices) >= 2 ** 63:
            raise TooLarge("pointer fields too large to pack into one int64 key")
        inside = np.ones(len(query), dtype=bool)
        own = np.zeros(len(self), dtype=np.int64)
        key = np.zeros(len(query), dtype=np.int64)
        for f, radix in zip(_FIELDS, radices):
            values, wanted = getattr(self, f), getattr(query, f)
            inside &= (wanted >= 0) & (wanted < radix)
            own = own * radix + values
            key = key * radix + np.where(inside, wanted, 0)
        order = np.argsort(own, kind="stable")
        found = order[np.minimum(np.searchsorted(own, key, sorter=order), len(self) - 1)]
        return np.where(inside & (own[found] == key), found, -1)


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


def _pairs(lists: list[list[tuple[int, int]]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-candidate lists of pairs: (the candidate id of each pair,
    the first members, the second members)."""
    flat = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(lists)),
                       dtype=np.int64).reshape(-1, 2)
    owner = np.repeat(np.arange(len(lists)), [len(pairs) for pairs in lists])
    return owner, flat[:, 0], flat[:, 1]


def build_pointers(corpus: Corpus, candidates: CandidateSet) -> tuple[Pointers, Pointers]:
    """Enumerate the full finite-cost pointer universe.

    Returns (document pointers, dictionary pointers), each in a fixed
    deterministic order so downstream variable ids are reproducible:
    documents by (target, location, source), dictionary pointers by
    (target, location, kind, source), character slots before strings.
    """
    if len(candidates) == 0:
        raise InvalidParam("candidate set is empty")
    source, doc, start = _pairs(candidates.occurrences)
    doc_ptrs = Pointers(np.full(len(source), DOCUMENT_CODE), doc, start, source)
    doc_ptrs = doc_ptrs[np.lexsort((source, start, doc))]

    lengths = candidates.lengths
    symbols = np.fromiter(itertools.chain.from_iterable(candidates.strings),
                          dtype=np.int64, count=int(lengths.sum()))
    present = np.bincount(symbols)  # not np.unique, which imports numpy.ma
    unigram = np.zeros(len(present), dtype=np.int64)
    for sym in np.flatnonzero(present).tolist():
        unigram[sym] = candidates.unigram_id(sym)
    char_target = np.repeat(np.arange(len(candidates)), lengths)
    char_location = np.arange(len(symbols)) - np.repeat(np.cumsum(lengths) - lengths, lengths) + 1
    sub_target, sub_source, sub_location = _pairs(candidates.substring_index)
    dict_ptrs = Pointers(
        np.repeat([CHAR_CODE, STRING_CODE], [len(symbols), len(sub_target)]),
        np.concatenate([char_target, sub_target]),
        np.concatenate([char_location, sub_location]),
        np.concatenate([unigram[symbols], sub_source]))
    dict_ptrs = dict_ptrs[np.lexsort((dict_ptrs.source, dict_ptrs.kind,
                                      dict_ptrs.location, dict_ptrs.target))]
    return doc_ptrs, dict_ptrs


@dataclass
class ModelInstance:
    corpus: Corpus
    candidates: CandidateSet
    doc_pointers: Pointers
    dict_pointers: Pointers
    costs: CostModel

    @functools.cached_property
    def needs(self) -> tuple[list[int], list[int | None]]:
        """The string each pointer needs in the dictionary, as lists for
        per-dictionary lookups: every document pointer's source, and each
        dictionary pointer's source, or None for a character slot."""
        sources = self.dict_pointers.source.tolist()
        chars = (self.dict_pointers.kind == CHAR_CODE).tolist()
        return (self.doc_pointers.source.tolist(),
                [None if char else source for source, char in zip(sources, chars)])

    @functools.cached_property
    def recon_instances(self) -> tuple[list[ReconInstance], list[ReconInstance]]:
        """One reconstruction instance per target, built on first use: per
        document (indexed by doc id) its pointers, per candidate its
        character slots (source None: they need no member) and its string
        pointers.  Each interval list keeps the model's pointer order."""
        lengths = self.candidates.lengths
        doc_needs, dict_needs = self.needs
        groups = []
        for ptrs, costs, needs, n_targets in (
                (self.doc_pointers, self.costs.doc_costs, doc_needs, len(self.corpus.docs)),
                (self.dict_pointers, self.costs.dict_costs, dict_needs, len(lengths))):
            intervals: list[list[Interval]] = [[] for _ in range(n_targets)]
            for i, (target, location, length, cost, need) in enumerate(zip(
                    ptrs.target.tolist(), ptrs.location.tolist(),
                    lengths[ptrs.source].tolist(), costs, needs)):
                intervals[target].append(Interval(location, length, cost, i, need))
            groups.append(intervals)
        docs = [ReconInstance(doc.symbols, ivs) for doc, ivs in zip(self.corpus.docs, groups[0])]
        strings = [ReconInstance(s, ivs) for s, ivs in zip(self.candidates.strings, groups[1])]
        return docs, strings


def scheme_costs(doc_pointers: Pointers, dict_pointers: Pointers,
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
    dict_costs = [alpha * lam if kind == CHAR_CODE else lam
                  for kind in dict_pointers.kind.tolist()]
    if dict_cost_mode == CONSTANT_DICT_COST:
        string_costs = [float(tau)] * len(candidates)
    else:
        string_costs = [float(len(s)) for s in candidates.strings]
    return CostModel(doc_costs, dict_costs, string_costs,
                     SchemeParams(tau, lam, alpha, dict_cost_mode))


def bon_landmark_costs(doc_pointers: Pointers, dict_pointers: Pointers,
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
                alpha: float, dict_cost_mode: str = CONSTANT_DICT_COST) -> ModelInstance:
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = scheme_costs(doc_ptrs, dict_ptrs, candidates, tau, lam, alpha, dict_cost_mode)
    return ModelInstance(corpus, candidates, doc_ptrs, dict_ptrs, costs)


def character_only(model: ModelInstance) -> ModelInstance:
    """The shallow (Compressive Feature Learning) restriction: the character
    slots among the dictionary pointers, in model order; all else is shared."""
    keep = model.dict_pointers.kind == CHAR_CODE
    costs = replace(model.costs, dict_costs=list(
        itertools.compress(model.costs.dict_costs, keep.tolist())))
    return replace(model, dict_pointers=model.dict_pointers[keep], costs=costs)
