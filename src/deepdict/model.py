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
the first time they are asked for, and character_only() shares the
document instances rather than grouping them again; every dictionary
evaluation solves those instances, filtering by membership inside the
DP.  A CostModel is only its cost lists, aligned with the pointers and
the candidate ids.

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

    @functools.cached_property
    def _search_index(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """find's index of this set, built on its first search: the radix
        of each field, the packed int64 key of every pointer in ascending
        order, and the position each sorted key came from."""
        radices = [int(getattr(self, f).max()) + 1 for f in _FIELDS]  # values are nonnegative
        if math.prod(radices) >= 2 ** 63:
            raise TooLarge("pointer fields too large to pack into one int64 key")
        own = np.zeros(len(self), dtype=np.int64)
        for f, radix in zip(_FIELDS, radices):
            own = own * radix + getattr(self, f)
        order = np.argsort(own, kind="stable")
        return radices, own[order], order

    def find(self, query: Pointers) -> np.ndarray:
        """The position of each query pointer in this set, -1 where it has
        none: the query packed like the set's own keys, then one sorted
        search of the set's index."""
        if not len(self):
            return np.full(len(query), -1)
        radices, keys, order = self._search_index
        inside = np.ones(len(query), dtype=bool)
        key = np.zeros(len(query), dtype=np.int64)
        for f, radix in zip(_FIELDS, radices):
            wanted = getattr(query, f)
            inside &= (wanted >= 0) & (wanted < radix)
            key = key * radix + np.where(inside, wanted, 0)
        at = np.minimum(np.searchsorted(keys, key), len(self) - 1)
        return np.where(inside & (keys[at] == key), order[at], -1)


@dataclass
class CostModel:
    doc_costs: list[float]  # aligned with ModelInstance.doc_pointers
    dict_costs: list[float]  # aligned with ModelInstance.dict_pointers
    string_costs: list[float]  # aligned with candidate ids

    def nonnegative(self) -> bool:
        return all(c >= 0 for c in itertools.chain(self.doc_costs, self.dict_costs,
                                                   self.string_costs))


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
    Running out of memory raises TooLarge with the universe's size.
    """
    if len(candidates) == 0:
        raise InvalidParam("candidate set is empty")
    try:
        return _pointer_arrays(candidates)
    except MemoryError:
        size = (sum(map(len, candidates.occurrences)) + sum(map(len, candidates.strings))
                + sum(map(len, candidates.substring_index)))
        raise TooLarge(f"out of memory building the pointer universe: {size} pointers, "
                       f"{len(candidates)} candidates") from None


def _pointer_arrays(candidates: CandidateSet) -> tuple[Pointers, Pointers]:
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
    def doc_recon(self) -> list[ReconInstance]:
        """The document half of recon_instances, built on first use;
        character_only shares it with its restriction."""
        return _instances([doc.symbols for doc in self.corpus.docs], self.doc_pointers,
                          self.costs.doc_costs, self.doc_pointers.source.tolist(),
                          self.candidates.lengths)

    @functools.cached_property
    def dict_recon(self) -> list[ReconInstance]:
        """The dictionary half of recon_instances, built on first use."""
        sources = self.dict_pointers.source.tolist()
        chars = (self.dict_pointers.kind == CHAR_CODE).tolist()
        needs = [None if char else source for source, char in zip(sources, chars)]
        return _instances(self.candidates.strings, self.dict_pointers,
                          self.costs.dict_costs, needs, self.candidates.lengths)

    @property
    def recon_instances(self) -> tuple[list[ReconInstance], list[ReconInstance]]:
        """One reconstruction instance per target: per document (indexed by
        doc id) its pointers, per candidate its character slots (source
        None: they need no member) and its string pointers.  Each interval's
        source is the string its pointer needs in the dictionary."""
        return self.doc_recon, self.dict_recon

    @functools.cached_property
    def dependents(self) -> tuple[list[set[int]], list[set[int]]]:
        """Per candidate, built on first use: the documents, and the
        candidates, with a pointer that needs it in the dictionary (so
        adding it to a dictionary can change only their reconstructions)."""
        n = len(self.candidates)
        docs: list[set[int]] = [set() for _ in range(n)]
        strings: list[set[int]] = [set() for _ in range(n)]
        dicts = self.dict_pointers
        for targets, ptrs in ((docs, self.doc_pointers),
                              (strings, dicts[dicts.kind == STRING_CODE])):
            for source, target in zip(ptrs.source.tolist(), ptrs.target.tolist()):
                targets[source].add(target)
        return docs, strings

    @functools.cached_property
    def symbol_pool(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symbols pointers are matched against, built on first use:
        one int64 pool of every document's symbols followed by the
        candidates' rows padded with -1 to the longest candidate, those
        padded rows, and each document's length."""
        docs = self.corpus.docs
        strings = self.candidates.strings
        padded = np.full((len(strings), int(self.candidates.lengths.max())), -1,
                         dtype=np.int64)
        for cid, s in enumerate(strings):
            padded[cid, :len(s)] = s
        doc_len = np.array([len(doc) for doc in docs])
        n_symbols = int(doc_len.sum())
        pool = np.concatenate([np.fromiter(itertools.chain.from_iterable(d.symbols for d in docs),
                                           dtype=np.int64, count=n_symbols), padded.ravel()])
        return pool, padded, doc_len


def _instances(targets: list[tuple[int, ...]], ptrs: Pointers, costs: list[float],
               needs: list[int | None], lengths: np.ndarray) -> list[ReconInstance]:
    """One reconstruction instance per target, its intervals the pointers
    into it in the given pointer order."""
    intervals: list[list[Interval]] = [[] for _ in targets]
    for i, (target, location, length, cost, need) in enumerate(zip(
            ptrs.target.tolist(), ptrs.location.tolist(), lengths[ptrs.source].tolist(),
            costs, needs)):
        intervals[target].append(Interval(location, length, cost, i, need))
    return [ReconInstance(target, ivs) for target, ivs in zip(targets, intervals)]


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
    return CostModel(doc_costs, dict_costs, string_costs)


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
                     [-1.0] * len(candidates))


def build_model(corpus: Corpus, candidates: CandidateSet, tau: float, lam: float,
                alpha: float, dict_cost_mode: str = CONSTANT_DICT_COST) -> ModelInstance:
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = scheme_costs(doc_ptrs, dict_ptrs, candidates, tau, lam, alpha, dict_cost_mode)
    return ModelInstance(corpus, candidates, doc_ptrs, dict_ptrs, costs)


def character_only(model: ModelInstance) -> ModelInstance:
    """The shallow (Compressive Feature Learning) restriction: the character
    slots among the dictionary pointers, in model order; all else is
    shared, the documents' reconstruction instances included."""
    keep = model.dict_pointers.kind == CHAR_CODE
    costs = replace(model.costs, dict_costs=list(
        itertools.compress(model.costs.dict_costs, keep.tolist())))
    restricted = replace(model, dict_pointers=model.dict_pointers[keep], costs=costs)
    restricted.doc_recon = model.doc_recon
    return restricted
