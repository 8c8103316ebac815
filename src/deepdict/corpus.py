"""Corpus ingestion, candidate n-gram enumeration, and equivalence classes.

Documents are interned over a symbol table (single characters in char mode,
whitespace-delimited tokens in token mode).  Candidate n-grams are all
distinct substrings up to a maximum length that occur at least a minimum
number of times across the corpus, and every unigram whatever its count;
substrings never cross document boundaries.  Candidates are enumerated by
one scan over every (document, start, length) window, and ids are
deterministic: sorted by length, then by symbol ids.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, EmptyDocument, InvalidParam

CHAR = "char"
TOKEN = "token"


@dataclass(frozen=True)
class SymbolTable:
    """Immutable mapping between atomic symbols and dense integer ids."""

    symbols: tuple[str, ...]
    mode: str

    def id_of(self, symbol: str) -> int:
        return self.symbols.index(symbol)

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Document:
    id: int
    symbols: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Corpus:
    docs: tuple[Document, ...]
    table: SymbolTable

    @property
    def total_symbols(self) -> int:
        return sum(len(d) for d in self.docs)

    def render(self, symbols) -> str:
        """Turn a symbol-id sequence back into text."""
        sep = "" if self.table.mode == CHAR else " "
        return sep.join(self.table.symbols[s] for s in symbols)

    def doc_text(self, doc_id: int) -> str:
        return self.render(self.docs[doc_id].symbols)


def ingest(texts: list[str], mode: str = CHAR) -> Corpus:
    """Intern raw document strings into a Corpus.

    Char mode treats every unicode character as a symbol; token mode splits
    on whitespace.  No other normalization is applied.
    """
    if mode not in (CHAR, TOKEN):
        raise InvalidParam(f"unknown mode {mode!r}")
    if not texts:
        raise EmptyCorpus("no documents given")
    ids: dict[str, int] = {}
    symbols: list[str] = []
    docs: list[Document] = []
    for k, text in enumerate(texts):
        raw = list(text) if mode == CHAR else text.split()
        if not raw:
            raise EmptyDocument(f"document {k} has no symbols")
        seq = []
        for sym in raw:
            sid = ids.get(sym)
            if sid is None:
                sid = len(symbols)
                ids[sym] = sid
                symbols.append(sym)
            seq.append(sid)
        docs.append(Document(k, tuple(seq)))
    return Corpus(tuple(docs), SymbolTable(tuple(symbols), mode))


def read_corpus(path: str, mode: str = CHAR) -> Corpus:
    """Load a corpus from a file (one document per line) or a directory
    (one UTF-8 file per document, filename order).  Files are read with
    universal newlines, and one trailing newline is dropped from each.
    Lines end at a line feed only: other characters that str.splitlines
    breaks on, such as a form feed or U+2028, stay inside their document."""
    if os.path.isdir(path):
        texts = [_read_text(os.path.join(path, name)).removesuffix("\n")
                 for name in sorted(os.listdir(path))]
    else:
        content = _read_text(path)
        texts = content.removesuffix("\n").split("\n") if content else []
    return ingest(texts, mode)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidParam(f"{path} is not UTF-8 text: {exc}") from None


@dataclass
class CandidateSet:
    """The candidate n-gram universe with occurrence and substring indexes.

    strings[i] is a symbol-id tuple; occurrences[i] lists (doc id, 1-based
    start) pairs; substring_index[i] lists (candidate id, 1-based start)
    pairs for every occurrence of a proper substring of length >= 2 inside
    strings[i] (length-1 occurrences are the per-position character slots
    and are not indexed here).
    """

    strings: list[tuple[int, ...]]
    occurrences: list[list[tuple[int, int]]]
    substring_index: list[list[tuple[int, int]]]
    index: dict[tuple[int, ...], int]  # string -> candidate id

    def __len__(self) -> int:
        return len(self.strings)

    def length(self, cid: int) -> int:
        return len(self.strings[cid])

    @functools.cached_property
    def lengths(self) -> np.ndarray:
        """The length of every candidate, by id."""
        return np.array([len(s) for s in self.strings], dtype=np.int64)

    def count(self, cid: int) -> int:
        return len(self.occurrences[cid])

    def unigram_id(self, symbol: int) -> int:
        cid = self.index.get((symbol,))
        if cid is None:
            raise InvalidParam(f"symbol {symbol} is not a candidate unigram")
        return cid


def enumerate_candidates(corpus: Corpus, max_len: int, min_count: int) -> CandidateSet:
    """All distinct substrings of length <= max_len occurring >= min_count
    times in the corpus, and every unigram whatever its count, with full
    occurrence lists.  Keeping the unigrams lets every document position be
    covered, as in the model, where any string can be rebuilt from its
    characters."""
    if max_len < 1:
        raise InvalidParam("max_len must be >= 1")
    if min_count < 1:
        raise InvalidParam("min_count must be >= 1")
    occs: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for doc in corpus.docs:
        seq = doc.symbols
        for start in range(len(seq)):
            for end in range(start + 1, min(start + max_len, len(seq)) + 1):
                occs.setdefault(seq[start:end], []).append((doc.id, start + 1))
    strings = sorted((s for s, o in occs.items() if len(o) >= min_count or len(s) == 1),
                     key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(strings)}
    # the scan visits (doc, start) in order, so every list is already sorted
    occurrences = [occs[s] for s in strings]
    # a substring occurs wherever its superstring does, so it is a candidate too
    substring_index = [[(index[s[start:end]], start + 1)
                        for start in range(len(s))
                        for end in range(start + 2, len(s) + 1) if end - start < len(s)]
                       for s in strings]
    return CandidateSet(strings, occurrences, substring_index, index)


@dataclass
class EquivalenceClasses:
    """Partition of candidates into right-extension equivalence classes.

    Two candidates share a class exactly when their occurrence (doc, start)
    sets are identical; members of a class form a chain of single-symbol
    right extensions.
    """

    classes: list[list[int]]

    def multi_member(self) -> list[list[int]]:
        return [c for c in self.classes if len(c) >= 2]


def equivalence_classes(candidates: CandidateSet) -> EquivalenceClasses:
    groups: dict[tuple[tuple[int, int], ...], list[int]] = {}
    for cid in range(len(candidates)):
        key = tuple(candidates.occurrences[cid])
        groups.setdefault(key, []).append(cid)
    # ids are grouped in ascending order: classes by first member, members within
    return EquivalenceClasses(list(groups.values()))
