"""Independent brute-force oracles used to pin expected values.

Everything here works on raw text and plain tuples, separately from the
package's candidate scan, DP, and LP machinery, so the two sides can be
cross-checked against each other.  entries and same_entries read a
feature matrix's coordinate arrays back as plain values.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np


def split_symbols(text: str, mode: str = "char") -> list[str]:
    return list(text) if mode == "char" else text.split()


def brute_candidates(texts: list[str], max_len: int, min_count: int,
                     mode: str = "char") -> dict[tuple[str, ...], list[tuple[int, int]]]:
    """Every distinct substring of length <= max_len with >= min_count
    occurrences, by direct scanning; positions are (doc, 1-based start)."""
    occ: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    for k, text in enumerate(texts):
        syms = split_symbols(text, mode)
        for i in range(len(syms)):
            for length in range(1, min(max_len, len(syms) - i) + 1):
                occ.setdefault(tuple(syms[i:i + length]), []).append((k, i + 1))
    return {s: sorted(o) for s, o in occ.items() if len(o) >= min_count}


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
