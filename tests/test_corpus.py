import random

import pytest

from deepdict.corpus import (CHAR, TOKEN, enumerate_candidates, equivalence_classes,
                             ingest, read_corpus, write_corpus)
from deepdict.errors import EmptyCorpus, EmptyDocument, InvalidParam

from oracles import brute_candidates, follower_classes, split_symbols


def cand_texts(corpus, candidates):
    return {tuple(corpus.table.symbols[s] for s in string): occs
            for string, occs in zip(candidates.strings, candidates.occurrences)}


def test_ingest_char_mode():
    corpus = ingest(["aabaabaax"], CHAR)
    assert len(corpus.docs) == 1
    assert len(corpus.docs[0]) == 9
    assert set(corpus.table.symbols) == {"a", "b", "x"}
    assert corpus.doc_text(0) == "aabaabaax"


def test_ingest_empty_document():
    with pytest.raises(EmptyDocument):
        ingest([""], CHAR)
    with pytest.raises(EmptyDocument):
        ingest(["ab", "   "], TOKEN)


def test_ingest_empty_corpus():
    with pytest.raises(EmptyCorpus):
        ingest([], CHAR)


def test_ingest_token_mode():
    corpus = ingest(["ab ba ab"], TOKEN)
    assert len(corpus.docs[0]) == 3
    assert set(corpus.table.symbols) == {"ab", "ba"}


def test_ingest_rejects_unknown_mode():
    with pytest.raises(InvalidParam):
        ingest(["ab"], "bytes")


def test_enumerate_abab():
    corpus = ingest(["abab"], CHAR)
    candidates = enumerate_candidates(corpus, 4, 2)
    got = cand_texts(corpus, candidates)
    assert set(got) == {("a",), ("b",), ("a", "b")}
    assert len(got[("a",)]) == 2
    assert len(got[("b",)]) == 2
    assert got[("a", "b")] == [(0, 1), (0, 3)]


def test_enumerate_runs_of_one_symbol():
    corpus = ingest(["aaaa"], CHAR)
    candidates = enumerate_candidates(corpus, 4, 2)
    got = {"".join(s): len(o) for s, o in cand_texts(corpus, candidates).items()}
    assert got == {"a": 4, "aa": 3, "aaa": 2}


def test_enumerate_single_symbol():
    corpus = ingest(["x"], CHAR)
    candidates = enumerate_candidates(corpus, 1, 1)
    assert cand_texts(corpus, candidates) == {("x",): [(0, 1)]}


def test_enumerate_param_validation():
    corpus = ingest(["ab"], CHAR)
    with pytest.raises(InvalidParam):
        enumerate_candidates(corpus, 0, 1)
    with pytest.raises(InvalidParam):
        enumerate_candidates(corpus, 2, 0)


def test_enumerate_matches_bruteforce_on_random_strings():
    rng = random.Random(20240811)
    cases = []
    for _ in range(60):
        n_docs = rng.randint(1, 3)
        alphabet = "abcd"[:rng.randint(1, 4)]
        texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
                 for _ in range(n_docs)]
        cases.append((texts, CHAR, rng.randint(1, 6), rng.randint(1, 3)))
    for _ in range(30):
        words = ("ab", "b", "ba", "c")[:rng.randint(1, 4)]
        texts = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 15)))
                 for _ in range(rng.randint(1, 3))]
        cases.append((texts, TOKEN, rng.randint(1, 6), rng.randint(1, 3)))
    # max_len longer than every document
    for mode in (CHAR, TOKEN):
        for _ in range(10):
            texts = [" ".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
                     for _ in range(rng.randint(1, 3))]
            longest = max(len(split_symbols(t, mode)) for t in texts)
            cases.append((texts, mode, longest + rng.randint(1, 4), rng.randint(1, 2)))
    for texts, mode, max_len, min_count in cases:
        corpus = ingest(texts, mode)
        candidates = enumerate_candidates(corpus, max_len, min_count)
        assert cand_texts(corpus, candidates) == brute_candidates(
            texts, max_len, min_count, mode)


def test_candidate_ordering_deterministic():
    corpus = ingest(["bca", "abc"], CHAR)
    candidates = enumerate_candidates(corpus, 3, 1)
    keys = [(len(s), s) for s in candidates.strings]
    assert keys == sorted(keys)


def test_substring_index_lists_proper_substrings():
    corpus = ingest(["aaaa"], CHAR)
    candidates = enumerate_candidates(corpus, 4, 2)
    aaa = candidates.index[tuple(corpus.table.id_of("a") for _ in range(3))]
    aa = candidates.index[tuple(corpus.table.id_of("a") for _ in range(2))]
    assert candidates.substring_index[aaa] == [(aa, 1), (aa, 2)]
    assert candidates.substring_index[aa] == []


def test_equivalence_classes_abab():
    corpus = ingest(["abab"], CHAR)
    candidates = enumerate_candidates(corpus, 4, 1)
    classes = equivalence_classes(candidates, corpus)
    names = {frozenset(corpus.render(candidates.strings[cid]) for cid in members)
             for members in classes.classes}
    assert names == {frozenset({"a", "ab"}), frozenset({"b"}),
                     frozenset({"ba", "bab"}), frozenset({"aba", "abab"})}
    reps = {corpus.render(candidates.strings[r]) for r in classes.representative}
    assert reps == {"ab", "b", "bab", "abab"}


def test_equivalence_classes_single():
    corpus = ingest(["x"], CHAR)
    candidates = enumerate_candidates(corpus, 1, 1)
    classes = equivalence_classes(candidates, corpus)
    assert classes.classes == [[0]]


def test_equivalence_classes_fig_string():
    corpus = ingest(["xaxabxabxacxac"], CHAR)
    candidates = enumerate_candidates(corpus, 14, 1)
    classes = equivalence_classes(candidates, corpus)
    assert len(classes.classes) <= 2 * 14 - 1
    seen = sorted(cid for members in classes.classes for cid in members)
    assert seen == list(range(len(candidates)))


def test_equivalence_classes_match_follower_oracle():
    rng = random.Random(99)
    for _ in range(40):
        texts = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 18)))
                 for _ in range(rng.randint(1, 2))]
        corpus = ingest(texts, CHAR)
        candidates = enumerate_candidates(corpus, 6, 1)
        classes = equivalence_classes(candidates, corpus)
        mine = {frozenset(tuple(corpus.table.symbols[s]
                                for s in candidates.strings[cid])
                          for cid in members)
                for members in classes.classes}
        oracle = set(follower_classes(brute_candidates(texts, 6, 1), texts))
        assert mine == oracle
        total = sum(len(t) for t in texts)
        assert len(classes.classes) <= 2 * total - 1


def test_class_members_are_nested_right_extensions():
    rng = random.Random(4)
    for _ in range(20):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(2, 24)))
        corpus = ingest([text], CHAR)
        candidates = enumerate_candidates(corpus, 8, 1)
        classes = equivalence_classes(candidates, corpus)
        for members in classes.classes:
            chain = sorted(members, key=candidates.length)
            counts = {candidates.count(cid) for cid in chain}
            assert len(counts) == 1
            for shorter, longer in zip(chain, chain[1:]):
                a, b = candidates.strings[shorter], candidates.strings[longer]
                assert len(b) == len(a) + 1 and b[:len(a)] == a


def test_corpus_roundtrip_through_file(tmp_path):
    texts = ["abcab", "bca"]
    corpus = ingest(texts, CHAR)
    path = tmp_path / "corpus.txt"
    write_corpus(corpus, str(path))
    again = read_corpus(str(path), CHAR)
    assert again == corpus


def test_corpus_roundtrip_token_mode(tmp_path):
    corpus = ingest(["ab ba", "ba ba ab"], TOKEN)
    path = tmp_path / "corpus.txt"
    write_corpus(corpus, str(path))
    assert read_corpus(str(path), TOKEN) == corpus


def test_read_corpus_directory(tmp_path):
    (tmp_path / "b.txt").write_text("ba\n", encoding="utf-8")
    (tmp_path / "a.txt").write_text("ab\n", encoding="utf-8")
    corpus = read_corpus(str(tmp_path), CHAR)
    assert [corpus.doc_text(0), corpus.doc_text(1)] == ["ab", "ba"]
