import math
import random

import pytest

from deepdict.corpus import CHAR, enumerate_candidates, ingest
from deepdict.errors import InvalidParam
from deepdict.lp import build_lp, solve_lp
from deepdict.model import (DICT_CHAR, DICT_STRING, bon_landmark_costs,
                            build_model, build_pointers, character_only, scheme_costs)

from oracles import pointer_is_valid, reference_pointers


def make(texts, max_len, min_count, **kwargs):
    corpus = ingest(texts, CHAR)
    candidates = enumerate_candidates(corpus, max_len, min_count)
    return corpus, candidates


def test_pointer_counts_on_run_of_a():
    corpus, candidates = make(["aaaa"], 4, 2)  # candidates a, aa, aaa
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    assert len(doc_ptrs) == 9
    char_kind = [p for p in dict_ptrs if p.kind == DICT_CHAR]
    string_kind = [p for p in dict_ptrs if p.kind == DICT_STRING]
    assert len(char_kind) == 6 and len(string_kind) == 2
    assert len(dict_ptrs) == 8
    aaa = candidates.index[candidates.strings[2]]
    assert {(p.location, p.source) for p in string_kind} == {(1, 1), (2, 1)}
    assert all(p.target == aaa for p in string_kind)


def test_pointer_counts_single_symbol():
    corpus, candidates = make(["x"], 1, 1)
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    assert len(doc_ptrs) == 1
    assert len(dict_ptrs) == 1 and dict_ptrs[0].kind == DICT_CHAR


def test_cfl_mode_drops_string_kind():
    corpus, candidates = make(["aaaa"], 4, 2)
    model = character_only(build_model(corpus, candidates, 0.0, 1.0, 1.0))
    doc_ptrs, dict_ptrs = model.doc_pointers, model.dict_pointers
    assert len(doc_ptrs) == 9
    assert len(dict_ptrs) == 6
    assert all(p.kind == DICT_CHAR for p in dict_ptrs)


def test_character_only_restricts_without_copying():
    corpus, candidates = make(["abcabcab", "bcabca"], 4, 1)
    model = build_model(corpus, candidates, 0.3, 0.7, 0.5)
    deep_strings = model.recon_instances[1]
    shallow = character_only(model)
    assert shallow.doc_pointers is model.doc_pointers
    assert shallow.costs.doc_costs is model.costs.doc_costs
    assert shallow.costs.string_costs is model.costs.string_costs
    assert shallow.costs.scheme is model.costs.scheme
    # exactly the character slots, in model order, with their own costs
    chars = [(p, c) for p, c in zip(model.dict_pointers, model.costs.dict_costs)
             if p.kind == DICT_CHAR]
    assert 0 < len(chars) < len(model.dict_pointers)
    assert list(zip(shallow.dict_pointers, shallow.costs.dict_costs)) == chars
    # the restriction groups its own instances; the deep ones stay intact
    assert [len(inst.intervals) for inst in shallow.recon_instances[1]] == [
        len(s) for s in candidates.strings]
    assert model.recon_instances[1] is deep_strings


def test_every_pointer_is_valid():
    rng = random.Random(11)
    for _ in range(25):
        texts = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 14)))
                 for _ in range(rng.randint(1, 2))]
        corpus, candidates = make(texts, 4, 1)
        doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
        for ptr in doc_ptrs + dict_ptrs:
            assert pointer_is_valid(ptr, corpus, candidates)
        for ptr in dict_ptrs:
            if ptr.kind == DICT_STRING:
                assert candidates.length(ptr.source) < candidates.length(ptr.target)
                assert candidates.length(ptr.source) >= 2


def test_build_pointers_matches_reference_order():
    rng = random.Random(12)
    for _ in range(25):
        texts = ["".join(rng.choice("abcd"[:rng.randint(1, 4)])
                         for _ in range(rng.randint(1, 16)))
                 for _ in range(rng.randint(1, 3))]
        corpus, candidates = make(texts, rng.randint(1, 5), rng.randint(1, 2))
        doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
        expected_doc, expected_dict = reference_pointers(corpus, candidates)
        assert list(doc_ptrs) == expected_doc
        assert list(dict_ptrs) == expected_dict


def test_scheme_costs_all_unit():
    corpus, candidates = make(["aaaa"], 4, 2)
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = scheme_costs(doc_ptrs, dict_ptrs, candidates, 0.0, 1.0, 1.0)
    assert set(costs.doc_costs) == {1.0}
    assert set(costs.dict_costs) == {1.0}
    assert set(costs.string_costs) == {0.0}


def test_scheme_costs_free_reconstruction():
    corpus, candidates = make(["aaaa"], 4, 2)
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = scheme_costs(doc_ptrs, dict_ptrs, candidates, 5.0, 0.0, 0.0)
    assert set(costs.dict_costs) == {0.0}
    assert set(costs.string_costs) == {5.0}


def test_scheme_costs_alpha_scaling():
    corpus, candidates = make(["aaaa"], 4, 2)
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = scheme_costs(doc_ptrs, dict_ptrs, candidates, 0.0, 2.0, 0.25)
    for ptr, cost in zip(dict_ptrs, costs.dict_costs):
        assert cost == (0.5 if ptr.kind == DICT_CHAR else 2.0)


def test_scheme_costs_length_mode():
    corpus, candidates = make(["aaaa"], 4, 2)
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = scheme_costs(doc_ptrs, dict_ptrs, candidates, 0.0, 0.0, 0.0,
                         dict_cost_mode="length")
    assert costs.string_costs == [1.0, 2.0, 3.0]


def test_scheme_costs_validation():
    corpus, candidates = make(["ab"], 2, 1)
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    with pytest.raises(InvalidParam):
        scheme_costs(doc_ptrs, dict_ptrs, candidates, -1.0, 1.0, 1.0)
    with pytest.raises(InvalidParam):
        scheme_costs(doc_ptrs, dict_ptrs, candidates, 0.0, -0.5, 1.0)
    with pytest.raises(InvalidParam):
        scheme_costs(doc_ptrs, dict_ptrs, candidates, 0.0, 1.0, 1.5)


def test_bon_costs_all_negative():
    corpus, candidates = make(["abab"], 2, 1)
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = bon_landmark_costs(doc_ptrs, dict_ptrs, candidates, 2)
    assert set(costs.doc_costs) == {-1.0}
    assert set(costs.dict_costs) == {-1.0}
    assert set(costs.string_costs) == {-1.0}
    assert costs.scheme.negate


def test_bon_costs_reject_oversized_candidates():
    corpus, candidates = make(["abab"], 4, 1)
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    with pytest.raises(InvalidParam):
        bon_landmark_costs(doc_ptrs, dict_ptrs, candidates, 2)


def pointer_text_multiset(corpus, candidates, doc_ptrs):
    return sorted((corpus.doc_text(p.target), p.location,
                   corpus.render(candidates.strings[p.source]))
                  for p in doc_ptrs)


def test_document_order_permutation_invariance():
    texts = ["abcab", "bcb", "cabc"]
    permuted = ["bcb", "cabc", "abcab"]
    a_corpus, a_cands = make(texts, 3, 1)
    b_corpus, b_cands = make(permuted, 3, 1)
    a_strings = {a_corpus.render(s) for s in a_cands.strings}
    b_strings = {b_corpus.render(s) for s in b_cands.strings}
    assert a_strings == b_strings
    a_doc, _ = build_pointers(a_corpus, a_cands)
    b_doc, _ = build_pointers(b_corpus, b_cands)
    assert (pointer_text_multiset(a_corpus, a_cands, a_doc)
            == pointer_text_multiset(b_corpus, b_cands, b_doc))
    a_model = build_model(a_corpus, a_cands, 0.0, 1.0, 1.0)
    b_model = build_model(b_corpus, b_cands, 0.0, 1.0, 1.0)
    a_obj = solve_lp(build_lp(a_model)).objective
    b_obj = solve_lp(build_lp(b_model)).objective
    assert math.isclose(a_obj, b_obj, abs_tol=1e-7)
