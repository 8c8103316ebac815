import functools
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from deepdict import lp
from deepdict.corpus import CHAR, CandidateSet, enumerate_candidates, equivalence_classes, ingest
from deepdict.errors import Infeasible, InvalidParam, TooLarge
from deepdict.lp import (build_lp, check_coverable, compression_errors, exact_solve,
                         prune_descent, round_to_compression, solve_lp, sparse_program)
from deepdict.model import (DICT_CHAR, DICT_STRING, DOCUMENT, Pointer, build_model,
                            character_only)
from deepdict.pipeline import CompressJob, bon_compress, compress
from deepdict.recon import Interval, ReconInstance, ReconResult, solve_dp

from oracles import (GE, LE, dense_program, epsilon_rounding, ladder_texts, naive_exact,
                     pointer_is_valid, reference_prune_descent, solve_dense)

SNAP = 1e-6


def model_for(texts, max_len, min_count, tau=0.0, lam=1.0, alpha=1.0, cfl_mode=False,
              **kwargs):
    corpus = ingest(texts, CHAR)
    candidates = enumerate_candidates(corpus, max_len, min_count)
    model = build_model(corpus, candidates, tau, lam, alpha, **kwargs)
    return character_only(model) if cfl_mode else model


def dense_rows(lp):
    """Row kinds of the dense reference, after checking that the instance
    counts the same rows without building it."""
    program, row_meta = dense_program(lp)
    assert lp.n_rows == program.rows.shape[0] == len(row_meta)
    assert lp.n_vars == program.rows.shape[1]
    return [meta[0] for meta in row_meta]


def test_layout_counts_run_of_a():
    model = model_for(["aaaa"], 4, 2)  # candidates a, aa, aaa
    lp = build_lp(model)
    assert lp.n_vars == 3 + 9 + 8 == 20
    kinds = dense_rows(lp)
    assert kinds.count("doc_cov") == 4
    assert kinds.count("dict_cov") == 6
    assert kinds.count("link_doc") == 9
    assert kinds.count("link_dict") == 2
    assert lp.n_rows == 21
    # the character-only model drops the string-kind pointers and their
    # linking rows
    cfl = build_lp(model_for(["aaaa"], 4, 2, cfl_mode=True))
    kinds = dense_rows(cfl)
    assert kinds.count("link_dict") == 0
    assert cfl.n_rows == 4 + 6 + 9 == 19


def test_layout_counts_single_symbol():
    model = model_for(["x"], 1, 1)
    lp = build_lp(model)
    assert lp.n_vars == 3
    assert dense_rows(lp) == ["doc_cov", "dict_cov", "link_doc"]


def test_lp_value_and_rounding_on_a4():
    # the relaxation is strictly below the exhaustive binary optimum here;
    # 3.3 was frozen after cross-checking the solver against an external LP
    # solver during development
    model = model_for(["aaaa"], 4, 1)
    solution = solve_lp(build_lp(model))
    assert solution.objective == pytest.approx(3.3, abs=1e-7)
    exact = exact_solve(model)
    assert exact.objective == pytest.approx(4.0, abs=1e-9)
    assert solution.objective <= exact.objective + 1e-7
    comp = round_to_compression(solution, model)
    assert not compression_errors(comp, model)
    assert comp.objective >= solution.objective - 1e-7
    assert comp.objective == pytest.approx(4.0, abs=1e-9)


def test_build_lp_allocates_no_dense_matrix():
    # the 10-document corpus ladder: its full program is 1056 x 980, a
    # 7.9 MiB dense matrix that the instance must not materialise
    model = model_for(ladder_texts(10, random.Random(0)), 4, 2)
    for cuts in (False, True):
        tracemalloc.start()
        try:
            lp = build_lp(model, cuts=cuts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert lp.n_rows == 1056 + len(lp.cut_members)


def test_sparse_program_memory_linear_in_its_size():
    # columns are laid out as array runs, not one Python tuple per nonzero:
    # building the 160-doc ladder's program adds at most five times the
    # bytes of the program it returns
    lp = build_lp(model_for(ladder_texts(160, random.Random(0)), 4, 2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        program = sparse_program(lp)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 5 * sum(part.nbytes for part in vars(program).values())


def test_solution_satisfies_rows():
    model = model_for(["abcabc"], 3, 1)
    lp = build_lp(model)
    solution = solve_lp(lp)
    prog, _ = dense_program(lp)
    ax = prog.rows @ solution.values
    ge = prog.senses == 1
    le = prog.senses == -1
    assert np.all(ax[ge] >= prog.rhs[ge] - 1e-7)
    assert np.all(ax[le] <= prog.rhs[le] + 1e-7)
    assert solution.objective == pytest.approx(
        float(prog.objective @ solution.values), abs=1e-7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_program_matches_dense_reference(seed):
    # the CSC arrays that solve_lp hands to HiGHS, densified, are the
    # reference program: its matrix, the row bounds its senses and
    # right-hand sides give, its costs and its column bounds
    rng = random.Random(seed)
    texts = ["".join(rng.choice("abc") for _ in range(rng.randint(4, 12)))
             for _ in range(rng.randint(1, 3))]
    with_cuts = 0
    for cfl_mode in (False, True):
        model = model_for(texts, 4, 1, cfl_mode=cfl_mode)
        for cuts in (False, True):
            lp = build_lp(model, cuts=cuts)
            with_cuts += len(lp.cut_members)
            sparse = sparse_program(lp)
            dense, _ = dense_program(lp)
            m, n = dense.rows.shape
            assert len(sparse.start) == n + 1 and sparse.start[-1] == len(sparse.index)
            matrix = np.zeros((m, n))
            for j in range(n):
                rows = sparse.index[sparse.start[j]:sparse.start[j + 1]]
                assert np.all(np.diff(rows) > 0)  # row order, no repeats
                matrix[rows, j] = sparse.value[sparse.start[j]:sparse.start[j + 1]]
            np.testing.assert_array_equal(matrix, dense.rows)
            np.testing.assert_array_equal(
                sparse.row_lower, np.where(dense.senses == LE, -np.inf, dense.rhs))
            np.testing.assert_array_equal(
                sparse.row_upper, np.where(dense.senses == GE, np.inf, dense.rhs))
            np.testing.assert_array_equal(sparse.cost, dense.objective)
            np.testing.assert_array_equal(sparse.lower, dense.lower)
            np.testing.assert_array_equal(sparse.upper, dense.upper)
    assert with_cuts


@pytest.mark.parametrize("n_docs,length", [(1, (4, 10)), (2, (4, 10)),
                                            (2, (8, 16)), (3, (8, 16))])
def test_solve_lp_matches_dense_reference(n_docs, length):
    # the sparse build must reach the optimum of the full dense program at
    # every size; these programs have 89, 286, 870 and 1094 variables + rows
    rng = random.Random(100 * n_docs + length[0])
    texts = ["".join(rng.choice("abc") for _ in range(rng.randint(*length)))
             for _ in range(n_docs)]
    model = model_for(texts, 4, 1)
    for cuts in (False, True):
        lp = build_lp(model, cuts=cuts)
        reference = solve_dense(dense_program(lp)[0])
        assert reference.status == "optimal"
        assert solve_lp(lp).objective == pytest.approx(reference.objective, abs=1e-7)


def count_filtered_model(texts, max_len, min_count):
    """The model over the candidates that occur min_count times, unigrams
    included: the filter enumerate_candidates applied before it kept every
    unigram.  Dropped ids are renumbered away."""
    corpus = ingest(texts, CHAR)
    full = enumerate_candidates(corpus, max_len, min_count)
    kept = [cid for cid in range(len(full)) if full.count(cid) >= min_count]
    new_id = {cid: k for k, cid in enumerate(kept)}
    strings = [full.strings[cid] for cid in kept]
    # a substring occurs wherever its superstring does, so it is kept too
    candidates = CandidateSet(strings, [full.occurrences[cid] for cid in kept],
                              [[(new_id[sub], start) for sub, start in full.substring_index[cid]]
                               for cid in kept],
                              {s: k for k, s in enumerate(strings)})
    return build_model(corpus, candidates, 0.0, 1.0, 1.0)


def test_once_only_symbol_keeps_its_unigram():
    # 'c' occurs once; its unigram stays a candidate, while min_count=2
    # still drops every longer string through it
    model = model_for(["abcab"], 3, 2)
    c = model.corpus.table.id_of("c")
    assert (c,) in model.candidates.index
    assert not any(c in s for s in model.candidates.strings if len(s) > 1)
    solution = solve_lp(build_lp(model))
    comp = round_to_compression(solution, model)
    assert compression_errors(comp, model) == []
    assert c in [model.candidates.strings[cid][0] for cid in comp.dictionary]


def test_infeasible_when_filter_removes_a_position():
    # a candidate set filtered by count at every length, unigrams included,
    # leaves the position of the once-only 'c' uncoverable
    model = count_filtered_model(["abcab"], 3, 2)
    with pytest.raises(Infeasible, match="document 0 position 3"):
        solve_lp(build_lp(model))


def test_check_coverable_matches_pointer_cover():
    """check_coverable reads only the unigrams; it must raise exactly when
    some document position has no covering pointer, naming the first.
    Enumerated candidates keep every unigram, so they always pass."""
    rng = random.Random(5)
    raised = 0
    for _ in range(30):
        # at least 6 symbols over 4 letters, so some unigram survives m=2
        texts = ["".join(rng.choice("abcd") for _ in range(rng.randint(3, 7)))
                 for _ in range(rng.randint(2, 4))]
        min_count = rng.randint(1, 2)
        check_coverable(model_for(texts, 3, min_count))
        model = count_filtered_model(texts, 3, min_count)
        uncovered = []
        for doc in model.corpus.docs:
            covered = set()
            for ptr in model.doc_pointers:
                if ptr.target == doc.id:
                    covered.update(range(ptr.location, ptr.location
                                         + model.candidates.length(ptr.source)))
            uncovered += [(doc.id, pos) for pos in range(1, len(doc) + 1)
                          if pos not in covered]
        if uncovered:
            raised += 1
            with pytest.raises(Infeasible,
                               match="document %d position %d " % uncovered[0]):
                check_coverable(model)
        else:
            check_coverable(model)
    assert 0 < raised < 30


@pytest.mark.parametrize("cfl_mode", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_intervals_match_per_target_filter(seed, cfl_mode, monkeypatch):
    # _solve_members hands one DP per document, then one per member string
    # in id order, the model's instance of that target (every interval,
    # with the string it needs) and the dictionary to filter it by
    rng = random.Random(seed)
    texts = ["".join(rng.choice("abc") for _ in range(rng.randint(3, 9)))
             for _ in range(4)]
    model = model_for(texts, 4, 2, cfl_mode=cfl_mode)
    length = model.candidates.length
    n = len(model.candidates)
    subsets = [set(range(n)), set()]
    subsets += [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(6)]
    seen = []
    monkeypatch.setattr(lp, "solve_dp", lambda instance, members:
                        seen.append((instance, members)) or ReconResult(0.0, ()))
    n_docs = len(model.corpus.docs)
    doc_inst, dict_inst = model.recon_instances
    for members in subsets:
        seen.clear()
        _, strings = lp._solve_members(model, members)
        assert len(seen) == n_docs + len(members)
        assert all(passed == members for _, passed in seen)
        assert all(inst is doc_inst[k] for k, (inst, _) in enumerate(seen[:n_docs]))
        assert [inst.target for inst, _ in seen[:n_docs]] == [
            doc.symbols for doc in model.corpus.docs]
        assert [inst.intervals for inst, _ in seen[:n_docs]] == [
            [Interval(p.location, length(p.source), model.costs.doc_costs[i], i, p.source)
             for i, p in enumerate(model.doc_pointers) if p.target == doc.id]
            for doc in model.corpus.docs]
        assert list(strings) == sorted(members)
        for cid, (inst, _) in zip(strings, seen[n_docs:]):
            assert inst is dict_inst[cid]
            assert inst.target == model.candidates.strings[cid]
            assert inst.intervals == [
                Interval(p.location, length(p.source), model.costs.dict_costs[i], i,
                         p.source if p.kind == DICT_STRING else None)
                for i, p in enumerate(model.dict_pointers) if p.target == cid]


def test_ranked_order_computed_once_per_instance(monkeypatch):
    # every dictionary the rounding and local search try is evaluated on
    # the model's instances, whose scan order is ranked on first use only
    ranked = ReconInstance.ranked.func
    computed = []

    def counting(instance):
        computed.append(instance)
        return ranked(instance)

    prop = functools.cached_property(counting)
    prop.__set_name__(ReconInstance, "ranked")
    monkeypatch.setattr(ReconInstance, "ranked", prop)
    real_dp = lp.solve_dp
    calls = []
    monkeypatch.setattr(lp, "solve_dp", lambda instance, members:
                        calls.append(instance) or real_dp(instance, members))
    model = model_for(["abcabcab", "bcabca"], 4, 1)
    comp = round_to_compression(solve_lp(build_lp(model)), model)
    assert not compression_errors(comp, model)
    doc_inst, dict_inst = model.recon_instances
    assert len(calls) > 2 * (len(doc_inst) + len(dict_inst))
    assert len({id(inst) for inst in computed}) == len(computed)
    assert {id(inst) for inst in computed} == {id(inst) for inst in calls}


def test_negative_costs_rejected_by_solver():
    corpus = ingest(["abab"], CHAR)
    candidates = enumerate_candidates(corpus, 2, 1)
    from deepdict.model import ModelInstance, bon_landmark_costs, build_pointers
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = bon_landmark_costs(doc_ptrs, dict_ptrs, candidates, 2)
    model = ModelInstance(corpus, candidates, doc_ptrs, dict_ptrs, costs)
    with pytest.raises(InvalidParam):
        solve_lp(build_lp(model))


def test_fixed_binary_membership_gives_integral_solution():
    rng = random.Random(17)
    for _ in range(12):
        texts = ["".join(rng.choice("ab") for _ in range(rng.randint(2, 9)))
                 for _ in range(rng.randint(1, 2))]
        model = model_for(texts, 3, 1, tau=rng.choice([0.0, 1.0]),
                          lam=rng.choice([0.5, 1.0]), alpha=rng.choice([0.5, 1.0]))
        cands = model.candidates
        fixed = {}
        members = set()
        for cid in range(len(cands)):
            keep = cands.length(cid) == 1 or rng.random() < 0.5
            fixed[cid] = 1.0 if keep else 0.0
            if keep:
                members.add(cid)
        program, _ = dense_program(build_lp(model), pinned=fixed)
        result = solve_dense(program)
        assert result.status == "optimal"
        snapped = np.round(result.x)
        assert np.max(np.abs(result.x - snapped)) <= SNAP
        # with the dictionary pinned, the objective decomposes into
        # independent covering DPs
        expected = sum(model.costs.string_costs[cid] for cid in members)
        for doc in model.corpus.docs:
            ivs = [Interval(p.location, cands.length(p.source),
                            model.costs.doc_costs[i], i)
                   for i, p in enumerate(model.doc_pointers)
                   if p.target == doc.id and p.source in members]
            expected += solve_dp(ReconInstance(doc.symbols, ivs)).cost
        for cid in sorted(members):
            from deepdict.model import DICT_CHAR
            ivs = [Interval(p.location, cands.length(p.source),
                            model.costs.dict_costs[i], i)
                   for i, p in enumerate(model.dict_pointers)
                   if p.target == cid and (p.kind == DICT_CHAR
                                           or p.source in members)]
            expected += solve_dp(ReconInstance(cands.strings[cid], ivs)).cost
        assert result.objective == pytest.approx(expected, abs=1e-7)


def test_exact_matches_independent_search_and_lp_bounds():
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        text = "".join(rng.choice("ab") for _ in range(rng.randint(2, 8)))
        model = model_for([text], 3, 1, tau=rng.choice([0.0, 0.5]),
                          lam=rng.choice([0.0, 1.0]), alpha=1.0)
        if len(model.candidates) > 10:
            continue
        checked += 1
        comp = exact_solve(model)
        assert not compression_errors(comp, model)
        assert comp.objective == pytest.approx(naive_exact(model), abs=1e-9)
        solution = solve_lp(build_lp(model))
        assert solution.objective <= comp.objective + 1e-7
        rounded = round_to_compression(solution, model)
        assert not compression_errors(rounded, model)
        assert rounded.objective >= comp.objective - 1e-9


def test_exact_limit():
    model = model_for(["abcabcab"], 4, 1)
    with pytest.raises(TooLarge):
        exact_solve(model, limit=5)


def test_exact_first_examples():
    model = model_for(["aaaa"], 4, 1)
    assert exact_solve(model).objective == pytest.approx(4.0)
    model16 = model_for(["a" * 16], 8, 2)
    assert exact_solve(model16).objective == pytest.approx(8.0)


# fingerprint and repr(objective) of exact_solve on the seeded models below,
# recorded from the subset enumeration that filtered by a bitmask cover
# before solving
PINNED_EXACT = {
    0: ("13b4643bc5343e85", "2.84"),
    1: ("76e6b61834e7789c", "3.4000000000000004"),
    2: ("408129a851345411", "1.62"),
    3: ("2457db6e7940f2b5", "2.0"),
    4: ("f8c0ca00ceb4fb99", "6.0"),
    5: ("3dcc0a33662dc35a", "3.8999999999999995"),
    6: ("bcd5f70ab7a153a3", "2.5999999999999996"),
    7: ("616d7efbe956df5d", "2.5999999999999996"),
    8: ("ce6d6132aceeaaa4", "2.0"),
    9: ("53f2f36213bc8542", "9.0"),
    10: ("5fed90dba371d32a", "2.5999999999999996"),
    11: ("ab466701dd06d1ca", "2.4000000000000004"),
    12: ("8ae4d7c68605ca84", "4.359999999999999"),
    13: ("9cef71d75d0769ca", "3.6000000000000005"),
    14: ("5b91872dc45eec7b", "10.0"),
    15: ("1af0ee0fb7133f55", "1.0"),
    16: ("a064e141fdca787f", "3.4000000000000004"),
    17: ("ce6d6132aceeaaa4", "2.4000000000000004"),
    18: ("1af0ee0fb7133f55", "1.38"),
    19: ("5310510cc68c6b61", "7.0"),
}


def pinned_exact_case(seed):
    """A model of at most 10 candidates drawn from the seed, with zero and
    non-dyadic costs, length-mode membership costs on every fifth seed, and
    equivalence classes on every third."""
    rng = random.Random(seed)
    while True:
        texts = ["".join(rng.choice("abc" if seed % 2 else "ab")
                         for _ in range(rng.randint(2, 7)))
                 for _ in range(rng.randint(1, 2))]
        model = model_for(texts, 3, 1, tau=rng.choice([0.0, 0.2, 0.3, 0.7]),
                          lam=rng.choice([0.0, 0.3, 0.7, 1.0]),
                          alpha=rng.choice([0.0, 0.3, 1.0]),
                          dict_cost_mode="length" if seed % 5 == 4 else "constant")
        if len(model.candidates) <= 10:
            return model, equivalence_classes(model.candidates) if seed % 3 == 0 else None


def test_exact_pinned_on_seeded_models():
    got = {}
    for seed in PINNED_EXACT:
        model, classes = pinned_exact_case(seed)
        comp = exact_solve(model, classes=classes)
        assert not compression_errors(comp, model)
        got[seed] = (comp.fingerprint(), repr(comp.objective))
    assert got == PINNED_EXACT


def test_bound_below_lp_and_exact_optimum():
    # the weak-duality bound from HiGHS's duals: never above the LP value or
    # the binary optimum, with or without cut rows, and equal to the LP
    # value up to float error
    for seed in PINNED_EXACT:
        model, _ = pinned_exact_case(seed)
        optimum = exact_solve(model).objective
        for cuts in (False, True) if seed % 5 != 4 else (False,):
            solution = solve_lp(build_lp(model, cuts=cuts))
            assert solution.bound <= solution.objective + 1e-9
            assert solution.bound <= optimum + 1e-9
            assert solution.bound == pytest.approx(solution.objective, abs=1e-9)


def test_exact_prefers_smaller_dictionary_on_ties():
    # with free membership and free reconstruction, many dictionaries tie;
    # the reported one must be minimal
    model = model_for(["aa"], 2, 1, tau=0.0, lam=0.0, alpha=0.0)
    comp = exact_solve(model)
    assert len(comp.dictionary) == 1


def test_cut_rows_on_abab():
    model = model_for(["abab"], 4, 1)
    lp = build_lp(model, cuts=True)
    assert dense_rows(lp).count("cut") == 3
    assert lp.n_rows == build_lp(model).n_rows + 3
    # one cut row per multi-member class
    assert lp.cut_members == equivalence_classes(model.candidates).multi_member()
    cfl = build_lp(model_for(["abab"], 4, 1, cfl_mode=True), cuts=True)
    assert dense_rows(cfl).count("cut") == 3


def test_cut_rows_absent_for_singleton_classes():
    model = model_for(["aaaa"], 4, 2)
    lp = build_lp(model, cuts=True)
    assert "cut" not in dense_rows(lp)
    plain = build_lp(model)
    assert lp.n_rows == plain.n_rows
    assert dense_program(lp)[0].rows.shape == dense_program(plain)[0].rows.shape


def test_cuts_require_symmetric_scheme():
    model = model_for(["abab"], 2, 1, dict_cost_mode="length")
    with pytest.raises(InvalidParam, match="symmetric cost scheme"):
        build_lp(model, cuts=True)


def test_cuts_read_the_costs():
    # one membership cost for every candidate: unigrams alone in length
    # mode all cost 1, and no class has two members to cut
    unigrams = model_for(["abab"], 1, 1, dict_cost_mode="length")
    assert build_lp(unigrams, cuts=True).cut_members == []
    assert lp.cut_classes(model_for(["abab"], 4, 1, tau=0.5)).multi_member()
    _, _, landmark = bon_compress(ingest(["abab"], CHAR), 2)  # every cost -1
    with pytest.raises(InvalidParam, match="symmetric cost scheme"):
        lp.cut_classes(landmark)


def test_cuts_preserve_exact_optimum_and_tighten_lp():
    rng = random.Random(41)
    checked = 0
    while checked < 15:
        text = "".join(rng.choice("ab") for _ in range(rng.randint(3, 8)))
        model = model_for([text], 3, 1, tau=rng.choice([0.0, 0.5]),
                          lam=rng.choice([0.5, 1.0]), alpha=rng.choice([0.5, 1.0]))
        if len(model.candidates) > 10:
            continue
        checked += 1
        classes = equivalence_classes(model.candidates)
        plain = exact_solve(model)
        cut = exact_solve(model, classes=classes)
        assert cut.objective == pytest.approx(plain.objective, abs=1e-9)
        lp_plain = solve_lp(build_lp(model))
        lp_cut = solve_lp(build_lp(model, cuts=True))
        assert lp_cut.objective >= lp_plain.objective - 1e-7
        assert lp_cut.objective <= plain.objective + 1e-7


def _drop_doc_pointer(comp, model):
    return replace(comp, doc_pointers=comp.doc_pointers[1:])


def _drop_used_member(comp, model):
    # "ab" (id 3) builds "abc" and document 1's tail
    return replace(comp, dictionary=tuple(c for c in comp.dictionary if c != 3))


def _target_non_member(comp, model):
    ptr = next(p for p in model.dict_pointers if p.target not in comp.dictionary)
    return replace(comp, dict_pointers=comp.dict_pointers + (ptr,))


def _change_objective(comp, model):
    return replace(comp, objective=comp.objective + 1.0)


def _outside_universe(comp, model):
    # a valid placement of "c" in "abc", but length-1 sources are
    # character slots, never string pointers
    return replace(comp, dict_pointers=comp.dict_pointers
                   + (Pointer(DICT_STRING, 6, 3, 2),))


def _spill_past_end(comp, model):
    # "ab" at the last position of "abcab": every position stays covered
    return replace(comp, doc_pointers=comp.doc_pointers + (Pointer(DOCUMENT, 1, 5, 3),))


@pytest.mark.parametrize("damage,message", [
    (_drop_doc_pointer, "document 0 not fully reconstructed"),
    (_spill_past_end, "document 1 not fully reconstructed"),
    (_drop_used_member, "uses non-member source"),
    (_target_non_member, "dictionary pointer targets non-member"),
    (_change_objective, "objective mismatch: 8.0 vs 9.0"),
    (_outside_universe, "compression contains pointers outside the model universe"),
])
def test_compression_errors_detects_defects(damage, message):
    model = model_for(["abcabc", "abcab"], 4, 2)
    comp = exact_solve(model)
    assert comp.dictionary == (3, 6)  # "ab" and "abc"
    assert Pointer(DICT_STRING, 6, 1, 3) in comp.dict_pointers
    assert not compression_errors(comp, model)
    errors = compression_errors(damage(comp, model), model)
    assert any(message in e for e in errors), errors


@pytest.mark.parametrize("ptr", [
    Pointer(DOCUMENT, 7, 1, 0), Pointer(DOCUMENT, 0, 1, 99), Pointer(DOCUMENT, -1, 1, 0),
    Pointer(DICT_STRING, 2, 1, 99), Pointer(DICT_CHAR, -1, 1, 0)])
def test_compression_errors_reports_ids_out_of_range(ptr):
    # two documents and three candidates ("a", "b", "ab"); a negative id
    # must not wrap around to the last document or candidate
    model = model_for(["ab", "ab"], 2, 1)
    comp = exact_solve(model)
    damaged = (replace(comp, doc_pointers=comp.doc_pointers + (ptr,)) if ptr.kind == DOCUMENT
               else replace(comp, dict_pointers=comp.dict_pointers + (ptr,)))
    assert f"invalid pointer {ptr}" in compression_errors(damaged, model)


@pytest.mark.parametrize("cid", [3, 99, -1])
def test_compression_errors_reports_dictionary_ids_out_of_range(cid):
    # at tau 0 a wrapped id -1 (candidate 2, whose pointers are all there)
    # would price and cover as if it were a member
    model = model_for(["ab", "ab"], 2, 1)
    comp = exact_solve(model)
    errors = compression_errors(replace(comp, dictionary=comp.dictionary + (cid,)), model)
    assert errors[0] == f"dictionary string {cid} does not exist"


def test_invalid_pointers_match_per_pointer_reference():
    # model pointers with one field moved, in and out of range, in both lists;
    # trigrams here share two-symbol prefixes, so a mismatch can sit in a
    # source's last symbol alone
    rng = random.Random(17)
    model = model_for(["aababb", "abbaab", "babba"], 3, 1)
    comp = round_to_compression(solve_lp(build_lp(model)), model)
    for _ in range(20):
        lists = []
        for universe in (model.doc_pointers, model.dict_pointers):
            ptrs = []
            for _ in range(15):
                ptr = universe[rng.randrange(len(universe))]
                field = rng.choice(["kind", "target", "location", "source", None])
                if field == "kind":
                    ptr = replace(ptr, kind=rng.choice([DOCUMENT, DICT_CHAR, DICT_STRING]))
                elif field is not None:
                    ptr = replace(ptr, **{field: getattr(ptr, field) + rng.randint(-9, 9)})
                ptrs.append(ptr)
            lists.append(ptrs)
        damaged = replace(comp, doc_pointers=comp.doc_pointers[:0] + tuple(lists[0]),
                          dict_pointers=comp.dict_pointers[:0] + tuple(lists[1]))
        expected = [f"invalid pointer {p}" for p in lists[0] + lists[1]
                    if not pointer_is_valid(p, model.corpus, model.candidates)]
        got = [e for e in compression_errors(damaged, model) if e.startswith("invalid pointer")]
        assert got == expected


def _seeded_compression(seed):
    rng = random.Random(seed)
    texts = ["".join(rng.choice("abc") for _ in range(rng.randint(6, 10)))
             for _ in range(3)]
    comp, _, model = compress(CompressJob(ingest(texts, CHAR), max_len=4, min_count=2))
    return rng, comp, model


def _pin_dropped_doc_pointer(rng, comp, model):
    k = rng.randrange(len(comp.doc_pointers))
    return replace(comp, doc_pointers=comp.doc_pointers[:k] + comp.doc_pointers[k + 1:])


def _pin_shifted_location(rng, comp, model):
    k = rng.randrange(len(comp.doc_pointers))
    ptr = comp.doc_pointers[k]
    return replace(comp, doc_pointers=comp.doc_pointers[:k]
                   + (replace(ptr, location=ptr.location + 1),) + comp.doc_pointers[k + 1:])


def _pin_into_non_member(rng, comp, model):
    outside = [p for p in model.dict_pointers if p.target not in comp.dictionary]
    return replace(comp, dict_pointers=comp.dict_pointers + (rng.choice(outside),))


def _pin_non_member_source(rng, comp, model):
    sources = sorted({p.source for p in comp.dict_pointers if p.kind == DICT_STRING})
    drop = rng.choice(sources)
    return replace(comp, dictionary=tuple(c for c in comp.dictionary if c != drop))


def _pin_improper_substring(rng, comp, model):
    cid = rng.choice([c for c in comp.dictionary if model.candidates.length(c) >= 2])
    return replace(comp, dict_pointers=comp.dict_pointers + (Pointer(DICT_STRING, cid, 1, cid),))


def _pin_other_model(rng, comp, model):
    other = _seeded_compression(100)[2]
    return replace(comp, doc_pointers=comp.doc_pointers
                   + (rng.choice(list(other.doc_pointers)),))


def _pin_objective_off(rng, comp, model):
    return replace(comp, objective=comp.objective + rng.choice([0.5, 1.0, 2.0]))


# the full message list of each seeded corruption, recorded when the
# pointers were frozen dataclasses checked one by one
PINNED_ERRORS = [
    (_pin_dropped_doc_pointer, [
        "document 1 not fully reconstructed", "objective mismatch: 27.0 vs 28.0"]),
    (_pin_shifted_location, [
        "invalid pointer Pointer(kind='document', target=2, location=7, source=8)",
        "document 2 not fully reconstructed",
        "compression contains pointers outside the model universe"]),
    (_pin_into_non_member, [
        "dictionary pointer targets non-member "
        "Pointer(kind='dict-char', target=3, location=1, source=0)",
        "objective mismatch: 24.0 vs 23.0"]),
    (_pin_non_member_source, [
        "dictionary pointer targets non-member "
        "Pointer(kind='dict-char', target=3, location=1, source=0)",
        "dictionary pointer targets non-member "
        "Pointer(kind='dict-char', target=3, location=2, source=1)",
        "document pointer uses non-member source "
        "Pointer(kind='document', target=0, location=2, source=3)",
        "string pointer uses non-member source "
        "Pointer(kind='dict-string', target=12, location=2, source=3)",
        "string pointer uses non-member source "
        "Pointer(kind='dict-string', target=19, location=3, source=3)"]),
    (_pin_improper_substring, [
        "invalid pointer Pointer(kind='dict-string', target=8, location=1, source=8)",
        "string pointer source not a proper substring "
        "Pointer(kind='dict-string', target=8, location=1, source=8)",
        "compression contains pointers outside the model universe"]),
    (_pin_other_model, [
        "invalid pointer Pointer(kind='document', target=0, location=5, source=0)",
        "document pointer uses non-member source "
        "Pointer(kind='document', target=0, location=5, source=0)",
        "compression contains pointers outside the model universe"]),
    (_pin_objective_off, ["objective mismatch: 24.0 vs 26.0"]),
]


@pytest.mark.parametrize("seed", range(len(PINNED_ERRORS)))
def test_compression_errors_pinned_on_seeded_corruptions(seed):
    damage, expected = PINNED_ERRORS[seed]
    rng, comp, model = _seeded_compression(seed)
    assert compression_errors(comp, model) == []
    assert compression_errors(damage(rng, comp, model), model) == expected


def test_round_is_stable_on_integral_solutions():
    model = model_for(["x"], 1, 1)
    solution = solve_lp(build_lp(model))
    assert solution.is_integral()
    comp = round_to_compression(solution, model)
    assert comp.objective == pytest.approx(solution.objective, abs=1e-9)
    assert comp.dictionary == (0,)
    assert len(comp.doc_pointers) == 1 and len(comp.dict_pointers) == 1


def test_round_records_gap_when_fractional():
    model = model_for(["xaxabxabxacxac"], 5, 2)
    solution = solve_lp(build_lp(model))
    comp = round_to_compression(solution, model)
    assert not compression_errors(comp, model)
    exact = exact_solve(model, limit=16)
    assert comp.objective >= exact.objective - 1e-9
    gap = comp.objective - solution.objective
    assert gap >= -1e-7
    # this instance rounds to the exhaustive optimum
    assert comp.objective == pytest.approx(exact.objective, abs=1e-9)


def test_round_from_fractional_vertex_mid_path():
    # at this pointer cost the relaxation sits strictly between binary
    # optima; the recipe still produces a valid compression above the bound
    model = model_for(["xaxabxabxacxac"], 5, 2, lam=1.25)
    solution = solve_lp(build_lp(model))
    assert not solution.is_integral()
    assert solution.objective == pytest.approx(37.0 / 3.0, abs=1e-7)
    comp = round_to_compression(solution, model)
    assert not compression_errors(comp, model)
    assert comp.objective == pytest.approx(12.5, abs=1e-9)
    assert comp.objective >= solution.objective - 1e-7


def _counting(monkeypatch, name):
    calls = []
    original = getattr(lp, name)
    monkeypatch.setattr(lp, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_prune_stops_at_the_bound(monkeypatch):
    # the rounding costs 9 and the bound is 6; the first trial that reaches
    # 6 ends the search, with the compression the full search ends at
    model = model_for(["bababbab"], 4, 1)
    solution = solve_lp(build_lp(model))
    raw = epsilon_rounding(solution, model)
    assert (raw.objective, solution.bound) == (9.0, 6.0)
    trials = []
    solve_trial = lp._Reconstructions.solve_trial
    monkeypatch.setattr(lp._Reconstructions, "solve_trial",
                        lambda self, *args: trials.append(args) or solve_trial(self, *args))
    full = prune_descent(raw, model)
    searched = len(trials)
    trials.clear()
    bounded = prune_descent(raw, model, solution.bound)
    assert 0 < len(trials) < searched
    assert (bounded.fingerprint(), bounded.objective) == (full.fingerprint(), 6.0)
    assert round_to_compression(solution, model) == bounded


def test_prune_runs_when_the_bound_falls_just_short(monkeypatch):
    # the 10-doc ladder rounds to its LP bound, so rounding skips the
    # prune; a bound lower by more than the margin brings it back, with
    # the same compression
    model = model_for(ladder_texts(10, random.Random(0)), 4, 2)
    solution = solve_lp(build_lp(model))
    raw = epsilon_rounding(solution, model)
    prunes = _counting(monkeypatch, "prune_descent")
    for below, runs in ((0.5 * lp.BOUND_MARGIN, 0), (2 * lp.BOUND_MARGIN, 1)):
        prunes.clear()
        comp = round_to_compression(replace(solution, bound=raw.objective - below), model)
        assert len(prunes) == runs
        assert comp == raw


def test_cutoff_stops_the_solve_once_the_duals_prove_it(monkeypatch):
    # the 5-doc ladder's character-only LP at lambda 0.25 (with cuts): the
    # deep rounding costs 31.25, and the solve with that cutoff stops early
    # with duals that prove at least 31.5; it is returned as such
    model = character_only(model_for(ladder_texts(5, random.Random(0)), 4, 2, lam=0.25))
    instance = build_lp(model, cuts=True)
    full = solve_lp(instance)
    stopped = solve_lp(instance, 31.25)
    assert stopped.basis_summary["iterations"] < full.basis_summary["iterations"]
    assert np.isnan(stopped.objective)
    assert lp.reaches_bound(31.25, stopped.bound) and stopped.bound <= full.objective + 1e-9
    # where the bound of those duals fell short, the program is solved
    # again without the cutoff, and the solution is the full solve's
    dual_bound = lp.simplex.dual_bound
    short = iter([31.0])
    monkeypatch.setattr(lp.simplex, "dual_bound",
                        lambda program, y: next(short, None) or dual_bound(program, y))
    again = solve_lp(instance, 31.25)
    assert (again.objective, again.bound) == (full.objective, full.bound)
    assert np.array_equal(again.values, full.values)
    assert again.basis_summary["iterations"] == (stopped.basis_summary["iterations"]
                                                 + full.basis_summary["iterations"])


def test_prune_descent_never_worsens():
    rng = random.Random(8)
    for _ in range(10):
        text = "".join(rng.choice("abc") for _ in range(rng.randint(4, 12)))
        model = model_for([text], 4, 1)
        raw = epsilon_rounding(solve_lp(build_lp(model)), model)
        improved = prune_descent(raw, model)
        assert improved.objective <= raw.objective + 1e-12
        assert not compression_errors(improved, model)


def _prune_jobs():
    """Seeded models with their cut flag: plain, cut and length-cost jobs
    over two or three letters, from one to three documents, then six jobs
    of five documents, too large for swap/add trials."""
    rng = random.Random(31)
    for k in range(42):
        texts = ["".join(rng.choice("abc"[:rng.randint(2, 3)])
                         for _ in range(rng.randint(4, 12)))
                 for _ in range(rng.randint(1, 3) if k < 36 else 5)]
        kind = k % 3
        model = model_for(texts, rng.randint(3, 5), rng.randint(1, 2),
                          tau=rng.choice([0.0, 0.25]) if kind < 2 else 0.0,
                          lam=rng.choice([0.5, 1.0, 1.5]), alpha=rng.choice([1.0, 0.5]),
                          dict_cost_mode="length" if kind == 2 else "constant")
        yield model, kind == 1


def test_prune_descent_matches_the_uncached_reference():
    # the cached search returns what re-solving every reconstruction per
    # trial returns, with and without a bound, on jobs small enough for
    # swap/add trials and on jobs that only drop
    swaps = improved = 0
    for model, cuts in _prune_jobs():
        solution = solve_lp(build_lp(model, cuts=cuts))
        raw = epsilon_rounding(solution, model)
        for bound in (-np.inf, solution.bound):
            comp = prune_descent(raw, model, bound)
            reference = reference_prune_descent(raw, model, bound)
            assert (comp.fingerprint(), repr(comp.objective)) == (
                reference.fingerprint(), repr(reference.objective))
            improved += comp.objective < raw.objective
        size = len(raw.dictionary)
        universe = len(model.doc_pointers) + len(model.dict_pointers)
        swaps += (size + 1) * (len(model.candidates) - size) * universe <= lp.SWAP_BUDGET
    assert 30 < swaps < 42 and improved > 20
