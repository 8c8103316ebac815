import random

import numpy as np
import pytest

from deepdict import simplex
from deepdict.corpus import CHAR, enumerate_candidates, equivalence_classes, ingest
from deepdict.errors import Infeasible, InvalidParam, TooLarge
from deepdict.lp import (build_lp, compression_errors, exact_solve, lp_text,
                         prune_descent, round_to_compression, solve_lp)
from deepdict.model import build_model
from deepdict.recon import Interval, ReconInstance, solve_dp

from oracles import naive_exact

SNAP = 1e-6


def model_for(texts, max_len, min_count, tau=0.0, lam=1.0, alpha=1.0, **kwargs):
    corpus = ingest(texts, CHAR)
    candidates = enumerate_candidates(corpus, max_len, min_count)
    return build_model(corpus, candidates, tau, lam, alpha, **kwargs)


def test_layout_counts_run_of_a():
    model = model_for(["aaaa"], 4, 2)  # candidates a, aa, aaa
    lp = build_lp(model)
    assert lp.n_vars == 3 + 9 + 8 == 20
    kinds = [meta[0] for meta in lp.row_meta]
    assert kinds.count("doc_cov") == 4
    assert kinds.count("dict_cov") == 6
    assert kinds.count("link_doc") == 9
    assert kinds.count("link_dict") == 2
    assert lp.program.rows.shape == (21, 20)


def test_layout_counts_single_symbol():
    model = model_for(["x"], 1, 1)
    lp = build_lp(model)
    assert lp.n_vars == 3
    kinds = [meta[0] for meta in lp.row_meta]
    assert kinds == ["doc_cov", "dict_cov", "link_doc"]


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


def test_solution_satisfies_rows():
    model = model_for(["abcabc"], 3, 1)
    lp = build_lp(model)
    solution = solve_lp(lp)
    prog = lp.program
    ax = prog.rows @ solution.values
    ge = prog.senses == 1
    le = prog.senses == -1
    assert np.all(ax[ge] >= prog.rhs[ge] - 1e-7)
    assert np.all(ax[le] <= prog.rhs[le] + 1e-7)
    assert solution.objective == pytest.approx(
        float(prog.objective @ solution.values), abs=1e-7)


@pytest.mark.parametrize("n_docs,length", [(1, (4, 10)), (2, (4, 10)),
                                            (2, (8, 16)), (3, (8, 16))])
def test_solve_lp_matches_dense_reference(n_docs, length):
    # column generation must reach the optimum of the full dense program at
    # every size; these programs have 89, 286, 870 and 1094 variables + rows
    rng = random.Random(100 * n_docs + length[0])
    texts = ["".join(rng.choice("abc") for _ in range(rng.randint(*length)))
             for _ in range(n_docs)]
    model = model_for(texts, 4, 1)
    for cuts in (False, True):
        lp = build_lp(model, cuts=cuts)
        reference = simplex.solve(lp.program)
        assert reference.status == "optimal"
        assert solve_lp(lp).objective == pytest.approx(reference.objective, abs=1e-7)


def test_solve_lp_rejects_pinned_bounds():
    # the pinned program's optimum is 5, the free relaxation's 3.3; the
    # column-generation solve cannot honour the pins, so it must refuse
    model = model_for(["aaaa"], 4, 1)
    with pytest.raises(InvalidParam):
        solve_lp(build_lp(model).fixing_strings({1: 0.0, 2: 0.0, 3: 0.0}))


def test_infeasible_when_filter_removes_a_position():
    # 'c' occurs once, so min_count=2 leaves its position uncoverable
    model = model_for(["abcab"], 3, 2)
    with pytest.raises(Infeasible):
        solve_lp(build_lp(model))


def test_negative_costs_rejected_by_solver():
    corpus = ingest(["abab"], CHAR)
    candidates = enumerate_candidates(corpus, 2, 1)
    from deepdict.model import ModelInstance, bon_landmark_costs, build_pointers
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = bon_landmark_costs(doc_ptrs, dict_ptrs, candidates, 2)
    model = ModelInstance(corpus, candidates, doc_ptrs, dict_ptrs, costs, False)
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
        lp = build_lp(model).fixing_strings(fixed)
        result = simplex.solve(lp.program)
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


def test_exact_prefers_smaller_dictionary_on_ties():
    # with free membership and free reconstruction, many dictionaries tie;
    # the reported one must be minimal
    model = model_for(["aa"], 2, 1, tau=0.0, lam=0.0, alpha=0.0)
    comp = exact_solve(model)
    assert len(comp.dictionary) == 1


def test_cut_rows_on_abab():
    model = model_for(["abab"], 4, 1)
    classes = equivalence_classes(model.candidates, model.corpus)
    lp = build_lp(model, cuts=True, classes=classes)
    cut_rows = [meta for meta in lp.row_meta if meta[0] == "cut"]
    assert len(cut_rows) == 3


def test_add_equivalence_cuts_matches_cut_build():
    from deepdict.lp import add_equivalence_cuts

    model = model_for(["abab"], 4, 1)
    classes = equivalence_classes(model.candidates, model.corpus)
    plain = build_lp(model)
    with_cuts = add_equivalence_cuts(plain, classes)
    direct = build_lp(model, cuts=True, classes=classes)
    assert with_cuts.program.rows.shape == direct.program.rows.shape
    assert with_cuts.cuts
    # already-tightened instances pass through unchanged
    assert add_equivalence_cuts(with_cuts, classes) is with_cuts


def test_cut_rows_absent_for_singleton_classes():
    model = model_for(["aaaa"], 4, 2)
    classes = equivalence_classes(model.candidates, model.corpus)
    lp = build_lp(model, cuts=True, classes=classes)
    assert not [meta for meta in lp.row_meta if meta[0] == "cut"]
    plain = build_lp(model)
    assert lp.program.rows.shape == plain.program.rows.shape


def test_cuts_require_symmetric_scheme():
    model = model_for(["abab"], 2, 1, dict_cost_mode="length")
    with pytest.raises(InvalidParam):
        build_lp(model, cuts=True)


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
        classes = equivalence_classes(model.candidates, model.corpus)
        plain = exact_solve(model)
        cut = exact_solve(model, classes=classes)
        assert cut.objective == pytest.approx(plain.objective, abs=1e-9)
        lp_plain = solve_lp(build_lp(model))
        lp_cut = solve_lp(build_lp(model, cuts=True, classes=classes))
        assert lp_cut.objective >= lp_plain.objective - 1e-7
        assert lp_cut.objective <= plain.objective + 1e-7


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


def test_prune_descent_never_worsens():
    rng = random.Random(8)
    for _ in range(10):
        text = "".join(rng.choice("abc") for _ in range(rng.randint(4, 12)))
        model = model_for([text], 4, 1)
        solution = solve_lp(build_lp(model))
        raw = round_to_compression(solution, model, improve=False)
        improved = prune_descent(raw, model)
        assert improved.objective <= raw.objective + 1e-12
        assert not compression_errors(improved, model)


def test_lp_text_dump():
    model = model_for(["x"], 1, 1)
    text = lp_text(build_lp(model))
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")
