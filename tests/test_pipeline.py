import random

import pytest

from deepdict.corpus import CHAR, enumerate_candidates, ingest
from deepdict.errors import InvalidParam
from deepdict.lp import (build_lp, compression_errors, exact_solve, round_to_compression,
                         solve_lp)
from deepdict.model import DICT_CHAR, build_model
from deepdict.pipeline import (CompressJob, alpha_depth_check, bon_compress,
                               compress, path_sweep)

from oracles import bon_counts


def job_for(texts, **kwargs):
    return CompressJob(ingest(texts, CHAR), **kwargs)


def test_compress_run_of_a16():
    comp, report, model = compress(job_for(["a" * 16], max_len=8, min_count=1,
                                           tau=0.0, lam=1.0, alpha=1.0))
    assert report.rounded_objective == pytest.approx(8.0)
    assert report.depth >= 2
    assert report.method == "lp+round"
    assert not compression_errors(comp, model)


def test_compress_single_symbol():
    comp, report, model = compress(job_for(["x"], max_len=1, min_count=1,
                                           tau=0.3, lam=0.7, alpha=0.5))
    assert comp.dictionary == (0,)
    assert len(comp.doc_pointers) == 1
    assert len(comp.dict_pointers) == 1
    assert comp.dict_pointers[0].kind == DICT_CHAR


def test_compress_matches_exact_on_fig_string():
    job = job_for(["xaxabxabxacxac"], max_len=5, min_count=2)
    comp, report, model = compress(job)
    exact = exact_solve(model, limit=16)
    assert comp.objective == pytest.approx(exact.objective, abs=1e-9)
    assert report.gap is not None and report.gap >= -1e-7


def test_swap_move_reaches_exhaustive_optimum():
    # dropping members alone stops at 8.0 here; a swap or add move reaches
    # the exhaustive optimum
    comp, report, model = compress(job_for(["bbaaba"], max_len=4, min_count=1))
    assert comp.objective == 7.0
    assert exact_solve(model, limit=13).objective == 7.0


def test_shallow_fallback_beats_deep_rounding():
    # the deep relaxation rounds to 13.0; the character-only rounding, priced
    # in the full model, gives 12.0 and is kept
    comp, report, model = compress(job_for(["bbabaaaabbaba"], max_len=4, min_count=1))
    deep = round_to_compression(solve_lp(build_lp(model)), model)
    assert deep.objective == 13.0
    assert comp.objective == 12.0
    assert not compression_errors(comp, model)


def test_exact_if_small_routes_to_oracle():
    comp, report, model = compress(job_for(["aaaa"], max_len=4, min_count=1,
                                           exact_if_small=True))
    assert report.method == "exact"
    assert report.rounded_objective == pytest.approx(4.0)
    assert report.lp_objective is None


def test_deep_never_worse_than_cfl():
    rng = random.Random(23)
    for _ in range(8):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(4, 14)))
        deep_job = job_for([text], max_len=4, min_count=1)
        cfl_job = job_for([text], max_len=4, min_count=1, cfl_mode=True)
        _, deep_report, _ = compress(deep_job)
        _, cfl_report, _ = compress(cfl_job)
        assert deep_report.rounded_objective <= cfl_report.rounded_objective + 1e-7


def test_path_sweep_concavity_and_segments():
    corpus = ingest(["xaxabxabxacxac"], CHAR)
    job = CompressJob(corpus, max_len=5, min_count=2)
    grid = [0.25 * i for i in range(21)]
    result = path_sweep(corpus, job, grid)
    assert result.concavity_violation() <= 1e-6
    assert len(result.segments) >= 2
    # contiguity: a fingerprint never reappears after its segment ends
    seen = []
    for seg in result.segments:
        assert seg.fingerprint not in seen
        seen.append(seg.fingerprint)
    assert [lam for seg in result.segments for lam in seg.lam_values] == grid


def test_path_sweep_zero_lambda_uses_free_dictionary():
    corpus = ingest(["ababab"], CHAR)
    job = CompressJob(corpus, max_len=4, min_count=1, tau=0.0, alpha=1.0)
    result = path_sweep(corpus, job, [0.0])
    comp, report, model = compress(CompressJob(corpus, max_len=4, min_count=1,
                                               tau=0.0, lam=0.0, alpha=1.0))
    # dictionary reconstruction is free, so the objective is exactly the
    # minimum number of document pointers
    from deepdict.recon import Interval, ReconInstance, solve_dp
    ivs = [Interval(p.location, model.candidates.length(p.source), 1.0, i)
           for i, p in enumerate(model.doc_pointers)]
    min_ptrs = solve_dp(ReconInstance(corpus.docs[0].symbols, ivs)).cost
    assert report.rounded_objective == pytest.approx(min_ptrs, abs=1e-9)
    assert result.objectives[0] <= report.rounded_objective + 1e-7


def test_path_sweep_validates_grid():
    corpus = ingest(["abab"], CHAR)
    job = CompressJob(corpus, max_len=2, min_count=1)
    with pytest.raises(InvalidParam):
        path_sweep(corpus, job, [])
    with pytest.raises(InvalidParam):
        path_sweep(corpus, job, [1.0, 0.5])
    with pytest.raises(InvalidParam):
        path_sweep(corpus, job, [-1.0, 0.0])


def test_single_point_grid_single_segment():
    corpus = ingest(["abab"], CHAR)
    result = path_sweep(corpus, CompressJob(corpus, max_len=2, min_count=1), [1.0])
    assert len(result.segments) == 1
    assert result.segments[0].lam_lo == result.segments[0].lam_hi == 1.0


def test_alpha_depth_rule():
    corpus = ingest(["abcdabcdabcd"], CHAR)
    job = CompressJob(corpus, max_len=4, min_count=1)
    assert alpha_depth_check(corpus, job, alpha=0.2, k_check=4)
    with pytest.raises(InvalidParam):
        alpha_depth_check(corpus, job, alpha=0.5, k_check=4)


def test_alpha_depth_check_runs_at_alpha_one_boundary():
    # at alpha close to 1 the check reports whatever the instance does
    corpus = ingest(["a" * 8], CHAR)
    job = CompressJob(corpus, max_len=4, min_count=1)
    result = alpha_depth_check(corpus, job, alpha=0.24, k_check=4)
    assert result in (True, False)


def test_dictionary_shrinks_as_membership_cost_grows():
    rng = random.Random(6)
    checked = 0
    while checked < 6:
        text = "".join(rng.choice("ab") for _ in range(rng.randint(4, 8)))
        corpus = ingest([text], CHAR)
        candidates = enumerate_candidates(corpus, 3, 1)
        if len(candidates) > 10:
            continue
        checked += 1
        sizes = []
        for tau in (0.0, 0.5, 1.0, 2.0):
            model = build_model(corpus, candidates, tau, 1.0, 1.0)
            sizes.append(len(exact_solve(model).dictionary))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_bon_landmark_counts():
    corpus = ingest(["abab"], CHAR)
    comp, report, model = bon_compress(corpus, 2, 1)
    assert len(comp.doc_pointers) == 7  # 4 unigram + 3 bigram occurrences
    comp2, _, _ = bon_compress(corpus, 2, 2)
    assert len(comp2.doc_pointers) == 6  # 'ba' occurs once and is filtered
    assert not compression_errors(comp, model)
    assert comp.objective == -(len(comp.doc_pointers) + len(comp.dict_pointers)
                               + len(comp.dictionary))


def test_token_mode_end_to_end():
    corpus = ingest(["the cat sat on the mat", "the cat sat",
                     "on the mat the cat sat"], "token")
    comp, report, model = compress(CompressJob(corpus, max_len=3, min_count=2))
    assert not compression_errors(comp, model)
    rendered = {model.corpus.render(model.candidates.strings[c])
                for c in comp.dictionary}
    assert "the cat sat" in rendered


def test_bon_matches_bruteforce_counter():
    rng = random.Random(91)
    for _ in range(10):
        text = "".join(rng.choice("abc") for _ in range(rng.randint(2, 15)))
        corpus = ingest([text], CHAR)
        comp, _, model = bon_compress(corpus, 3, 1)
        counts = {}
        for ptr in comp.doc_pointers:
            key = tuple(corpus.table.symbols[s]
                        for s in model.candidates.strings[ptr.source])
            counts[key] = counts.get(key, 0) + 1
        assert counts == bon_counts([text], 3, 1)
