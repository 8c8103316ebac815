import hashlib
import random
from dataclasses import replace

import pytest

from deepdict import lp as lp_module
from deepdict import model as model_module
from deepdict import pipeline
from deepdict.corpus import CHAR, enumerate_candidates, ingest
from deepdict.errors import InvalidParam
from deepdict.lp import (build_lp, compression_errors, exact_solve, round_to_compression,
                         solve_lp)
from deepdict.model import DICT_CHAR, build_model
from deepdict.pipeline import CompressJob, bon_compress, compress, path_sweep

from oracles import (alpha_depth_check, bon_counts, labelled_ladder, ladder_texts,
                     reference_compress)


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


def test_exact_branch_checks_cuts_like_the_lp():
    job = job_for(["abab", "abab", "baba"], min_count=1, cuts=True, dict_cost_mode="length")
    for exact in (False, True):
        with pytest.raises(InvalidParam, match="symmetric cost scheme"):
            compress(replace(job, exact_if_small=exact))


def test_deep_never_worse_than_cfl():
    rng = random.Random(23)
    for _ in range(8):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(4, 14)))
        deep_job = job_for([text], max_len=4, min_count=1)
        cfl_job = job_for([text], max_len=4, min_count=1, cfl_mode=True)
        _, deep_report, _ = compress(deep_job)
        _, cfl_report, _ = compress(cfl_job)
        assert deep_report.rounded_objective <= cfl_report.rounded_objective + 1e-7


def test_one_pointer_enumeration_per_compress(monkeypatch):
    # the character-only restriction is cut from the deep model, not built
    # again, so each compress enumerates the pointer universe once
    build_pointers = model_module.build_pointers
    calls = []
    monkeypatch.setattr(model_module, "build_pointers",
                        lambda *args: calls.append(args) or build_pointers(*args))
    for cfl_mode in (False, True):
        calls.clear()
        compress(job_for(["bbabaaaabbaba"], max_len=4, min_count=1, cfl_mode=cfl_mode))
        assert len(calls) == 1
    calls.clear()
    corpus = ingest(["xaxabxabxacxac"], CHAR)
    path_sweep(corpus, CompressJob(corpus, max_len=5, min_count=2), [0.0, 0.5, 1.0])
    assert len(calls) == 3


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


def test_bon_pinned_on_labelled_ladder():
    # recorded when the landmark's pointers were frozen dataclasses
    texts, _ = labelled_ladder(60, 0, 0.7)
    comp, report, model = bon_compress(ingest(texts, CHAR), 4, 1)
    assert (len(comp.doc_pointers), len(comp.dict_pointers)) == (3176, 2029)
    assert (comp.fingerprint(), repr(comp.objective)) == ("afca3a09ba23a5dd", "-5529.0")


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


# fingerprint, repr(objective) and a digest of report.lines() of compress on
# the seeded jobs below, recorded when the character-only restriction was a
# second pointer enumeration
PINNED_COMPRESS = {
    0: ("3b985e2cd26b9a01", "15.75", "f80740fc78dc699c"),
    1: ("45d6c0bff1d33f07", "13.75", "eda762984df065ac"),
    2: ("0c2c26ac209778dc", "2.5", "699a66bea7d3a958"),
    3: ("7e50db6dfbadca82", "3.0", "5479b6beeb1f9881"),
    4: ("42952985d5a843c5", "10.5", "6ee79df6059d5028"),
    5: ("0f1daaf05d623aed", "10.75", "f890d2f39b320492"),
    6: ("7d77c66d8742d1c6", "13.0", "6a507d6fd2779900"),
    7: ("28c440a729b3abb0", "6.5", "633c8327f11a28e1"),
    8: ("a2ba02fdd4c55917", "6.5", "fb766a2085cd2cbf"),
    9: ("a81950eb6269a704", "24.75", "7f732f54bfedf60f"),
    10: ("8b16100570a4b2d0", "5.0", "62cccaeb4ea3a208"),
    11: ("f78ddfa21b656427", "8.0", "72d38d934bc1fdfa"),
    12: ("1d3d072af44ff3df", "22.0", "c6048f85c773a8d8"),
    13: ("7ea90989c7df2fb8", "10.5", "07f04b3889ca685a"),
    14: ("8a8889f6b5ee654f", "14.0", "830e6da7efda63bc"),
    15: ("7e50db6dfbadca82", "1.75", "6d8019d66a6bc239"),
    16: ("93b690987896aa19", "18.0", "2adae9b8a343627d"),
    17: ("b75de012e36edbbe", "2.0", "6d910a4aecca3615"),
    18: ("4fa4f2f68b7fbb87", "3.5", "3027c5a6558607ad"),
    19: ("212811276a9d7a40", "23.5", "eae76bebeae7f5de"),
    20: ("7630d804f82d705d", "10.5", "11e603dc6c5d952f"),
    21: ("adbb93b013ae67ee", "7.5", "52f8a13ec97c1644"),
    22: ("df6930e731f7b596", "3.75", "c5eaa81ddf646f27"),
    23: ("0c1046bbdd4f078c", "4.0", "7cc9faee392d1897"),
    24: ("64507ceb8c79b552", "9.0", "a0940cde31160c9a"),
    25: ("c1fa8fbb989672ed", "20.5", "be94b88b6adec649"),
    26: ("7c86b54e1f2bf7fc", "25.75", "95555db2e59c8d81"),
    27: ("8361a08b8608add7", "19.5", "f0f42ea0789b013e"),
    28: ("32bd206f48eb9ef8", "4.5", "548026541e775017"),
    29: ("78d66d938b269151", "14.0", "4c5d2a62f3c6a65b"),
    30: ("954784a6abeec920", "9.5", "67b79154eeac2377"),
    31: ("59d7ccad1ddb2887", "2.25", "1709033feea41a6b"),
    32: ("23ab85753bd33b96", "10.5", "85ce13ddd3178401"),
    33: ("8e2015c1c042bd64", "27.0", "fa82dfeedf27dd1e"),
    34: ("c850a8ef35a987d8", "24.0", "73d7e6a778fa5b55"),
    35: ("f308359a80930805", "6.25", "9ab5761958416980"),
    36: ("204929eb6e4fe15d", "10.5", "676b09d106ed1ffd"),
    37: ("9d24d08b7f3f0483", "32.0", "803ac46ebe3b15ec"),
    38: ("c9920a169a343c9c", "3.75", "3c237c31c73d6344"),
    39: ("98b91f006ed20ad9", "13.0", "13a06de024a321ac"),
}


def pinned_compress_job(seed):
    """A seeded tiny job: deep or character-only (every fourth seed), with
    or without cuts, length-mode membership costs on every fifth seed,
    alpha 0 on every sixth, routed to the exhaustive oracle on every
    seventh."""
    rng = random.Random(seed)
    exact = seed % 7 == 3
    texts = ["".join(rng.choice("abc" if seed % 2 else "ab")
                     for _ in range(rng.randint(3, 5 if exact else 12)))
             for _ in range(1 if exact else rng.randint(1, 3))]
    length_mode = seed % 5 == 4
    return job_for(texts, max_len=rng.choice([3, 4]), min_count=1,
                   tau=rng.choice([0.0, 0.25, 0.5]), lam=rng.choice([0.5, 1.0, 2.0]),
                   alpha=0.0 if seed % 6 == 5 else rng.choice([0.5, 1.0]),
                   cuts=not length_mode and rng.random() < 0.5,
                   cfl_mode=seed % 4 == 1, exact_if_small=exact,
                   dict_cost_mode="length" if length_mode else "constant")


def compress_outcome(job):
    comp, report, model = compress(job)
    assert not compression_errors(comp, model)
    lines = hashlib.sha256("\n".join(report.lines()).encode()).hexdigest()[:16]
    return comp.fingerprint(), repr(comp.objective), lines


def test_compress_pinned_on_seeded_jobs():
    got = {seed: compress_outcome(pinned_compress_job(seed)) for seed in PINNED_COMPRESS}
    assert got == PINNED_COMPRESS
    # prune_descent allows swap/add moves by the size of the model it is
    # given; gating the shallow prune by the deep pointer count ends this
    # job at 18.25
    job = job_for(["bbaaaacaabaacbac", "cbbaccc"], max_len=4, min_count=1,
                  tau=0.25, lam=0.5, alpha=1.0, cuts=True)
    assert compress_outcome(job) == ("d84df356d8183857", "18.0", "184beffa5f0b5dc0")


def test_path_sweep_pinned_on_ladder():
    corpus = ingest(ladder_texts(5, random.Random(0)), CHAR)
    job = CompressJob(corpus, max_len=4, min_count=2, tau=0.0, alpha=1.0, cuts=True)
    result = path_sweep(corpus, job, [0.0, 0.25, 0.5, 1.0, 2.0])
    assert result.fingerprints == ["ee7edc1b1dee8640", "9cf57320f53e28ed", "908e8db649bf1f78",
                                   "5cf20029e7847bc7", "5cf20029e7847bc7"]
    assert [repr(o) for o in result.objectives] == ["24.0", "30.6875", "35.125", "43.25", "57.5"]


def _ladder_job(n_docs, **kwargs):
    return job_for(ladder_texts(n_docs, random.Random(0)), max_len=4, min_count=2, **kwargs)


LAMBDA_PATH = [0.0, 0.25, 0.5, 1.0, 2.0]


def test_compress_matches_reference_without_skips():
    # the bound only skips work whose result compress would discard
    jobs = [pinned_compress_job(seed) for seed in PINNED_COMPRESS]
    jobs.append(job_for(["bbaaaacaabaacbac", "cbbaccc"], max_len=4, min_count=1,
                        tau=0.25, lam=0.5, alpha=1.0, cuts=True))
    jobs += [_ladder_job(10), _ladder_job(20)]
    jobs += [_ladder_job(5, lam=lam, cuts=True) for lam in LAMBDA_PATH]
    for job in jobs:
        comp, _, _ = compress(job)
        reference = reference_compress(job)
        assert (comp.fingerprint(), repr(comp.objective)) == (
            reference.fingerprint(), repr(reference.objective))


def _count(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_rounding_at_the_bound_skips_prune_and_shallow_half(monkeypatch):
    # the 10-doc ladder rounds to its LP value: one solve, no prune
    solves = _count(monkeypatch, pipeline, "solve_lp")
    prunes = _count(monkeypatch, lp_module, "prune_descent")
    compress(_ladder_job(10))
    assert (len(solves), len(prunes)) == (1, 0)
    # on the lambda path the shallow half is solved wherever the deep
    # rounding leaves a gap (every lambda > 0), but its bound is above the
    # deep result there, so it is never rounded
    rounds = _count(monkeypatch, pipeline, "round_to_compression")
    solves.clear()
    corpus = ingest(ladder_texts(5, random.Random(0)), CHAR)
    path_sweep(corpus, CompressJob(corpus, max_len=4, min_count=2, cuts=True), LAMBDA_PATH)
    assert (len(solves), len(rounds)) == (9, 5)
