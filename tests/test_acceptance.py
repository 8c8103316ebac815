"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and the recorded statistics.
"""

import random
import time

import numpy as np
import pytest

from deepdict.corpus import CHAR, enumerate_candidates, equivalence_classes, ingest
from deepdict.features import dict_matrix, diffuse, feature_space, top_features
from deepdict.learn import LabeledMatrix, accuracy_over_resamples, synthetic_phrase_corpus
from deepdict.lp import build_lp, exact_solve, solve_lp
from deepdict.model import DICT_CHAR, build_model
from deepdict.pipeline import CompressJob, bon_compress, compress, path_sweep
from deepdict.recon import Interval, ReconInstance, solve_dp

from oracles import (alpha_depth_check, bon_counts, dense_program, invariance_check,
                     naive_exact, same_entries, solve_dense, solve_flow, solve_fractional,
                     to_flow)


def verdict(number, name, ok, detail):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_small_corpus(rng, n_docs=(1, 2), length=(2, 10), alphabet="abc"):
    docs = rng.randint(*n_docs)
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(*length)))
            for _ in range(docs)]


def test_criterion_1_deep_vs_shallow():
    started = time.time()
    deep_values = {}
    cfl_values = {}
    for n, text, k_deep, k_cfl in [(1, "a" * 4, 4, 2), (2, "a" * 16, 8, 4),
                                   (3, "a" * 64, 16, 8)]:
        corpus = ingest([text], CHAR)
        _, deep_report, _ = compress(CompressJob(corpus, max_len=k_deep,
                                                 min_count=2, tau=0.0, lam=1.0,
                                                 alpha=1.0))
        deep_values[n] = deep_report.rounded_objective
        # the shallow landmark stores strings at their length in plaintext
        # and rebuilds them from free character slots
        _, cfl_report, _ = compress(CompressJob(corpus, max_len=k_cfl,
                                                min_count=2, tau=0.0, lam=0.0,
                                                alpha=0.0, cfl_mode=True,
                                                dict_cost_mode="length"))
        cfl_values[n] = cfl_report.rounded_objective
    elapsed = time.time() - started
    ok = (all(deep_values[n] <= 4 * n for n in (1, 2, 3))
          and all(cfl_values[n] == 2 ** (n + 1) for n in (1, 2, 3))
          and deep_values[3] < cfl_values[3]
          and elapsed < 10.0)
    verdict(1, "deep-vs-shallow separation", ok,
            f"deep={deep_values} cfl={cfl_values} elapsed={elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    started = time.time()
    rng = random.Random(20250808)
    gaps = []
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 3000:
        attempts += 1
        alphabet = "abc"[:rng.randint(1, 3)]
        texts = random_small_corpus(rng, length=(2, 10), alphabet=alphabet)
        max_len = rng.randint(1, 4)
        corpus = ingest(texts, CHAR)
        candidates = enumerate_candidates(corpus, max_len, 1)
        if len(candidates) > 12:
            continue
        checked += 1
        model = build_model(corpus, candidates, tau=rng.choice([0.0, 0.5]),
                            lam=rng.choice([0.5, 1.0]), alpha=rng.choice([0.5, 1.0]))
        exact = exact_solve(model)
        reference = naive_exact(model)
        assert exact.objective == pytest.approx(reference, abs=1e-9), texts
        solution = solve_lp(build_lp(model))
        assert solution.objective <= exact.objective + 1e-7, texts
        gaps.append(exact.objective - solution.objective)
    elapsed = time.time() - started
    ok = checked >= 50 and elapsed < 60.0
    verdict(2, "oracle equivalence", ok,
            f"corpora={checked} gap mean={np.mean(gaps):.4f} "
            f"max={np.max(gaps):.4f} zero-gap={sum(g <= 1e-9 for g in gaps)} "
            f"elapsed={elapsed:.1f}s")


def test_criterion_3_integrality_and_flow_agreement():
    rng = random.Random(4242)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = rng.randint(1, 9)
        triples = [(1, n, float(rng.randint(1, 4)))]
        for _ in range(rng.randint(0, 9)):
            start = rng.randint(1, n)
            triples.append((start, rng.randint(1, n - start + 1),
                            float(rng.randint(0, 5))))
        instance = ReconInstance(
            tuple(range(n)),
            [Interval(s, ln, c, i) for i, (s, ln, c) in enumerate(triples)])
        checked += 1
        dp = solve_dp(instance)
        flow_cost, _ = solve_flow(to_flow(instance))
        frac_cost, _ = solve_fractional(instance)
        worst = max(worst, abs(flow_cost - dp.cost), abs(frac_cost - dp.cost))
        assert abs(flow_cost - dp.cost) <= 1e-7
        assert abs(frac_cost - dp.cost) <= 1e-7
    # membership variables pinned to binary values give integral vertices
    integral_checked = 0
    for trial in range(10):
        texts = random_small_corpus(rng, length=(2, 8), alphabet="ab")
        corpus = ingest(texts, CHAR)
        candidates = enumerate_candidates(corpus, 3, 1)
        model = build_model(corpus, candidates, 0.0, 1.0, 1.0)
        fixed = {cid: (1.0 if candidates.length(cid) == 1 or rng.random() < 0.5
                       else 0.0) for cid in range(len(candidates))}
        program, _ = dense_program(build_lp(model), pinned=fixed)
        result = solve_dense(program)
        assert result.status == "optimal"
        snapped = np.round(result.x)
        assert np.max(np.abs(result.x - snapped)) <= 1e-6
        integral_checked += 1
    verdict(3, "unimodular reconstruction agreement", True,
            f"instances={checked} worst deviation={worst:.2e} "
            f"binary-pinned LPs={integral_checked}")


def test_criterion_4_equivalence_class_suite():
    rng = random.Random(99)
    bound_checked = 0
    for _ in range(25):
        texts = random_small_corpus(rng, length=(2, 14), alphabet="abc")
        corpus = ingest(texts, CHAR)
        candidates = enumerate_candidates(corpus, 6, 1)
        classes = equivalence_classes(candidates)
        assert len(classes.classes) <= 2 * corpus.total_symbols - 1
        bound_checked += 1
    unchanged = 0
    tightened = 0
    checked = 0
    attempts = 0
    while checked < 12 and attempts < 800:
        attempts += 1
        texts = random_small_corpus(rng, n_docs=(1, 1), length=(3, 8),
                                    alphabet="ab")
        corpus = ingest(texts, CHAR)
        candidates = enumerate_candidates(corpus, 3, 1)
        if len(candidates) > 10:
            continue
        checked += 1
        classes = equivalence_classes(candidates)
        model = build_model(corpus, candidates, 0.0, 1.0, 1.0)
        plain = exact_solve(model)
        with_cuts = exact_solve(model, classes=classes)
        assert with_cuts.objective == pytest.approx(plain.objective, abs=1e-9)
        unchanged += 1
        lp_plain = solve_lp(build_lp(model))
        lp_cut = solve_lp(build_lp(model, cuts=True))
        assert lp_cut.objective >= lp_plain.objective - 1e-7
        if lp_cut.objective > lp_plain.objective + 1e-7:
            tightened += 1
    verdict(4, "equivalence-class suite", checked >= 12,
            f"bound fixtures={bound_checked} cut-invariant optima={unchanged} "
            f"strictly tightened relaxations={tightened}")


def test_criterion_5_diffusion_identities():
    rng = random.Random(55)
    nrng = np.random.default_rng(55)
    comp_count = 0
    worst_series = 0.0
    worst_inv = 0.0
    betas = 0
    while comp_count < 10:
        texts = random_small_corpus(rng, length=(4, 12), alphabet="ab")
        corpus = ingest(texts, CHAR)
        comp, _, model = compress(CompressJob(corpus, max_len=4, min_count=1))
        comp_count += 1
        space = feature_space(comp, model)
        x = top_features(comp, model, space)
        g = dict_matrix(comp, model, space)
        xhat = diffuse(x, g, rho=1.0).to_dense()
        solved = x.to_dense() @ np.linalg.inv(np.eye(space.size) - g.to_dense())
        worst_series = max(worst_series, float(np.max(np.abs(xhat - solved))))
        assert worst_series <= 1e-9
        assert same_entries(diffuse(x, g, rho=0.0), x)
        for _ in range(10):
            beta = nrng.normal(size=space.size)
            worst_inv = max(worst_inv, invariance_check(x, g, beta))
            betas += 1
        assert worst_inv <= 1e-9
    verdict(5, "diffusion identities", betas >= 100,
            f"compressions={comp_count} coefficient draws={betas} "
            f"series dev={worst_series:.2e} invariance dev={worst_inv:.2e}")


def test_criterion_6_landmarks():
    rng = random.Random(66)
    exact_matches = 0
    fixtures = [["abab"], ["xaxabxabxacxac"], ["aabaabaax"]]
    for _ in range(7):
        fixtures.append(random_small_corpus(rng, length=(2, 12), alphabet="abc"))
    for texts in fixtures:
        corpus = ingest(texts, CHAR)
        max_len = rng.randint(1, 4)
        comp, _, model = bon_compress(corpus, max_len, 1)
        counts: dict = {}
        for ptr in comp.doc_pointers:
            key = tuple(corpus.table.symbols[s]
                        for s in model.candidates.strings[ptr.source])
            counts[key] = counts.get(key, 0) + 1
        assert counts == bon_counts(texts, max_len, 1)
        exact_matches += 1
    depth_one = 0
    for _ in range(10):
        texts = random_small_corpus(rng, length=(2, 12), alphabet="ab")
        corpus = ingest(texts, CHAR)
        comp, report, model = compress(CompressJob(corpus, max_len=4,
                                                   min_count=1, cfl_mode=True))
        assert report.depth == 1
        assert all(p.kind == DICT_CHAR for p in comp.dict_pointers)
        depth_one += 1
    verdict(6, "landmark compressions", True,
            f"bag-of-n-gram matches={exact_matches} depth-1 shallow runs={depth_one}")


def test_criterion_7_path_behavior():
    rng = random.Random(77)
    grid = [0.25 * i for i in range(21)]
    corpora = [["xaxabxabxacxac"]]
    for _ in range(10):
        corpora.append(random_small_corpus(rng, n_docs=(1, 1), length=(4, 8),
                                           alphabet="ab"))
    worst = 0.0
    segment_counts = []
    for texts in corpora:
        corpus = ingest(texts, CHAR)
        min_count = 2 if texts == ["xaxabxabxacxac"] else 1
        job = CompressJob(corpus, max_len=5, min_count=min_count)
        result = path_sweep(corpus, job, grid)
        worst = max(worst, result.concavity_violation())
        assert result.concavity_violation() <= 1e-6, texts
        seen = []
        for seg in result.segments:
            assert seg.fingerprint not in seen, texts
            seen.append(seg.fingerprint)
        segment_counts.append(len(result.segments))
    ok = segment_counts[0] >= 2
    verdict(7, "solution-path behavior", ok,
            f"sweeps={len(corpora)} grid=21 worst concavity violation={worst:.2e} "
            f"segments per sweep={segment_counts}")


def test_criterion_8_alpha_depth_rule():
    rng = random.Random(88)
    k_check = 4
    alpha = 0.2
    passed = 0
    for _ in range(20):
        texts = random_small_corpus(rng, n_docs=(1, 2), length=(3, 12),
                                    alphabet="abc")
        corpus = ingest(texts, CHAR)
        job = CompressJob(corpus, max_len=4, min_count=1, tau=0.0, lam=1.0)
        assert alpha_depth_check(corpus, job, alpha=alpha, k_check=k_check)
        passed += 1
    verdict(8, "alpha-depth rule", passed == 20,
            f"fixtures={passed} alpha={alpha} k_check={k_check}")


def test_criterion_9_desk_scale_learning():
    # the published corpus results are out of reach at desk scale; this is
    # the substituted check: planted-phrase classification beats the
    # majority baseline by 20 points and the mean n-gram length of document
    # pointers falls as the dictionary pointer cost grows
    texts, labels = synthetic_phrase_corpus(3, 5, seed=3)
    corpus = ingest(texts, CHAR)
    comp, _, model = compress(CompressJob(corpus, max_len=4, min_count=2,
                                          lam=1.0))
    top = top_features(comp, model)
    scores = accuracy_over_resamples(LabeledMatrix(top, labels), 100, seed=3)
    baseline = scores["majority_baseline"]
    acc_ok = (scores["nb_accuracy"] >= baseline + 0.2
              and scores["centroid_accuracy"] >= baseline + 0.2)
    mnls = []
    for lam in (0.25, 0.5, 1.0, 2.0, 5.0):
        _, report, _ = compress(CompressJob(corpus, max_len=4, min_count=2,
                                            tau=1.2, lam=lam))
        mnls.append(report.mnl)
    decreases = sum(mnls[i + 1] < mnls[i] for i in range(4))
    ok = acc_ok and decreases >= 4
    verdict(9, "desk-scale learning harness", ok,
            f"nb={scores['nb_accuracy']:.3f} centroid={scores['centroid_accuracy']:.3f} "
            f"baseline={baseline:.3f} mnl={['%.3f' % v for v in mnls]} "
            f"strict decreases={decreases}/4")
