"""Seeded workloads: corpus generators, one timed pass each, and the checks
on their outputs.

A pass calls the program through module attributes (pipeline.compress,
features.top_features, ...), so that the traced run sees every call.
Checks use the functions bound when this module is imported, before any
wrapping, and run outside the timed region.
"""

from __future__ import annotations

import hashlib
import os
import random
import string
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from deepdict import corpus, features, learn, pipeline
from deepdict.lp import compression_errors
from deepdict.pipeline import CompressJob

LADDER_WORDS = ("abra", "cad", "abra", "xyz", "ab", "ra", "ca", "dab")
LADDER_LETTERS = "abcdrxyz"
PLANTED_WORDS = ("fig", "hum", "jot")  # one per class, letters outside the ladder
LAMBDA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)
MATRIX_HEADER = ["perfbench"]
EPS = 1e-6


def ladder_texts(n_docs: int, rng: random.Random) -> list[str]:
    """The corpus ladder: each document is 3-6 words drawn from LADDER_WORDS."""
    return ["".join(rng.choice(LADDER_WORDS) for _ in range(rng.randint(3, 6)))
            for _ in range(n_docs)]


def relabelled_ladder(n_docs: int, seed: int) -> list[str]:
    """The ladder drawn with random.Random(0), its letters renamed by a
    bijection drawn from the seed (the identity at seed 0).

    Renaming keeps every symbol id, so each seed poses the same program.
    The dense-tableau solve is erratic in its input: distinct 152-symbol
    ladders take 6-26 s, so a seed that changed the instance would spread
    wall time far beyond any usable bound."""
    texts = ladder_texts(n_docs, random.Random(0))
    if seed == 0:
        return texts
    targets = "".join(random.Random(seed).sample(string.ascii_lowercase,
                                                 len(LADDER_LETTERS)))
    table = str.maketrans(LADDER_LETTERS, targets)
    return [text.translate(table) for text in texts]


def labelled_ladder(n_docs: int, seed: int,
                    rate: float) -> tuple[list[str], list[int]]:
    """Ladder documents in len(PLANTED_WORDS) classes, drawn with
    random.Random(seed); a class's planted word is inserted at a random
    word boundary of each of its documents with probability `rate`.
    Document k has 3 + k % 4 ladder words, so the corpus size varies
    across seeds only through the word lengths and the plantings."""
    rng = random.Random(seed)
    texts, labels = [], []
    for k in range(n_docs):
        label = k % len(PLANTED_WORDS)
        words = [rng.choice(LADDER_WORDS) for _ in range(3 + k % 4)]
        if rng.random() < rate:
            words.insert(rng.randint(0, len(words)), PLANTED_WORDS[label])
        texts.append("".join(words))
        labels.append(label)
    return texts, labels


def _dense(mat) -> np.ndarray:
    return mat.toarray() if hasattr(mat, "toarray") else mat.to_dense()


@dataclass
class PassOutput:
    """What one pass produced.  `detail` holds the objects the full check
    needs and is dropped after it; the rest is compared across passes."""

    fingerprints: list[str]
    objectives: list[float]
    files: list[str]
    detail: dict
    metrics: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)

    def hash_files(self) -> None:
        for path in self.files:
            with open(path, "rb") as fh:
                self.hashes[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()

    def differences(self, first: "PassOutput") -> list[str]:
        errors = []
        if self.fingerprints != first.fingerprints:
            errors.append("compression fingerprints differ between passes")
        if self.objectives != first.objectives:
            errors.append("objectives differ between passes")
        if self.hashes != first.hashes:
            errors.append("matrix files differ between passes")
        return errors


def _features(comp, model, out_dir: str) -> tuple[list[str], dict]:
    """X, G, Xhat (rho=1) and the DAG, as `deepdict features --flat`
    builds them; the three matrices are written to out_dir."""
    space = features.feature_space(comp, model)
    x = features.top_features(comp, model, space)
    g = features.dict_matrix(comp, model, space)
    xhat = features.diffuse(x, g, rho=1.0)
    features.dag_export(comp, model)
    paths = []
    for name, mat in (("X.mtx", x), ("G.mtx", g), ("Xhat.mtx", xhat)):
        paths.append(os.path.join(out_dir, name))
        features.write_matrix(paths[-1], mat, MATRIX_HEADER)
    return paths, {"space": space, "x": x, "g": g, "xhat": xhat}


def _compression_errors(comp, model, what: str) -> list[str]:
    return [f"{what}: {e}" for e in compression_errors(comp, model)[:3]]


class Workload:
    name = ""
    params: dict = {}
    small_params: dict = {}

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.docs = (self.small_params if small else self.params)["docs"]
        self.corpus = None

    def setup(self) -> None:
        """Generate and ingest the corpus (the work set-up time covers)."""
        raise NotImplementedError

    def run_pass(self, out_dir: str) -> PassOutput:
        raise NotImplementedError

    def check(self, out: PassOutput) -> list[str]:
        """Full correctness check of one pass; may add metrics to `out`."""
        raise NotImplementedError


class LadderWorkload(Workload):
    small_params = {"docs": 4}  # fewer docs leave a symbol below min_count=2

    def setup(self) -> None:
        self.corpus = corpus.ingest(relabelled_ladder(self.docs, self.seed))

    def job(self) -> CompressJob:
        p = self.params
        return CompressJob(self.corpus, max_len=p["max_len"], min_count=p["min_count"],
                           tau=p["tau"], lam=p.get("lambda", 1.0), alpha=p["alpha"],
                           cuts=p["cuts"])


class DeepCompress(LadderWorkload):
    """One deep compress of the 10-doc ladder, then X, G, Xhat and the DAG.
    The deep and the shallow-fallback LP solves do nearly all the work, so
    LP assembly and solver changes show here and feature changes do not."""

    name = "deep-compress"
    params = {"generator": "relabelled ladder", "docs": 10, "mode": "char",
              "max_len": 4, "min_count": 2, "tau": 0.0, "lambda": 1.0,
              "alpha": 1.0, "cuts": False, "rho": 1.0}

    def run_pass(self, out_dir: str) -> PassOutput:
        comp, report, model = pipeline.compress(self.job())
        paths, mats = _features(comp, model, out_dir)
        detail = dict(mats, comp=comp, model=model, lp=report.lp_objective)
        return PassOutput([comp.fingerprint()], [comp.objective], paths, detail,
                          {"rounded_objective": comp.objective})

    def check(self, out: PassOutput) -> list[str]:
        d = out.detail
        errors = _compression_errors(d["comp"], d["model"], "compression")
        if not d["lp"] <= d["comp"].objective + EPS:
            errors.append(f"LP bound {d['lp']} exceeds rounded {d['comp'].objective}")
        x, g, xhat = _dense(d["x"]), _dense(d["g"]), _dense(d["xhat"])
        expected = np.linalg.solve((np.eye(g.shape[0]) - g).T, x.T).T
        if not np.allclose(xhat, expected, rtol=1e-9, atol=1e-9):
            errors.append("Xhat differs from X (I - G)^-1")
        return errors


class BonFeatures(Workload):
    """bon_compress(K=4) of 960 labelled docs, features, stats and 20 learn
    resamples.  No LP solve: the per-document pointer scans, the
    dict-of-keys features and learn do the work."""

    name = "bon-features"
    params = {"generator": "labelled ladder", "docs": 960, "classes": 3,
              "planted_words": list(PLANTED_WORDS), "planted_rate": 0.7,
              "mode": "char", "K": 4, "min_count": 1, "rho": 1.0, "resamples": 20}
    small_params = {"docs": 60}

    def setup(self) -> None:
        self.texts, self.labels = labelled_ladder(self.docs, self.seed,
                                                  self.params["planted_rate"])
        self.corpus = corpus.ingest(self.texts)

    def run_pass(self, out_dir: str) -> PassOutput:
        p = self.params
        comp, report, model = pipeline.bon_compress(self.corpus, p["K"], p["min_count"])
        paths, mats = _features(comp, model, out_dir)
        features.stats(comp, model)
        scores = learn.accuracy_over_resamples(
            learn.LabeledMatrix(mats["x"], self.labels), p["resamples"], self.seed)
        detail = dict(mats, comp=comp, model=model)
        # the landmark objective is -(pointers + strings); its size is reported
        return PassOutput([comp.fingerprint()], [comp.objective], paths, detail,
                          {"rounded_objective": -comp.objective,
                           "nb_accuracy": scores["nb_accuracy"]})

    def check(self, out: PassOutput) -> list[str]:
        d = out.detail
        errors = _compression_errors(d["comp"], d["model"], "compression")
        expected: Counter = Counter()
        k = self.params["K"]
        for doc, text in enumerate(self.texts):
            for start in range(len(text)):
                for end in range(start + 1, min(start + k, len(text)) + 1):
                    expected[(doc, text[start:end])] += 1
        names = d["space"].names(d["model"])
        x = _dense(d["x"])
        got = Counter({(int(r), names[c]): x[r, c] for r, c in zip(*np.nonzero(x))})
        if got != expected:
            wrong = len(set(got.items()) ^ set(expected.items()))
            errors.append(f"X disagrees with an n-gram counter on {wrong} entries")
        return errors


class LambdaPath(LadderWorkload):
    """path_sweep of the 5-doc ladder with cuts over LAMBDA_GRID: many small
    programs of one structure re-solved and rebuilt as the costs change, so
    per-solve and per-build costs show here."""

    name = "lambda-path"
    params = {"generator": "relabelled ladder", "docs": 5, "mode": "char",
              "max_len": 4, "min_count": 2, "tau": 0.0, "alpha": 1.0,
              "cuts": True, "lambda_grid": list(LAMBDA_GRID)}

    def run_pass(self, out_dir: str) -> PassOutput:
        """The sweep's compressions are recorded from outside for the check."""
        points = []
        sweep_compress = pipeline.compress

        def recording(job):
            points.append(sweep_compress(job))
            return points[-1]

        pipeline.compress = recording
        try:
            result = pipeline.path_sweep(self.corpus, self.job(), list(LAMBDA_GRID))
        finally:
            pipeline.compress = sweep_compress
        return PassOutput(list(result.fingerprints), list(result.objectives), [],
                          {"result": result, "points": points})

    def check(self, out: PassOutput) -> list[str]:
        result, points = out.detail["result"], out.detail["points"]
        errors = []
        violation = result.concavity_violation()
        if violation > EPS:
            errors.append(f"concavity violation {violation}")
        if len(points) != len(LAMBDA_GRID):
            errors.append(f"{len(points)} compressions for {len(LAMBDA_GRID)} grid points")
        total = 0.0
        for lam, (comp, report, model), fingerprint in zip(LAMBDA_GRID, points,
                                                           result.fingerprints):
            errors += _compression_errors(comp, model, f"lambda={lam}")
            if not report.lp_objective <= comp.objective + EPS:
                errors.append(f"lambda={lam}: LP bound exceeds rounded objective")
            if comp.fingerprint() != fingerprint:
                errors.append(f"lambda={lam}: compression differs from the sweep's")
            total += comp.objective
        out.metrics["rounded_objective"] = total
        return errors


WORKLOADS = {w.name: w for w in (DeepCompress, BonFeatures, LambdaPath)}
