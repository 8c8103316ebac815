"""Desk-scale evaluation harness: multinomial naive Bayes, nearest-centroid
classification, resampled accuracy, and a seeded labelled corpus.
One protocol: add-one smoothing, L1-normalised and std-scaled centroids,
and a 70/30 train/test split of every class, which needs two documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTraining, DimensionMismatch, InvalidParam
from .features import SparseMatrix

SMOOTHING = 1.0  # add-one
TRAIN_FRACTION = 0.7


@dataclass
class LabeledMatrix:
    """Labelled rows, held as one dense (rows x features) array; a
    SparseMatrix is densified once, here."""

    matrix: np.ndarray | SparseMatrix
    labels: list[int]

    def __post_init__(self) -> None:
        if isinstance(self.matrix, SparseMatrix):
            self.matrix = self.matrix.to_dense()
        if len(self.labels) != self.matrix.shape[0]:
            raise DimensionMismatch("label count must equal row count")


@dataclass
class NBModel:
    classes: list[int]
    log_priors: np.ndarray
    log_likelihood: np.ndarray  # (n_classes, n_features)


def nb_train(data: LabeledMatrix) -> NBModel:
    """Multinomial naive Bayes with add-one smoothing."""
    classes = sorted(set(data.labels))
    if len(classes) < 2:
        raise DegenerateTraining("need at least two classes")
    labels = np.asarray(data.labels)
    n_features = data.matrix.shape[1]
    counts = np.stack([data.matrix[labels == cls].sum(axis=0) for cls in classes])
    priors = np.array([np.count_nonzero(labels == cls) for cls in classes], dtype=float)
    totals = counts.sum(axis=1, keepdims=True)
    log_like = np.log(counts + SMOOTHING) - np.log(totals + SMOOTHING * n_features)
    log_priors = np.log(priors / priors.sum())
    return NBModel(classes, log_priors, log_like)


def nb_predict(model: NBModel, rows: np.ndarray) -> list[int]:
    if len(rows) == 0:
        raise DimensionMismatch("no rows to predict")
    scores = rows @ model.log_likelihood.T + model.log_priors
    # ties resolve to the lowest class id (argmax returns the first maximum)
    return [model.classes[int(np.argmax(s))] for s in scores]


@dataclass
class CentroidModel:
    classes: list[int]
    centroids: np.ndarray
    feature_scale: np.ndarray
    kept_features: np.ndarray


def centroid_train(data: LabeledMatrix) -> CentroidModel:
    """L1-normalized class centroids, scaled per feature by the inverse
    standard deviation across the centroids (zero-variance features are
    dropped)."""
    classes = sorted(set(data.labels))
    if len(classes) < 2:
        raise DegenerateTraining("need at least two classes")
    labels = np.asarray(data.labels)
    centroids = np.stack([data.matrix[labels == cls].mean(axis=0) for cls in classes])
    norms = np.abs(centroids).sum(axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    centroids = centroids / norms
    stds = centroids.std(axis=0)
    kept = np.flatnonzero(stds > 0.0)
    if len(kept) == 0:
        raise DegenerateTraining("all features have zero variance across centroids")
    scale = 1.0 / stds[kept]
    return CentroidModel(classes, centroids[:, kept] * scale, scale, kept)


def centroid_predict(model: CentroidModel, sample_rows: np.ndarray) -> int:
    """Average the sample rows, apply the training-time transforms, and
    return the nearest centroid's class (ties to the lowest class id)."""
    if len(sample_rows) == 0:
        raise DimensionMismatch("no sample rows to average")
    mean = sample_rows.mean(axis=0)
    norm = np.abs(mean).sum()
    if norm > 0.0:
        mean = mean / norm
    mean = mean[model.kept_features] * model.feature_scale
    dists = np.linalg.norm(model.centroids - mean, axis=1)
    return model.classes[int(np.argmin(dists))]


def synthetic_phrase_corpus(n_classes: int = 3, docs_per_class: int = 5,
                            seed: int = 0) -> tuple[list[str], list[int]]:
    """Seeded corpus with planted repeated phrases: each class carries an
    exclusive signature pair twice per document, every document carries one
    shared survivor pair, and a ladder of extra pairs with graded corpus
    frequencies is scattered over the documents.  The grading makes the
    dictionary shed phrases progressively as the pointer cost grows."""
    if n_classes < 2 or n_classes > 3:
        raise InvalidParam("fixture supports 2 or 3 classes")
    rng = random.Random(seed)
    signatures = ["ab", "cd", "ef"][:n_classes]
    ladder = {"ij": 2, "kl": 3, "mn": 5, "op": 10}
    n_docs = n_classes * docs_per_class
    placement: dict[str, set[int]] = {}
    slots = list(range(n_docs))
    for name, repeats in ladder.items():
        rng.shuffle(slots)
        placement[name] = set(slots[:min(repeats, n_docs)])
    texts = []
    labels = []
    for idx in range(n_docs):
        cls = idx // docs_per_class
        parts = [signatures[cls], "gh", signatures[cls]]
        for name in ladder:
            if idx in placement[name]:
                parts.append(name)
        rng.shuffle(parts)
        texts.append("".join(parts))
        labels.append(cls)
    return texts, labels


def accuracy_over_resamples(data: LabeledMatrix, n_resamples: int,
                            seed: int) -> dict[str, float]:
    """Mean accuracy of both classifiers over seeded train/test splits;
    the centroid protocol predicts one label per class from the averaged
    held-out rows of that class.  Each split trains on at least one and
    tests on at least one document of every class."""
    if n_resamples < 1:
        raise InvalidParam(f"need at least one resample, got {n_resamples}")
    rng = random.Random(seed)
    by_class: dict[int, list[int]] = {}
    for i, label in enumerate(data.labels):
        by_class.setdefault(label, []).append(i)
    for label, rows in sorted(by_class.items()):
        if len(rows) < 2:
            raise DegenerateTraining(f"class {label} has one document; "
                                     "each class needs at least two documents")
    nb_correct = nb_total = cen_correct = 0
    dense = data.matrix
    for _ in range(n_resamples):
        train_idx: list[int] = []
        test_idx: list[int] = []
        for label, rows in sorted(by_class.items()):
            rows = rows[:]
            rng.shuffle(rows)
            split = max(1, int(len(rows) * TRAIN_FRACTION))  # < len(rows), as len(rows) >= 2
            train_idx.extend(rows[:split])
            test_idx.extend(rows[split:])
        train = LabeledMatrix(dense[train_idx], [data.labels[i] for i in train_idx])
        nb = nb_train(train)
        cen = centroid_train(train)
        predictions = nb_predict(nb, dense[test_idx])
        nb_total += len(test_idx)
        nb_correct += sum(p == data.labels[i] for p, i in zip(predictions, test_idx))
        for label in sorted(by_class):
            sample = [i for i in test_idx if data.labels[i] == label]
            cen_correct += centroid_predict(cen, dense[sample]) == label
    return {
        "nb_accuracy": nb_correct / nb_total,
        "centroid_accuracy": cen_correct / (n_resamples * len(by_class)),
        "majority_baseline": max(len(v) for v in by_class.values()) / len(data.labels),
    }


def read_labels(path: str) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        try:
            return [int(word) for word in fh.read().split()]
        except ValueError as exc:  # also an undecodable file
            raise InvalidParam(f"labels must be integers: {exc}") from None
