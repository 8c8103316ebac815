import random

import numpy as np
import pytest

from deepdict.corpus import CHAR, ingest
from deepdict.errors import DegenerateTraining, DimensionMismatch
from deepdict.features import SparseMatrix, dict_matrix, feature_space, top_features
from deepdict.learn import (LabeledMatrix, accuracy_over_resamples, centroid_predict,
                            centroid_train, nb_predict, nb_train, read_labels,
                            synthetic_phrase_corpus)
from deepdict.pipeline import CompressJob, bon_compress, compress

from oracles import invariance_check, labelled_ladder, write_labels


def matrix(rows):
    return SparseMatrix.from_dense(np.array(rows, dtype=float))


def test_nb_two_class_toy():
    data = LabeledMatrix(matrix([[3, 0], [0, 3]]), [0, 1])
    model = nb_train(data)
    assert nb_predict(model, matrix([[1, 0]]).to_dense()) == [0]
    assert nb_predict(model, matrix([[0, 2]]).to_dense()) == [1]


def test_nb_tie_goes_to_lowest_class():
    data = LabeledMatrix(matrix([[1, 1], [1, 1]]), [0, 1])
    model = nb_train(data)
    assert nb_predict(model, matrix([[2, 2]]).to_dense()) == [0]


def test_nb_zero_row_uses_prior():
    data = LabeledMatrix(matrix([[2, 0], [2, 0], [0, 2]]), [1, 1, 2])
    model = nb_train(data)
    assert nb_predict(model, matrix([[0, 0]]).to_dense()) == [1]


def test_nb_single_class_rejected():
    with pytest.raises(DegenerateTraining):
        nb_train(LabeledMatrix(matrix([[1], [2]]), [0, 0]))


def test_nb_test_row_scaling_invariance():
    rng = random.Random(9)
    rows, labels = [], []
    for cls in (0, 1):
        for _ in range(3):
            rows.append([rng.randint(0, 4) + (3 if c == cls else 0)
                         for c in range(2)])
            labels.append(cls)
    model = nb_train(LabeledMatrix(matrix(rows), labels))
    for _ in range(20):
        row = [rng.randint(0, 5), rng.randint(0, 5)]
        base = nb_predict(model, matrix([row]).to_dense())
        scaled = nb_predict(model, matrix([[4 * v for v in row]]).to_dense())
        assert base == scaled


def test_centroid_orthogonal_supports():
    data = LabeledMatrix(matrix([[4, 0], [2, 0], [0, 3], [0, 5]]), [0, 0, 1, 1])
    model = centroid_train(data)
    assert centroid_predict(model, matrix([[1, 0]]).to_dense()) == 0
    assert centroid_predict(model, matrix([[0, 1]]).to_dense()) == 1


def test_centroid_tie_goes_to_lowest_class():
    data = LabeledMatrix(matrix([[1, 0], [0, 1]]), [0, 1])
    model = centroid_train(data)
    assert centroid_predict(model, matrix([[0.5, 0.5]]).to_dense()) == 0


def test_centroid_label_permutation():
    rows = [[4, 0, 1], [3, 1, 0], [0, 4, 1], [1, 3, 0]]
    data = LabeledMatrix(matrix(rows), [0, 0, 1, 1])
    swapped = LabeledMatrix(matrix(rows), [1, 1, 0, 0])
    a = centroid_train(data)
    b = centroid_train(swapped)
    sample = matrix([[2, 1, 1]]).to_dense()
    assert centroid_predict(a, sample) == 1 - centroid_predict(b, sample)


def test_centroid_scaling_options():
    data = LabeledMatrix(matrix([[4, 1, 7], [2, 1, 7], [0, 3, 7], [0, 5, 7]]),
                         [0, 0, 1, 1])
    model = centroid_train(data)
    # the constant feature has zero variance across centroids and is dropped
    assert len(model.kept_features) == 2
    assert centroid_predict(model, matrix([[3, 0, 7]]).to_dense()) == 0


def test_centroid_single_class_rejected():
    with pytest.raises(DegenerateTraining):
        centroid_train(LabeledMatrix(matrix([[1], [2]]), [3, 3]))


def test_nb_predict_rejects_empty_rows():
    model = nb_train(LabeledMatrix(matrix([[3, 0], [0, 3]]), [0, 1]))
    with pytest.raises(DimensionMismatch):
        nb_predict(model, np.zeros((0, 2)))


def test_centroid_predict_rejects_empty_sample():
    model = centroid_train(LabeledMatrix(matrix([[4, 0], [0, 3]]), [0, 1]))
    with pytest.raises(DimensionMismatch):
        centroid_predict(model, np.zeros((0, 2)))


def test_labeled_matrix_densifies_once():
    sparse = matrix([[1, 0, 2], [0, 3, 0]])
    data = LabeledMatrix(sparse, [0, 1])
    assert isinstance(data.matrix, np.ndarray)
    assert np.array_equal(data.matrix, sparse.to_dense())
    rows = np.array([[1.0, 2.0]])
    assert LabeledMatrix(rows, [0]).matrix is rows


def test_accuracy_over_resamples_pinned_on_labelled_ladder():
    # the scores of the dict-of-keys implementation, which rebuilt sparse
    # submatrices for every resample, on the same corpus and seeds
    texts, labels = labelled_ladder(120, 0, 0.7)
    comp, _, model = bon_compress(ingest(texts), 4, 1)
    scores = accuracy_over_resamples(LabeledMatrix(top_features(comp, model), labels), 10, 0)
    assert scores == {"nb_accuracy": 0.7555555555555555,
                      "centroid_accuracy": 0.8333333333333334,
                      "majority_baseline": 1 / 3}


@pytest.mark.parametrize("labels,lonely", [([0, 1, 1, 1, 2, 2, 2], 0), ([0, 1], 0),
                                           ([0, 0, 1], 1)])
def test_one_document_class_rejected_before_resampling(labels, lonely):
    # a split keeps at least one document of every class for testing, so a
    # one-document class would never be trained on
    data = LabeledMatrix(np.ones((len(labels), 4)), labels)
    with pytest.raises(DegenerateTraining, match=f"class {lonely} has one document"):
        accuracy_over_resamples(data, 3, 0)


def test_labeled_matrix_shape_check():
    with pytest.raises(DimensionMismatch):
        LabeledMatrix(matrix([[1], [2]]), [0])


def test_invariance_check_zero_and_unit():
    comp, _, model = compress(CompressJob(ingest(["ababab"], CHAR),
                                          max_len=4, min_count=1))
    space = feature_space(comp, model)
    x = top_features(comp, model, space)
    g = dict_matrix(comp, model, space)
    beta = np.zeros(space.size)
    assert invariance_check(x, g, beta) == 0.0
    beta[space.char_feature(0)] = 1.0
    assert invariance_check(x, g, beta) <= 1e-9


def test_invariance_check_random_coefficients():
    rng = np.random.default_rng(5)
    comp, _, model = compress(CompressJob(ingest(["ababab", "babab"], CHAR),
                                          max_len=4, min_count=1))
    space = feature_space(comp, model)
    x = top_features(comp, model, space)
    g = dict_matrix(comp, model, space)
    for _ in range(30):
        beta = rng.normal(size=space.size)
        assert invariance_check(x, g, beta) <= 1e-9


def test_invariance_check_dimension_mismatch():
    x = SparseMatrix.from_triplets(1, 2, [0], [0], [1.0])
    g = SparseMatrix.from_triplets(3, 3, [], [], [])
    with pytest.raises(DimensionMismatch):
        invariance_check(x, g, np.zeros(3))


def test_synthetic_corpus_classifiers_beat_baseline():
    texts, labels = synthetic_phrase_corpus(3, 5, seed=3)
    comp, _, model = compress(CompressJob(ingest(texts, CHAR),
                                          max_len=4, min_count=2))
    top = top_features(comp, model)
    scores = accuracy_over_resamples(LabeledMatrix(top, labels), 25, seed=1)
    assert scores["nb_accuracy"] >= scores["majority_baseline"] + 0.2
    assert scores["centroid_accuracy"] >= scores["majority_baseline"] + 0.2


def test_labels_file_roundtrip(tmp_path):
    path = tmp_path / "labels.txt"
    write_labels(str(path), [0, 2, 1])
    assert read_labels(str(path)) == [0, 2, 1]
