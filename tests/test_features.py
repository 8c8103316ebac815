import random

import numpy as np
import pytest

from deepdict.corpus import CHAR, enumerate_candidates, ingest
from deepdict.errors import DimensionMismatch, InvalidParam
from deepdict.features import (SparseMatrix, dag_export, dict_matrix, diffuse,
                               feature_space, fractional_features, stats, top_features,
                               write_dag, write_matrix, write_names)
from deepdict.lp import Compression, build_lp, compression_errors, solve_lp
from deepdict.model import DICT_CHAR, DICT_STRING, DOCUMENT, Pointer, Pointers, build_model
from deepdict.pipeline import CompressJob, bon_compress, build_job_model, compress

from oracles import (bon_counts, entries, labelled_ladder, random_corpus, read_matrix,
                     same_entries)


def nested_example():
    """Document 'ababab' written as one abab block plus one ab block, with
    abab built from two ab pointers and ab from characters."""
    corpus = ingest(["ababab"], CHAR)
    candidates = enumerate_candidates(corpus, 4, 1)
    model = build_model(corpus, candidates, 0.0, 1.0, 1.0)
    ab = candidates.index[(0, 1)]
    abab = candidates.index[(0, 1, 0, 1)]
    a_id = candidates.index[(0,)]
    b_id = candidates.index[(1,)]
    comp = Compression(
        dictionary=(ab, abab),
        doc_pointers=Pointers.of((Pointer(DOCUMENT, 0, 1, abab), Pointer(DOCUMENT, 0, 5, ab))),
        dict_pointers=Pointers.of((
            Pointer(DICT_CHAR, ab, 1, a_id), Pointer(DICT_CHAR, ab, 2, b_id),
            Pointer(DICT_STRING, abab, 1, ab), Pointer(DICT_STRING, abab, 3, ab),
        )),
        objective=6.0,
    )
    assert not compression_errors(comp, model)
    return corpus, model, comp, ab, abab


def test_top_features_counts_document_pointers():
    corpus, model, comp, ab, abab = nested_example()
    space = feature_space(comp, model)
    x = top_features(comp, model, space)
    assert x.n_rows == 1 and x.n_cols == 2 + 2
    dense = x.to_dense()
    assert dense[0, space.string_feature(abab)] == 1.0
    assert dense[0, space.string_feature(ab)] == 1.0
    for sym in range(2):
        assert dense[0, space.char_feature(sym)] == 0.0


def test_dict_matrix_counts_reconstruction_sources():
    corpus, model, comp, ab, abab = nested_example()
    space = feature_space(comp, model)
    g = dict_matrix(comp, model, space)
    r_abab = space.string_feature(abab)
    r_ab = space.string_feature(ab)
    dense = g.to_dense()
    assert dense[r_abab, r_ab] == 2.0
    assert dense[r_ab, space.char_feature(0)] == 1.0
    assert dense[r_ab, space.char_feature(1)] == 1.0
    # character rows stay zero
    for c in range(g.n_cols):
        assert dense[space.char_feature(0), c] == 0.0
    power = np.linalg.matrix_power(dense, g.n_rows + 1)
    assert np.all(power == 0.0)


def test_diffuse_hand_example():
    corpus, model, comp, ab, abab = nested_example()
    space = feature_space(comp, model)
    x = top_features(comp, model, space)
    g = dict_matrix(comp, model, space)
    xhat = diffuse(x, g, rho=1.0).to_dense()
    assert xhat[0, space.string_feature(abab)] == 1.0
    assert xhat[0, space.string_feature(ab)] == 3.0
    assert xhat[0, space.char_feature(0)] == 3.0
    assert xhat[0, space.char_feature(1)] == 3.0


def test_diffuse_rho_zero_is_identity():
    corpus, model, comp, *_ = nested_example()
    x = top_features(comp, model)
    g = dict_matrix(comp, model)
    xhat = diffuse(x, g, rho=0.0)
    assert same_entries(xhat, x)


def test_diffuse_matches_linear_solve():
    rng = random.Random(12)
    for _ in range(10):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(4, 14)))
        comp, _, model = compress(CompressJob(ingest([text], CHAR),
                                              max_len=4, min_count=1))
        x = top_features(comp, model)
        g = dict_matrix(comp, model)
        xhat = diffuse(x, g, rho=1.0).to_dense()
        solved = x.to_dense() @ np.linalg.inv(np.eye(g.n_rows) - g.to_dense())
        assert np.max(np.abs(xhat - solved)) <= 1e-9


def test_diffuse_normalization_scales_outflow():
    corpus, model, comp, ab, abab = nested_example()
    space = feature_space(comp, model)
    x = top_features(comp, model, space)
    g = dict_matrix(comp, model, space)
    weights = [1.0, 1.0]
    weights[space.string_feature(abab)] = 0.5
    xhat = diffuse(x, g, rho=1.0, normalize=weights).to_dense()
    # abab's row is scaled by 1/0.5, doubling what it passes to ab
    assert xhat[0, space.string_feature(ab)] == pytest.approx(1.0 + 4.0)


def test_diffuse_validation():
    x = SparseMatrix.from_triplets(1, 2, [0], [0], [1.0])
    g = SparseMatrix.from_triplets(2, 2, [], [], [])
    with pytest.raises(InvalidParam):
        diffuse(x, g, rho=-1.0)
    with pytest.raises(InvalidParam):
        diffuse(x, g, rho=1.0, normalize=[0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        diffuse(SparseMatrix.from_triplets(1, 3, [0], [0], [1.0]), g)


def series_diffuse(top, dictionary, rho=1.0, normalize=None):
    """Reference diffusion: top @ (I + sum_n (rho*G')^n) accumulated term by
    term on {(row, col): value} dicts until a term is empty."""
    scale = normalize or [1.0] * dictionary.n_rows
    by_row = {}
    for r, c, v in zip(dictionary.rows.tolist(), dictionary.cols.tolist(),
                       dictionary.values.tolist()):
        by_row.setdefault(r, []).append((c, v * (1.0 / scale[r])))
    acc = entries(top)
    term = entries(top)
    for _ in range(dictionary.n_rows + 1):
        product = {}
        for (r, k), v in term.items():
            for c, w in by_row.get(k, ()):
                product[(r, c)] = product.get((r, c), 0.0) + v * w
        term = {key: v * rho for key, v in product.items() if v * rho != 0.0}
        if not term:
            return acc
        for key, v in term.items():
            acc[key] = acc.get(key, 0.0) + v
    raise AssertionError("the series did not terminate")


def seeded_compressions():
    rng = random.Random(21)
    for _ in range(6):
        texts = random_corpus(rng, n_docs=rng.randint(1, 3), max_doc_len=14, alphabet="ab")
        yield compress(CompressJob(ingest(texts, CHAR), max_len=4, min_count=1))
    for seed in range(2):
        texts, _ = labelled_ladder(30, seed, 0.7)
        yield bon_compress(ingest(texts, CHAR), 4, 1)


def test_diffuse_matches_power_series():
    for comp, _, model in seeded_compressions():
        x = top_features(comp, model)
        g = dict_matrix(comp, model)
        assert entries(diffuse(x, g, rho=1.0)) == series_diffuse(x, g)
        for rho in (0.5, 2.0):
            got = entries(diffuse(x, g, rho=rho))
            want = series_diffuse(x, g, rho=rho)
            assert got.keys() == want.keys()
            assert all(abs(got[k] - want[k]) <= 1e-12 * max(1.0, want[k]) for k in want)


def test_diffuse_matches_power_series_with_normalization():
    rng = random.Random(4)
    for _ in range(6):
        texts = random_corpus(rng, n_docs=2, max_doc_len=8, alphabet="ab")
        model = build_job_model(CompressJob(ingest(texts, CHAR), max_len=4, min_count=1))
        solution = solve_lp(build_lp(model))
        _, x, g, weights = fractional_features(solution, model)
        for rho in (0.5, 1.0, 2.0):
            got = entries(diffuse(x, g, rho=rho, normalize=weights))
            want = series_diffuse(x, g, rho=rho, normalize=weights)
            assert got.keys() == want.keys()
            assert all(abs(got[k] - want[k]) <= 1e-12 * max(1.0, want[k]) for k in want)


def test_diffuse_rejects_cycle():
    x = SparseMatrix.from_triplets(1, 3, [0], [0], [1.0])
    g = SparseMatrix.from_triplets(3, 3, [0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0])
    with pytest.raises(InvalidParam, match="not nilpotent"):
        diffuse(x, g)


def test_diffuse_rejects_non_finite_rho():
    x = SparseMatrix.from_triplets(1, 2, [0], [0], [1.0])
    g = SparseMatrix.from_triplets(2, 2, [0], [1], [1.0])
    for rho in (float("inf"), float("nan")):
        with pytest.raises(InvalidParam):
            diffuse(x, g, rho=rho)


def test_diffuse_normalization_must_cover_nonzero_rows():
    x = SparseMatrix.from_triplets(1, 3, [0], [0], [1.0])
    g = SparseMatrix.from_triplets(3, 3, [0, 1], [1, 2], [1.0, 1.0])
    assert diffuse(x, g, normalize=[2.0, 4.0]).to_dense()[0, 2] == 0.125
    with pytest.raises(DimensionMismatch):
        diffuse(x, g, normalize=[2.0])


def test_diffuse_normalization_longer_than_matrix():
    x = SparseMatrix.from_triplets(1, 3, [0], [0], [1.0])
    g = SparseMatrix.from_triplets(3, 3, [0, 1], [1, 2], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        diffuse(x, g, normalize=[2.0, 4.0, 1.0, 1.0])


def test_stats_depth_matches_dag_export():
    for comp, _, model in seeded_compressions():
        assert stats(comp, model)["depth"] == dag_export(comp, model).depth()


def test_dag_layers_nested():
    corpus, model, comp, ab, abab = nested_example()
    dag = dag_export(comp, model)
    assert dag.layers[("str", ab)] == 1
    assert dag.layers[("str", abab)] == 2
    assert dag.layers[("doc", 0)] == 3
    assert all(dag.layers[("char", s)] == 0 for s in range(2))
    assert dag.depth() == 2
    kinds = {e[0] for e in dag.edges}
    assert kinds == {"char-dict", "dict-dict", "dict-doc"}


def test_dag_depth_one_in_cfl_mode():
    rng = random.Random(3)
    for _ in range(6):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(3, 12)))
        comp, report, model = compress(CompressJob(ingest([text], CHAR),
                                                   max_len=3, min_count=1,
                                                   cfl_mode=True))
        assert report.depth == 1
        dag = dag_export(comp, model)
        for cid in comp.dictionary:
            assert dag.layers[("str", cid)] == 1


def test_layers_strictly_increase_along_edges():
    rng = random.Random(21)
    for _ in range(10):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(4, 16)))
        comp, _, model = compress(CompressJob(ingest([text], CHAR),
                                              max_len=4, min_count=1))
        dag = dag_export(comp, model)
        for kind, src, dst, _ in dag.edges:
            assert dag.layers[dst] > dag.layers[src]
        for cid in comp.dictionary:
            assert dag.layers[("str", cid)] >= 1


def test_stats_values():
    corpus, model, comp, *_ = nested_example()
    st = stats(comp, model)
    assert st["mnl"] == pytest.approx(3.0)
    assert st["pointer_count"] == 6
    assert st["dict_size"] == 2
    assert st["depth"] == 2


def test_stats_single_symbol():
    comp, report, model = compress(CompressJob(ingest(["x"], CHAR),
                                               max_len=1, min_count=1))
    st = stats(comp, model)
    assert st == {"pointer_count": 2, "mnl": 1.0, "dict_size": 1, "depth": 1}


def test_bon_features_match_counter():
    corpus = ingest(["abab"], CHAR)
    comp, _, model = bon_compress(corpus, 2, 1)
    space = feature_space(comp, model)
    x = top_features(comp, model, space)
    counts = bon_counts(["abab"], 2, 1)
    names = space.names(model)
    dense = x.to_dense()
    for col, name in enumerate(names[:len(space.string_ids)]):
        assert dense[0, col] == counts[tuple(name)]
    st = stats(comp, model)
    total = sum(counts.values())
    expected_mnl = sum(len(s) * c for s, c in counts.items()) / total
    assert st["mnl"] == pytest.approx(expected_mnl)


def test_sparse_matrix_from_triplets():
    # repeated positions sum in input order, zero sums drop out, and the
    # entries come out row-major
    mat = SparseMatrix.from_triplets(2, 3, [1, 0, 1, 0, 1, 0], [2, 1, 2, 2, 2, 1],
                                     [0.1, 1.0, 0.2, 3.0, 0.3, -1.0])
    assert (mat.n_rows, mat.n_cols, mat.nnz) == (2, 3, 2)
    assert mat.rows.tolist() == [0, 1] and mat.cols.tolist() == [2, 2]
    assert mat.values.tolist() == [3.0, (0.1 + 0.2) + 0.3]
    assert same_entries(SparseMatrix.from_dense(mat.to_dense()), mat)


def test_matrix_file_roundtrip(tmp_path):
    mat = SparseMatrix.from_triplets(3, 4, [0, 2], [1, 3], [2.0, 0.5])
    path = tmp_path / "m.mtx"
    write_matrix(str(path), mat, ["deepdict test"])
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# deepdict test\n3 4 2\n")
    again = read_matrix(str(path))
    assert again.n_rows == 3 and again.n_cols == 4
    assert same_entries(again, mat)


def test_names_and_dag_files(tmp_path):
    corpus, model, comp, *_ = nested_example()
    space = feature_space(comp, model)
    names = space.names(model)
    assert names == ["ab", "abab", "[a]", "[b]"]
    write_names(str(tmp_path / "names.txt"), names, ["hdr"])
    assert (tmp_path / "names.txt").read_text(encoding="utf-8").splitlines()[1:] == names
    dag = dag_export(comp, model)
    write_dag(str(tmp_path / "dag.txt"), dag, model, ["hdr"])
    lines = (tmp_path / "dag.txt").read_text(encoding="utf-8").splitlines()
    edge_lines = [ln for ln in lines if not ln.startswith(("#", "layer"))]
    assert "dict-dict\tab\tabab\t1" in edge_lines
    layer_lines = [ln for ln in lines if ln.startswith("layer")]
    assert "layer\tabab\t2" in layer_lines


def test_fractional_export_from_lp_solution():
    # pre-rounding LP weights exported as real-valued counts over the
    # membership support
    from deepdict.features import fractional_features

    corpus = ingest(["aaaa"], CHAR)
    candidates = enumerate_candidates(corpus, 4, 1)
    model = build_model(corpus, candidates, 0.0, 1.0, 1.0)
    solution = solve_lp(build_lp(model))
    space, x, g, weights = fractional_features(solution, model)
    assert len(space.string_ids) == len(weights)
    assert all(0 < w <= 1 for w in weights)
    # document rows reproduce the pointer weights exactly
    n_strings = len(model.candidates)
    doc_values = solution.values[n_strings:n_strings + len(model.doc_pointers)].tolist()
    total = sum(v for v in doc_values if v > 1e-6)
    assert sum(x.values.tolist()) == pytest.approx(total)
    assert all(v > 0 for v in x.values.tolist())
    # the weighted diffusion runs on the fractional matrices
    xhat = diffuse(x, g, rho=1.0, normalize=weights)
    assert xhat.nnz >= x.nnz
