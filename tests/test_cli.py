import hashlib
import os
import random
import subprocess
import sys

import pytest

from deepdict import cli, pipeline, simplex
from deepdict import model as model_module
from deepdict.corpus import read_corpus
from deepdict.lp import build_lp, compression_errors
from deepdict.pipeline import (CompressJob, PathResult, bon_compress, build_job_model,
                               compress)

from oracles import bon_counts, labelled_ladder, ladder_texts, read_matrix, same_entries


def write_corpus_file(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def read_file(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_compress_a16(tmp_path, capsys):
    inp = write_corpus_file(tmp_path, "a16.txt", ["a" * 16])
    out = str(tmp_path / "out")
    code = cli.main(["compress", inp, "--max-len", "8", "--min-count", "1",
                     "--tau", "0", "--lambda", "1", "--alpha", "1", "--out", out])
    assert code == 0
    report = read_file(os.path.join(out, "report.txt"))
    assert "rounded_objective: 8" in report
    assert report.startswith("# deepdict")
    assert os.path.exists(os.path.join(out, "compression.json"))


def test_compress_cfl_never_beats_deep(tmp_path):
    inp = write_corpus_file(tmp_path, "a16.txt", ["a" * 16])
    out_deep = str(tmp_path / "deep")
    out_cfl = str(tmp_path / "cfl")
    assert cli.main(["compress", inp, "--max-len", "8", "--min-count", "1",
                     "--out", out_deep]) == 0
    assert cli.main(["compress", inp, "--max-len", "8", "--min-count", "1",
                     "--cfl", "--out", out_cfl]) == 0

    def rounded(path):
        for line in read_file(os.path.join(path, "report.txt")).splitlines():
            if line.startswith("rounded_objective:"):
                return float(line.split(":")[1])
        raise AssertionError("missing objective")

    assert rounded(out_cfl) >= rounded(out_deep) - 1e-7
    assert rounded(out_deep) == pytest.approx(8.0)


def test_compress_exact_and_cuts_flags(tmp_path):
    inp = write_corpus_file(tmp_path, "a4.txt", ["aaaa"])
    out = str(tmp_path / "exact")
    assert cli.main(["compress", inp, "--min-count", "1", "--exact", "--cuts",
                     "--out", out]) == 0
    report = read_file(os.path.join(out, "report.txt"))
    assert "method: exact" in report
    assert "rounded_objective: 4" in report


def test_compress_deterministic_rerun(tmp_path):
    inp = write_corpus_file(tmp_path, "doc.txt", ["abcabcab", "cabcab"])
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    args = ["compress", inp, "--min-count", "1", "--out"]
    assert cli.main(args + [out1]) == 0
    assert cli.main(args + [out2]) == 0
    for name in ("report.txt", "compression.json"):
        a = read_file(os.path.join(out1, name)).replace(out1, "OUT")
        b = read_file(os.path.join(out2, name)).replace(out2, "OUT")
        assert a == b, name


def test_compress_empty_corpus_exits_2(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert cli.main(["compress", str(path), "--out", str(tmp_path / "o")]) == 2


def test_compress_empty_document_exits_2(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n", encoding="utf-8")
    assert cli.main(["compress", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag,value", [("--tau", "inf"), ("--tau", "nan"),
                                        ("--lambda", "nan"), ("--lambda", "inf"),
                                        ("--alpha", "nan")])
def test_compress_non_finite_cost_exits_2(tmp_path, capsys, flag, value):
    inp = write_corpus_file(tmp_path, "abab.txt", ["abab"])
    code = cli.main(["compress", inp, "--min-count", "1", flag, value,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    assert "nan" not in captured.out
    assert "must be finite" in captured.err


def test_compress_solver_iteration_limit_exits_3(tmp_path, monkeypatch, capsys):
    # a solve that stops short of the optimum must end as a numerical
    # failure, not a traceback
    inp = write_corpus_file(tmp_path, "ladder.txt",
                            ["abracadabra cadabra", "cadabra xyz abra",
                             "dab abra ca xyz", "xyz abracad dab"])
    monkeypatch.setitem(simplex.HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    assert cli.main(["compress", inp, "--out", str(tmp_path / "o")]) == 3
    assert "iteration limit" in capsys.readouterr().err.lower()


def test_solver_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # the solver's MemoryError is reported with the size of the program
    inp = write_corpus_file(tmp_path, "c.txt", ["aabaabaax", "abaabax"])
    lp = build_lp(build_job_model(CompressJob(read_corpus(inp, "char"))))

    def run(program, objective_bound=None):
        raise MemoryError("std::bad_alloc")

    monkeypatch.setattr(simplex, "run", run)
    assert cli.main(["compress", inp, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert (f"TooLarge: out of memory solving the relaxation: {lp.n_rows} rows, "
            f"{lp.n_vars} columns") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("module, name, stage", [
    (model_module, "_pointer_arrays", "building the pointer universe: {pointers} pointers, "
                                      "{candidates} candidates"),
    (simplex, "csc", "assembling the relaxation: {rows} rows, {columns} columns"),
], ids=["pointers", "assembly"])
def test_out_of_memory_names_its_stage(tmp_path, monkeypatch, capsys, module, name, stage):
    # a MemoryError while building the pointers or the sparse program is
    # reported with that stage and its size
    inp = write_corpus_file(tmp_path, "c.txt", ["aabaabaax", "abaabax"])
    model = build_job_model(CompressJob(read_corpus(inp, "char")))
    lp = build_lp(model)
    size = {"pointers": len(model.doc_pointers) + len(model.dict_pointers),
            "candidates": len(model.candidates), "rows": lp.n_rows, "columns": lp.n_vars}

    def fail(*args):
        raise MemoryError

    monkeypatch.setattr(module, name, fail)
    assert cli.main(["compress", inp, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "TooLarge: out of memory " + stage.format(**size) in err
    assert "Traceback" not in err


def test_out_of_memory_elsewhere_exits_2(tmp_path, monkeypatch, capsys):
    inp = write_corpus_file(tmp_path, "c.txt", ["aabaabaax", "abaabax"])

    def build(job):
        raise MemoryError

    monkeypatch.setattr(pipeline, "build_job_model", build)
    assert cli.main(["compress", inp, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "TooLarge: out of memory" in err and "Traceback" not in err


def test_compress_report_independent_of_blas_threads(tmp_path):
    # the 10-document corpus ladder with cuts, compressed in two fresh
    # processes at one and at two OpenBLAS threads
    inp = write_corpus_file(tmp_path, "ladder.txt", ladder_texts(10, random.Random(0)))
    out = str(tmp_path / "out")
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "deepdict.cli", "compress", inp,
                               "--cuts", "--out", out], env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append([read_file(os.path.join(out, name))
                        for name in ("report.txt", "compression.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("as_dir", [False, True])
def test_undecodable_corpus_exits_2(tmp_path, capsys, as_dir):
    # a data error, reported without a traceback, in either corpus form
    if as_dir:
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "0.txt").write_bytes(b"abab\n")
        (tmp_path / "docs" / "1.txt").write_bytes(b"ab\xff\xfeab\n")
        inp = str(tmp_path / "docs")
    else:
        (tmp_path / "bad.txt").write_bytes(b"ab\xff\xfeab\n")
        inp = str(tmp_path / "bad.txt")
    assert cli.main(["compress", inp, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err and "Traceback" not in err


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        cli.main(["compress"])  # missing input
    assert err.value.code == 1


def test_features_bon_matches_counter(tmp_path):
    inp = write_corpus_file(tmp_path, "abab.txt", ["abab"])
    out = str(tmp_path / "feat")
    assert cli.main(["bon", inp, "--max-len", "2", "--min-count", "1",
                     "--out", out]) == 0
    x = read_matrix(os.path.join(out, "X.mtx"))
    names = [ln for ln in read_file(os.path.join(out, "features.txt")).splitlines()
             if not ln.startswith("#")]
    counts = bon_counts(["abab"], 2, 1)
    got = {}
    for c, v in zip(x.cols.tolist(), x.values.tolist()):
        got[names[c]] = v
    assert got == {"".join(s): float(v) for s, v in counts.items()}
    assert os.path.exists(os.path.join(out, "dag.txt"))


def test_features_flat_rho_zero_equals_top(tmp_path):
    inp = write_corpus_file(tmp_path, "abab.txt", ["abab"])
    out = str(tmp_path / "feat")
    assert cli.main(["features", inp, "--min-count", "1", "--flat",
                     "--rho", "0", "--out", out]) == 0
    x = read_matrix(os.path.join(out, "X.mtx"))
    xhat = read_matrix(os.path.join(out, "Xhat.mtx"))
    assert same_entries(x, xhat)


@pytest.mark.filterwarnings("error")
def test_features_non_finite_diffusion_exits_3(tmp_path, capsys):
    # at rho 1e308 the counts passed down the dictionary DAG overflow; the run
    # must end as a numerical failure, without a warning or a traceback
    inp = write_corpus_file(tmp_path, "ab.txt", ["ababab"])
    assert cli.main(["features", inp, "--min-count", "1", "--flat", "--rho", "1e308",
                     "--out", str(tmp_path / "o")]) == 3
    assert "not finite" in capsys.readouterr().err


# sha256 of the matrices of the run in the test below; their bodies are
# those the dict-of-keys SparseMatrix, before the coordinate-array form, wrote
PINNED_FRACTIONAL_FILES = {
    "X.mtx": "ea5377a586bd0feb4a43a076205393b0682413f55125827af256b37bafef4b45",
    "G.mtx": "aaa0f66621e9050f2250fca9a0378c03ab21d707a9ead52d557c52e53f9db91a",
    "Xhat.mtx": "058d82ae9d620e7aad227d77c246442725d5efc07d6c81dfe28057b2dc1e4826",
    "Xfrac.mtx": "bd157c6d9659c1f68484dcade6efbc1d4291e916d609a68ff6a267547edfef9c",
    "Gfrac.mtx": "65c8852fb574114929be901fb6af8d961383bc5044a31acb0b556f23ef301528",
    "Xfrac_hat.mtx": "a8a46b098b886fc1fcc4464088ba5e253e3734af8d8b742c48f922c4f87359ea",
}


def test_features_fractional_files_pinned(tmp_path, monkeypatch):
    # the 5-document ladder's cut LP at lambda 0.25 is fractional; relative
    # paths keep the header lines fixed
    monkeypatch.chdir(tmp_path)
    write_corpus_file(tmp_path, "corpus.txt", ladder_texts(5, random.Random(0)))
    assert cli.main(["features", "corpus.txt", "--fractional", "--flat", "--normalize",
                     "--rho", "0.5", "--cuts", "--lambda", "0.25", "--out", "feat"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "feat" / name).read_bytes()).hexdigest()
               for name in PINNED_FRACTIONAL_FILES}
    assert digests == PINNED_FRACTIONAL_FILES


PINNED_BON_FILES = {
    "X.mtx": "fb1a7526b23288312953e415adad29452989686f397629b96e13d05639dcbd91",
    "G.mtx": "48146679df263f6b91d19ecb83df7fbcaf309182bbea8b2cf8b9af737da01b43",
    "Xhat.mtx": "711e6f49c074a78e45c32b07cf0ad58a7dac339bf223b4583581375619c9e0b0",
    "features.txt": "66001f768be3071ae7d0afce5e24df6fb14e18e5a7339117ffb5ed8fce3c1ec7",
    "dag.txt": "a2e416e3ea38bf30287f644a4360c4c329e241ac612a657aeb459e9439b57ed3",
}


def test_features_bon_files_pinned(tmp_path, monkeypatch):
    # the 60-document labelled ladder; relative paths keep the headers fixed
    monkeypatch.chdir(tmp_path)
    write_corpus_file(tmp_path, "corpus.txt", labelled_ladder(60, 0, 0.7)[0])
    assert cli.main(["bon", "corpus.txt", "--max-len", "4", "--min-count", "1",
                     "--flat", "--out", "bon"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "bon" / name).read_bytes()).hexdigest()
               for name in PINNED_BON_FILES}
    assert digests == PINNED_BON_FILES


def test_compression_json_pinned_on_ladder(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus_file(tmp_path, "corpus.txt", ladder_texts(20, random.Random(0)))
    assert cli.main(["compress", "corpus.txt", "--out", "comp"]) == 0
    digest = hashlib.sha256((tmp_path / "comp" / "compression.json").read_bytes()).hexdigest()
    assert digest == "185952b2a8a7f562dad5503273c5376438507a335f00b14199eff9fab5a13617"


def test_features_fractional_rounds_like_features(tmp_path):
    # --fractional adds files from the relaxation; the rounded files keep
    # the bodies that features writes without it (the deep rounding alone
    # gives 13.0 here, the shallow fallback 12.0)
    inp = write_corpus_file(tmp_path, "b.txt", ["bbabaaaabbaba"])
    plain, frac = str(tmp_path / "plain"), str(tmp_path / "frac")
    args = ["features", inp, "--min-count", "1", "--flat"]
    assert cli.main(args + ["--out", plain]) == 0
    assert cli.main(args + ["--fractional", "--normalize", "--out", frac]) == 0
    for name in ("X.mtx", "G.mtx", "Xhat.mtx", "dag.txt", "features.txt"):
        bodies = [[line for line in read_file(os.path.join(out, name)).splitlines()
                   if not line.startswith("#")] for out in (plain, frac)]
        assert bodies[0] == bodies[1], name


@pytest.mark.parametrize("flags, solves", [([], 2), (["--cfl"], 1)])
def test_features_fractional_reuses_deep_solution(tmp_path, monkeypatch, flags, solves):
    # compress solves the deep relaxation (and, unless --cfl, the shallow
    # one); the fractional files are read from the deep solution it keeps
    inp = write_corpus_file(tmp_path, "c.txt", ["aabaabaax", "abaabax"])
    run = simplex.run
    programs = []
    monkeypatch.setattr(simplex, "run",
                        lambda program, *bound: programs.append(program) or run(program, *bound))
    assert cli.main(["features", inp, "--fractional", "--flat",
                     "--out", str(tmp_path / "f")] + flags) == 0
    assert len(programs) == solves


def test_features_deterministic_rerun(tmp_path):
    inp = write_corpus_file(tmp_path, "doc.txt", ["ababab", "babab"])
    out1 = str(tmp_path / "one")
    out2 = str(tmp_path / "two")
    args = ["features", inp, "--min-count", "1", "--flat", "--out"]
    assert cli.main(args + [out1]) == 0
    assert cli.main(args + [out2]) == 0
    for name in ("X.mtx", "G.mtx", "Xhat.mtx", "features.txt", "dag.txt"):
        a = read_file(os.path.join(out1, name)).replace(out1, "OUT")
        b = read_file(os.path.join(out2, name)).replace(out2, "OUT")
        assert a == b, name


def test_path_writes_tables(tmp_path):
    inp = write_corpus_file(tmp_path, "abab.txt", ["abab"])
    out = str(tmp_path / "path")
    assert cli.main(["path", inp, "--min-count", "1", "--grid", "0,1,2",
                     "--out", out]) == 0
    rows = [ln for ln in read_file(os.path.join(out, "objective.tsv")).splitlines()
            if not ln.startswith("#")]
    assert rows[0] == "lambda\tobjective\tmnl"
    assert len(rows) == 4
    seg_rows = [ln for ln in read_file(os.path.join(out, "segments.tsv")).splitlines()
                if not ln.startswith("#")]
    assert len(seg_rows) >= 2


def test_path_single_point(tmp_path):
    inp = write_corpus_file(tmp_path, "abab.txt", ["abab"])
    out = str(tmp_path / "path")
    assert cli.main(["path", inp, "--min-count", "1", "--grid", "1.0",
                     "--out", out]) == 0
    seg_rows = [ln for ln in read_file(os.path.join(out, "segments.tsv")).splitlines()
                if not ln.startswith("#")]
    assert len(seg_rows) == 2  # header plus one segment


def test_path_self_check_exits_3(tmp_path, monkeypatch):
    inp = write_corpus_file(tmp_path, "abab.txt", ["abab"])

    def fake_sweep(corpus, job, grid):
        return PathResult([], list(grid), [5.0, 0.0, 6.0], [1.0] * len(grid))

    monkeypatch.setattr(cli, "path_sweep", fake_sweep)
    code = cli.main(["path", inp, "--min-count", "1", "--grid", "0,1,2",
                     "--out", str(tmp_path / "p")])
    assert code == 3


def test_features_fractional_export(tmp_path):
    inp = write_corpus_file(tmp_path, "a4.txt", ["aaaa"])
    out = str(tmp_path / "frac")
    assert cli.main(["features", inp, "--min-count", "1", "--fractional",
                     "--flat", "--normalize", "--out", out]) == 0
    xfrac = read_file(os.path.join(out, "Xfrac.mtx"))
    assert "# fractional: true" in xfrac
    for name in ("Gfrac.mtx", "features_frac.txt", "weights.txt",
                 "Xfrac_hat.mtx"):
        assert os.path.exists(os.path.join(out, name)), name
    weights = [float(v) for v in
               read_file(os.path.join(out, "weights.txt")).splitlines()
               if not v.startswith("#")]
    assert weights and all(0 < w <= 1 for w in weights)


def test_eval_labeled_input(tmp_path):
    inp = write_corpus_file(tmp_path, "docs.txt",
                            ["ababab", "ababab", "cdcdcd", "cdcdcd"])
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n0\n1\n1\n", encoding="utf-8")
    out = str(tmp_path / "ev")
    code = cli.main(["eval", inp, "--labels", str(labels),
                     "--resamples", "4", "--min-count", "2", "--bon", "2",
                     "--out", out])
    assert code == 0
    assert "top_nb_accuracy:" in read_file(os.path.join(out, "eval.txt"))


@pytest.mark.parametrize("mode, lines", [
    ("char", ["abcabq", "abcab", "cabcab", "bcabca"]),  # 'q' occurs once
    ("token", ["the cat sat", "the cat sat down", "a cat sat", "the dog sat"]),
])
def test_once_only_symbols_run_end_to_end(tmp_path, mode, lines):
    # every unigram is a candidate whatever --min-count (2 by default), so
    # a symbol that occurs once no longer stops a run
    inp = write_corpus_file(tmp_path, "docs.txt", lines)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n0\n1\n1\n", encoding="utf-8")
    for argv in (["compress", inp], ["features", inp, "--flat"], ["bon", inp],
                 ["eval", inp, "--labels", str(labels), "--resamples", "2", "--bon", "2"]):
        assert cli.main(argv + ["--mode", mode, "--out", str(tmp_path / argv[0])]) == 0
    corpus = read_corpus(inp, mode)
    for comp, _, model in (compress(CompressJob(corpus)), bon_compress(corpus, 4, 2)):
        assert compression_errors(comp, model) == []


def test_eval_label_mismatch_exits_2(tmp_path):
    inp = write_corpus_file(tmp_path, "docs.txt", ["abab", "baba"])
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n", encoding="utf-8")
    assert cli.main(["eval", inp, "--labels", str(labels),
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("argv,code,message", [
    (["path", "{docs}", "--grid", "1,a"], 1, "usage error"),
    (["path", "{docs}", "--grid", ","], 1, "usage error"),
    (["eval", "{docs}", "--labels", "{labels}"], 2, "labels must be integers"),
    # no resample means no classifier ran, so there is no accuracy to print
    (["demo", "--resamples", "0", "--max-len", "3", "--bon", "2"], 2, "at least one resample"),
    (["demo", "--resamples", "-1", "--max-len", "3", "--bon", "2"], 2, "at least one resample"),
    # the landmark is assembled without a solve, so it has no relaxation to export
    (["bon", "{docs}", "--max-len", "2", "--fractional"], 1, "usage error"),
    (["path", "{docs}", "--grid", "nan"], 1, "usage error"),
    (["path", "{docs}", "--grid", "1,inf"], 1, "usage error"),
    # the exhaustive branch checks cuts as the LP does
    (["compress", "{docs}", "--min-count", "1", "--cuts", "--dict-cost", "length", "--exact"],
     2, "equivalence cuts require the symmetric cost scheme"),
    # every split tests each class on at least one document, so it needs two
    (["eval", "{trio}", "--labels", "{lonely}", "--min-count", "1", "--bon", "2"],
     2, "class 1 has one document; each class needs at least two documents"),
    # a landmark of length 0 has no n-gram to count
    (["bon", "{docs}", "--max-len", "0"], 2, "max_len must be >= 1"),
])
def test_bad_values_end_with_documented_code(tmp_path, capsys, argv, code, message):
    paths = {"docs": write_corpus_file(tmp_path, "docs.txt", ["abab", "baba"]),
             "labels": write_corpus_file(tmp_path, "labels.txt", ["0", "x"]),
             "trio": write_corpus_file(tmp_path, "trio.txt", ["abab", "baba", "abab"]),
             "lonely": write_corpus_file(tmp_path, "lonely.txt", ["0", "0", "1"])}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "o")]
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("stats", "--out"), ("stats", "--seed"),
    ("oracle", "--out"), ("oracle", "--seed"), ("oracle", "--exact"), ("oracle", "--cuts"),
    *(("recon", flag) for flag in ("--tau", "--lambda", "--alpha", "--dict-cost", "--cfl",
                                   "--cuts", "--exact", "--out", "--seed")),
    *(pytest.param("bon {docs}", flag, id=f"features-bon-{flag}")
      for flag in ("--tau", "--lambda", "--alpha", "--cfl", "--dict-cost", "--cuts", "--exact")),
    pytest.param("bon {docs}", "--fractional", id="bon---fractional"),
    # the old spellings of bon, eval and demo
    pytest.param("features {docs} --max-len 4", "--bon", id="features-bon---max-len"),
    pytest.param("eval {docs} --labels {labels}", "--input", id="eval---input"),
    pytest.param("demo --resamples 2", "--mode", id="eval-fixture---mode"),
    *(pytest.param("eval {docs} --labels {labels}", flag, id=f"eval-input-{flag}")
      for flag in ("--classes", "--docs-per-class")),
    ("compress", "--seed"), ("features", "--seed"),
    pytest.param("path {docs} --grid 1", "--seed", id="path---seed"),
])
def test_flags_a_command_would_ignore_are_usage_errors(tmp_path, capsys, command, flag):
    # stats and oracle write no file; oracle is always exhaustive; recon's
    # document pointers cost 1 under every scheme; bon solves no program;
    # eval reads a labelled corpus and demo the synthetic fixture; only
    # their classifier harness reads a seed
    values = {"--out": str(tmp_path / "o"), "--seed": "1", "--tau": "0", "--lambda": "1",
              "--alpha": "1", "--dict-cost": "constant", "--mode": "token", "--bon": "2",
              "--input": "{docs}", "--classes": "2", "--docs-per-class": "9"}
    paths = {"docs": write_corpus_file(tmp_path, "docs.txt", ["abab", "baba", "abab", "baba"]),
             "labels": write_corpus_file(tmp_path, "labels.txt", ["0", "0", "1", "1"])}
    argv = command.format(**paths).split()
    if len(argv) == 1:  # a bare command runs on the test corpus
        argv += [paths["docs"], "--min-count", "1"]
    argv += [flag] + ([values[flag].format(**paths)] if flag in values else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,missing", [
    (["eval", "--resamples", "2"], "input, --labels"),  # the fixture is demo now
    (["eval", "{docs}"], "--labels"),
])
def test_eval_requires_a_labelled_corpus(tmp_path, capsys, argv, missing):
    docs = write_corpus_file(tmp_path, "docs.txt", ["abab", "baba"])
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(docs=docs) for arg in argv])
    assert exc.value.code == 1
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


def test_eval_reports_accuracies(tmp_path, capsys):
    out = str(tmp_path / "eval")
    code = cli.main(["demo", "--resamples", "5", "--seed", "3",
                     "--max-len", "3", "--bon", "2", "--out", out])
    assert code == 0
    text = read_file(os.path.join(out, "eval.txt"))
    assert "top_nb_accuracy:" in text and "bon_nb_accuracy:" in text
    assert "baseline:" in text


def test_eval_deterministic(tmp_path):
    out1 = str(tmp_path / "e1")
    out2 = str(tmp_path / "e2")
    args = ["demo", "--resamples", "4", "--seed", "5", "--max-len", "3",
            "--bon", "2", "--out"]
    assert cli.main(args + [out1]) == 0
    assert cli.main(args + [out2]) == 0
    a = read_file(os.path.join(out1, "eval.txt")).replace(out1, "OUT")
    b = read_file(os.path.join(out2, "eval.txt")).replace(out2, "OUT")
    assert a == b


def test_oracle_command(tmp_path, capsys):
    inp = write_corpus_file(tmp_path, "abab.txt", ["abab"])
    assert cli.main(["oracle", inp, "--min-count", "1"]) == 0
    out = capsys.readouterr().out
    assert "objective: 4" in out


def test_stats_command(tmp_path, capsys):
    inp = write_corpus_file(tmp_path, "x.txt", ["x"])
    assert cli.main(["stats", inp, "--max-len", "1", "--min-count", "1"]) == 0
    out = capsys.readouterr().out
    assert "pointer_count: 2" in out and "depth: 1" in out


def test_recon_debug_command(tmp_path, capsys):
    inp = write_corpus_file(tmp_path, "abab.txt", ["abab"])
    assert cli.main(["recon", inp, "--min-count", "1", "--doc", "0"]) == 0
    out = capsys.readouterr().out
    assert "target: abab" in out
    # every occurrence in the document, in pointer order (location, source)
    listed = out.split("intervals: 10\n")[1].split("cover_cost")[0]
    assert listed.split("\n")[:-1] == [
        f"  @{start} len={len(src)} cost=1 {src}"
        for start, src in [(1, "a"), (1, "ab"), (1, "aba"), (1, "abab"), (2, "b"),
                           (2, "ba"), (2, "bab"), (3, "a"), (3, "ab"), (4, "b")]]
    assert "cover_cost: 1" in out  # the whole document is a candidate at m=1
    assert cli.main(["recon", inp, "--min-count", "1", "--doc", "7"]) == 2
