import hashlib
import os
import random
import subprocess
import sys

import pytest

from deepdict import cli, simplex
from deepdict.features import read_matrix
from deepdict.pipeline import PathResult

from oracles import bon_counts, labelled_ladder, ladder_texts, same_entries


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
    assert cli.main(["features", inp, "--bon", "2", "--min-count", "1",
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


# sha256 of the matrices that the dict-of-keys SparseMatrix, before the
# coordinate-array form, wrote for the run in the test below
PINNED_FRACTIONAL_FILES = {
    "X.mtx": "cd98e4294913707022b91b8510900bfc2a3190adfe0f5a7542ccd29de153e15c",
    "G.mtx": "d2e23dc47011cf6e5663cc4f1aa42115e21f678ee12ff6f7a3374881ed201b33",
    "Xhat.mtx": "1fdf3ca23124c4f7a4cebd42a400188bac7abdb97980f681e8b61570f71a6146",
    "Xfrac.mtx": "9b3f95a0e2cd30b786fbcee14da8f696be2f58bfbb04cbc1834cdd5769da7747",
    "Gfrac.mtx": "ba6bb78561c018403c47f30536024459d1a2b05b75cac86605045119505f457e",
    "Xfrac_hat.mtx": "3e69d96a90ccae2ac0e8143cc96e64a3ac07416e93cd9a9cc9f4f46cd371d30c",
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
    "X.mtx": "08bfe66f6ccae24f22d429ddd663eb4e43d35cca43f519f4f7d66b8c44af89ed",
    "G.mtx": "b51d4e7fa347f8afe59cff98a70e6d6e05771838f1d78ec153876f6474291493",
    "Xhat.mtx": "b2e48aad2f954b20adec38c71f9e91fb5454dff4a6fad12cf33b0c12788ec7cf",
    "features.txt": "b46479e5bbca344a36216d86f2a1b155f475afc9a3fae95710f0287637a7d78e",
    "dag.txt": "8a9296a32d901a46156a32350cf21d02db0d76df3d7cd2e1440db353d1a3b70c",
}


def test_features_bon_files_pinned(tmp_path, monkeypatch):
    # the 60-document labelled ladder; relative paths keep the headers fixed
    monkeypatch.chdir(tmp_path)
    write_corpus_file(tmp_path, "corpus.txt", labelled_ladder(60, 0, 0.7)[0])
    assert cli.main(["features", "corpus.txt", "--bon", "4", "--min-count", "1",
                     "--flat", "--out", "bon"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "bon" / name).read_bytes()).hexdigest()
               for name in PINNED_BON_FILES}
    assert digests == PINNED_BON_FILES


def test_compression_json_pinned_on_ladder(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus_file(tmp_path, "corpus.txt", ladder_texts(20, random.Random(0)))
    assert cli.main(["compress", "corpus.txt", "--out", "comp"]) == 0
    digest = hashlib.sha256((tmp_path / "comp" / "compression.json").read_bytes()).hexdigest()
    assert digest == "b59b347cd7c25df509bee7ee9d6b04ce56550034e048493e2d4434781dd3cda8"


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
                        lambda program: programs.append(program) or run(program))
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
    code = cli.main(["eval", "--input", inp, "--labels", str(labels),
                     "--resamples", "4", "--min-count", "2", "--bon", "2",
                     "--out", out])
    assert code == 0
    assert "top_nb_accuracy:" in read_file(os.path.join(out, "eval.txt"))


def test_eval_label_mismatch_exits_2(tmp_path):
    inp = write_corpus_file(tmp_path, "docs.txt", ["abab", "baba"])
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n", encoding="utf-8")
    assert cli.main(["eval", "--input", inp, "--labels", str(labels),
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("argv,code,message", [
    (["path", "{docs}", "--grid", "1,a"], 1, "usage error"),
    (["path", "{docs}", "--grid", ","], 1, "usage error"),
    (["eval", "--input", "{docs}", "--labels", "{labels}"], 2, "labels must be integers"),
    # no resample means no classifier ran, so there is no accuracy to print
    (["eval", "--resamples", "0", "--max-len", "3", "--bon", "2"], 2, "at least one resample"),
    (["eval", "--resamples", "-1", "--max-len", "3", "--bon", "2"], 2, "at least one resample"),
    # the landmark is assembled without a solve, so it has no relaxation to export
    (["features", "{docs}", "--bon", "2", "--fractional"], 1, "usage error"),
])
def test_bad_values_end_with_documented_code(tmp_path, capsys, argv, code, message):
    paths = {"docs": write_corpus_file(tmp_path, "docs.txt", ["abab", "baba"]),
             "labels": write_corpus_file(tmp_path, "labels.txt", ["0", "x"])}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "o")]
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert message in capsys.readouterr().err


def test_eval_reports_accuracies(tmp_path, capsys):
    out = str(tmp_path / "eval")
    code = cli.main(["eval", "--resamples", "5", "--seed", "3",
                     "--max-len", "3", "--bon", "2", "--out", out])
    assert code == 0
    text = read_file(os.path.join(out, "eval.txt"))
    assert "top_nb_accuracy:" in text and "bon_nb_accuracy:" in text
    assert "baseline:" in text


def test_eval_deterministic(tmp_path):
    out1 = str(tmp_path / "e1")
    out2 = str(tmp_path / "e2")
    args = ["eval", "--resamples", "4", "--seed", "5", "--max-len", "3",
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
