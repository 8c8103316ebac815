import os
import random
import subprocess
import sys

import pytest

from deepdict import cli, simplex
from deepdict.features import read_matrix
from deepdict.pipeline import PathResult

from oracles import bon_counts, ladder_texts


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
    for (r, c), v in x.entries.items():
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
    assert x.entries == xhat.entries


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
