"""Command-line interface.

Commands: compress, features, path, eval, oracle, stats, recon.  Outputs are
plain structured text or JSON documents; every file starts with a header
embedding the artifact version and the run configuration, and identical
configurations produce byte-identical outputs.

Exit codes: 0 success, 1 usage, 2 infeasible or data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, learn
from .corpus import CHAR, ingest, read_corpus
from .errors import DeepdictError, DimensionMismatch, NumericalFailure
from .features import (dag_export, dict_matrix, diffuse, feature_space,
                       fractional_features, stats, top_features, write_dag,
                       write_matrix, write_names)
from .lp import EXACT_LIMIT, build_lp, exact_solve, solve_lp
from .pipeline import CompressJob, bon_compress, build_job_model, compress, path_sweep

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"usage error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _grid(text: str) -> str:
    """Check that text is a comma-separated list of numbers; keep it as
    written, since the run configuration records it verbatim."""
    try:
        [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None
    return text


def _add_common(p: _Parser) -> None:
    p.add_argument("input", help="corpus file (one document per line) or directory")
    p.add_argument("--mode", choices=["char", "token"], default="char")
    p.add_argument("--max-len", type=int, default=4, dest="max_len")
    p.add_argument("--min-count", type=int, default=2, dest="min_count")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--cuts", action="store_true")
    p.add_argument("--cfl", action="store_true")
    p.add_argument("--dict-cost", choices=["constant", "length"],
                   default="constant", dest="dict_cost")
    p.add_argument("--exact", action="store_true",
                   help="use the exhaustive oracle when small enough")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="deepdict", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a corpus and write the result")
    _add_common(p)

    p = sub.add_parser("features", help="write feature matrices for a corpus")
    _add_common(p)
    p.add_argument("--bon", type=int, default=0, metavar="K",
                   help="use the all-n-grams landmark at length K instead of the LP")
    p.add_argument("--flat", action="store_true", help="also write the diffused matrix")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--fractional", action="store_true",
                   help="also export real-valued matrices from the relaxation "
                        "solution, before rounding")
    p.add_argument("--normalize", action="store_true",
                   help="scale the fractional diffusion rows by 1/t")

    p = sub.add_parser("path", help="sweep the dictionary pointer cost")
    _add_common(p)
    p.add_argument("--grid", required=True, type=_grid,
                   help="comma-separated ascending lambda values")

    p = sub.add_parser("eval", help="classifier harness on a synthetic corpus "
                                    "or a labeled input corpus")
    p.add_argument("--input", default=None,
                   help="corpus file/directory; omit to use the synthetic fixture")
    p.add_argument("--labels", default=None,
                   help="label file, one integer per document line")
    p.add_argument("--mode", choices=["char", "token"], default="char")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--docs-per-class", type=int, default=5, dest="docs_per_class")
    p.add_argument("--resamples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=4, dest="max_len")
    p.add_argument("--min-count", type=int, default=2, dest="min_count")
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--bon", type=int, default=4, metavar="K")
    p.add_argument("--out", default=".")

    p = sub.add_parser("oracle", help="exhaustive binary optimum on a tiny corpus")
    _add_common(p)
    p.add_argument("--limit", type=int, default=EXACT_LIMIT)

    p = sub.add_parser("stats", help="compress and print summary statistics")
    _add_common(p)

    p = sub.add_parser("recon", help="dump one document's covering instance "
                                     "and its cheapest cover (debug aid)")
    _add_common(p)
    p.add_argument("--doc", type=int, default=0)
    return parser


def _config_header(args: argparse.Namespace, command: str) -> list[str]:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    return [f"deepdict {__version__}", f"command: {command}",
            "config: " + json.dumps(cfg, sort_keys=True)]


def _job(args: argparse.Namespace, corpus) -> CompressJob:
    return CompressJob(corpus, max_len=args.max_len, min_count=args.min_count,
                       tau=args.tau, lam=args.lam, alpha=args.alpha,
                       cuts=args.cuts, cfl_mode=args.cfl,
                       exact_if_small=args.exact, dict_cost_mode=args.dict_cost)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _compression_document(comp, model, header: list[str]) -> str:
    cands = model.candidates
    doc = {
        "header": header,
        "objective": comp.objective,
        "dictionary": [model.corpus.render(cands.strings[cid])
                       for cid in comp.dictionary],
        "doc_pointers": [[p.target, p.location,
                          model.corpus.render(cands.strings[p.source])]
                         for p in comp.doc_pointers],
        "dict_pointers": [[p.kind, model.corpus.render(cands.strings[p.target]),
                           p.location, model.corpus.render(cands.strings[p.source])]
                          for p in comp.dict_pointers],
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def cmd_compress(args: argparse.Namespace) -> int:
    corpus = read_corpus(args.input, args.mode)
    comp, report, model = compress(_job(args, corpus))
    header = _config_header(args, "compress")
    os.makedirs(args.out, exist_ok=True)
    _write_lines(os.path.join(args.out, "report.txt"),
                 [f"# {line}" for line in header] + report.lines())
    with open(os.path.join(args.out, "compression.json"), "w", encoding="utf-8") as fh:
        fh.write(_compression_document(comp, model, header))
        fh.write("\n")
    for line in report.lines():
        print(line)
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    corpus = read_corpus(args.input, args.mode)
    if args.bon:
        comp, report, model = bon_compress(corpus, args.bon, args.min_count)
    else:
        comp, report, model = compress(_job(args, corpus))
    header = _config_header(args, "features")
    space = feature_space(comp, model)
    x = top_features(comp, model, space)
    g = dict_matrix(comp, model, space)
    os.makedirs(args.out, exist_ok=True)
    write_matrix(os.path.join(args.out, "X.mtx"), x, header)
    write_matrix(os.path.join(args.out, "G.mtx"), g, header)
    write_names(os.path.join(args.out, "features.txt"), space.names(model), header)
    write_dag(os.path.join(args.out, "dag.txt"), dag_export(comp, model), model, header)
    if args.flat:
        xhat = diffuse(x, g, rho=args.rho)
        write_matrix(os.path.join(args.out, "Xhat.mtx"), xhat,
                     header + [f"flat: rho={args.rho:.9g}"])
    if args.fractional:
        # the deep relaxation compress solved; an exact run solved none
        solution = report.solution or solve_lp(build_lp(model, cuts=args.cuts))
        frac_header = header + ["fractional: true"]
        fspace, fx, fg, weights = fractional_features(solution, model)
        write_matrix(os.path.join(args.out, "Xfrac.mtx"), fx, frac_header)
        write_matrix(os.path.join(args.out, "Gfrac.mtx"), fg, frac_header)
        write_names(os.path.join(args.out, "features_frac.txt"),
                    fspace.names(model), frac_header)
        _write_lines(os.path.join(args.out, "weights.txt"),
                     [f"# {line}" for line in frac_header]
                     + [f"{w:.12g}" for w in weights])
        if args.flat:
            norm = weights if args.normalize else None
            fxhat = diffuse(fx, fg, rho=args.rho, normalize=norm)
            write_matrix(os.path.join(args.out, "Xfrac_hat.mtx"), fxhat,
                         frac_header + [f"flat: rho={args.rho:.9g} "
                                        f"normalized={str(args.normalize).lower()}"])
    print(f"features: {space.size} columns, {x.nnz} document nonzeros")
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    corpus = read_corpus(args.input, args.mode)
    grid = [float(v) for v in args.grid.split(",")]
    result = path_sweep(corpus, _job(args, corpus), grid)
    header = _config_header(args, "path")
    os.makedirs(args.out, exist_ok=True)
    obj_lines = [f"# {line}" for line in header] + ["lambda\tobjective\tmnl"]
    for lam, obj, mnl in zip(result.lam_grid, result.objectives, result.mnls):
        obj_lines.append(f"{lam:.9g}\t{obj:.9g}\t{mnl:.9g}")
    _write_lines(os.path.join(args.out, "objective.tsv"), obj_lines)
    seg_lines = [f"# {line}" for line in header] + \
        ["lo\thi\tpoints\tfingerprint\tdict_size\tmnl"]
    for seg in result.segments:
        seg_lines.append(f"{seg.lam_lo:.9g}\t{seg.lam_hi:.9g}\t{len(seg.lam_values)}"
                         f"\t{seg.fingerprint}\t{seg.dict_size}\t{seg.mnl:.9g}")
    _write_lines(os.path.join(args.out, "segments.tsv"), seg_lines)
    violation = result.concavity_violation()
    print(f"segments: {len(result.segments)}")
    print(f"concavity_violation: {violation:.3g}")
    if violation > 1e-6:
        raise NumericalFailure("objective curve is not concave within tolerance")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.input is not None:
        if args.labels is None:
            raise DimensionMismatch("--input requires --labels")
        corpus = read_corpus(args.input, args.mode)
        labels = learn.read_labels(args.labels)
        if len(labels) != len(corpus.docs):
            raise DimensionMismatch(
                f"{len(labels)} labels for {len(corpus.docs)} documents")
    else:
        texts, labels = learn.synthetic_phrase_corpus(args.classes,
                                                      args.docs_per_class,
                                                      args.seed)
        corpus = ingest(texts, CHAR)
    job = CompressJob(corpus, max_len=args.max_len, min_count=args.min_count,
                      lam=args.lam)
    comp, report, model = compress(job)
    space = feature_space(comp, model)
    top = top_features(comp, model, space)
    bon_comp, _, bon_model = bon_compress(corpus, args.bon, args.min_count)
    bon_top = top_features(bon_comp, bon_model)
    lines = []
    for name, mat, mdl in (("top", top, model), ("bon", bon_top, bon_model)):
        scores = learn.accuracy_over_resamples(learn.LabeledMatrix(mat, labels),
                                               args.resamples, args.seed)
        lines.append(f"{name}_nb_accuracy: {scores['nb_accuracy']:.4f}")
        lines.append(f"{name}_centroid_accuracy: {scores['centroid_accuracy']:.4f}")
        lines.append(f"baseline: {scores['majority_baseline']:.4f}")
    header = _config_header(args, "eval")
    os.makedirs(args.out, exist_ok=True)
    _write_lines(os.path.join(args.out, "eval.txt"),
                 [f"# {line}" for line in header] + lines)
    for line in lines:
        print(line)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    corpus = read_corpus(args.input, args.mode)
    model = build_job_model(_job(args, corpus))
    comp = exact_solve(model, limit=args.limit)
    print(f"objective: {comp.objective:.9g}")
    print(f"dictionary: "
          + " ".join(model.corpus.render(model.candidates.strings[c])
                     for c in comp.dictionary))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    corpus = read_corpus(args.input, args.mode)
    comp, report, model = compress(_job(args, corpus))
    for key, value in stats(comp, model).items():
        print(f"{key}: {value}")
    return 0


def cmd_recon(args: argparse.Namespace) -> int:
    from .errors import InvalidParam
    from .recon import solve_dp

    corpus = read_corpus(args.input, args.mode)
    model = build_job_model(_job(args, corpus))
    if not 0 <= args.doc < len(corpus.docs):
        raise InvalidParam(f"no document {args.doc}")
    instance = model.recon_instances[0][args.doc]
    print(f"target: {corpus.doc_text(args.doc)}")
    print(f"intervals: {len(instance.intervals)}")
    for iv in instance.intervals:
        src = model.corpus.render(model.candidates.strings[iv.source])
        print(f"  @{iv.start} len={iv.length} cost={iv.cost:.9g} {src}")
    result = solve_dp(instance)
    print(f"cover_cost: {result.cost:.9g}")
    chosen = " ".join(
        f"{model.doc_pointers[i].location}:"
        + model.corpus.render(model.candidates.strings[model.doc_pointers[i].source])
        for i in result.chosen)
    print(f"chosen: {chosen}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "features" and args.bon and args.fractional:
        parser.error("--fractional exports the LP relaxation, which --bon does not solve")
    handlers = {
        "compress": cmd_compress,
        "features": cmd_features,
        "path": cmd_path,
        "eval": cmd_eval,
        "oracle": cmd_oracle,
        "stats": cmd_stats,
        "recon": cmd_recon,
    }
    try:
        return handlers[args.command](args)
    except NumericalFailure as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except DeepdictError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return DATA_EXIT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
