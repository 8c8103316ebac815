"""End-to-end compression pipeline and parametric sweeps.

compress() rounds the LP relaxation of one model per job and, for deep jobs,
of its character-only restriction; tiny jobs may go to the exhaustive oracle.
The shallow half can only win by being cheaper than the deep result by
1e-9, and it costs at least either LP's bound (lp.solve_lp; the shallow
solution is feasible in the deep model).  So it is skipped when the deep
rounding reaches the deep bound, and it is solved but not rounded when its
own bound reaches the deep result; both skips drop only results compress
would discard, so outputs are the same as without them.  The shallow
solve gets the deep result as its cutoff, so it can stop as soon as its
duals prove that bound, and is finished only when they do not.
bon_compress() realizes the all-n-grams landmark (uniform negative costs)
by inspection, without a solve.  path_sweep() resolves the LP along an
ascending grid of dictionary-pointer costs and merges consecutive grid
points with identical rounded compressions into segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .corpus import Corpus, enumerate_candidates
from .errors import InvalidParam
from .features import stats
from .lp import (EXACT_LIMIT, Compression, LPSolution, build_lp, compression_errors,
                 cut_classes, exact_solve, price, reaches_bound, round_to_compression,
                 solve_lp)
from .model import (CONSTANT_DICT_COST, ModelInstance, bon_landmark_costs, build_model,
                    build_pointers, character_only)


@dataclass
class CompressJob:
    corpus: Corpus
    max_len: int = 4
    min_count: int = 2
    tau: float = 0.0
    lam: float = 1.0
    alpha: float = 1.0
    cuts: bool = False
    cfl_mode: bool = False
    exact_if_small: bool = False
    dict_cost_mode: str = CONSTANT_DICT_COST


@dataclass
class CompressReport:
    method: str  # "lp+round" | "exact" | "bon"
    lp_objective: float | None
    rounded_objective: float
    gap: float | None
    integral: bool | None
    candidates: int
    variables: int
    rows: int
    pointer_count: int
    mnl: float
    dict_size: int
    depth: int
    lp_iterations: int | None
    solution: LPSolution | None  # the deep relaxation; None for exact and bon runs

    def lines(self) -> list[str]:
        out = [f"method: {self.method}"]
        if self.lp_objective is not None:
            out.append(f"lp_objective: {self.lp_objective:.9g}")
        out.append(f"rounded_objective: {self.rounded_objective:.9g}")
        if self.gap is not None:
            out.append(f"gap: {self.gap:.9g}")
        if self.integral is not None:
            out.append(f"lp_integral: {str(self.integral).lower()}")
        out.append(f"candidates: {self.candidates}")
        out.append(f"variables: {self.variables}")
        out.append(f"rows: {self.rows}")
        out.append(f"pointer_count: {self.pointer_count}")
        out.append(f"mnl: {self.mnl:.9g}")
        out.append(f"dict_size: {self.dict_size}")
        out.append(f"depth: {self.depth}")
        if self.lp_iterations is not None:
            out.append(f"lp_iterations: {self.lp_iterations}")
        return out


def build_job_model(job: CompressJob) -> ModelInstance:
    candidates = enumerate_candidates(job.corpus, job.max_len, job.min_count)
    model = build_model(job.corpus, candidates, job.tau, job.lam, job.alpha,
                        dict_cost_mode=job.dict_cost_mode)
    return character_only(model) if job.cfl_mode else model


def compress(job: CompressJob) -> tuple[Compression, CompressReport, ModelInstance]:
    """Full pipeline; the returned compression always passes the validity
    checker and the report carries the relaxation/rounding diagnostics."""
    model = build_job_model(job)
    if job.exact_if_small and len(model.candidates) <= EXACT_LIMIT:
        comp = exact_solve(model, classes=cut_classes(model) if job.cuts else None)
        report = _report("exact", None, comp, model)
        _assert_valid(comp, model)
        return comp, report, model
    lp = build_lp(model, cuts=job.cuts)
    solution = solve_lp(lp)
    comp = round_to_compression(solution, model)
    # every shallow solution is feasible in the full model, so keeping the
    # cheaper result means the deep output never trails the shallow one;
    # it costs at least the deep bound, so a rounding that reaches it stays
    if not (job.cfl_mode or reaches_bound(comp.objective, solution.bound)):
        shallow = _shallow_rounding(job, model, comp.objective)
        if shallow is not None and shallow.objective < comp.objective - 1e-9:
            comp = shallow
    _assert_valid(comp, model)
    report = _report("lp+round", solution, comp, model)
    return comp, report, model


def _shallow_rounding(job: CompressJob, model: ModelInstance,
                      incumbent: float) -> Compression | None:
    """Round the character-only restriction (whose own size gates its
    swap/add moves) and price the result in the full model; None when the
    restriction's bound shows its rounding cannot beat the incumbent.  The
    incumbent is the solve's cutoff, so HiGHS can stop as soon as its duals
    prove that bound."""
    restricted = character_only(model)
    solution = solve_lp(build_lp(restricted, cuts=job.cuts), incumbent)
    if reaches_bound(incumbent, solution.bound):
        return None
    comp = round_to_compression(solution, restricted)
    return replace(comp, objective=price(comp, model))


def _assert_valid(comp: Compression, model: ModelInstance) -> None:
    errors = compression_errors(comp, model)
    if errors:
        raise AssertionError("invalid compression: " + "; ".join(errors[:5]))


def _report(method, solution, comp, model) -> CompressReport:
    st = stats(comp, model)
    solved = solution is not None
    lp_obj = solution.objective if solved else None
    return CompressReport(
        method=method,
        lp_objective=lp_obj,
        rounded_objective=comp.objective,
        gap=comp.objective - lp_obj if solved else None,
        integral=solution.is_integral() if solved else None,
        candidates=len(model.candidates),
        variables=len(model.candidates) + len(model.doc_pointers) + len(model.dict_pointers),
        rows=solution.instance.n_rows if solved else 0,
        pointer_count=st["pointer_count"],
        mnl=st["mnl"],
        dict_size=st["dict_size"],
        depth=st["depth"],
        lp_iterations=solution.basis_summary["iterations"] if solved else None,
        solution=solution,
    )


def bon_compress(corpus: Corpus, max_len: int,
                 min_count: int = 1) -> tuple[Compression, CompressReport, ModelInstance]:
    """All-n-grams landmark: with every cost negative the optimum includes
    every finite-cost pointer and string, so the compression is assembled
    directly."""
    candidates = enumerate_candidates(corpus, max_len, min_count)
    doc_ptrs, dict_ptrs = build_pointers(corpus, candidates)
    costs = bon_landmark_costs(doc_ptrs, dict_ptrs, candidates, max_len)
    model = ModelInstance(corpus, candidates, doc_ptrs, dict_ptrs, costs)
    objective = -(len(doc_ptrs) + len(dict_ptrs) + len(candidates))
    comp = Compression(tuple(range(len(candidates))), doc_ptrs, dict_ptrs, float(objective))
    _assert_valid(comp, model)
    report = _report("bon", None, comp, model)
    return comp, report, model


@dataclass
class PathSegment:
    lam_lo: float
    lam_hi: float
    lam_values: list[float]
    objectives: list[float]
    fingerprint: str
    dict_size: int
    mnl: float


@dataclass
class PathResult:
    segments: list[PathSegment]
    lam_grid: list[float]
    objectives: list[float]
    mnls: list[float]
    fingerprints: list[str] = field(default_factory=list)

    def concavity_violation(self) -> float:
        """Largest shortfall of the objective curve below its chords; a
        positive value beyond rounding noise contradicts piecewise-linear
        concavity."""
        worst = 0.0
        lam, obj = self.lam_grid, self.objectives
        for i in range(1, len(lam) - 1):
            span = lam[i + 1] - lam[i - 1]
            if span <= 0:
                continue
            w = (lam[i] - lam[i - 1]) / span
            chord = (1 - w) * obj[i - 1] + w * obj[i + 1]
            worst = max(worst, chord - obj[i])
        return worst


def path_sweep(corpus: Corpus, job: CompressJob, lam_grid: list[float]) -> PathResult:
    """One LP solve per grid point under the parametric scheme; consecutive
    grid points whose rounded compressions coincide merge into segments."""
    if not lam_grid:
        raise InvalidParam("empty grid")
    if sorted(lam_grid) != list(lam_grid):
        raise InvalidParam("grid must be ascending")
    if any(l < 0 for l in lam_grid):
        raise InvalidParam("grid values must be nonnegative")
    objectives = []
    mnls = []
    fingerprints = []
    segments: list[PathSegment] = []
    for lam in lam_grid:
        point_job = replace(job, corpus=corpus, lam=lam)
        comp, report, model = compress(point_job)
        objectives.append(report.lp_objective
                          if report.lp_objective is not None else comp.objective)
        mnls.append(report.mnl)
        fp = comp.fingerprint()
        fingerprints.append(fp)
        if segments and segments[-1].fingerprint == fp:
            seg = segments[-1]
            seg.lam_hi = lam
            seg.lam_values.append(lam)
            seg.objectives.append(objectives[-1])
        else:
            segments.append(PathSegment(lam, lam, [lam], [objectives[-1]], fp,
                                        report.dict_size, report.mnl))
    return PathResult(segments, list(lam_grid), objectives, mnls, fingerprints)
