"""Single-target reconstruction: minimum-cost interval covering.

A reconstruction instance covers every position of one target string with
weighted intervals (one per pointer), each naming the dictionary string it
needs.  A model builds one instance per target, once, and every dictionary
is evaluated on it: the binary case is solved by dynamic programming over
the instance's intervals in a scan order ranked once per instance,
skipping the intervals whose source is not a member.  The fractional
case (demand v in [0,1], per-interval upper bounds) is a small LP.  The
instance can also be rewritten as a min-cost flow over position nodes,
which is solved through the shared simplex and used for cross-validation.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Container
from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .errors import Infeasible, InvalidParam

POINTER_ARC = "pointer"
SLACK_ARC = "slack"


@dataclass(frozen=True)
class Interval:
    start: int  # 1-based
    length: int
    cost: float
    pointer: int  # caller-side id, echoed back in results
    source: int | None = None  # string it needs; None: needs no member

    @property
    def end(self) -> int:
        return self.start + self.length - 1


@dataclass
class ReconInstance:
    target: tuple[int, ...]
    intervals: list[Interval]
    demand: float = 1.0
    bounds: list[float] | None = None  # per-interval upper bounds, default 1

    def __post_init__(self) -> None:
        n = len(self.target)
        for iv in self.intervals:
            if iv.start < 1 or iv.end > n or iv.length < 1:
                raise InvalidParam(f"interval {iv} outside target of length {n}")
            if not math.isfinite(iv.cost):
                raise InvalidParam("interval costs must be finite")
        if not 0.0 <= self.demand <= 1.0:
            raise InvalidParam("demand must lie in [0, 1]")
        if self.bounds is not None and len(self.bounds) != len(self.intervals):
            raise InvalidParam("bounds must align with intervals")

    @functools.cached_property
    def ranked(self) -> list[Interval]:
        """solve_dp's scan order, checked and computed on first use: by
        end, then longer first, then lower pointer id, so that the first
        strict improvement wins ties deterministically."""
        if self.demand != 1.0:
            raise InvalidParam("solve_dp requires demand 1")
        if any(iv.cost < 0 for iv in self.intervals):
            raise InvalidParam("solve_dp requires nonnegative costs")
        return sorted(self.intervals, key=lambda iv: (iv.end, -iv.length, iv.pointer))


@dataclass
class ReconResult:
    cost: float
    chosen: tuple[int, ...]  # pointer ids of the selected intervals


def solve_dp(instance: ReconInstance,
             members: Container[int] | None = None) -> ReconResult:
    """Minimum-cost full cover of the target by the intervals whose source
    is a member or None (every interval when members is None); requires
    unit demand and nonnegative costs.  dp[j] is the cheapest way to cover
    positions 1..j; an interval may extend any prefix it overlaps or
    touches, and the ranked scan reaches it only after every such prefix
    is final.  Ties prefer the longer interval, then the lower pointer id,
    then the shortest predecessor prefix, so results are deterministic."""
    n = len(instance.target)
    dp = [0.0] + [math.inf] * n
    back: list[tuple[Interval, int] | None] = [None] * (n + 1)
    for iv in instance.ranked:
        if members is not None and iv.source is not None and iv.source not in members:
            continue
        r = iv.end
        best_j, best_val = -1, math.inf
        for j in range(iv.start - 1, r):
            if dp[j] < best_val:
                best_val, best_j = dp[j], j
        if best_j < 0:
            continue
        total = best_val + iv.cost
        if total < dp[r]:
            dp[r] = total
            back[r] = (iv, best_j)
    if not math.isfinite(dp[n]):
        uncovered = min(r for r in range(1, n + 1) if not math.isfinite(dp[r]))
        raise Infeasible(f"position {uncovered} of the target is uncoverable")
    chosen = []
    r = n
    while r > 0:
        iv, r = back[r]
        chosen.append(iv.pointer)
    chosen.reverse()
    return ReconResult(dp[n], tuple(chosen))


def solve_fractional(instance: ReconInstance) -> tuple[float, list[float]]:
    """LP relaxation of the covering problem: every position must receive
    total weight >= demand, weights respect the per-interval bounds."""
    n = len(instance.target)
    k = len(instance.intervals)
    bounds = instance.bounds if instance.bounds is not None else [1.0] * k
    if any(not 0.0 <= b <= 1.0 for b in bounds):
        raise InvalidParam("interval bounds must lie in [0, 1]")
    if instance.demand == 0.0:
        return 0.0, [0.0] * k
    rows = np.zeros((n, k))
    for idx, iv in enumerate(instance.intervals):
        rows[iv.start - 1:iv.end, idx] = 1.0
    lp = simplex.LinearProgram(
        objective=np.array([iv.cost for iv in instance.intervals], dtype=float),
        rows=rows,
        senses=np.full(n, simplex.GE),
        rhs=np.full(n, instance.demand),
        lower=np.zeros(k),
        upper=np.array(bounds, dtype=float),
    )
    result = simplex.solve(lp)
    if result.status == "infeasible":
        raise Infeasible("fractional cover does not exist")
    if result.status != "optimal":
        raise InvalidParam("covering LP must be bounded; got " + result.status)
    return result.objective, list(result.x)


@dataclass(frozen=True)
class Arc:
    tail: int  # node ids: 1..n are positions, n+1 is the end node
    head: int
    cost: float
    upper: float
    kind: str
    ref: int  # interval index for pointer arcs, position for slack arcs


@dataclass
class FlowInstance:
    """Min-cost-flow form of a reconstruction: pointer arcs jump forward
    from their start position to one past their end, unit slack arcs run
    backward, and the demand enters at position 1.  The position-node rows
    of the incidence matrix reproduce the difference-transformed covering
    constraints exactly."""

    n_positions: int
    arcs: list[Arc]
    demand: float
    pointer_arcs: list[int] = field(default_factory=list)  # arc indices
    slack_arcs: list[int] = field(default_factory=list)

    def incidence(self) -> np.ndarray:
        """Rows = position nodes 1..n (the end node row is omitted, which
        is the source/sink completion)."""
        n = self.n_positions
        mat = np.zeros((n, len(self.arcs)))
        for j, arc in enumerate(self.arcs):
            if arc.tail <= n:
                mat[arc.tail - 1, j] += 1.0
            if arc.head <= n:
                mat[arc.head - 1, j] -= 1.0
        return mat


def to_flow(instance: ReconInstance) -> FlowInstance:
    n = len(instance.target)
    bounds = instance.bounds if instance.bounds is not None else [1.0] * len(instance.intervals)
    arcs: list[Arc] = []
    pointer_arcs = []
    for idx, iv in enumerate(instance.intervals):
        arcs.append(Arc(iv.start, iv.end + 1, iv.cost, bounds[idx], POINTER_ARC, idx))
        pointer_arcs.append(len(arcs) - 1)
    slack_arcs = []
    for pos in range(1, n + 1):
        arcs.append(Arc(pos + 1, pos, 0.0, math.inf, SLACK_ARC, pos))
        slack_arcs.append(len(arcs) - 1)
    return FlowInstance(n, arcs, instance.demand, pointer_arcs, slack_arcs)


def solve_flow(flow: FlowInstance) -> tuple[float, list[float]]:
    """Solve the flow form as an LP over the position-node balance rows;
    returns (optimal cost, pointer arc flows)."""
    n = flow.n_positions
    mat = flow.incidence()
    rhs = np.zeros(n)
    rhs[0] = flow.demand
    upper = np.array([a.upper for a in flow.arcs])
    lp = simplex.LinearProgram(
        objective=np.array([a.cost for a in flow.arcs], dtype=float),
        rows=mat,
        senses=np.full(n, simplex.EQ),
        rhs=rhs,
        lower=np.zeros(len(flow.arcs)),
        upper=upper,
    )
    result = simplex.solve(lp)
    if result.status == "infeasible":
        raise Infeasible("flow instance admits no feasible flow")
    if result.status != "optimal":
        raise InvalidParam("flow LP must be bounded; got " + result.status)
    weights = [result.x[j] for j in flow.pointer_arcs]
    return result.objective, weights
