"""Single-target reconstruction: minimum-cost interval covering.

A reconstruction instance covers every position of one target string with
weighted intervals (one per pointer), each naming the dictionary string it
needs.  A model builds one instance per target, once, and every dictionary
is evaluated on it: the binary case is solved by dynamic programming over
the instance's intervals in a scan order ranked once per instance,
skipping the intervals whose source is not a member.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Container
from dataclasses import dataclass

from .errors import Infeasible, InvalidParam


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

    def __post_init__(self) -> None:
        n = len(self.target)
        for iv in self.intervals:
            if iv.start < 1 or iv.end > n or iv.length < 1:
                raise InvalidParam(f"interval {iv} outside target of length {n}")
            if not math.isfinite(iv.cost):
                raise InvalidParam("interval costs must be finite")

    @functools.cached_property
    def ranked(self) -> list[Interval]:
        """solve_dp's scan order, checked and computed on first use: by
        end, then longer first, then lower pointer id, so that the first
        strict improvement wins ties deterministically."""
        if any(iv.cost < 0 for iv in self.intervals):
            raise InvalidParam("solve_dp requires nonnegative costs")
        return sorted(self.intervals, key=lambda iv: (iv.end, -iv.length, iv.pointer))


@dataclass
class ReconResult:
    cost: float
    chosen: tuple[int, ...]  # pointer ids of the selected intervals
    uses: frozenset[int] = frozenset()  # the sources they need


def solve_dp(instance: ReconInstance,
             members: Container[int] | None = None) -> ReconResult:
    """Minimum-cost full cover of the target by the intervals whose source
    is a member or None (every interval when members is None); requires
    nonnegative costs.  dp[j] is the cheapest way to cover positions 1..j;
    an interval may extend any prefix it overlaps or touches, and the
    ranked scan reaches it only after every such prefix is final.  Ties
    prefer the longer interval, then the lower pointer id, then the
    shortest predecessor prefix, so results are deterministic."""
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
    uses = set()
    r = n
    while r > 0:
        iv, r = back[r]
        chosen.append(iv.pointer)
        if iv.source is not None:
            uses.add(iv.source)
    chosen.reverse()
    return ReconResult(dp[n], tuple(chosen), frozenset(uses))

