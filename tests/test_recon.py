import itertools
import math
import random

import numpy as np
import pytest

from deepdict.errors import Infeasible, InvalidParam
from deepdict.recon import Interval, ReconInstance, solve_dp

from oracles import min_cover_subsets, solve_flow, solve_fractional, to_flow


def inst(length, triples):
    intervals = [Interval(s, ln, c, i) for i, (s, ln, c) in enumerate(triples)]
    return ReconInstance(tuple(range(length)), intervals)


def test_dp_two_bigrams():
    r = solve_dp(inst(4, [(1, 2, 1.0), (3, 2, 1.0)]))
    assert r.cost == 2.0 and set(r.chosen) == {0, 1}


def test_dp_forced_single():
    r = solve_dp(inst(1, [(1, 1, 1.0)]))
    assert r.cost == 1.0 and r.chosen == (0,)


def test_dp_infeasible_position():
    with pytest.raises(Infeasible):
        solve_dp(inst(2, [(1, 1, 1.0)]))


def test_dp_overlap_allowed():
    triples = [(1, 2, 1.0), (2, 2, 1.0), (1, 1, 1.0), (2, 1, 1.0), (3, 1, 1.0)]
    r = solve_dp(inst(3, triples))
    assert r.cost == 2.0 and len(r.chosen) == 2
    covered = set()
    for idx in r.chosen:
        start, length, _ = triples[idx]
        covered.update(range(start, start + length))
    assert covered == {1, 2, 3}


def test_dp_prefers_longer_on_ties():
    # both single intervals cover everything at equal cost
    r = solve_dp(inst(3, [(1, 3, 2.0), (1, 2, 1.0), (3, 1, 1.0)]))
    assert r.cost == 2.0
    assert r.chosen == (0,)


def test_dp_matches_subset_bruteforce():
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(1, 8)
        k = rng.randint(0, 10)
        triples = []
        for _ in range(k):
            start = rng.randint(1, n)
            length = rng.randint(1, n - start + 1)
            triples.append((start, length, float(rng.randint(0, 6))))
        instance = inst(n, triples)
        expected = min_cover_subsets(n, triples)
        if math.isinf(expected):
            with pytest.raises(Infeasible):
                solve_dp(instance)
        else:
            assert solve_dp(instance).cost == pytest.approx(expected, abs=1e-9)


def test_dp_monotone_in_instance():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 7)
        triples = [(1, n, 5.0)]
        for _ in range(rng.randint(1, 6)):
            start = rng.randint(1, n)
            triples.append((start, rng.randint(1, n - start + 1),
                            float(rng.randint(1, 5))))
        base = solve_dp(inst(n, triples)).cost
        extended = solve_dp(inst(n, triples + [(1, 1, 0.5)])).cost
        assert extended <= base + 1e-12
        bumped = [(s, ln, c + (2.0 if i == 1 else 0.0))
                  for i, (s, ln, c) in enumerate(triples)]
        assert solve_dp(inst(n, bumped)).cost >= base - 1e-12


def test_dp_requires_unit_demand_and_nonnegative_costs():
    with pytest.raises(InvalidParam):
        solve_dp(inst(1, [(1, 1, -1.0)]))


def _outcome(instance, members=None):
    try:
        result = solve_dp(instance, members)
    except Infeasible as exc:
        return str(exc)
    return result.cost, result.chosen


def test_dp_member_filter_matches_filtered_instance():
    # skipping non-member sources inside the DP gives the cover of a fresh
    # instance built from the kept intervals, whatever the input order;
    # repeated pointer ids make ties between equal intervals visible
    rng = random.Random(404)
    feasible = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        intervals = []
        for _ in range(rng.randint(0, 14)):
            start = rng.randint(1, n)
            intervals.append(Interval(start, rng.randint(1, n - start + 1),
                                      float(rng.randint(0, 4)), rng.randint(0, 5),
                                      rng.choice([None, 0, 1, 2, 3])))
        members = set(rng.sample(range(4), rng.randint(0, 4)))
        for _ in range(3):
            rng.shuffle(intervals)
            kept = [iv for iv in intervals if iv.source is None or iv.source in members]
            got = _outcome(ReconInstance(tuple(range(n)), list(intervals)), members)
            assert got == _outcome(ReconInstance(tuple(range(n)), kept))
            feasible += not isinstance(got, str)
    assert 150 < feasible < 550


def test_dropping_unused_sources_keeps_the_result():
    # prune_descent keeps a target's result when a trial drops sources its
    # chosen cover does not use: dp values can only rise, so the chosen
    # path keeps its values and the tie rules pick the same intervals;
    # integer costs make ties common
    rng = random.Random(77)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        intervals = []
        for i in range(rng.randint(1, 14)):
            start = rng.randint(1, n)
            intervals.append(Interval(start, rng.randint(1, n - start + 1),
                                      float(rng.randint(0, 3)), i,
                                      rng.choice([None, 0, 1, 2, 3])))
        instance = ReconInstance(tuple(range(n)), intervals)
        members = {0, 1, 2, 3}
        try:
            result = solve_dp(instance, members)
        except Infeasible:
            continue
        used = {intervals[i].source for i in result.chosen}
        unused = sorted(members - used)
        for k in range(1, len(unused) + 1):
            for dropped in itertools.combinations(unused, k):
                assert solve_dp(instance, members - set(dropped)) == result
                checked += 1
    assert checked > 500


def test_dp_ranks_by_end_then_longer_then_lower_pointer():
    instance = inst(3, [(2, 2, 1.0), (1, 1, 1.0), (1, 3, 2.0), (2, 1, 1.0),
                        (1, 2, 1.0), (3, 1, 1.0)])
    assert [(iv.end, iv.length, iv.pointer) for iv in instance.ranked] == [
        (1, 1, 1), (2, 2, 4), (2, 1, 3), (3, 3, 2), (3, 2, 0), (3, 1, 5)]
    assert instance.ranked is instance.ranked


def test_flow_columns_match_difference_transform():
    instance = inst(2, [(1, 1, 1.0), (2, 1, 1.0), (1, 2, 1.0)])
    flow = to_flow(instance)
    mat = flow.incidence()
    # pointer columns: a@1 -> +1 at row 1, -1 at row 2; b@2 -> +1 at row 2;
    # ab@1 -> +1 at row 1
    np.testing.assert_array_equal(mat[:, 0], [1.0, -1.0])
    np.testing.assert_array_equal(mat[:, 1], [0.0, 1.0])
    np.testing.assert_array_equal(mat[:, 2], [1.0, 0.0])
    # the incidence equals Q X for the lower bidiagonal difference matrix Q
    x = np.zeros((2, 3))
    for j, iv in enumerate(instance.intervals):
        x[iv.start - 1: iv.end, j] = 1.0
    q = np.array([[1.0, 0.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(mat[:, :3], q @ x)


def test_flow_empty_instance_infeasible():
    instance = inst(1, [])
    with pytest.raises(Infeasible):
        solve_flow(to_flow(instance))


def test_flow_matches_dp_on_random_instances():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 7)
        triples = [(1, n, float(rng.randint(1, 4)))]
        for _ in range(rng.randint(0, 8)):
            start = rng.randint(1, n)
            triples.append((start, rng.randint(1, n - start + 1),
                            float(rng.randint(0, 5))))
        instance = inst(n, triples)
        dp = solve_dp(instance)
        flow_cost, _ = solve_flow(to_flow(instance))
        frac_cost, _ = solve_fractional(instance)
        assert flow_cost == pytest.approx(dp.cost, abs=1e-7)
        assert frac_cost == pytest.approx(dp.cost, abs=1e-7)


def test_fractional_zero_demand():
    cost, weights = solve_fractional(inst(3, [(1, 3, 2.0)]), demand=0.0)
    assert cost == 0.0 and weights == [0.0]


def test_fractional_binary_matches_dp():
    instance = inst(4, [(1, 2, 1.0), (3, 2, 1.0), (1, 4, 3.0)])
    cost, _ = solve_fractional(instance)
    assert cost == pytest.approx(solve_dp(instance).cost, abs=1e-9)


def test_fractional_half_demand_uses_cheap_interval():
    instance = inst(2, [(1, 2, 1.0), (1, 1, 1.0), (2, 1, 1.0)])
    cost, weights = solve_fractional(instance, demand=0.5, bounds=[0.5, 1.0, 1.0])
    assert cost == pytest.approx(0.5, abs=1e-9)
    assert weights[0] == pytest.approx(0.5, abs=1e-9)


def test_fractional_infeasible():
    with pytest.raises(Infeasible):
        solve_fractional(inst(2, [(1, 1, 1.0)]), demand=1.0)
