import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longhop import gf2
from longhop.optimize import SearchReport, brute_force_search, greedy_improve
from longhop.topology import CayleyTopology, bisection_fwht, build


def oracle_greedy_improve(start, swap_width=1, max_rounds=100):
    """Per-candidate greedy: builds and transforms every full-rank candidate
    and counts each one it scores, the start included; independent of the
    Walsh-domain batch scoring in optimize.greedy_improve."""
    d = start.d
    basis = {1 << i for i in range(d)}
    current = start.hops
    evaluated = 0

    def score(hops):
        nonlocal evaluated
        evaluated += 1
        return int(bisection_fwht(CayleyTopology(d=d, hops=hops))[1:].min())

    b = score(current)
    rounds = 0
    while rounds < max_rounds:
        positions = [i for i, h in enumerate(current) if h not in basis]
        improved = False
        for pos_combo in itertools.combinations(positions, swap_width):
            in_use = set(current)
            pool = [w for w in range(1, 1 << d) if w not in in_use]
            for repl in itertools.combinations(pool, swap_width):
                cand = list(current)
                for p, w in zip(pos_combo, repl):
                    cand[p] = w
                if gf2.rank(cand) != d:
                    continue
                cand_t = tuple(cand)
                cand_b = score(cand_t)
                if cand_b > b:
                    current = cand_t
                    b = cand_b
                    rounds += 1
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return SearchReport(
        best=CayleyTopology(d=d, hops=current),
        best_b=b,
        evaluated=evaluated,
        method="greedy",
        rounds=rounds,
    )


@st.composite
def greedy_starts(draw, d_range, extra_max):
    """A spanning hop set in drawn order: d independent words (the unit
    words only sometimes) plus up to extra_max other words."""
    d = draw(st.integers(*d_range))
    hops, span = [], {0}
    for _ in range(d):
        w = draw(st.sampled_from([w for w in range(1, 1 << d) if w not in span]))
        hops.append(w)
        span |= {s ^ w for s in span}
    rest = [w for w in range(1, 1 << d) if w not in hops]
    hops += draw(st.lists(st.sampled_from(rest), max_size=extra_max, unique=True))
    return build(d, draw(st.permutations(hops)))


def assert_same_as_oracle(start, swap_width, max_rounds):
    got = greedy_improve(start, swap_width=swap_width, max_rounds=max_rounds)
    want = oracle_greedy_improve(start, swap_width=swap_width, max_rounds=max_rounds)
    assert (got.best.hops, got.best_b, got.evaluated, got.rounds) == (
        want.best.hops, want.best_b, want.evaluated, want.rounds)


class TestBruteForce:
    def test_folded_cube_is_optimal(self):
        report = brute_force_search(3, 4)
        assert report.best_b == 2
        assert report.method == "brute"
        assert bisection_fwht(report.best)[1:].min() == 2

    def test_k4(self):
        report = brute_force_search(2, 3)
        assert report.best_b == 2
        assert set(report.best.hops) == {1, 2, 3}
        assert report.evaluated == 1  # the only extra word is 11

    def test_bare_hypercube(self):
        report = brute_force_search(3, 3)
        assert report.best_b == 1
        assert report.evaluated == 1

    def test_budget_refused(self):
        with pytest.raises(ValueError, match="budget"):
            brute_force_search(4, 8)
        with pytest.raises(ValueError, match="budget"):
            brute_force_search(6, 7)

    @pytest.mark.parametrize("d", [-1, 0, 33])
    def test_dimension_out_of_range_refused(self, d):
        with pytest.raises(ValueError, match=rf"^dimension must be in 1\.\.32, got {d}$"):
            brute_force_search(d, 1)

    def test_self_consistent_rescan(self):
        # independent re-enumeration of every candidate must agree
        for d, m in [(3, 4), (3, 5), (4, 5), (4, 6)]:
            report = brute_force_search(d, m)
            basis = tuple(1 << i for i in range(d))
            pool = [w for w in range(1, 1 << d) if w not in basis]
            best = max(
                bisection_fwht(CayleyTopology(d=d, hops=basis + extras))[1:].min()
                for extras in itertools.combinations(pool, m - d)
            )
            assert report.best_b == best

    @pytest.mark.parametrize("d,m", [(3, 4), (3, 5), (4, 5)])
    def test_matches_best_code_distance(self, d, m):
        # oracle: exhaust every k x n generator matrix; the best attainable
        # minimum distance must equal the best attainable bisection
        lut = np.zeros(1 << 16, dtype=np.int64)
        for w in range(1 << 16):
            lut[w] = bin(w).count("1")
        best = 0
        n_mask = (1 << m) - 1
        rows_space = np.arange(1 << (d * m), dtype=np.int64)
        # decode packed matrices: row i = bits [i*m, (i+1)*m)
        rows = [(rows_space >> (i * m)) & n_mask for i in range(d)]
        min_w = np.full(rows_space.size, m + 1, dtype=np.int64)
        for msg in range(1, 1 << d):
            cw = np.zeros(rows_space.size, dtype=np.int64)
            for i in range(d):
                if (msg >> i) & 1:
                    cw ^= rows[i]
            np.minimum(min_w, lut[cw], out=min_w)
        best = int(min_w.max())  # rank-deficient matrices yield 0, never the max
        assert brute_force_search(d, m).best_b == best


class TestGreedy:
    def test_improves_bad_hop(self):
        start = build(3, [1, 2, 4, 3])
        report = greedy_improve(start, swap_width=1)
        assert report.best_b == 2
        assert report.rounds == 1
        assert report.method == "greedy"

    def test_optimal_start_unchanged(self, folded3):
        report = greedy_improve(folded3, swap_width=1)
        assert report.best == folded3
        assert report.rounds == 0

    def test_monotone_two_swap(self):
        start = build(4, [1, 2, 4, 8, 15])  # folded 4-cube
        before = bisection_fwht(start)[1:].min()
        report = greedy_improve(start, swap_width=2, max_rounds=3)
        assert report.best_b >= before

    def test_never_decreases_random(self):
        import random

        rng = random.Random(31)
        for _ in range(10):
            d = rng.randint(3, 5)
            basis = [1 << i for i in range(d)]
            pool = [w for w in range(1, 1 << d) if w not in basis]
            m = rng.randint(d, min(d + 3, d + len(pool)))
            start = build(d, basis + rng.sample(pool, m - d))
            before = bisection_fwht(start)[1:].min()
            report = greedy_improve(start, swap_width=1, max_rounds=10)
            assert report.best_b >= before
            assert bisection_fwht(report.best)[1:].min() == report.best_b

    def test_width2_beats_width1(self):
        # why width 2 stays: every single swap from here keeps b = 2, and one
        # pair swap reaches 3
        start = build(6, [1, 2, 4, 8, 16, 32, 55, 25, 49, 57])
        one = greedy_improve(start, swap_width=1)
        two = greedy_improve(start, swap_width=2)
        assert (one.best_b, one.rounds) == (2, 0)
        assert (two.best_b, two.rounds) == (3, 1)
        assert bisection_fwht(two.best)[1:].min() == 3

    def test_bad_swap_width(self, folded3):
        with pytest.raises(ValueError):
            greedy_improve(folded3, swap_width=3)

    def test_negative_max_rounds(self, folded3):
        with pytest.raises(ValueError, match="max_rounds"):
            greedy_improve(folded3, max_rounds=-1)

    @settings(max_examples=120)
    @given(greedy_starts((3, 7), 6), st.sampled_from([0, 1, 2, 100]))
    # hop sets that earlier rounds scored come back, and count again, here
    @example(build(6, [36, 15, 23, 62, 44, 60, 49, 30, 19]), 100)
    def test_width1_matches_oracle(self, start, max_rounds):
        assert_same_as_oracle(start, 1, max_rounds)

    @settings(max_examples=40)
    @given(greedy_starts((3, 5), 3), st.integers(0, 3))
    @example(build(4, [6, 1, 2, 10, 11, 8, 5]), 3)
    @example(build(4, [10, 8, 12, 3, 2, 9, 11]), 3)  # round 2 meets round 0's sets again
    @example(build(5, [17, 6, 4, 8, 20, 16]), 3)
    def test_width2_matches_oracle(self, start, max_rounds):
        assert_same_as_oracle(start, 2, max_rounds)

    def test_rank_deficient_candidates_skipped(self):
        # without the unit words every hop can be swapped, and dropping 110
        # or 011 leaves a rank-2 set, so some candidates are rank deficient
        start = build(3, [0b110, 0b011, 0b111])
        assert_same_as_oracle(start, 1, 100)
        assert_same_as_oracle(start, 2, 3)

    def test_width2_scale(self):
        # the per-candidate search scores ~2.6M hop sets here (minutes)
        rng = random.Random(9)
        basis = [1 << i for i in range(9)]
        extras = rng.sample([w for w in range(1, 1 << 9) if w not in basis], 7)
        began = time.perf_counter()
        report = greedy_improve(build(9, basis + extras), swap_width=2)
        assert time.perf_counter() - began < 5.0
        assert report.rounds < 100  # stopped at a local optimum
        assert bisection_fwht(report.best)[1:].min() == report.best_b
