import random

import pytest

from longhop import codes
from longhop.codes import GeneratorMatrix
from longhop.construct import code_to_network, network_to_code
from longhop.topology import bisection_bruteforce, bisection_fwht, bisection_scan, build

from conftest import random_full_rank_generator, weight


class TestCodeToNetwork:
    def test_hamming_hops(self, hamming):
        t = code_to_network(hamming)
        assert (t.d, t.m) == (4, 7)
        assert set(t.hops) == {13, 7, 14, 1, 2, 4, 8}
        assert bisection_scan(t).b == 3  # equals the code's minimum distance

    def test_parity_code_gives_folded_cube(self):
        d = 3
        rows = tuple((1 << i) | (1 << d) for i in range(d))
        g = GeneratorMatrix(k=d, n=d + 1, rows=rows)
        t = code_to_network(g)
        assert set(t.hops) == {1, 2, 4, 7}
        assert bisection_fwht(t)[1:].min() == 2

    def test_all_columns_gives_complete_graph(self):
        # every nonzero word as a column: the 8-node complete graph
        rows = []
        for i in range(3):
            row = 0
            for s, h in enumerate(range(1, 8)):
                row |= ((h >> i) & 1) << s
            rows.append(row)
        g = GeneratorMatrix(k=3, n=7, rows=tuple(rows))
        t = code_to_network(g)
        assert {0 ^ h for h in t.hops} == set(range(1, 8))
        assert bisection_fwht(t)[1:].min() == 4
        assert bisection_bruteforce(list(t.edges()), 8) == 16

    def test_repeated_columns_rejected(self):
        g = GeneratorMatrix(k=1, n=2, rows=(0b11,))
        with pytest.raises(ValueError, match="multi-edge"):
            code_to_network(g)

    def test_rank_deficient_rejected_at_build(self):
        with pytest.raises(ValueError, match="span"):
            build(3, [0b011, 0b110, 0b101])


class TestNetworkToCode:
    def test_folded_cube_code(self, folded3):
        g = network_to_code(folded3)
        assert (g.k, g.n) == (3, 4)
        assert codes.min_distance(g) == 2

    def test_cube_gives_identity(self, cube3):
        g = network_to_code(cube3)
        assert g.rows == (1, 2, 4)
        assert codes.min_distance(g) == 1

    def test_round_trip_is_identity(self, folded3):
        assert code_to_network(network_to_code(folded3)) == folded3

    def test_round_trip_from_code(self, hamming):
        assert network_to_code(code_to_network(hamming)) == hamming


class TestCentralEquivalence:
    def test_min_distance_equals_bisection_sample(self):
        rng = random.Random(42)
        for _ in range(50):
            k = rng.randint(1, 10)
            n = rng.randint(k, 20)
            g = random_full_rank_generator(rng, k, n)
            try:
                t = code_to_network(g)
            except ValueError:
                continue  # repeated or zero column: not a simple graph
            assert codes.min_distance(g) == bisection_fwht(t)[1:].min()

    def test_cut_is_column_combination_weight(self):
        # C_r = weight of the GF(2) combination of hop bit columns picked by r
        rng = random.Random(6)
        for d in (2, 4, 6):
            m = rng.randint(d, d + 3)
            basis = [1 << i for i in range(d)]
            pool = [w for w in range(1, 1 << d) if w not in basis]
            t = build(d, basis + rng.sample(pool, m - d))
            cols = [
                sum(((t.hops[s] >> mu) & 1) << s for s in range(m))
                for mu in range(d)
            ]
            cuts = bisection_fwht(t)
            for r in range(1 << d):
                combo = 0
                for mu in range(d):
                    if (r >> mu) & 1:
                        combo ^= cols[mu]
                assert weight(combo) == cuts[r]
