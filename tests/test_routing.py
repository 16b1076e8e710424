import math
import random

import pytest

from longhop import routing
from longhop.routing import (
    Unroutable,
    disjoint_paths,
    forwarding_table,
    path_edges,
    path_nodes,
    route,
    shortest_paths,
    simulate_forwarding,
)
from longhop.topology import build

from conftest import folded_cube, hypercube, random_topology


def xor_of(t, path):
    acc = 0
    for p in path:
        acc ^= t.hops[p - 1]
    return acc


def no_immediate_backtrack(path):
    return all(a != b for a, b in zip(path, path[1:]))


class TestShortestPaths:
    def test_factorial_count(self, cube3):
        paths = shortest_paths(cube3, 0b111)
        assert len(paths) == 6
        assert sorted(paths) == paths  # lexicographic order
        assert all(xor_of(cube3, p) == 0b111 for p in paths)

    def test_single_hop(self, cube3):
        assert shortest_paths(cube3, 0b001) == [(1,)]

    def test_folded_cube_pairs(self, folded3):
        paths = shortest_paths(folded3, 0b110)
        assert paths == [(1, 4), (2, 3), (3, 2), (4, 1)]

    def test_zero_destination_rejected(self, cube3):
        with pytest.raises(ValueError):
            shortest_paths(cube3, 0)

    def test_hypercube_factorial_law(self):
        for d in (3, 4, 5):
            t = hypercube(d)
            for yrel in range(1, t.N):
                w = yrel.bit_count()
                assert len(shortest_paths(t, yrel)) == math.factorial(w)


class TestDisjointPaths:
    def test_rotations(self, cube3):
        paths = disjoint_paths(cube3, 0b111, 3)
        assert paths == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]

    def test_q_one_is_lex_first_shortest(self, folded3):
        assert disjoint_paths(folded3, 0b110, 1) == [(1, 4)]

    def test_detours_around_single_edge(self, cube3):
        paths = disjoint_paths(cube3, 0b001, 3)
        assert paths[0] == (1,)
        assert sorted(len(p) for p in paths) == [1, 3, 3]
        self._assert_disjoint(cube3, paths, 0b001)

    def _assert_disjoint(self, t, paths, yrel):
        seen = set()
        for p in paths:
            assert xor_of(t, p) == yrel
            assert no_immediate_backtrack(p)
            edges = path_edges(t, p)
            assert not (edges & seen)
            seen |= edges

    def test_all_destinations_full_diversity(self):
        for t in (hypercube(4), folded_cube(4)):
            for yrel in range(1, t.N):
                paths = disjoint_paths(t, yrel, t.m)
                assert len(paths) == t.m
                self._assert_disjoint(t, paths, yrel)

    def test_lengths_minimal_and_stable(self, cube3):
        # deterministic greedy: re-running reproduces the same set, lengths
        # never decrease along the list, and the first path is shortest
        paths = disjoint_paths(cube3, 0b011, 3)
        assert paths == disjoint_paths(cube3, 0b011, 3)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)
        assert lengths[0] == 2

    def test_diversity_bounds(self, cube3):
        with pytest.raises(ValueError):
            disjoint_paths(cube3, 1, 0)
        with pytest.raises(ValueError):
            disjoint_paths(cube3, 1, 4)  # q > m

    def test_unroutable_carries_achievable(self, cube3):
        with pytest.raises(Unroutable) as exc:
            disjoint_paths(cube3, 0b001, 3, extra_length=0)
        assert exc.value.achievable == 1

    def test_random_topologies(self):
        rng = random.Random(77)
        for _ in range(15):
            d = rng.randint(3, 6)
            t = random_topology(rng, d, rng.randint(d, d + 3))
            yrel = rng.randint(1, t.N - 1)
            q = rng.randint(1, min(t.m, 4))
            paths = disjoint_paths(t, yrel, q)
            self._assert_disjoint(t, paths, yrel)


class TestForwardingTable:
    def test_entry_count(self, cube3):
        table = forwarding_table(cube3, 2)
        assert len(table.entries) == 14  # (N-1) * Q

    def test_selector_spread_full_diversity(self, cube3):
        table = forwarding_table(cube3, 3)
        for yrel in range(1, 8):
            ports = {table.egress(s, yrel) for s in (1, 2, 3)}
            assert len(ports) == 3

    def test_folded_cube_two_hop_delivery(self, folded3):
        table = forwarding_table(folded3, 1)
        for x in range(8):
            for y in range(8):
                if x == y:
                    continue
                trace = simulate_forwarding(folded3, table, x, y, 1)
                assert trace[-1] == y
                assert len(trace) - 1 <= 2  # diameter of the folded 3-cube

    def test_all_walks_converge(self):
        t = folded_cube(4)
        table = forwarding_table(t, 2)
        for x in range(t.N):
            for y in range(t.N):
                if x == y:
                    continue
                for s in (1, 2):
                    assert simulate_forwarding(t, table, x, y, s)[-1] == y

    def test_matches_per_destination_disjoint_paths(self):
        t = random_topology(random.Random(6), 6, 10)
        q = 3
        entries = {}
        for yrel in range(1, t.N):
            for s, path in enumerate(disjoint_paths(t, yrel, q), 1):
                entries[(s, yrel)] = path[0]
        expected = routing.ForwardingTable(d=t.d, q=q, entries=entries).to_csv()
        assert forwarding_table(t, q).to_csv() == expected

    def test_bad_diversity_rejected_before_bfs(self, cube3, monkeypatch):
        def no_bfs(t):
            raise AssertionError("hop_distances ran before q was checked")

        monkeypatch.setattr(routing, "hop_distances", no_bfs)
        for q in (0, cube3.m + 1):
            with pytest.raises(ValueError, match="diversity"):
                forwarding_table(cube3, q)

    def test_csv_format(self, cube3):
        table = forwarding_table(cube3, 1)
        lines = table.to_csv().splitlines()
        assert lines[0] == "selector,destination,egress_port"
        assert lines[1] == "1,001,1"
        assert len(lines) == 8


class TestRoute:
    def test_source_equals_destination(self, cube3):
        with pytest.raises(ValueError):
            route(cube3, 5, 5, 1)

    def test_walk_ends_at_destination(self, cube3):
        path = route(cube3, 2, 5, 1)
        assert path_nodes(cube3, path, start=2)[-1] == 5

    def test_translation_invariance(self, cube3):
        assert route(cube3, 2, 5, 2) == route(cube3, 0, 2 ^ 5, 2)

    def test_two_node_network(self):
        t = build(1, [1])
        assert route(t, 0, 1, 1) == (1,)

    def test_selector_beyond_port_count(self, cube3):
        with pytest.raises(ValueError):
            route(cube3, 0, 1, 4)  # s > m
