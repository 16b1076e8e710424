import itertools
import math
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longhop import gf2, routing
from longhop.routing import (
    Unroutable,
    disjoint_paths,
    forwarding_table,
    path_edges,
    shortest_paths,
    simulate_forwarding,
)
from longhop.topology import build, distances, hop_distances

from conftest import folded_cube, hypercube, random_topology


def xor_of(t, path):
    acc = 0
    for p in path:
        acc ^= t.hops[p - 1]
    return acc


def no_immediate_backtrack(path):
    return all(a != b for a, b in zip(path, path[1:]))


def oracle_walks(t, length):
    """Every non-backtracking sequence of `length` ports, grouped by the XOR
    it reaches, each group in lexicographic order."""
    walks = {}
    for seq in itertools.product(range(1, t.m + 1), repeat=length):
        if no_immediate_backtrack(seq):
            walks.setdefault(xor_of(t, seq), []).append(seq)
    return walks


def oracle_disjoint_paths(t, walks, yrel, q, extra_length):
    """The greedy of disjoint_paths over `walks` (walks[L] = oracle_walks(t, L)):
    the q paths, or the achievable count when fewer exist.  Edges are node
    pairs."""
    shortest = next(length for length, w in enumerate(walks) if yrel in w)
    chosen, used = [], set()
    for length in range(shortest, shortest + extra_length + 1):
        for seq in walks[length].get(yrel, []):
            hops = (t.hops[p - 1] for p in seq)
            nodes = list(itertools.accumulate(hops, operator.xor, initial=0))
            edges = {(min(u, v), max(u, v)) for u, v in zip(nodes, nodes[1:])}
            if not edges & used:
                chosen.append(seq)
                used |= edges
                if len(chosen) == q:
                    return chosen
    return len(chosen)


def oracle_dist(t):
    """Hop distances from node 0 by a plain breadth-first search."""
    dist, frontier = {0: 0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for h in t.hops:
                if x ^ h not in dist:
                    dist[x ^ h] = dist[x] + 1
                    nxt.append(x ^ h)
        frontier = nxt
    return [dist[z] for z in range(t.N)]


def oracle_first_hops(t, dist, yrel, q):
    """The first q ports in the order (dist[yrel ^ h_p] - dist[yrel], p)."""
    ports = range(1, t.m + 1)
    return sorted(ports, key=lambda p: (dist[yrel ^ t.hops[p - 1]] - dist[yrel], p))[:q]


def oracle_table_csv(t, q):
    """forwarding_table(t, q)'s CSV, from oracle_first_hops."""
    dist = oracle_dist(t)
    rows = {yrel: oracle_first_hops(t, dist, yrel, q) for yrel in range(1, t.N)}
    return "selector,destination,egress_port\n" + "".join(
        f"{s},{yrel:0{t.d}b},{rows[yrel][s - 1]}\n"
        for s in range(1, q + 1) for yrel in range(1, t.N)
    )


def record_step_lists(monkeypatch):
    """Patch routing._StepLists to keep every instance made; returns the list."""
    made = []

    class Recorded(routing._StepLists):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(routing, "_StepLists", Recorded)
    return made


def record_walks(monkeypatch):
    """Patch routing._walks_exact to log the walks it yields when given a
    `used` set, and that set per call; returns (walks, sets)."""
    walks, sets = [], []
    walks_exact = routing._walks_exact

    def recorded(t, yrel, length, steps, used=None):
        if used is not None:
            sets.append(used)
        for walk in walks_exact(t, yrel, length, steps, used):
            if used is not None:
                walks.append(walk)
            yield walk

    monkeypatch.setattr(routing, "_walks_exact", recorded)
    return walks, sets


@st.composite
def routing_cases(draw):
    d = draw(st.integers(1, 4))
    m = draw(st.integers(d, min(d + 2, (1 << d) - 1)))
    words = st.integers(1, (1 << d) - 1)
    hops = draw(st.lists(words, min_size=m, max_size=m, unique=True).filter(
        lambda hops: gf2.rank(hops) == d))
    return build(d, hops), draw(st.integers(1, m)), draw(st.integers(0, 2))


@given(routing_cases())
def test_disjoint_paths_and_table_match_oracle(case):
    t, q, extra_length = case
    walks = [oracle_walks(t, 0)]
    while len(set().union(*walks)) < t.N:   # up to the diameter
        walks.append(oracle_walks(t, len(walks)))
    for _ in range(extra_length):
        walks.append(oracle_walks(t, len(walks)))
    for yrel in range(1, t.N):
        expected = oracle_disjoint_paths(t, walks, yrel, q, extra_length)
        if isinstance(expected, int):
            with pytest.raises(Unroutable) as exc:
                disjoint_paths(t, yrel, q, extra_length=extra_length)
            assert exc.value.achievable == expected
        else:
            assert disjoint_paths(t, yrel, q, extra_length=extra_length) == expected
    # the table has no length cap and no Unroutable: q <= m distinct ports exist
    assert "".join(forwarding_table(t, q).csv_blocks()) == oracle_table_csv(t, q)


class TestStepLists:
    def test_match_brute_filter_every_node(self):
        rng = random.Random(12)
        for d in range(1, 9):
            for _ in range(3):
                t = random_topology(rng, d, rng.randint(d, min(d + 6, (1 << d) - 1)))
                dist = hop_distances(t)
                steps = routing._StepLists(t, dist)
                for z in range(t.N):
                    closer, level = steps[z]
                    assert list(closer) == [
                        p for p, h in enumerate(t.hops, 1) if dist[z ^ h] < dist[z]
                    ]
                    assert list(level) == [
                        p for p, h in enumerate(t.hops, 1) if dist[z ^ h] <= dist[z]
                    ]
                assert len(steps) == t.N

    def test_more_than_255_ports_pack_tuples(self):
        t = random_topology(random.Random(9), 9, 300)
        dist = hop_distances(t)
        steps = routing._StepLists(t, dist)
        assert steps.every == tuple(range(1, 301))
        assert all(type(row) is tuple for row in steps[0b101])
        table = forwarding_table(t, 1)
        assert table.ports.dtype == np.uint16 and table.ports.max() > 255
        expected = "".join(
            f"1,{yrel:09b},{disjoint_paths(t, yrel, 1)[0][0]}\n" for yrel in range(1, t.N)
        )
        assert "".join(table.csv_blocks()) == "selector,destination,egress_port\n" + expected

    def test_single_query_fills_only_visited_rows(self, monkeypatch):
        # d = 20: one query fills rows for the few hundred nodes its walks
        # visit, and its peak is the distance vector, far below N * m
        rng = random.Random(20)
        d, m = 20, 24
        hops = [1 << i for i in range(d)]
        while len(hops) < m:
            w = rng.getrandbits(d)
            if w & (w - 1) and w not in hops:
                hops.append(w)
        t = build(d, hops)
        made = record_step_lists(monkeypatch)
        tracemalloc.start()
        try:
            paths = disjoint_paths(t, t.N - 1, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(p) for p in paths] == [8, 8, 8, 8]
        assert len(made) == 1 and 0 < len(made[0]) < 1000
        assert peak < 5 * t.N < t.N * t.m // 4

    def test_step_lists_share_the_distance_vector(self, monkeypatch):
        # d = 20: the step lists read the vector hop_distances returned, not
        # a copy, so a query peaks at the vector plus the search's own peak
        t = random_topology(random.Random(20), 20, 64)
        made, vectors = record_step_lists(monkeypatch), []

        def recorded(t):
            vectors.append(hop_distances(t))
            return vectors[-1]

        monkeypatch.setattr(routing, "hop_distances", recorded)
        peaks = []
        for run in (lambda: distances(t), lambda: disjoint_paths(t, t.N - 1, 4)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        search, query = peaks
        assert np.shares_memory(np.frombuffer(made[0].dist, dtype=np.uint8), vectors[0])
        assert query < t.N + search + t.N // 4

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

    def test_longer_walks_match_oracle(self):
        # without a `used` set the generator yields every non-backtracking
        # walk of the length, also those with a detour of two or more hops
        for t in (hypercube(3), folded_cube(3), random_topology(random.Random(4), 4, 6)):
            steps = routing._StepLists(t, hop_distances(t))
            for length in range(1, 6):
                walks = oracle_walks(t, length)
                for yrel in range(1, t.N):
                    if steps.dist[yrel] <= length:
                        found = list(routing._walks_exact(t, yrel, length, steps))
                        assert found == walks.get(yrel, []), (t.hops, yrel, length)


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

    def test_edge_ids_are_undirected(self, cube3):
        # port p from node x is edge min(x, x ^ h_p) * m + p, whichever end walks it
        assert path_edges(cube3, (1, 1)) == path_edges(cube3, (1,)) == {1}
        assert path_edges(cube3, (2, 1)) == {0 * 3 + 2, 2 * 3 + 1}

    def test_search_takes_the_chosen_edges(self, cube3, monkeypatch):
        # the walks come in enumeration order, none backtracking, and the
        # edges they add to the one `used` set are exactly those of the
        # chosen paths
        yielded, sets = record_walks(monkeypatch)
        assert disjoint_paths(cube3, 0b001, 3) == [(1,), (2, 1, 2), (3, 1, 3)]
        assert yielded == [(2, 1, 2), (3, 1, 3)]
        rng = random.Random(29)
        for _ in range(40):
            d = rng.randint(3, 6)
            t = random_topology(rng, d, rng.randint(d, min(d + 4, (1 << d) - 1)))
            yrel, q = rng.randint(1, t.N - 1), rng.randint(2, t.m)
            sets.clear()
            paths = disjoint_paths(t, yrel, q)
            self._assert_disjoint(t, paths, yrel)
            assert sets and all(used is sets[0] for used in sets), (t.hops, yrel, q)
            assert sets[0] == set().union(*(path_edges(t, p) for p in paths)), (t.hops, yrel, q)

    def test_every_walk_yielded_into_used_is_accepted(self, monkeypatch):
        # the walk takes the edges of each walk it yields and backs up to
        # step 0, so each walk it yields is chosen: path 1 comes from the
        # descent, every other path from the search
        yielded, _ = record_walks(monkeypatch)
        rng = random.Random(31)
        for _ in range(40):
            d = rng.randint(3, 6)
            t = random_topology(rng, d, rng.randint(d, min(d + 4, (1 << d) - 1)))
            yrel, q = rng.randint(1, t.N - 1), rng.randint(1, t.m)
            yielded.clear()
            assert disjoint_paths(t, yrel, q)[1:] == yielded, (t.hops, yrel, q)

    def test_descent_is_first_shortest_path(self):
        rng = random.Random(37)
        for d in range(3, 8):
            for _ in range(3):
                t = random_topology(rng, d, rng.randint(d, min(d + 4, (1 << d) - 1)))
                for yrel in range(1, t.N):
                    descent = disjoint_paths(t, yrel, 1, extra_length=0)
                    assert descent == [shortest_paths(t, yrel)[0]], (t.hops, yrel)

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
        assert table.ports.shape == (2, 8) and table.ports.dtype == np.uint8
        assert table.ports[:, 1:].all()  # (N-1) * Q entries; column 0 unused

    def test_egress_out_of_range(self, cube3):
        table = forwarding_table(cube3, 2)
        for selector, yrel in ((0, 1), (3, 1), (1, 0), (1, 8)):
            with pytest.raises(KeyError):
                table.egress(selector, yrel)

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
        # selector 1 is the first hop of disjoint path 1, the lexicographically
        # first shortest path; every selector is the closed form's port
        rng = random.Random(6)
        for d in range(2, 8):
            t = random_topology(rng, d, rng.randint(d, min(d + 5, (1 << d) - 1)))
            dist = oracle_dist(t)
            for q in range(1, t.m + 1):
                table = forwarding_table(t, q)
                for yrel in range(1, t.N):
                    expected = oracle_first_hops(t, dist, yrel, q)
                    assert table.ports[:, yrel].tolist() == expected, (t.hops, q, yrel)
                    if q == 1:
                        assert expected == [disjoint_paths(t, yrel, 1)[0][0]], (t.hops, yrel)

    def test_forwarded_routes_converge(self):
        # every selector arrives within dist + 2 hops, selector 1 in exactly
        # dist, and a destination's q first hops are distinct; a table at
        # q < m is the first q rows of the one at q = m
        rng = random.Random(41)
        for d in range(2, 8):
            t = random_topology(rng, d, rng.randint(min(d + 1, (1 << d) - 1), min(d + 4, (1 << d) - 1)))
            dist = oracle_dist(t)
            full = forwarding_table(t, t.m)
            for q in range(1, t.m + 1):
                ports = forwarding_table(t, q).ports
                assert (ports == full.ports[:q]).all(), (t.hops, q)
                assert all(len(set(ports[:, yrel].tolist())) == q for yrel in range(1, t.N))
            for x in range(t.N):
                for y in range(t.N):
                    if x == y:
                        continue
                    for s in range(1, t.m + 1):
                        hops = len(simulate_forwarding(t, full, x, y, s)) - 1
                        if s == 1:
                            assert hops == dist[x ^ y], (t.hops, x, y)
                        else:
                            assert hops <= dist[x ^ y] + 2, (t.hops, x, y, s)

    def test_entry_cap_refused_before_bfs(self, folded3, monkeypatch):
        # q * N = 2 * 8 entries: refused one below, built at the cap
        def no_bfs(t):
            raise AssertionError("hop_distances ran before the cap was checked")

        with monkeypatch.context() as mp:
            mp.setattr(routing, "MAX_TABLE_ENTRIES", 15)
            mp.setattr(routing, "hop_distances", no_bfs)
            with pytest.raises(ValueError, match=r"needs a 16-byte port array \(q\*N = 16"
                                                 r" entries\); the cap is 15 entries"):
                forwarding_table(folded3, 2)
        monkeypatch.setattr(routing, "MAX_TABLE_ENTRIES", 16)
        assert forwarding_table(folded3, 2).ports.shape == (2, 8)

    def test_bad_diversity_rejected_before_bfs(self, cube3, monkeypatch):
        def no_bfs(t):
            raise AssertionError("hop_distances ran before q was checked")

        monkeypatch.setattr(routing, "hop_distances", no_bfs)
        for q in (0, cube3.m + 1):
            with pytest.raises(ValueError, match="diversity"):
                forwarding_table(cube3, q)

    def test_csv_blocks(self, monkeypatch):
        # rows stream in runs of at most gf2.TEXT_ROWS, selector by selector,
        # less destination 0's row, and join to the plain rendering whatever
        # the table size
        t = random_topology(random.Random(8), 6, 12)
        table = forwarding_table(t, 3)
        expected = "selector,destination,egress_port\n" + "".join(
            f"{s},{yrel:06b},{table.egress(s, yrel)}\n"
            for s in (1, 2, 3) for yrel in range(1, t.N)
        )
        assert "".join(table.csv_blocks()) == expected
        for rows in (2, 8, 32, 64, 128):
            monkeypatch.setattr(gf2, "TEXT_ROWS", rows)
            blocks = list(table.csv_blocks())
            assert "".join(blocks) == expected
            assert len(blocks) == 1 + 3 * (t.N // min(rows, t.N))
            assert all(0 < block.count("\n") <= rows for block in blocks[1:])

    def test_csv_format(self, cube3):
        table = forwarding_table(cube3, 1)
        lines = "".join(table.csv_blocks()).splitlines()
        assert lines[0] == "selector,destination,egress_port"
        assert lines[1] == "1,001,1"
        assert len(lines) == 8

