import contextlib
import io
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longhop import cli, codes, gf2, topology
from longhop.construct import code_to_network
from longhop.topology import (
    CayleyTopology,
    bisection_bruteforce,
    bisection_fwht,
    bisection_scan,
    build,
    cluster,
    crossing_links,
    cut_chunks,
    cut_walsh,
    distances,
    emit_hopset,
    parse_edge_list,
    parse_hopset,
    reduce_cuts,
    walsh_chunks,
)

from conftest import DATA, folded_cube, hypercube, random_topology, walsh


def oracle_hop_distances(t):
    """Level-synchronous BFS over explicit node ids (frontier x hops, then
    np.unique); independent of the bitmap BFS in topology.hop_distances."""
    N = t.N
    hop_arr = np.array(t.hops, dtype=np.int64)
    dist = np.full(N, -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.array([0], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        cand = np.unique((frontier[:, None] ^ hop_arr).ravel())
        new = cand[dist[cand] < 0]
        dist[new] = level
        frontier = new
    return dist


@contextlib.contextmanager
def forced_bfs_step(step):
    """Send every level of topology._levels through one of its two steps,
    "list" (node-list) or "moved".  Yields the list of steps the levels
    took."""
    taken = []
    grow_listed, grow_moved = topology._grow_listed, topology._grow_moved

    def listed(*args):
        taken.append("list")
        return grow_listed(*args)

    def moved(*args):
        taken.append("moved")
        return grow_moved(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_LIST_SHARE", {"list": math.inf, "moved": 0}[step])
        mp.setattr(topology, "_grow_listed", listed)
        mp.setattr(topology, "_grow_moved", moved)
        yield taken


def oracle_cluster(t, levels):
    """cluster with each level's crossing counts accumulated hop by hop from
    explicit parities over full-length arrays; independent of the codeword
    weights that topology.cluster reduces chunk by chunk."""
    N = t.N
    labels = np.zeros(N, dtype=np.int64)
    if levels == 0:
        return labels
    used = []
    span = {0}
    for _ in range(levels):
        intra = [h for h in t.hops if all(walsh(u, h) == 0 for u in used)]
        cross = np.zeros(N, dtype=np.int64)
        for h in intra:
            cross += np.array([walsh(r, h) for r in range(N)], dtype=np.int64)
        cross[list(span)] = t.m * N + 1
        r_star = int(np.argmin(cross))
        used.append(r_star)
        span |= {s ^ r_star for s in span}
    for r in used:
        bit = np.array([walsh(r, x) for x in range(N)], dtype=np.int64)
        labels = (labels << 1) | bit
    return labels


@st.composite
def spanning_hopsets(draw, max_d=12):
    """Random spanning hop sets with d = 1..max_d, mixing hops that touch only
    the in-word bits (h < 64), only the word-index bits (h & 63 == 0), or
    both; unit vectors missing from the span are appended."""
    d = draw(st.integers(1, max_d))
    top = (1 << d) - 1
    word = st.integers(1, top)
    if d > 6:
        word = st.one_of(word, st.integers(1, 63), st.integers(1, top >> 6).map(lambda w: w << 6))
    hops = draw(st.lists(word, max_size=2 * d, unique=True))
    for i in range(d):
        if gf2.rank(hops + [1 << i]) > gf2.rank(hops):
            hops.append(1 << i)
    return build(d, hops)


@st.composite
def wide_hopsets(draw, max_d=10, max_m=150):
    """Spanning hop sets with d = 1..max_d and up to max_m hops, so the
    codewords r.G span one to three 64-bit lanes."""
    d = draw(st.integers(1, max_d))
    top = (1 << d) - 1
    m = draw(st.integers(1, min(top, max_m)))
    hops = random.Random(draw(st.integers(0, 2**32))).sample(range(1, top + 1), m)
    for i in range(d):
        if gf2.rank(hops + [1 << i]) > gf2.rank(hops):
            hops.append(1 << i)
    return build(d, hops)


# Hop sets for the mover: every in-word pattern 1..63 at d = 12, with word
# offsets alone and mixed; a d = 9, m = 20 set; and a [46, 17] set
MOVER_HOPSETS = [
    build(12, [*range(1, 64), *(1 << i for i in range(6, 12)), 0b101010_000111, 0b111111_111111]),
    random_topology(random.Random(9), 9, 20),
    random_topology(random.Random(17), 17, 46),
]


def oracle_crossing_links(t, r):
    """The links crossing the colouring x -> parity(r & x), counted edge by
    edge over the explicit node ids: each edge {x, x ^ h} from both ends."""
    x = np.arange(t.N)
    colour = np.bitwise_count(x & r) & 1
    return sum(int(np.count_nonzero(colour != colour[x ^ h])) for h in t.hops) // 2


def scalar_cuts(t):
    return [cut_walsh(t, r) for r in range(t.N)]


def engine_cuts(t):
    """Every chunk of cut_chunks, concatenated."""
    return np.concatenate(list(topology.cut_chunks(t)))


def listed_bisection(cuts):
    """(b, argmin count, first MAX_LISTED_ARGMIN minimizers) of a full cut
    list, by plain Python over r > 0."""
    b = min(cuts[1:])
    rs = [r for r in range(1, len(cuts)) if cuts[r] == b]
    return b, len(rs), tuple(rs[: topology.MAX_LISTED_ARGMIN])


def reduced(result):
    return result.b, result.argmin_count, result.argmin_rs


def verify_output(t, tmp_path):
    path = tmp_path / "net.hops"
    path.write_text(emit_hopset(t), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(path)])
    return code, out.getvalue()


class TestBuild:
    def test_folded_three_cube(self, folded3):
        assert folded3.N == 8 and folded3.m == 4

    def test_rejects_zero_hop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build(3, [1, 2, 4, 0])

    def test_rejects_duplicate_hop(self):
        with pytest.raises(ValueError, match="multi-edge"):
            build(3, [1, 2, 4, 2])

    def test_rejects_dependent_hops(self):
        with pytest.raises(ValueError, match="span"):
            build(3, [0b001, 0b010, 0b011])

    def test_rejects_wide_hop(self):
        with pytest.raises(ValueError):
            build(2, [1, 2, 4])


class TestNeighbors:
    def test_root_of_folded_cube(self, folded3):
        assert {0 ^ h for h in folded3.hops} == {1, 2, 4, 7}

    def test_port_order(self, cube3):
        assert [(s, 5 ^ h) for s, h in enumerate(cube3.hops, 1)] == [(1, 4), (2, 7), (3, 1)]

    def test_ports_are_involutions(self, folded3):
        # port s leads from x to y = x ^ h and back from y to x, over one edge
        edges = set(folded3.edges())
        for x in range(folded3.N):
            for h in folded3.hops:
                y = x ^ h
                assert y ^ h == x and (min(x, y), max(x, y)) in edges

    def test_regular_edge_count(self):
        rng = random.Random(3)
        for _ in range(5):
            t = random_topology(rng, 4, rng.randint(4, 7))
            assert len(list(t.edges())) == t.N * t.m // 2


class TestCutWalsh:
    def test_examples(self, folded3):
        assert cut_walsh(folded3, 7) == 4
        assert cut_walsh(folded3, 1) == 2
        assert cut_walsh(folded3, 0) == 0

    def test_cut_correspondence_exhaustive(self):
        # the Walsh cut (in units N/2) and the bitmap count of crossing_links
        # both count exactly the edges crossing the explicit two-coloring
        # x -> walsh(r, x); exhaustive for d <= 7, so one zero-padded bitmap
        # word (d < 6), one full word (d = 6) and two words (d = 7)
        rng = random.Random(17)
        for d in (2, 3, 4, 5, 6, 7):
            t = random_topology(rng, d, rng.randint(d, min(d + 3, (1 << d) - 1)))
            edges = list(t.edges())
            counts = [
                sum(1 for u, v in edges if walsh(r, u) != walsh(r, v))
                for r in range(t.N)
            ]
            assert counts == [cut_walsh(t, r) * (t.N // 2) for r in range(t.N)]
            assert list(crossing_links(t, range(t.N))) == counts

    @pytest.mark.parametrize("block_words", [2, 8])
    @given(t=spanning_hopsets(max_d=8), data=st.data())
    def test_crossing_links_across_batches(self, block_words, t, data):
        # with _BLOCK_WORDS of 2 or 8 words, batches of 8 down to 1
        # partitions split the list, and the last one is often partial
        rs = data.draw(st.lists(st.integers(0, t.N - 1), max_size=70))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "_BLOCK_WORDS", block_words)
            links = list(crossing_links(t, rs))
        assert links == [cut_walsh(t, r) * (t.N // 2) for r in rs]

    def test_crossing_links_multi_word_batch(self):
        # d = 12: 64 words a colouring, so batches of 64 partitions, then 36
        t = random_topology(random.Random(12), 12, 40)
        rs = random.Random(1).sample(range(t.N), 100)
        assert topology._BLOCK_WORDS // (t.N >> 6) == 64
        assert list(crossing_links(t, rs)) == [cut_walsh(t, r) * (t.N // 2) for r in rs]

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("t", MOVER_HOPSETS, ids=lambda t: f"d{t.d}m{t.m}")
    def test_crossing_links_matches_edges_at_every_table_size(self, k, t):
        # one colouring alone moves through a table of 2**k rows; five
        # together fill the working set, so their table has one row
        rs = random.Random(t.d).sample(range(1, t.N), 5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "_BLOCK_WORDS", (t.N >> 6) << k)
            assert topology._hop_blocks(t, t.N >> 6)[0] == k
            alone = [links for r in rs for links in crossing_links(t, [r])]
            together = list(crossing_links(t, rs))
        oracle = [oracle_crossing_links(t, r) for r in rs]
        assert alone == together == oracle


class TestBisection:
    def test_folded_cube(self, folded3):
        assert bisection_scan(folded3).b == 2
        assert bisection_scan(folded3).links == 8

    def test_hypercube(self, cube3):
        assert bisection_scan(cube3).b == 1

    def test_k4(self):
        t = build(2, [1, 2, 3])
        assert bisection_scan(t).b == 2
        assert bisection_bruteforce(list(t.edges()), 4) == 4

    def test_fwht_spectrum_folded_cube(self, folded3):
        cuts = bisection_fwht(folded3)
        assert (cuts.dtype, cuts.size) == (np.int64, folded3.N)
        alphas = folded3.m - 2 * cuts.astype(np.int64)
        assert alphas[0] == 4
        assert alphas[7] == -4
        assert cuts[0] == 0
        assert set(alphas[1:7].tolist()) == {0}

    def test_spectrum_invariants_random(self):
        rng = random.Random(5)
        for _ in range(10):
            d = rng.randint(2, 8)
            m = rng.randint(d, min(2 * d, (1 << d) - 1))
            t = random_topology(rng, d, m)
            cuts = bisection_fwht(t)
            alphas = t.m - 2 * cuts.astype(np.int64)
            assert alphas.sum() == 0  # zero trace
            assert alphas[0] == t.m
            assert alphas.max() == t.m
            # alpha_r = sum_s (-1)**parity(r & h_s), the adjacency eigenvalue
            assert alphas.tolist() == [
                sum(1 - 2 * walsh(r, h) for h in t.hops) for r in range(t.N)]
            assert bisection_scan(t).b == cuts[1:].min()
            assert reduced(reduce_cuts([cuts])) == listed_bisection(cuts.tolist())

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 11])
    def test_scan_equals_fwht(self, d):
        rng = random.Random(d)
        t = random_topology(rng, d, min(rng.randint(d, 2 * d), (1 << d) - 1))
        fwht = bisection_fwht(t)
        cuts = engine_cuts(t)
        assert (cuts == fwht).all()
        assert (t.m - 2 * cuts.astype(np.int64) == t.m - 2 * fwht).all()   # uint8 would wrap
        assert reduced(bisection_scan(t)) == listed_bisection(fwht.tolist())

    @pytest.mark.parametrize("table_bits", [0, 1, 3, 20])
    @given(spanning_hopsets(max_d=9))
    def test_fwht_chunks_match_scan(self, table_bits, t):
        # table_bits < d makes cut_chunks yield several gf2.codeword_weights chunks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "_TABLE_BITS", table_bits)
            scan = engine_cuts(t)
            reduced_scan = bisection_scan(t)
        fwht = bisection_fwht(t)
        assert (fwht == scan).all()
        assert (t.m - 2 * fwht == t.m - 2 * scan.astype(np.int64)).all()
        assert reduced(reduced_scan) == listed_bisection(fwht.tolist())

    @settings(max_examples=60)
    @given(wide_hopsets())
    def test_scan_matches_scalar_cuts(self, t):
        cuts = engine_cuts(t)
        assert cuts.dtype == np.uint8   # m <= 254
        assert cuts.tolist() == scalar_cuts(t)
        assert reduced(bisection_scan(t)) == listed_bisection(scalar_cuts(t))

    @pytest.mark.parametrize("m", [63, 64, 65, 128])
    def test_scan_lane_boundaries(self, m):
        # m = 64 fills one lane exactly; 65 spills one bit into a second lane
        t = random_topology(random.Random(m), 8, m)
        assert engine_cuts(t).tolist() == scalar_cuts(t)

    @pytest.mark.parametrize("table_bits", [0, 1, 3])
    @given(wide_hopsets(max_d=7, max_m=70))
    def test_scan_table_blocks(self, table_bits, t):
        # a table narrower than d yields one XOR-and-popcount chunk per high part
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "_TABLE_BITS", table_bits)
            cuts = engine_cuts(t)
        assert cuts.tolist() == scalar_cuts(t)

    def test_cap_refused(self):
        # bisection_fwht would fill an 8N-byte array: refused before it
        # allocates; the scan streams its cuts, so it runs at d = 25
        t = hypercube(25)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^d=25 exceeds the full-spectrum cap 24$"):
                bisection_fwht(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert bisection_scan(t).b == 1

    def test_multi_chunk_scan_identical(self, monkeypatch):
        # one chunk per 2**2-entry table block: 64 chunks
        monkeypatch.setattr(gf2, "_TABLE_BITS", 2)
        t = random_topology(random.Random(1), 8, 12)
        cuts = engine_cuts(t)
        assert cuts.tolist() == scalar_cuts(t)
        assert (cuts == bisection_fwht(t)).all()
        assert reduced(bisection_scan(t)) == listed_bisection(scalar_cuts(t))

    def test_scan_holds_no_spectrum_array(self):
        # the engine's table, buffer and two live chunks of 2**_TABLE_BITS
        # words, with one chunk to spare; nothing of N = 2**18 entries
        t = random_topology(random.Random(18), 18, 64)
        tracemalloc.start()
        try:
            result = bisection_scan(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.b == int(engine_cuts(t)[1:].min())
        assert peak < 5 * (8 << gf2._TABLE_BITS)


class TestReduceCuts:
    """The streamed reducer and the streamed Walsh oracle, against the full
    single-transform spectrum (d <= 16) and scalar cut_walsh."""

    @pytest.mark.parametrize("d", range(2, 21))
    def test_reducer_matches_fwht(self, d):
        rng = random.Random(100 + d)
        t = random_topology(rng, d, min(rng.randint(d, d + 40), (1 << d) - 1))
        full = bisection_fwht(t).tolist()
        expected = listed_bisection(full)
        assert reduced(bisection_scan(t)) == expected
        assert reduced(reduce_cuts(walsh_chunks(t))) == expected

    @pytest.mark.parametrize("table_bits", [0, 1, 3, 5])
    @pytest.mark.parametrize("d", [2, 7, 10])
    def test_reducer_over_many_chunks(self, monkeypatch, table_bits, d):
        rng = random.Random(d * 10 + table_bits)
        t = random_topology(rng, d, min(d + 6, (1 << d) - 1))
        expected = listed_bisection(bisection_fwht(t).tolist())   # one transform
        monkeypatch.setattr(gf2, "_TABLE_BITS", table_bits)
        scan, walsh = list(cut_chunks(t)), list(walsh_chunks(t))
        assert [c.size for c in scan] == [c.size for c in walsh]
        assert len(scan) == 1 << (d - min(d, table_bits))
        assert reduced(reduce_cuts(scan)) == expected
        assert reduced(reduce_cuts(walsh)) == expected

    def test_argmin_count_above_listed(self, monkeypatch):
        # the [48,13,16] fixture: more minimizers than the reducer lists,
        # spread over 2**13 / 2**4 chunks
        t = code_to_network(codes.parse_generator((DATA / "g48_13_16.txt").read_text()))
        full = bisection_fwht(t).tolist()
        expected = listed_bisection(full)
        assert expected[0] == 16 and expected[1] > topology.MAX_LISTED_ARGMIN
        monkeypatch.setattr(gf2, "_TABLE_BITS", 4)
        result = bisection_scan(t)
        assert reduced(result) == expected
        assert (result.N, result.links) == (t.N, 16 * t.N // 2)
        assert reduced(reduce_cuts(walsh_chunks(t))) == expected

    @pytest.mark.parametrize("table_bits", [0, 2, 3, 16])
    def test_walsh_chunks_match_scalar_exhaustive(self, monkeypatch, table_bits):
        monkeypatch.setattr(gf2, "_TABLE_BITS", table_bits)
        rng = random.Random(7)
        for d in range(2, 8):
            for _ in range(3):
                t = random_topology(rng, d, rng.randint(d, min(3 * d, (1 << d) - 1)))
                chunks = list(walsh_chunks(t))
                assert all(c.dtype == np.int64 for c in chunks)
                assert np.concatenate(chunks).tolist() == scalar_cuts(t)

    def test_walsh_chunks_negative_sign_sums(self, monkeypatch):
        # four hops share their low 2 bits and have odd high parts, so for
        # u = 1 every f_u entry they meet sums -1 terms: a sign vector kept in
        # uint8 would wrap to 255 there
        monkeypatch.setattr(gf2, "_TABLE_BITS", 2)
        t = build(5, [1, 2, 4, 8, 16, 0b00101, 0b01001, 0b10001, 0b11101])
        chunks = list(walsh_chunks(t))
        assert np.concatenate(chunks).tolist() == scalar_cuts(t)
        assert reduced(reduce_cuts(chunks)) == listed_bisection(scalar_cuts(t))


class TestVerifyCutCheck:
    @given(spanning_hopsets(max_d=8))
    def test_ok_on_correct_cuts(self, tmp_path_factory, t):
        # N < 64 leaves the one bitmap word zero-padded above bit N - 1
        code, out = verify_output(t, tmp_path_factory.mktemp("v"))
        assert code == 0
        assert "cut_correspondence: OK" in out

    def test_fails_on_corrupt_scan_chunk(self, tmp_path, monkeypatch):
        # one of 16 engine chunks off by one at one entry: only the spectra differ
        monkeypatch.setattr(gf2, "_TABLE_BITS", 2)
        engine = gf2.codeword_weights

        def corrupt(rows, n):
            for i, chunk in enumerate(engine(rows, n)):
                if i == 5:
                    chunk[1] += 1
                yield chunk

        monkeypatch.setattr(gf2, "codeword_weights", corrupt)
        code, out = verify_output(random_topology(random.Random(6), 6, 9), tmp_path)
        assert code == 1
        assert "scan_vs_fwht: FAIL" in out
        assert "cut_correspondence: OK" in out

    @pytest.mark.parametrize("d", [4, 9])
    def test_fails_on_wrong_cut(self, tmp_path, monkeypatch, d):
        t = random_topology(random.Random(d), d, d + 3)
        monkeypatch.setattr(topology, "cut_walsh", lambda t, r: cut_walsh(t, r) + 1)
        code, out = verify_output(t, tmp_path)
        sampled = min(64, t.N - 1)
        assert code == 1
        assert f"cut_correspondence: FAIL ({sampled} of {sampled} partitions differ)\n" in out
        assert "scan_vs_fwht: OK" in out

    def test_counts_every_differing_partition(self, tmp_path, monkeypatch):
        # only the odd partitions are off: every one of them is counted
        t = random_topology(random.Random(9), 9, 12)
        odd = sum(r & 1 for r in random.Random(1).sample(range(1, t.N), 64))
        monkeypatch.setattr(topology, "cut_walsh", lambda t, r: cut_walsh(t, r) + (r & 1))
        code, out = verify_output(t, tmp_path)
        assert 0 < odd < 64
        assert code == 1
        assert f"cut_correspondence: FAIL ({odd} of 64 partitions differ)\n" in out


class TestBruteforce:
    def test_folded_cube_links(self, folded3):
        assert bisection_bruteforce(list(folded3.edges()), 8) == 8

    def test_cube_links(self, cube3):
        assert bisection_bruteforce(list(cube3.edges()), 8) == 4

    def test_arbitrary_graph(self):
        # path 0-1-2-3: the balanced split {0,1}/{2,3} cuts one edge
        assert bisection_bruteforce([(0, 1), (1, 2), (2, 3)], 4) == 1

    def test_odd_rejected(self):
        with pytest.raises(ValueError, match="even"):
            bisection_bruteforce([(0, 1)], 3)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="max 20"):
            bisection_bruteforce([(0, 1)], 22)

    def test_oracle_matches_walsh_small(self):
        rng = random.Random(23)
        for _ in range(10):
            t = random_topology(rng, 3, rng.randint(3, 6))
            assert bisection_bruteforce(list(t.edges()), 8) == bisection_scan(t).links


class TestDistances:
    def test_fifteen_cube(self):
        summary = distances(hypercube(15))
        assert summary.diameter == 15
        assert abs(summary.mean - 7.5) < 1e-3

    def test_folded_three_cube(self, folded3):
        summary = distances(folded3)
        assert summary.diameter == 2
        assert summary.histogram == (1, 4, 3)

    def test_complete_graph(self):
        summary = distances(build(2, [1, 2, 3]))
        assert summary.diameter == 1
        assert summary.mean == 1.0

    def test_vertex_symmetry(self):
        # the profile from any source matches the profile from node 0
        rng = random.Random(9)
        t = random_topology(rng, 6, 9)
        base = np.bincount(topology.hop_distances(t))
        for x in rng.sample(range(1, t.N), 5):
            dist = {x: 0}
            frontier = [x]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in (u ^ h for h in t.hops):
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            assert np.bincount(np.array(list(dist.values()))).tolist() == base.tolist()

    @given(spanning_hopsets())
    def test_summary_matches_hop_distances(self, t):
        dist = topology.hop_distances(t)
        summary = distances(t)
        assert summary.histogram == tuple(np.bincount(dist).tolist())
        assert summary.diameter == int(dist.max())
        assert summary.mean == float(dist.sum()) / (t.N - 1)

    @settings(max_examples=300)
    @given(spanning_hopsets())
    def test_bitmap_bfs_matches_oracle(self, t):
        dist = topology.hop_distances(t)
        assert dist.dtype == np.uint8
        assert dist.tolist() == oracle_hop_distances(t).tolist()

    @pytest.mark.parametrize("step", ["list", "moved"])
    @given(t=spanning_hopsets())
    @example(t=MOVER_HOPSETS[0])
    @example(t=MOVER_HOPSETS[1])
    @example(t=MOVER_HOPSETS[2])
    def test_every_step_matches_oracle(self, step, t):
        # with _BLOCK_WORDS of 2 or 8 words the moved step meets several
        # block sizes in one search as the words holding unvisited nodes
        # run out, and its move table holds one row (k = 0) from d = 9 on;
        # the default size gives one block of every hop below d = 13
        oracle = oracle_hop_distances(t).tolist()
        for block_words in (topology._BLOCK_WORDS, 2, 8):
            with forced_bfs_step(step) as taken, pytest.MonkeyPatch.context() as mp:
                mp.setattr(topology, "_BLOCK_WORDS", block_words)
                dist = topology.hop_distances(t)
                summary = distances(t)
            assert dist.tolist() == oracle
            assert summary.histogram == tuple(np.bincount(dist).tolist())
            assert set(taken) <= {step}
            assert len(taken) == 2 * int(dist.max())   # no pass after the last level

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("t", MOVER_HOPSETS, ids=lambda t: f"d{t.d}m{t.m}")
    def test_moves_match_per_hop_oracle(self, k, t):
        # a table of 2**k rows and blocks of 2**k hops: k = 0 walks every
        # in-word pattern a hop at a time, which splits every group of
        # hops that share one; k = 3 tables the mask-and-shift swaps and
        # walks the byte reversals
        words = t.N >> 6
        rng = np.random.default_rng(t.d)
        bitmap = rng.integers(0, 1 << 64, words, dtype=np.uint64, endpoint=False)
        bits = np.unpackbits(bitmap.astype("<u8").view(np.uint8), bitorder="little")
        target = np.flatnonzero(rng.random(words) < 0.5)
        x = np.arange(64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "_BLOCK_WORDS", words << k)
            plan = topology._hop_blocks(t, words)
        assert plan[0] == k
        assert max(len(hops) for _, hops, _ in plan[2]) <= 1 << k
        moved_hops = []
        for (_, hops, _), moved in zip(plan[2], topology._moves(bitmap, plan, target)):
            assert moved.shape == (len(hops), target.size)
            for h, row in zip(hops, moved):
                # bit x of word w for hop h is bit (64 * w + x) ^ h of the bitmap
                source = bits[((target[:, None] << 6) | x) ^ h].astype(np.uint64)
                assert row.tolist() == np.bitwise_or.reduce(source << x.astype(np.uint64), axis=1).tolist()
                moved_hops.append(h)
        assert sorted(moved_hops) == sorted(t.hops)

    @pytest.mark.parametrize("step", ["list", "moved"])
    @pytest.mark.parametrize(
        "t",
        [hypercube(d) for d in range(1, 6)]
        + [folded_cube(d) for d in range(2, 6)]
        + [build(2, [1, 2, 3]), build(5, [1, 2, 4, 8, 16, 3, 12, 31])],
        ids=lambda t: f"d{t.d}m{t.m}",
    )
    def test_every_step_in_one_partial_word(self, step, t):
        with forced_bfs_step(step):
            dist = topology.hop_distances(t)
        assert dist.tolist() == oracle_hop_distances(t).tolist()

    @pytest.mark.parametrize("step", ["list", "moved"])
    def test_every_step_d16(self, step):
        t = random_topology(random.Random(16), 16, 40)
        with forced_bfs_step(step):
            summary = distances(t)
            dist = topology.hop_distances(t)
        oracle = oracle_hop_distances(t)
        assert dist.tolist() == oracle.tolist()
        assert summary.histogram == tuple(np.bincount(oracle).tolist())

    def test_d20_smoke(self):
        d = 20
        rng = random.Random(20)
        basis = [1 << i for i in range(d)]
        extras = [w for w in rng.sample(range(1, 1 << d), 2 * 64) if w not in basis]
        t = build(d, basis + extras[: 64 - d])
        tracemalloc.start()
        try:
            summary = distances(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few N/8-byte bitmaps and word-index arrays, never an N-entry array
        assert peak < 2 * t.N
        assert sum(summary.histogram) == t.N
        assert 0 < summary.diameter <= d
        assert min(summary.histogram) > 0

    @pytest.mark.parametrize("octets", [1, 2, 3])
    @settings(max_examples=60)
    @given(t=spanning_hopsets())
    def test_unpacked_in_small_blocks(self, octets, t):
        # every level's bitmap unpacked in many blocks, a short last one
        # included, and empty blocks skipped
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "_UNPACK_OCTETS", octets)
            dist = topology.hop_distances(t)
        assert dist.dtype == np.uint8
        assert dist.tolist() == oracle_hop_distances(t).tolist()

    def test_d20_holds_no_unpacked_level(self):
        # the vector and the search's own peak, plus one block of
        # _UNPACK_OCTETS octets unpacked; no N-byte mask of a whole level
        t = random_topology(random.Random(20), 20, 64)
        peaks = []
        for run in (distances, topology.hop_distances):
            tracemalloc.start()
            try:
                run(t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        search, vector = peaks
        assert vector < t.N + search + t.N // 4


class TestCluster:
    def test_zero_levels(self, folded3):
        assert cluster(folded3, 0).labels().tolist() == [0] * 8

    def test_one_level_cut_size(self, folded3):
        labels = cluster(folded3, 1).labels()
        assert sorted(np.bincount(labels).tolist()) == [4, 4]
        crossing = sum(
            1 for u, v in folded3.edges() if labels[u] != labels[v]
        )
        assert crossing == bisection_scan(folded3).links

    def test_full_refinement(self, folded3):
        labels = cluster(folded3, 3).labels()
        assert sorted(labels.tolist()) == list(range(8))

    def test_equal_populations(self):
        rng = random.Random(2)
        t = random_topology(rng, 6, 9)
        for levels in (1, 2, 3):
            counts = np.bincount(cluster(t, levels).labels(), minlength=1 << levels)
            assert set(counts.tolist()) == {t.N >> levels}

    @given(st.data())
    def test_matches_oracle(self, data):
        t = data.draw(spanning_hopsets(max_d=10))
        levels = data.draw(st.integers(0, t.d))
        assert cluster(t, levels).labels().tolist() == oracle_cluster(t, levels).tolist()

    @pytest.mark.parametrize("table_bits", [0, 3])
    @settings(max_examples=40)
    @given(st.data())
    def test_matches_oracle_in_small_chunks(self, table_bits, data):
        # the earlier splits' span is masked and the argmin taken chunk by chunk
        t = data.draw(spanning_hopsets(max_d=8))
        levels = data.draw(st.integers(0, t.d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "_TABLE_BITS", table_bits)
            labels = cluster(t, levels).labels()
        assert labels.tolist() == oracle_cluster(t, levels).tolist()

    @pytest.mark.parametrize("d", range(5, 11))
    def test_every_level_in_many_chunks(self, d):
        # chunks of 2, 4 and 8 entries: the span of the earlier splits is
        # found per chunk from the echelon basis of their high bits; the
        # oracle's splits at level L are the first L of its d splits
        rng = random.Random(d)
        t = random_topology(rng, d, rng.randint(d, 2 * d + 4))
        full = oracle_cluster(t, d)
        for table_bits in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gf2, "_TABLE_BITS", table_bits)
                clusterings = [cluster(t, levels) for levels in range(d + 1)]
            for levels, clustering in enumerate(clusterings):
                assert clustering.labels().tolist() == (full >> (d - levels)).tolist()

    def test_peak_does_not_grow_with_levels(self):
        # d = 18 streams four chunks per level; at 16 levels the span of
        # the splits has 2**16 vectors, but only those below 2**16 with
        # zero high bits are held, beside the engine's table and chunks
        t = random_topology(random.Random(18), 18, 64)
        peaks = []
        for levels in (1, 16):
            tracemalloc.start()
            try:
                cluster(t, levels)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        table = 8 << gf2._TABLE_BITS
        assert peaks[1] < peaks[0] + table // 2
        assert peaks[1] < 2 * table

    @pytest.mark.parametrize("levels,splits", [(1, (176,)), (2, (176, 8)), (3, (176, 8, 83))])
    def test_many_hops(self, levels, splits):
        # 300 hops make uint16 chunks, but the fewer hops inside the cells
        # of later levels make uint8 ones, which must hold the sentinel that
        # masks the earlier splits; the splits are those int64 chunks gave
        t = random_topology(random.Random(9), 9, 300)
        clustering = cluster(t, levels)
        assert clustering.splits == splits
        assert clustering.labels().tolist() == oracle_cluster(t, levels).tolist()

    @given(st.data())
    def test_blocks_are_slices_of_all_labels(self, data):
        t = data.draw(spanning_hopsets(max_d=10))
        clustering = cluster(t, data.draw(st.integers(0, t.d)))
        labels = clustering.labels()
        n = 1 << data.draw(st.integers(0, t.d))
        lo = n * data.draw(st.integers(0, t.N // n - 1))
        # labels are linear: an aligned block is the first one XOR label(lo)
        assert (clustering.labels(n) ^ clustering.label(lo)).tolist() == labels[lo : lo + n].tolist()
        assert clustering.label(lo) == labels[lo]

    @pytest.mark.parametrize("n", [3, 0, -4, 6, 16])
    def test_block_size_refused(self, folded3, n):
        with pytest.raises(ValueError, match="not a power of two in 1..2"):
            cluster(folded3, 2).labels(n)

    def test_levels_out_of_range(self, folded3):
        with pytest.raises(ValueError):
            cluster(folded3, 4)


class TestHopsetFiles:
    def test_round_trip(self, folded3):
        assert parse_hopset(emit_hopset(folded3)) == folded3

    def test_parse_with_comments(self):
        t = parse_hopset("# fixture\n\nd=3\n001\n010\n100\n111\n")
        assert t.hops == (1, 2, 4, 7)

    def test_missing_header(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_hopset("001\n010\n100\n")

    def test_bad_hop_width_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_hopset("d=3\n001\n01\n")

    def test_invalid_hopset_rejected(self):
        with pytest.raises(ValueError, match="span"):
            parse_hopset("d=3\n001\n010\n011\n")


class TestEdgeListFiles:
    def test_parse(self):
        edges, n = parse_edge_list("# oracle input\n0 1\n1 2\n2 3\n")
        assert edges == [(0, 1), (1, 2), (2, 3)]
        assert n == 4

    def test_bad_line_reported(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("0 1\n1 two\n")
