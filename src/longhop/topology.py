"""XOR Cayley topologies over d-bit node labels.

Nodes are the integers 0..N-1 with N = 2**d.  Port s (1-based) at node x
leads to x XOR hops[s-1].  Adjacency is never materialized: callers XOR a
node with the hops themselves.  Breadth-first search works on bit-packed
node sets, N/8 bytes each.  It grows a sparse level from its listed nodes
and any other by moving the frontier along each hop, into only the words
that still hold unvisited nodes: a copy of the frontier is permuted
in-word once per group of hops that share an in-word pattern, and each
hop is then one word gather.  Its bitmaps and move temporaries are a few
N/8-byte arrays whatever m is: under tracemalloc, distances peaks at
1.15 N bytes at N = 2**20 and 1.13 N at N = 2**24 (m = 64).  distances
only popcounts each level: at N = 2**24, m = 64 it takes about 0.23 to
0.29 s and 48 MiB peak RSS on a 2-vCPU VM.  hop_distances fills an
N-byte vector from it, unpacking each level's bitmap 2**16 nodes at a
time, so the vector is its one N-byte array: about 0.5 s and 64 MiB
there.

The normalized bisection b of such a graph is the minimum over r > 0 of
the cut C_r = sum_s parity(r & h_s); the corresponding partition puts
node x on side parity(r & x).  Bisection in links is b * N/2.  C_r is the
Hamming weight of the codeword r.G of the hop matrix G, so b is the
code's minimum distance.  cut_chunks streams those weights from
gf2.codeword_weights in chunks of 2**min(d, 16) entries, uint8 while
m <= 254; reduce_cuts folds any such stream into b, the number of
minimizers and the first MAX_LISTED_ARGMIN of them, so bisection_scan
holds no N-entry array (the whole `bisect` command peaks at 32 MiB RSS
at any d); cluster reduces the chunks too, masking the span of its
earlier splits per chunk from an echelon basis of them, and returns only
its splits, a Clustering whose labels are read out block by block, so it
holds O(2**16) memory at any level count (`cluster --levels 22` peaks at
31 MiB RSS at d = 24); both reduce the narrow chunks as they come,
without widening them.  walsh_chunks yields
the same cuts in int64 chunks off Walsh-Hadamard transforms: the
independent oracle that verify and the tests check the engine against.
bisection_fwht places them in one N-entry int64 array, from which the
greedy search scores its candidates.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gf2

__all__ = [
    "CayleyTopology",
    "Bisection",
    "DistanceSummary",
    "Clustering",
    "build",
    "cut_walsh",
    "cut_chunks",
    "walsh_chunks",
    "reduce_cuts",
    "check_cap",
    "bisection_scan",
    "bisection_fwht",
    "bisection_bruteforce",
    "hop_distances",
    "distances",
    "crossing_links",
    "cluster",
    "parse_hopset",
    "emit_hopset",
    "parse_edge_list",
    "DEFAULT_MAX_D",
    "HARD_MAX_D",
    "MAX_LISTED_ARGMIN",
]

DEFAULT_MAX_D = 24   # check_cap refuses d above this where something is N-sized
HARD_MAX_D = 32      # words are 32-bit at most
MAX_LISTED_ARGMIN = 64   # minimizers a Bisection lists; it counts them all


@dataclass(frozen=True)
class CayleyTopology:
    """A validated hop set; the graph it generates is implicit."""

    d: int
    hops: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.d <= HARD_MAX_D:
            raise ValueError(f"dimension must be in 1..{HARD_MAX_D}, got {self.d}")
        if not self.hops:
            raise ValueError("hop set is empty")
        seen = set()
        for s, h in enumerate(self.hops, 1):
            if h == 0:
                raise ValueError(f"hop {s} is zero (would be a self-loop)")
            if h < 0 or h >> self.d:
                raise ValueError(f"hop {s} does not fit in {self.d} bits")
            if h in seen:
                raise ValueError(f"hop {s} duplicates an earlier hop (multi-edge)")
            seen.add(h)
        if gf2.rank(self.hops) != self.d:
            raise ValueError(
                "hops do not span the full dimension (graph would be disconnected)"
            )

    @property
    def N(self) -> int:
        return 1 << self.d

    @property
    def m(self) -> int:
        return len(self.hops)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All undirected edges, each once, as (u, v) with u < v."""
        for x in range(self.N):
            for h in self.hops:
                y = x ^ h
                if y > x:
                    yield (x, y)


def build(d: int, hops: Sequence[int]) -> CayleyTopology:
    """Validate and build a topology from a hop list."""
    return CayleyTopology(d=d, hops=tuple(int(h) for h in hops))


@dataclass(frozen=True)
class Bisection:
    """b = min over r > 0 of the Walsh cuts of an N-node topology, in units
    of N/2; argmin_count partitions r reach it, and argmin_rs lists the
    first MAX_LISTED_ARGMIN of them ascending."""

    N: int
    b: int
    argmin_count: int
    argmin_rs: tuple[int, ...]

    @property
    def links(self) -> int:
        """Bisection in links: b * N/2."""
        return self.b * (self.N // 2)


def cut_walsh(t: CayleyTopology, r: int) -> int:
    """Cut of the Walsh partition r, in units of N/2."""
    if not 0 <= r < t.N:
        raise ValueError(f"r={r} out of range 0..{t.N - 1}")
    return sum((r & h).bit_count() & 1 for h in t.hops)


def check_cap(d: int) -> None:
    """Refuse a dimension above DEFAULT_MAX_D with a ValueError, before
    something N-sized is built: bisection_fwht's N-entry cuts, or the
    N-byte distance vector of the routes and ftable commands."""
    if d > DEFAULT_MAX_D:
        raise ValueError(f"d={d} exceeds the full-spectrum cap {DEFAULT_MAX_D}")


def cut_chunks(t: CayleyTopology) -> Iterator[np.ndarray]:
    """Yield the Walsh cuts of r = 0 .. N-1 ascending, in chunks of
    2**min(d, gf2._TABLE_BITS) entries of dtype np.min_scalar_type(m + 1)
    (uint8 up to m = 254): arithmetic that can leave 0..m, such as the
    eigenvalues m - 2 * cut, must widen them first.

    The cut of partition r is the Hamming weight of the codeword r.G of the
    hop matrix G (column s is hop s, row i holds bit i of every hop), which
    gf2.codeword_weights streams: O(N * ceil(m/64)) 64-bit word work.  It
    shares no code with walsh_chunks, so each checks the other.
    """
    return gf2.codeword_weights(gf2.transpose(t.hops, t.d), t.m)


def walsh_chunks(t: CayleyTopology) -> Iterator[np.ndarray]:
    """Yield the cuts cut_chunks yields, in the same chunk layout but as
    int64, read off Walsh-Hadamard transforms: O(N * min(d,
    gf2._TABLE_BITS)) work, about 0.6 s at d = 24, m = 64 on a 2-vCPU VM.

    With L = min(d, gf2._TABLE_BITS) and r = u * 2**L + v, the adjacency
    eigenvalue alpha_r = sum_s (-1)**parity(r & h_s) is the length-2**L
    gf2.fwht, at v, of f_u[y] = sum over the hops s whose low L bits are y
    of (-1)**parity(u & (h_s >> L)); the cut is (m - alpha_r)/2.  At d <= L
    this is the one transform of the hop set's indicator vector.
    """
    low = min(t.d, gf2._TABLE_BITS)   # the chunk layout of gf2.codeword_weights
    hops = np.array(t.hops, dtype=np.uint64)
    y = (hops & np.uint64((1 << low) - 1)).astype(np.intp)
    high = hops >> np.uint64(low)
    for u in range(1 << (t.d - low)):
        # int64 before 1 - 2 * parity: bitwise_count is uint8, which wraps
        sign = 1 - 2 * (np.bitwise_count(high & np.uint64(u)).astype(np.int64) & 1)
        f = np.zeros(1 << low, dtype=np.int64)
        np.add.at(f, y, sign)
        cuts = gf2.fwht(f)
        np.subtract(t.m, cuts, out=cuts)
        cuts //= 2
        yield cuts


def reduce_cuts(chunks: Iterable[np.ndarray]) -> Bisection:
    """The Bisection of the cuts of r = 0, 1, 2, ... streamed in chunks, as
    cut_chunks and walsh_chunks yield them; r = 0 is no partition."""
    b: int | None = None
    count, listed, lo = 0, [], 0
    for chunk in chunks:
        skip = 1 if lo == 0 else 0
        part = chunk[skip:]
        if part.size:
            low = int(part.min())
            if b is None or low < b:
                b, count, listed = low, 0, []
            if low == b:
                hits = np.flatnonzero(part == low)
                count += hits.size
                listed += (hits[: MAX_LISTED_ARGMIN - len(listed)] + (lo + skip)).tolist()
        lo += chunk.size
    return Bisection(N=lo, b=b, argmin_count=count, argmin_rs=tuple(listed))


def bisection_scan(t: CayleyTopology) -> Bisection:
    """Exact bisection reduced from cut_chunks, chunk by chunk: about 0.015 s
    at d = 24, 0.2 s at d = 28 and 3 s at d = 32, m = 64, on a 2-vCPU VM,
    and O(2**16) memory at any d, so no d up to HARD_MAX_D is refused."""
    return reduce_cuts(cut_chunks(t))


def bisection_fwht(t: CayleyTopology) -> np.ndarray:
    """The cuts of r = 0 .. N-1 from walsh_chunks, placed in one N-entry
    int64 array; b is its minimum over r > 0.

    The Walsh-Hadamard oracle of the popcount engine (cut_chunks), and the
    whole spectrum the greedy search scores its candidates from.
    """
    check_cap(t.d)   # before the 8N-byte array
    cuts = np.empty(t.N, dtype=np.int64)
    lo = 0
    for chunk in walsh_chunks(t):
        cuts[lo : lo + chunk.size] = chunk
        lo += chunk.size
    return cuts


def bisection_bruteforce(edges: Sequence[tuple[int, int]], n: int) -> int:
    """Minimum equipartition cut of an arbitrary small graph, in links.

    Enumerates all C(n, n/2)/2 equipartitions explicitly, so it serves as
    an independent oracle for any graph given as an edge list, not only
    Cayley graphs.  Refuses n > 20 or odd n.
    """
    if n < 2 or n % 2:
        raise ValueError(f"node count must be even and positive, got {n}")
    if n > 20:
        raise ValueError(f"n={n} too large for equipartition enumeration (max 20)")
    us, vs = [], []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of node range")
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        us.append(u)
        vs.append(v)
    if not us:
        return 0
    u_arr = np.array(us, dtype=np.uint32)
    v_arr = np.array(vs, dtype=np.uint32)
    # fix node 0 on one side: enumerates each equipartition exactly once
    half = n // 2
    masks = np.fromiter(
        (
            1 | sum(1 << i for i in combo)
            for combo in itertools.combinations(range(1, n), half - 1)
        ),
        dtype=np.uint32,
    )
    best = len(us) + 1
    step = 1 << 14
    for lo in range(0, masks.size, step):
        chunk = masks[lo : lo + step, None]
        crossing = ((chunk >> u_arr) ^ (chunk >> v_arr)) & np.uint32(1)
        best = min(best, int(crossing.sum(axis=1).min()))
    return best


# The in-word permutations the mover composes, each moving bit i of a
# word to bit i ^ v: (v, mask) for the mask-and-shift swaps v = 1, 2, 4,
# and (v, None) for v = 8, 24, 56, which reverse the bytes of every 2-, 4-
# or 8-byte group (bit i ^ v is in byte b ^ (v >> 3)) in one byteswap pass.
_SWAPS = (
    (1, np.uint64(0x5555555555555555)),
    (2, np.uint64(0x3333333333333333)),
    (4, np.uint64(0x0F0F0F0F0F0F0F0F)),
    (8, None),
    (24, None),
    (56, None),
)
_BLOCK_WORDS = 1 << 12   # a move table, and the hops moved together per step, hold about this many words
_LIST_SHARE = 0.5        # node-list BFS step up to this many frontier nodes per word
_UNPACK_OCTETS = 1 << 13   # hop_distances unpacks a level's bitmap 2**16 nodes at a time


def _swap(a: np.ndarray, j: int, tmp: np.ndarray) -> None:
    """Apply permutation j of _SWAPS to every word of `a`, in place, with
    `tmp`, an array of a's size, as scratch."""
    v, mask = _SWAPS[j]
    if mask is None:
        a.view(f"u{(v >> 3) + 1}").byteswap(inplace=True)
        return
    shift = np.uint64(v)
    np.right_shift(a, shift, out=tmp)
    tmp &= mask   # bit i + v to bit i, for bit v of i clear
    a &= mask
    a <<= shift
    a |= tmp


def _hop_blocks(t: CayleyTopology, words: int, size: int) -> tuple:
    """The plan _moves follows for a bitmap of at most `words` words, in
    blocks of at most `size` hops: (k, stride, blocks).

    The six permutations of _SWAPS compose every in-word pattern h & 63,
    each pattern from exactly one subset of them.  _moves fills a table of
    2**k rows of `stride` words, stride the power of two from `words` up,
    and k as large as keeps it within _BLOCK_WORDS words, at most 6 (64 *
    stride words): row l is the bitmap under the subset l of the first k
    (the mask-and-shift swaps first).  The remaining 6 - k are walked: the
    hops are grouped by the subset of them that their pattern needs, and
    the groups visited in Gray-code order of it, with the cheapest byte
    reversal flipping most often, so the whole table takes one
    permutation per walked one that changes between consecutive groups,
    at most 2**(6 - k) - 1 in all.

    Per block: the permutations j to apply to the table before it, the
    hops, and their table offsets (h >> 6) | l * stride, l the row that
    completes h's pattern, so the words for hop h are one gather at
    word_idx ^ offset.
    """
    stride = 1 << (words - 1).bit_length()
    k = min(max((_BLOCK_WORDS // stride).bit_length() - 1, 0), 6)
    moves = [*range(k), *range(5, k - 1, -1)]   # the table's, then the walked, cheapest first
    pattern = [0]   # pattern[c]: the in-word pattern of the moves[i] with bit i of c set
    for j in moves:
        pattern += [p ^ _SWAPS[j][0] for p in pattern]
    subset = {p: c for c, p in enumerate(pattern)}
    groups = {}
    for h in t.hops:
        groups.setdefault(subset[h & 63] >> k, []).append(h)
    blocks, state = [], 0
    for i in range(1 << (6 - k)):
        g = i ^ (i >> 1)   # the Gray sequence
        if g not in groups:
            continue
        group = groups[g]
        swaps = tuple(moves[k + j] for j in range(6 - k) if (state ^ g) >> j & 1)
        state = g
        rows = [subset[h & 63] & ((1 << k) - 1) for h in group]
        offsets = np.array([(h >> 6) | row * stride for h, row in zip(group, rows)], dtype=np.intp)
        for lo in range(0, len(group), size):
            blocks.append((swaps if lo == 0 else (), group[lo : lo + size], offsets[lo : lo + size]))
    return k, stride, blocks


def _moves(bitmap: np.ndarray, plan, word_idx: np.ndarray) -> Iterator[np.ndarray]:
    """Per block of the plan _hop_blocks made, the words `word_idx` of
    `bitmap` moved along each hop of the block: bit x of the word for hop
    h is bit x ^ h of `bitmap`.

    The table's 2**k rows are filled by doubling, row l + 2**j from row l
    by swap j, so each in-word permutation is applied once per table, not
    once per hop; each hop is then one gather, and `bitmap` is not
    changed.  The gathers reuse one index and one word array, so each
    yielded array is overwritten by the next."""
    k, stride, blocks = plan
    table = np.zeros(stride << k, dtype=np.uint64)
    table[: bitmap.size] = bitmap
    tmp = np.empty_like(table)
    for j in range(k):
        rows = table[stride << j : stride << (j + 1)]
        rows[:] = table[: stride << j]
        _swap(rows, j, tmp[: rows.size])
    shape = (max(offsets.size for _, _, offsets in blocks), word_idx.size)
    idx, moved = np.empty(shape, dtype=np.intp), np.empty(shape, dtype=np.uint64)
    for swaps, _, offsets in blocks:
        for j in swaps:
            _swap(table, j, tmp)
        rows = offsets.size
        np.bitwise_xor(word_idx, offsets[:, None], out=idx[:rows])
        # every index is in range: "clip" gathers straight into `moved`, unbuffered
        yield np.take(table, idx[:rows], out=moved[:rows], mode="clip")


def _bitmap_nodes(bitmap: np.ndarray) -> np.ndarray:
    """The nodes set in a node bitmap, ascending, as int64; temporaries hold
    about 24 bytes per node, whatever N is."""
    octets = bitmap.astype("<u8", copy=False).view(np.uint8)   # octet b: nodes 8b .. 8b + 7
    full = np.flatnonzero(octets)
    pos = np.flatnonzero(np.unpackbits(octets[full], bitorder="little"))
    return (full[pos >> 3] << 3) | (pos & 7)


def _grow_listed(frontier: np.ndarray, hops: np.ndarray, per: int) -> np.ndarray:
    """Node-list step: the bitmap of every node one hop from the frontier,
    from its nodes XORed with every hop, `per` nodes at a time."""
    reach = np.zeros_like(frontier)
    nodes = _bitmap_nodes(frontier)
    for lo in range(0, nodes.size, per):
        cand = (nodes[lo : lo + per, None] ^ hops).ravel()
        bits = np.left_shift(1, cand & 63)
        cand >>= 6
        np.bitwise_or.at(reach, cand, bits.view(np.uint64))
    return reach


def _grow_moved(frontier: np.ndarray, blocks, target: np.ndarray) -> np.ndarray:
    """Moved step: the bitmap of every node one hop from the frontier, in
    the words `target` (zero elsewhere), from the frontier moved along
    every hop."""
    reach = np.zeros(target.size, dtype=np.uint64)
    for moved in _moves(frontier, blocks, target):
        reach |= np.bitwise_or.reduce(moved, axis=0)
    grown = np.zeros_like(frontier)
    grown[target] = reach
    return grown


def _levels(t: CayleyTopology) -> Iterator[np.ndarray]:
    """Bitmaps of the nodes BFS first reaches at levels 0, 1, 2, ... from
    node 0; the visited set is a bitmap too.

    As in direction-optimizing BFS (Beamer, Asanovic and Patterson, SC'12),
    a level costs what its frontier or its unvisited words cost, not what
    the graph costs.  Each next level comes from the cheaper of two steps:
    - node-list, while the frontier holds at most _LIST_SHARE * N/64 nodes:
      they are listed from its bitmap and XORed with every hop, and
      np.bitwise_or.at sets the candidates' bits, at most max(N/64, m) at
      a time (a candidate costs about twice a moved word, and both steps
      scale with m);
    - moved: the frontier is moved along every hop into the W words that
      still hold an unvisited node (at first all N/64), max(_BLOCK_WORDS
      // W, 1) hops at a time, through the move table of _moves.  W only
      shrinks, so the plans are built once per block size the search
      meets.
    The search stops once all N nodes are visited, with no empty pass.
    """
    words = max(t.N >> 6, 1)   # node x is bit x & 63 of word x >> 6
    hops = np.array(t.hops, dtype=np.int64)
    per = max(words // t.m, 1)   # frontier nodes per node-list chunk
    blocks = {}                  # _hop_blocks by hops per block
    frontier = np.zeros(words, dtype=np.uint64)
    frontier[0] = 1
    visited = frontier.copy()
    count = seen = 1
    yield frontier
    while count and seen < t.N:   # a spanning hop set never empties the frontier early
        if count <= _LIST_SHARE * words:
            frontier = _grow_listed(frontier, hops, per) & ~visited
        else:
            target = np.flatnonzero(~visited)
            size = max(_BLOCK_WORDS // target.size, 1)
            if size not in blocks:
                blocks[size] = _hop_blocks(t, words, size)
            frontier = _grow_moved(frontier, blocks[size], target) & ~visited
        visited |= frontier
        count = int(np.bitwise_count(frontier).sum())
        seen += count
        yield frontier


def hop_distances(t: CayleyTopology) -> np.ndarray:
    """BFS hop distance from node 0 to every node (uint8 vector of length N).

    Filled level by level from the bit-packed search, whose temporaries
    peak at about 1.13-1.15 N bytes whatever m is; each level's bitmap is
    unpacked _UNPACK_OCTETS octets at a time, skipping empty ones, so the
    vector is the one N-entry array.  uint8 suffices: a spanning hop set
    has diameter <= d <= 32.
    """
    dist = np.zeros(t.N, dtype=np.uint8)
    for level, new in enumerate(_levels(t)):
        octets = new.astype("<u8", copy=False).view(np.uint8)   # octet b: nodes 8b .. 8b + 7
        for lo in range(0, octets.size, _UNPACK_OCTETS):
            block = octets[lo : lo + _UNPACK_OCTETS]
            if block.any():
                part = dist[8 * lo : 8 * (lo + block.size)]   # short of 8 * block.size below d = 6
                reached = np.unpackbits(block, bitorder="little", count=part.size)
                np.copyto(part, level, where=reached.view(bool))
    return dist


@dataclass(frozen=True)
class DistanceSummary:
    diameter: int
    mean: float              # over the N-1 destinations other than the source
    histogram: tuple[int, ...]  # histogram[k] = number of nodes at distance k


def distances(t: CayleyTopology) -> DistanceSummary:
    """Diameter, average hop count and distance histogram from node 0.

    Vertex symmetry makes the single-source view representative of every
    node.  The average excludes the source itself (N-1 destinations).  The
    histogram is the popcount of each BFS level's bitmap, so no N-entry
    array is built.
    """
    histogram = tuple(int(np.bitwise_count(new).sum()) for new in _levels(t))
    return DistanceSummary(
        diameter=len(histogram) - 1,
        mean=sum(k * count for k, count in enumerate(histogram)) / (t.N - 1),
        histogram=histogram,
    )


def crossing_links(t: CayleyTopology, rs: Iterable[int]) -> Iterator[int]:
    """Yield, for each r in rs, the links of the explicit graph that cross
    the two-colouring x -> parity(r & x): the oracle for cut_walsh(t, r) * N/2.

    Each colouring is a node bitmap of W = max(N/64, 1) words moved along
    every hop; a crossing link differs from its moved colour at both ends,
    so it is popcounted twice.  The colourings of R partitions at a time,
    R = _BLOCK_WORDS // W but at least 1 and at most len(rs), lie end to
    end in one bitmap of R * W words, partition b in words b * W ..
    b * W + W - 1, and _moves moves them together: a hop's word offset
    h >> 6 is below W, so word b * W + w moves to b * W + (w ^ (h >> 6)),
    inside the same partition's words, and the popcounts are summed per
    partition.  At d = 9 the 64 partitions `verify` samples move in one
    batch; from d = 18 on R = 1, one colouring at a time.
    """
    rs = list(rs)
    words = max(t.N >> 6, 1)
    batch = max(min(_BLOCK_WORDS // words, len(rs)), 1)
    blocks = _hop_blocks(t, batch * words, max(_BLOCK_WORDS // (batch * words), 1))
    x = np.arange(min(t.N, 64), dtype=np.uint64)
    idx = np.arange(batch * words)   # the words of a batch; the first W index one colouring
    for lo in range(0, len(rs), batch):
        r = np.array(rs[lo : lo + batch], dtype=np.int64)[:, None]
        # colours of x < 64 (zero above N - 1), flipped in word w by parity((r >> 6) & w)
        low = np.bitwise_or.reduce((np.bitwise_count(r.astype(np.uint64) & x) & 1) << x, axis=1)
        flip = (np.bitwise_count(idx[:words] & (r >> 6)) & 1).astype(bool)
        colour = np.where(flip, ~low[:, None], low[:, None]).ravel()
        counts = np.zeros(r.size, dtype=np.int64)
        for moved in _moves(colour, blocks, idx[: colour.size]):
            moved ^= colour
            popcounts = np.bitwise_count(moved).reshape(-1, r.size, words)   # (hops, R, W)
            counts += popcounts.sum(axis=(0, 2), dtype=np.int64)
        yield from (counts // 2).tolist()


@dataclass(frozen=True)
class Clustering:
    """A recursive clustering of the 2**d nodes: label bit levels - 1 - i of
    node x is parity(splits[i] & x), so the first split is the label's most
    significant bit and labels are linear in x."""
    d: int
    splits: tuple[int, ...]

    @property
    def levels(self) -> int:
        return len(self.splits)

    def label(self, x: int) -> int:
        """The label of node x."""
        return sum(((r & x).bit_count() & 1) << (self.levels - 1 - i)
                   for i, r in enumerate(self.splits))

    def labels(self, lo: int = 0, n: int | None = None) -> np.ndarray:
        """The int64 labels of nodes lo..lo+n-1 (default: all 2**d), for n a
        power of two and lo a multiple of n.  Nodes lo + y, y < n, share
        the bits of lo, so their labels are label(lo) XOR those of the
        first block, filled by doubling."""
        n = 1 << self.d if n is None else n
        if n < 1 or n & (n - 1) or lo % n or not 0 <= lo <= (1 << self.d) - n:
            raise ValueError(f"({lo}, {n}) is not an aligned power-of-two block of 2**{self.d}")
        labels = np.empty(n, dtype=np.int64)
        labels[0] = self.label(lo)
        for j in range(n.bit_length() - 1):   # label(y ^ 2**j) = label(y) ^ label(2**j)
            np.bitwise_xor(labels[: 1 << j], self.label(1 << j), out=labels[1 << j : 2 << j])
        return labels


def cluster(t: CayleyTopology, levels: int) -> Clustering:
    """Recursive equal-halves clustering along minimum Walsh cuts.

    Each level splits every current cell in half along a Walsh partition:
    the smallest index r, linearly independent of the indices already
    used, that minimizes the number of edges crossing the split inside
    the current cells.  Because the cells are cosets of one subspace, that
    count is proportional to the cut restricted to the hops that stay
    inside cells: the weight of the codeword r.G of their hop matrix G,
    which each level reduces from gf2.codeword_weights chunk by chunk.

    The span of the splits used so far is masked chunk by chunk.  Chunks
    hold 2**L entries, L = min(d, gf2._TABLE_BITS); an echelon basis of the
    splits on their bits from L up (`pivots`) reduces chunk u's first index
    u * 2**L to the in-chunk offset of a span vector in chunk u, if there
    is one, and the span's vectors below 2**L (`inner`) give the others.

    Returns the chosen indices as a Clustering, whose 2**levels labels
    are equally populated; no N-entry array is built, and each level holds
    O(2**L) memory at any d.
    """
    if not 0 <= levels <= t.d:
        raise ValueError(f"levels must be in 0..{t.d}, got {levels}")
    low = min(t.d, gf2._TABLE_BITS)   # the chunk layout of gf2.codeword_weights
    used: list[int] = []
    pivots: list[tuple[int, int]] = []   # (highest bit of r >> low, span vector r), descending
    inner = np.zeros(1, dtype=np.intp)   # the span vectors below 2**low

    def reduce(r: int) -> int:
        # r XOR the span vectors that clear its pivot bits: below 2**low
        # exactly when r >> low is in the span of the high parts
        for bit, vector in pivots:
            if r >> (low + bit) & 1:
                r ^= vector
        return r

    for _ in range(levels):
        intra = [
            h for h in t.hops if all(((h & u).bit_count() & 1) == 0 for u in used)
        ]
        # above every cut, and within the chunks' dtype, which holds len(intra) + 1
        sentinel = len(intra) + 1
        best, r_star = sentinel, 0
        chunks = gf2.codeword_weights(gf2.transpose(intra, t.d), len(intra))
        for u, cross in enumerate(chunks):
            offset = reduce(u << low)
            if not offset >> low:   # chunk u meets the span: r independent of earlier splits
                cross[inner ^ offset] = sentinel
            r = int(np.argmin(cross))   # the smallest r wins ties, chunks ascend
            if cross[r] < best:
                best, r_star = int(cross[r]), (u << low) + r
        used.append(r_star)
        r_star = reduce(r_star)
        if r_star >> low:
            pivots = sorted([*pivots, ((r_star >> low).bit_length() - 1, r_star)], reverse=True)
        else:
            inner = np.concatenate([inner, inner ^ r_star])
    return Clustering(t.d, tuple(used))


def parse_hopset(text: str) -> CayleyTopology:
    """Parse a hop-set file: '#' comments, a "d=<int>" line, then one hop
    per line as a d-character binary string written MSB first.
    """
    d: int | None = None
    hops: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if d is None:
            if not line.startswith("d="):
                raise ValueError(f"line {lineno}: expected 'd=<int>' header, got {line!r}")
            try:
                d = int(line[2:])
            except ValueError:
                raise ValueError(f"line {lineno}: invalid dimension {line[2:]!r}") from None
            continue
        if len(line) != d:
            raise ValueError(
                f"line {lineno}: hop must be exactly {d} binary digits, got {line!r}"
            )
        try:
            hops.append(gf2.word_from_text(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if d is None:
        raise ValueError("missing 'd=<int>' header line")
    try:
        return build(d, hops)
    except ValueError as exc:
        raise ValueError(f"invalid hop set: {exc}") from exc


def emit_hopset(t: CayleyTopology) -> str:
    lines = [f"d={t.d}"]
    lines += [gf2.word_to_text(h, t.d) for h in t.hops]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> tuple[list[tuple[int, int]], int]:
    """Parse "u v" lines (0-based ids); returns (edges, node_count)."""
    edges: list[tuple[int, int]] = []
    max_node = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative node id")
        edges.append((u, v))
        max_node = max(max_node, u, v)
    if not edges:
        raise ValueError("no edges found")
    return edges, max_node + 1
