"""Multipath route construction and forwarding tables.

Vertex symmetry makes routing relative: the hop sequences from X to Y are
those from node 0 to the relative destination X XOR Y, so one table serves
every node.  Paths are port sequences (ports are 1-based); a sequence is
valid for destination Yrel when its hops XOR to Yrel.  Immediate
backtracking (the same port twice in a row) is never generated.

Edge-disjoint path sets (`disjoint_paths`, behind `routes --diversity`)
are built greedily: all shortest paths in lexicographic port order first,
then paths exactly one hop longer, and so on, until the requested
diversity Q is reached.  An undirected edge is the integer id
min(x, x ^ h_p) * m + p (port p from node x); `path_edges` gives a path's
edge set.

A forwarding table is in closed form: selector s of destination z is the
s-th port in the order (dist[z ^ h_p] - dist[z], p), the ports one level
closer in port order, then those that keep the distance, then those one
level farther.  Selector 1 is thus the lowest closer port, the first hop
of the lexicographically first shortest path.  Selectors apply at the
source; after the first hop a packet follows selector 1, so a forwarded
route arrives within dist + 2 hops (dist for selector 1).  The q first
hops of a destination are distinct ports, but the routes forwarding
delivers are not edge-disjoint in general.

One walk generator serves every path search.  It steps only where the
walk can still arrive: a hop moves the distance to node 0 by at most one,
so the admissible ports at a node are all ports, those that go no farther,
or those that go one level closer, by the hops left.  The last two lists
are kept per node (`_StepLists`), each filled on first use, so a query
pays only for the nodes it visits.

Path 1, the lexicographically first shortest walk, takes the lowest closer
port at every node and never backs up, so a descent over the step lists
finds it without a search, and `path_edges` gives its edges.  The walk
search finds the others.  It skips every edge already taken, which a
candidate could never join, adds the edges of each walk it yields to the
taken set, and then backs up to its first step, so every walk it yields is
accepted.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import gf2
from .topology import CayleyTopology, hop_distances

__all__ = [
    "Unroutable",
    "ForwardingTable",
    "shortest_paths",
    "disjoint_paths",
    "forwarding_table",
    "simulate_forwarding",
    "path_edges",
    "DEFAULT_EXTRA_LENGTH",
    "MAX_TABLE_ENTRIES",
]

DEFAULT_EXTRA_LENGTH = 4  # lengthening search stops at shortest + this
# forwarding_table refuses a (q, N) port array of more entries than this:
# 64 MiB of uint8 ports, d = 24 at q = 4
MAX_TABLE_ENTRIES = 1 << 26
_TABLE_CHUNK = 1 << 12    # destinations per forwarding_table pass: about 4 MiB of temporaries at m = 64


class Unroutable(RuntimeError):
    """Fewer edge-disjoint paths exist within the length cap than requested."""

    def __init__(self, message: str, achievable: int):
        super().__init__(message)
        self.achievable = achievable


def path_edges(t: CayleyTopology, path: tuple[int, ...]) -> frozenset[int]:
    """Undirected edges of the walk of `path` from node 0, as integer ids:
    port p from node x is the edge min(x, x ^ h_p) * m + p."""
    hops, m = t.hops, t.m
    edges = []
    x = 0
    for p in path:
        if not 1 <= p <= m:
            raise ValueError(f"port {p} out of range 1..{m}")
        y = x ^ hops[p - 1]
        edges.append((x if x < y else y) * m + p)
        x = y
    return frozenset(edges)


class _StepLists(dict):
    """Step lists of one topology: node z maps to (closer, level), the ports
    whose hop takes z one BFS level closer to node 0 and no farther from it,
    in port order (bytes; a tuple when m > 255).  A query fills a row on
    first use, so only the nodes it visits get one.

    `dist` is a memoryview of the uint8 vector hop_distances(t), which
    shares its buffer and reads out Python ints, `hop[p]` the hop of port p
    (hop[0] is unused) and `every` all ports in order.
    """

    def __init__(self, t: CayleyTopology, dist: np.ndarray):
        super().__init__()
        self.dist = memoryview(dist)
        self.hop = (0, *t.hops)
        self._pack = bytes if t.m < 256 else tuple
        self.every = self._pack(range(1, t.m + 1))

    def __missing__(self, z: int) -> tuple[bytes, bytes]:
        dist, dz = self.dist, self.dist[z]
        after = [dist[z ^ h] for h in self.hop]   # after[p]: distance past port p
        row = self[z] = (
            self._pack([p for p in self.every if after[p] < dz]),
            self._pack([p for p in self.every if after[p] <= dz]),
        )
        return row


def _walks_exact(
    t: CayleyTopology,
    yrel: int,
    length: int,
    steps: _StepLists,
    used: set[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All non-backtracking port sequences of exactly `length` hops that XOR
    to yrel, yielded in lexicographic order; given a set `used`, only those
    disjoint from it and from each other.

    dist[yrel] <= length.  A hop changes the distance to node 0 by at most
    one, so with `left` hops after this step and slack = left - dist[rest],
    the steps that can still reach yrel are the closer ports (slack -1),
    the level ports (slack 0) or every port (slack >= 1).  The walk skips
    every edge in `used`, adds each walk's edge ids to it before yielding
    the walk, and then backs up to step 0, whose edge it has just taken.
    """
    dist, hop, every, m = steps.dist, steps.hop, steps.every, t.m
    taken = frozenset() if used is None else used

    # depth-first over an explicit stack: at depth k the walk stands on
    # node[k], todo[k] holds the ports still to try for hop seq[k], and
    # edge[k] is the edge id of hop seq[k]; todo[k] is read off the step
    # lists of rest = yrel ^ node[k], the XOR still to cover, by its
    # slack = last - k - dist[rest]
    last = length - 1
    seq = [0] * length
    node = [0] * length
    edge = [0] * length
    slack = last - dist[yrel]
    # todo[k > 0] is set on the way down
    todo = [iter(every if slack > 0 else steps[yrel][slack + 1])] * length
    k = 0
    while k >= 0:
        x = node[k]
        prev = seq[k - 1] if k else 0
        for p in todo[k]:
            y = x ^ hop[p]
            e = (x if x < y else y) * m + p
            if p == prev or e in taken:
                continue
            seq[k] = p
            edge[k] = e
            if k < last:
                k += 1
                node[k] = y
                rest = yrel ^ y
                slack = last - k - dist[rest]
                todo[k] = iter(every if slack > 0 else steps[rest][slack + 1])
                break
            if used is not None:
                used.update(edge)
                k = 0
            yield tuple(seq)
            if k < last:
                break
        else:
            k -= 1


def shortest_paths(t: CayleyTopology, yrel: int) -> list[tuple[int, ...]]:
    """All minimum-length hop sequences from node 0 to yrel.

    A minimal walk never repeats a port, so these are exactly the subsets
    of ports XOR-ing to yrel with minimal cardinality L, in all L! orders,
    sorted lexicographically.
    """
    if not 0 < yrel < t.N:
        raise ValueError(f"relative destination must be in 1..{t.N - 1}, got {yrel}")
    steps = _StepLists(t, hop_distances(t))
    return list(_walks_exact(t, yrel, steps.dist[yrel], steps))


def _check_diversity(t: CayleyTopology, q: int) -> None:
    if not 1 <= q <= t.m:
        raise ValueError(f"diversity must be in 1..{t.m}, got {q}")


def disjoint_paths(
    t: CayleyTopology,
    yrel: int,
    q: int,
    *,
    extra_length: int = DEFAULT_EXTRA_LENGTH,
) -> list[tuple[int, ...]]:
    """Q pairwise edge-disjoint paths from node 0 to yrel.

    Greedy over candidate length: shortest paths first in lexicographic
    order, then exactly one hop longer, and so on up to shortest +
    extra_length.  Raises Unroutable (carrying the achievable count) if Q
    paths are not found within the cap.

    Path 1, the lexicographically first shortest walk, steps on the lowest
    closer port at every node, so a descent finds it without a search.
    _walks_exact then skips and takes edges in `used`, so each walk it
    yields is disjoint from those already chosen and is accepted.
    """
    _check_diversity(t, q)
    if not 0 < yrel < t.N:
        raise ValueError(f"relative destination must be in 1..{t.N - 1}, got {yrel}")
    steps = _StepLists(t, hop_distances(t))
    base = steps.dist[yrel]
    first, rest = [], yrel
    while rest:
        p = steps[rest][0][0]
        first.append(p)
        rest ^= steps.hop[p]
    chosen = [tuple(first)]
    used = set(path_edges(t, chosen[0]))
    for length in range(base, base + extra_length + 1):
        chosen += itertools.islice(_walks_exact(t, yrel, length, steps, used), q - len(chosen))
        if len(chosen) == q:
            return chosen
    raise Unroutable(
        f"only {len(chosen)} edge-disjoint paths of length <= {base + extra_length} "
        f"exist for destination {yrel} (requested {q})",
        achievable=len(chosen),
    )


@dataclass(frozen=True, eq=False)
class ForwardingTable:
    """Egress port per (selector, relative destination), for one topology.

    ports[s - 1, yrel] is the s-th port in the order
    (dist[yrel ^ h_p] - dist[yrel], p), for selectors 1..q and Yrel 1..N-1;
    column 0 (self) is unused.
    Node X forwards to Y by looking up Yrel = X XOR Y.  csv_blocks streams
    the table as CSV text, one row per (selector, Yrel).
    """

    ports: np.ndarray   # (q, N)

    def egress(self, selector: int, yrel: int) -> int:
        q, n = self.ports.shape
        if not (1 <= selector <= q and 0 < yrel < n):
            raise KeyError((selector, yrel))
        return int(self.ports[selector - 1, yrel])

    def csv_blocks(self) -> Iterator[str]:
        """Yield the CSV `selector,destination,egress_port`: the header, then
        each selector's rows, rendered by gf2.text_rows with the lead "s,";
        destination 0's row is dropped."""
        yield "selector,destination,egress_port\n"
        d = self.ports.shape[1].bit_length() - 1   # N = 2**d destinations
        bounds = [(0, int(self.ports.max()))]
        for s, row in enumerate(self.ports, 1):
            rows = gf2.text_rows(d, [(row,)], bounds, lead=f"{s},")
            yield next(rows).split("\n", 1)[1]   # destination 0 is not in the table
            yield from rows


def forwarding_table(t: CayleyTopology, q: int) -> ForwardingTable:
    """The first q ports of every destination z in the order
    (dist[z ^ h_p] - dist[z], p), from one BFS and a sort of that key as
    one number per port, over _TABLE_CHUNK destinations at a time.
    Selector 1 is the lowest closer port, and a destination's q ports are
    distinct.

    Refuses, before the BFS, tables of more than MAX_TABLE_ENTRIES q * N
    entries.
    """
    _check_diversity(t, q)
    dtype = np.min_scalar_type(t.m)
    if q * t.N > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"a forwarding table at d={t.d}, q={q} needs a {q * t.N * dtype.itemsize}-byte"
            f" port array (q*N = {q * t.N} entries); the cap is {MAX_TABLE_ENTRIES} entries"
        )
    dist = hop_distances(t)
    ports = np.zeros((q, t.N), dtype=dtype)
    hops = np.array(t.hops, dtype=np.intp)   # the index dtype numpy gathers with
    wide = np.promote_types(np.uint16, np.min_scalar_type(3 * t.m - 1))   # numpy sorts uint8 rows far slower
    port = np.arange(t.m, dtype=wide)
    for lo in range(0, t.N, _TABLE_CHUNK):
        z = np.arange(lo, min(lo + _TABLE_CHUNK, t.N), dtype=np.intp)
        key = dist[z[:, None] ^ hops].astype(wide)   # in {dist[z] - 1, dist[z], dist[z] + 1}
        key += 1
        key -= dist[z, None]
        key *= t.m
        key += port   # (key, p) as one number below 3 * m: no two ports tie
        ports[:, lo:lo + len(z)] = (np.sort(key, axis=1)[:, :q] % t.m).T + 1
    ports[:, 0] = 0   # destination 0 (self) has no entry
    return ForwardingTable(ports)


def simulate_forwarding(t: CayleyTopology, table: ForwardingTable, x: int, y: int, s: int) -> list[int]:
    """Walk the table from x to y with selector s; returns the node trace.

    The selector picks the first egress; subsequent hops use selector 1,
    whose entries follow shortest paths and therefore strictly reduce the
    remaining distance.  The first hop leaves at most dist + 1 to go, and
    a spanning hop set has diameter at most d, so a walk arrives within
    d + 2 steps.
    """
    if x == y:
        raise ValueError("source equals destination")
    trace = [x]
    node = x
    selector = s
    for _ in range(t.d + 2):
        port = table.egress(selector, node ^ y)
        node ^= t.hops[port - 1]
        trace.append(node)
        if node == y:
            return trace
        selector = 1
    raise RuntimeError(f"forwarding did not converge within {t.d + 2} steps")
