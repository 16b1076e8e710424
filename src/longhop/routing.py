"""Multipath route construction and forwarding tables.

Vertex symmetry makes routing relative: the hop sequences from X to Y are
those from node 0 to the relative destination X XOR Y, so one table serves
every node.  Paths are port sequences (ports are 1-based); a sequence is
valid for destination Yrel when its hops XOR to Yrel.  Immediate
backtracking (the same port twice in a row) is never generated.

Edge-disjoint path sets are built greedily: all shortest paths in
lexicographic port order first, then paths exactly one hop longer, and so
on, until the requested diversity Q is reached.  An undirected edge is the
integer id min(x, x ^ h_p) * m + p (port p from node x); `path_edges` is
the one place that knows this encoding.  Path selectors apply at the
source; after the first hop a packet follows selector-1 (shortest)
entries, which guarantees convergence of table-driven forwarding.
"""
from __future__ import annotations

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
    "path_nodes",
    "path_edges",
    "DEFAULT_EXTRA_LENGTH",
    "MAX_WALK_SEARCHES",
]

DEFAULT_EXTRA_LENGTH = 4  # lengthening search stops at shortest + this
# forwarding_table refuses to run more (N - 1) * q walk searches than this.
# One search takes 0.04-0.13 ms on a 2-vCPU VM (the [48,13,16] fixture
# network: 1.2 s at q = 4, 17.6 s at q = 16), so the budget is at most
# about 40 s; refusals estimate their time at _SEARCH_SECONDS per search.
MAX_WALK_SEARCHES = 1 << 18
_SEARCH_SECONDS = 1.5e-4


class Unroutable(RuntimeError):
    """Fewer edge-disjoint paths exist within the length cap than requested."""

    def __init__(self, message: str, achievable: int):
        super().__init__(message)
        self.achievable = achievable


def path_nodes(t: CayleyTopology, path: tuple[int, ...], start: int = 0) -> list[int]:
    """Node sequence visited by walking `path` from `start`."""
    nodes = [start]
    x = start
    for p in path:
        if not 1 <= p <= t.m:
            raise ValueError(f"port {p} out of range 1..{t.m}")
        x ^= t.hops[p - 1]
        nodes.append(x)
    return nodes


def path_edges(t: CayleyTopology, path: tuple[int, ...], start: int = 0) -> frozenset[int]:
    """Undirected edges of the walk of `path` from `start`, as integer ids:
    port p from node x is the edge min(x, x ^ h_p) * m + p."""
    nodes = path_nodes(t, path, start)
    return frozenset(min(u, v) * t.m + p for u, v, p in zip(nodes, nodes[1:], path))


def _walks_exact(
    t: CayleyTopology, yrel: int, length: int, dist: bytes
) -> Iterator[tuple[int, ...]]:
    """All non-backtracking port sequences of exactly `length` hops that XOR
    to yrel, yielded in lexicographic order.

    `dist` is hop_distances(t) as bytes, and dist[yrel] <= length.  A step
    is taken only when the remaining hops can still reach yrel, so every
    walk of full length ends there.
    """
    ports = tuple(enumerate(t.hops, 1))

    def rec(
        prev_port: int, rest: int, seq: tuple[int, ...], left: int
    ) ->Iterator[tuple[int, ...]]:
        # `rest` is the XOR still to cover, `left` the hops after this step
        for p, h in ports:
            if p != prev_port and dist[rest ^ h] <= left:
                if left:
                    yield from rec(p, rest ^ h, seq + (p,), left - 1)
                else:
                    yield seq + (p,)

    yield from rec(0, yrel, (), length - 1)


def shortest_paths(t: CayleyTopology, yrel: int) -> list[tuple[int, ...]]:
    """All minimum-length hop sequences from node 0 to yrel.

    A minimal walk never repeats a port, so these are exactly the subsets
    of ports XOR-ing to yrel with minimal cardinality L, in all L! orders,
    sorted lexicographically.
    """
    if not 0 < yrel < t.N:
        raise ValueError(f"relative destination must be in 1..{t.N - 1}, got {yrel}")
    dist = hop_distances(t).tobytes()
    return list(_walks_exact(t, yrel, dist[yrel], dist))


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
    """
    _check_diversity(t, q)
    if not 0 < yrel < t.N:
        raise ValueError(f"relative destination must be in 1..{t.N - 1}, got {yrel}")
    return _disjoint_paths(t, yrel, q, extra_length, hop_distances(t).tobytes())


def _disjoint_paths(
    t: CayleyTopology, yrel: int, q: int, extra_length: int, dist: bytes
) -> list[tuple[int, ...]]:
    """disjoint_paths for validated arguments, given hop_distances(t) as bytes."""
    base = dist[yrel]
    chosen: list[tuple[int, ...]] = []
    used: set[int] = set()
    for length in range(base, base + extra_length + 1):
        for seq in _walks_exact(t, yrel, length, dist):
            edges = path_edges(t, seq)
            if used.isdisjoint(edges):
                chosen.append(seq)
                used |= edges
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

    ports[s - 1, yrel] is the first hop of the s-th edge-disjoint path to
    Yrel, for selectors 1..q and Yrel 1..N-1; column 0 (self) is unused.
    Node X forwards to Y by looking up Yrel = X XOR Y.
    """

    d: int
    q: int
    ports: np.ndarray

    def egress(self, selector: int, yrel: int) -> int:
        if not (1 <= selector <= self.q and 0 < yrel < self.ports.shape[1]):
            raise KeyError((selector, yrel))
        return int(self.ports[selector - 1, yrel])

    def to_csv(self) -> str:
        lines = ["selector,destination,egress_port"]
        for s, row in enumerate(self.ports.tolist(), 1):
            lines += [
                f"{s},{gf2.word_to_text(yrel, self.d)},{port}"
                for yrel, port in enumerate(row[1:], 1)
            ]
        return "\n".join(lines) + "\n"


def forwarding_table(
    t: CayleyTopology, q: int, *, extra_length: int = DEFAULT_EXTRA_LENGTH
) -> ForwardingTable:
    """First hops of the q edge-disjoint paths for every destination.

    With full diversity, the q entries of one destination use q distinct
    egress ports (the paths are edge-disjoint already at the source).
    Vertex symmetry lets one distance vector serve every destination.
    Refuses, before any search, tables of more than MAX_WALK_SEARCHES
    (destination, selector) entries.
    """
    _check_diversity(t, q)
    searches = (t.N - 1) * q
    if searches > MAX_WALK_SEARCHES:
        raise ValueError(
            f"a forwarding table at d={t.d}, q={q} needs {searches} walk searches,"
            f" about {searches * _SEARCH_SECONDS:.0f} s; the budget is {MAX_WALK_SEARCHES}"
        )
    dist = hop_distances(t).tobytes()
    ports = np.zeros((q, t.N), dtype=np.min_scalar_type(t.m))
    for yrel in range(1, t.N):
        ports[:, yrel] = [path[0] for path in _disjoint_paths(t, yrel, q, extra_length, dist)]
    return ForwardingTable(d=t.d, q=q, ports=ports)


def simulate_forwarding(
    t: CayleyTopology,
    table: ForwardingTable,
    x: int,
    y: int,
    s: int,
    *,
    max_steps: int | None = None,
) -> list[int]:
    """Walk the table from x to y with selector s; returns the node trace.

    The selector picks the first egress; subsequent hops use selector 1,
    whose entries follow shortest paths and therefore strictly reduce the
    remaining distance.
    """
    if x == y:
        raise ValueError("source equals destination")
    if max_steps is None:
        max_steps = t.N + DEFAULT_EXTRA_LENGTH + 1
    trace = [x]
    node = x
    selector = s
    for _ in range(max_steps):
        port = table.egress(selector, node ^ y)
        node ^= t.hops[port - 1]
        trace.append(node)
        if node == y:
            return trace
        selector = 1
    raise RuntimeError(f"forwarding did not converge within {max_steps} steps")
