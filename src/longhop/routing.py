"""Multipath route construction and forwarding tables.

Vertex symmetry makes routing relative: the hop sequences from X to Y are
those from node 0 to the relative destination X XOR Y, so one table serves
every node.  Paths are port sequences (ports are 1-based); a sequence is
valid for destination Yrel when its hops XOR to Yrel.  Immediate
backtracking (the same port twice in a row) is never generated.

Edge-disjoint path sets are built greedily: all shortest paths in
lexicographic port order first, then paths exactly one hop longer, and so
on, until the requested diversity Q is reached.  Path selectors apply at
the source; after the first hop a packet follows selector-1 (shortest)
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
    "route",
    "simulate_forwarding",
    "path_nodes",
    "path_edges",
    "DEFAULT_EXTRA_LENGTH",
]

DEFAULT_EXTRA_LENGTH = 4  # lengthening search stops at shortest + this


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


def path_edges(t: CayleyTopology, path: tuple[int, ...], start: int = 0) -> frozenset[tuple[int, int]]:
    """Undirected edge set of a path, translated along the walk."""
    edges = set()
    nodes = path_nodes(t, path, start)
    for u, v in zip(nodes, nodes[1:]):
        edges.add((u, v) if u < v else (v, u))
    return frozenset(edges)


def _walks_exact(
    t: CayleyTopology, yrel: int, length: int, dist: np.ndarray
) -> Iterator[tuple[int, ...]]:
    """All non-backtracking port sequences of exactly `length` hops that XOR
    to yrel, yielded in lexicographic order."""
    hops = t.hops
    m = t.m

    def rec(prev_port: int, acc: int, seq: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        remaining = length - len(seq)
        if remaining == 0:
            if acc == yrel:
                yield seq
            return
        if dist[acc ^ yrel] > remaining:
            return
        for p in range(1, m + 1):
            if p == prev_port:
                continue
            yield from rec(p, acc ^ hops[p - 1], seq + (p,))

    yield from rec(0, 0, ())


def shortest_paths(t: CayleyTopology, yrel: int) -> list[tuple[int, ...]]:
    """All minimum-length hop sequences from node 0 to yrel.

    A minimal walk never repeats a port, so these are exactly the subsets
    of ports XOR-ing to yrel with minimal cardinality L, in all L! orders,
    sorted lexicographically.
    """
    if not 0 < yrel < t.N:
        raise ValueError(f"relative destination must be in 1..{t.N - 1}, got {yrel}")
    dist = hop_distances(t)
    return list(_walks_exact(t, yrel, int(dist[yrel]), dist))


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
    return _disjoint_paths(t, yrel, q, extra_length, hop_distances(t))


def _disjoint_paths(
    t: CayleyTopology, yrel: int, q: int, extra_length: int, dist: np.ndarray
) -> list[tuple[int, ...]]:
    """disjoint_paths for validated arguments, given hop_distances(t)."""
    base = int(dist[yrel])
    chosen: list[tuple[int, ...]] = []
    used: set[tuple[int, int]] = set()
    for length in range(base, base + extra_length + 1):
        for seq in _walks_exact(t, yrel, length, dist):
            eset = path_edges(t, seq)
            if eset & used:
                continue
            chosen.append(seq)
            used |= eset
            if len(chosen) == q:
                return chosen
    raise Unroutable(
        f"only {len(chosen)} edge-disjoint paths of length <= {base + extra_length} "
        f"exist for destination {yrel} (requested {q})",
        achievable=len(chosen),
    )


@dataclass(frozen=True)
class ForwardingTable:
    """(selector, relative destination) -> egress port, for one topology.

    Holds (N-1)*Q entries: Q selectors for each destination other than
    self.  Node X forwards to Y by looking up Yrel = X XOR Y.
    """

    d: int
    q: int
    entries: dict[tuple[int, int], int]

    def egress(self, selector: int, yrel: int) -> int:
        return self.entries[(selector, yrel)]

    def to_csv(self) -> str:
        lines = ["selector,destination,egress_port"]
        for (s, yrel), port in sorted(self.entries.items()):
            lines.append(f"{s},{gf2.word_to_text(yrel, self.d)},{port}")
        return "\n".join(lines) + "\n"


def forwarding_table(
    t: CayleyTopology, q: int, *, extra_length: int = DEFAULT_EXTRA_LENGTH
) -> ForwardingTable:
    """First hops of the q edge-disjoint paths for every destination.

    With full diversity, the q entries of one destination use q distinct
    egress ports (the paths are edge-disjoint already at the source).
    Vertex symmetry lets one distance vector serve every destination.
    """
    _check_diversity(t, q)
    dist = hop_distances(t)
    entries: dict[tuple[int, int], int] = {}
    for yrel in range(1, t.N):
        paths = _disjoint_paths(t, yrel, q, extra_length, dist)
        for s, path in enumerate(paths, 1):
            entries[(s, yrel)] = path[0]
    return ForwardingTable(d=t.d, q=q, entries=entries)


def route(t: CayleyTopology, x: int, y: int, s: int) -> tuple[int, ...]:
    """The s-th edge-disjoint path from x to y (as a port sequence).

    Identical to the s-th path from 0 to x XOR y; the greedy construction
    is deterministic, so requesting q = s reproduces the same prefix.
    """
    if not (0 <= x < t.N and 0 <= y < t.N):
        raise ValueError("node out of range")
    if x == y:
        raise ValueError("source equals destination")
    try:
        paths = disjoint_paths(t, x ^ y, s)
    except Unroutable as exc:
        raise Unroutable(
            f"selector {s} exceeds the available path diversity "
            f"({exc.achievable}) for this pair",
            achievable=exc.achievable,
        ) from exc
    return paths[s - 1]


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
