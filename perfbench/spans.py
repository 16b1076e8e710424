"""Spans around the public functions of each longhop layer.

`installed(tracer)` replaces each traced function, in every module that
binds it by name, with one wrapper that records calls and self time (the
span's duration minus the time covered by the spans it caused), plus
work counts computed from the call's arguments and result.  The per-bit
helpers gf2.walsh/parity/weight are left alone: one d=11 `verify` calls
them millions of times, and a span there would measure the tracer.
"""
from __future__ import annotations

import contextlib
import math
import os
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []   # one entry per open span

    def span(self, name: str, fn: Callable, count: Callable | None = None,
             time_key: Callable[[], str] | None = None) -> Callable:
        """fn wrapped to add to `<name>.calls` and to the self time kept under
        time_key() (default `<name>.s`); count(values, args, result) adds
        work counts."""
        values, stack = self.values, self._child_time

        def wrapper(*args, **kwargs):
            key = time_key() if time_key else name + ".s"
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                values[name + ".calls"] += 1
                values[key] += elapsed - children
            if count:
                count(values, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """fn wrapped to count its calls under `name`, without timing."""
        values = self.values

        def wrapper(*args, **kwargs):
            values[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def per_layer(self) -> dict[str, float]:
        """Recorded values plus the ratios derived from them."""
        v = dict(self.values)
        evaluated = v.get("optimize.greedy_improve.evaluated", 0)
        tried = v.get("routing.paths_tried", 0)
        v["optimize.greedy_improve.accept_ratio"] = (
            v.get("optimize.greedy_improve.rounds", 0) / evaluated if evaluated else 0.0)
        v["routing.paths_kept_ratio"] = v.get("routing.paths_kept", 0) / tried if tried else 0.0
        return v


# Work counts are computed from sizes, not measured, so they repeat exactly.

def _fwht_bytes(v, args, result) -> None:
    n = result.size   # log2(n) stages, each reading and writing n int64 words
    v["gf2.fwht.bytes_computed"] += 2 * 8 * n * int(math.log2(n))


def _scan_words(v, args, result) -> None:
    v["topology.bisection_scan.words"] += args[0].N * args[0].m


def _bfs_work(v, args, result) -> None:
    t = args[0]
    v["topology.hop_distances.levels"] += int(result.max())
    v["topology.hop_distances.nodes"] += t.N
    v["topology.hop_distances.node_hops"] += t.N * t.m


def _codewords(v, args, result) -> None:
    v["codes.min_distance.codewords"] += (1 << args[0].k) - 1


def _greedy(v, args, report) -> None:
    v["optimize.greedy_improve.evaluated"] += report.evaluated
    v["optimize.greedy_improve.rounds"] += report.rounds


def _paths_kept(v, args, result) -> None:
    v["routing.paths_kept"] += len(result)


def _scan_key() -> str:
    threads = int(os.environ.get("LONGHOP_THREADS", "1") or "1")
    return "topology.bisection_scan." + ("par_s" if threads > 1 else "s")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from longhop import codes, compare, gf2, optimize, routing, topology

    def wrap(name, owners, attr, count=None, time_key=None):
        wrapper = tracer.span(name, getattr(owners[0], attr), count, time_key)
        return [(owner, attr, wrapper) for owner in owners]

    patches = [
        *wrap("gf2.fwht", [gf2], "fwht", _fwht_bytes),
        *wrap("gf2.rank", [gf2], "rank"),
        *wrap("topology.CayleyTopology", [topology.CayleyTopology], "__post_init__"),
        *wrap("topology.bisection_fwht", [topology, optimize], "bisection_fwht"),
        *wrap("topology.bisection_scan", [topology], "bisection_scan", _scan_words, _scan_key),
        *wrap("topology.hop_distances", [topology, routing], "hop_distances", _bfs_work),
        # no metric of its own: keeps compare's summary work out of cli.compare.self_s
        *wrap("topology.distances", [topology, compare], "distances"),
        *wrap("topology.cluster", [topology], "cluster"),
        *wrap("codes.min_distance", [codes, compare], "min_distance", _codewords),
        *wrap("optimize.greedy_improve", [optimize], "greedy_improve", _greedy),
        *wrap("routing.forwarding_table", [routing], "forwarding_table"),
        *wrap("routing.disjoint_paths", [routing], "disjoint_paths", _paths_kept),
        (routing, "path_edges", tracer.counter("routing.paths_tried", routing.path_edges)),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
