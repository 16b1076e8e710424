"""Search for bisection-maximizing hop sets.

Exhaustive search is exact but exponential in m - d, so it is budgeted to
desk-scale instances; greedy hop replacement scales further but only
guarantees a local optimum.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import gf2
from .topology import HARD_MAX_D, CayleyTopology, bisection_fwht, bisection_scan

__all__ = ["SearchReport", "brute_force_search", "greedy_improve"]

# brute_force_search refuses m - d > BRUTE_MAX_EXTRA or d > BRUTE_MAX_D
BRUTE_MAX_EXTRA = 3
BRUTE_MAX_D = 5


@dataclass(frozen=True)
class SearchReport:
    best: CayleyTopology
    best_b: int
    evaluated: int
    method: str
    rounds: int = 0


def brute_force_search(d: int, m: int) -> SearchReport:
    """Exact optimum over all hop sets with the first d hops pinned to the
    hypercube basis (any spanning hop set is isomorphic to one of these, so
    nothing is lost).  The remaining m - d hops run over ascending,
    deduplicated nonzero words.

    Refuses a dimension outside 1..HARD_MAX_D, as CayleyTopology does, and
    instances beyond the budget (m - d <= BRUTE_MAX_EXTRA, d <= BRUTE_MAX_D)
    rather than silently truncating the search.
    """
    if not 1 <= d <= HARD_MAX_D:   # before any word is built
        raise ValueError(f"dimension must be in 1..{HARD_MAX_D}, got {d}")
    if m < d:
        raise ValueError(f"m={m} must be at least d={d}")
    if m - d > BRUTE_MAX_EXTRA or d > BRUTE_MAX_D:
        raise ValueError(
            f"brute force budget exceeded: need m-d<={BRUTE_MAX_EXTRA} and d<={BRUTE_MAX_D}, "
            f"got (d={d}, m={m})"
        )
    basis = tuple(1 << i for i in range(d))
    pool = [w for w in range(1, 1 << d) if w not in basis]
    if m - d > len(pool):
        raise ValueError(f"not enough distinct nonzero words for m={m} at d={d}")
    best_t = None
    best_b = -1
    evaluated = 0
    for extras in itertools.combinations(pool, m - d):
        t = CayleyTopology(d=d, hops=basis + extras)
        b = bisection_scan(t).b
        evaluated += 1
        if b > best_b:
            best_b = b
            best_t = t
    assert best_t is not None
    return SearchReport(best=best_t, best_b=best_b, evaluated=evaluated, method="brute")


def greedy_improve(
    start: CayleyTopology,
    swap_width: int = 1,
    max_rounds: int = 100,
) -> SearchReport:
    """First-improvement greedy replacement of swap_width non-basis hops.

    Each round scans, in ascending position/word order, every replacement
    of swap_width non-basis hops by currently unused nonzero words, and
    accepts the first strict improvement in b (the scan order makes the
    accepted set the lexicographically lowest among first improvements).
    Stops at a local optimum or after max_rounds accepted swaps; b never
    decreases.  `evaluated` counts the full-rank candidates scored plus the
    start: the work the search did, so a hop set that a later round meets
    again counts again.

    Candidates are scored a whole batch at a time from the current hop set's
    N-entry cuts array, which bisection_fwht gives.  Removing hops (and, at
    width 2, adding the first word w1) leaves cuts c'
    with minimum b0 over r > 0, reached on the set M.  Adding a word w then
    gives b = b0 + [parity(r & w) = 1 for every r in M], which is b0 + 1
    exactly where FWHT(1_M)[w] = -|M|.  So a width-1 neighbourhood costs at
    most m transforms of length 2**d, a width-2 one at most one per (position
    pair, first word), and no topology is built per candidate: b >= 1 is
    the same as full rank.
    """
    if swap_width not in (1, 2):
        raise ValueError(f"swap_width must be 1 or 2, got {swap_width}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    best = start
    cuts = bisection_fwht(best)  # refuses d above the spectrum cap
    b = int(cuts[1:].min())
    d = start.d
    rs = np.arange(1 << d, dtype=np.uint32)

    def parity(h: int) -> np.ndarray:
        return np.bitwise_count(rs & np.uint32(h)) & 1

    evaluated = 1
    rounds = 0
    while rounds < max_rounds:
        current = best.hops
        unused = np.ones(1 << d, dtype=bool)
        unused[[0, *current]] = False
        pool = np.flatnonzero(unused)
        positions = [i for i, h in enumerate(current) if h & (h - 1)]
        # width 1: one batch of every unused word; width 2: one batch per
        # first word w1, of the unused words above it
        if swap_width == 1:
            batches = [((), pool)]
        else:
            batches = [((int(w),), pool[i + 1:]) for i, w in enumerate(pool[:-1])]
        accepted = None
        for pos_combo in itertools.combinations(positions, swap_width):
            removed = [current[p] for p in pos_combo]
            left = cuts - sum(parity(h) for h in removed)
            for first, ys in batches:
                batch_cuts = left + parity(first[0]) if first else left
                scores = _batch_scores(batch_cuts, ys, b)
                better = np.flatnonzero(scores > b)
                stop = int(better[0]) + 1 if better.size else ys.size
                evaluated += int((scores[:stop] >= 1).sum())
                if better.size:
                    accepted = (pos_combo, first + (int(ys[stop - 1]),))
                    b = int(scores[stop - 1])
                    break
            if accepted:
                break
        if not accepted:
            break
        hops = list(current)
        for p, w in zip(*accepted):
            hops[p] = w
        best = CayleyTopology(d=d, hops=tuple(hops))
        cuts = bisection_fwht(best)
        rounds += 1
    return SearchReport(
        best=best,
        best_b=b,
        evaluated=evaluated,
        method="greedy",
        rounds=rounds,
    )


def _batch_scores(cuts: np.ndarray, ys: np.ndarray, b: int) -> np.ndarray:
    """b of each hop set made by adding one word of ys to the hops behind cuts.

    When 1 <= b0 < b, every candidate is full rank and none can beat b, so
    the transform is skipped and all read b0 (the true b is b0 or b0 + 1).
    """
    b0 = int(cuts[1:].min())
    if 1 <= b0 < b:
        return np.full(ys.size, b0)
    minimizers = cuts == b0
    minimizers[0] = False
    spectrum = gf2.fwht(minimizers)
    return b0 + (spectrum[ys] == -int(minimizers.sum()))
