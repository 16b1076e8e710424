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
from .topology import CayleyTopology, _parity_u32, bisection_fwht

__all__ = ["SearchReport", "brute_force_search", "greedy_improve"]


@dataclass(frozen=True)
class SearchReport:
    best: CayleyTopology
    best_b: int
    evaluated: int
    method: str
    rounds: int = 0


def brute_force_search(
    d: int,
    m: int,
    *,
    max_extra: int = 3,
    max_d: int = 5,
) -> SearchReport:
    """Exact optimum over all hop sets with the first d hops pinned to the
    hypercube basis (any spanning hop set is isomorphic to one of these, so
    nothing is lost).  The remaining m - d hops run over ascending,
    deduplicated nonzero words.

    Refuses instances beyond the budget (default m - d <= 3, d <= 5) rather
    than silently truncating the search.
    """
    if m < d:
        raise ValueError(f"m={m} must be at least d={d}")
    if m - d > max_extra or d > max_d:
        raise ValueError(
            f"brute force budget exceeded: need m-d<={max_extra} and d<={max_d}, "
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
        b = bisection_fwht(t).b
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
    decreases.  `evaluated` counts the distinct full-rank hop sets scored,
    the start included.

    Candidates are scored from the Walsh spectrum, a whole batch at a time.
    Removing hops (and, at width 2, adding the first word w1) leaves cuts c'
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
    spectrum = bisection_fwht(best)  # refuses d above the spectrum cap
    b = spectrum.b
    d = start.d
    rs = np.arange(1 << d, dtype=np.uint32)

    def parity(h: int) -> np.ndarray:
        return _parity_u32(rs & np.uint32(h))

    evaluated = 1
    history: list[_Round] = []
    rounds = 0
    while rounds < max_rounds:
        current = best.hops
        in_use = set(current)
        unused = np.ones(1 << d, dtype=bool)
        unused[[0, *current]] = False
        pool = np.flatnonzero(unused)
        positions = [i for i, h in enumerate(current) if h & (h - 1)]
        # b rises by at least 1 per round and one swap moves it by at most
        # swap_width, so only the last swap_width rounds can have scored a
        # hop set that this round reaches
        near = history[-swap_width:]
        # width 1: one batch of every unused word; width 2: one batch per
        # first word w1, of the unused words above it
        if swap_width == 1:
            batches = [((), pool)]
        else:
            batches = [((int(w),), pool[i + 1:]) for i, w in enumerate(pool[:-1])]
        accepted = None
        for pos_combo in itertools.combinations(positions, swap_width):
            removed = [current[p] for p in pos_combo]
            cuts = spectrum.cuts - sum(parity(h) for h in removed)
            kept = in_use.difference(removed)
            for first, ys in batches:
                batch_cuts = cuts + parity(first[0]) if first else cuts
                scores = _batch_scores(batch_cuts, ys, b)
                better = np.flatnonzero(scores > b)
                stop = int(better[0]) + 1 if better.size else ys.size
                scored = scores[:stop] >= 1
                fixed = kept.union(first)
                if near:
                    scored &= ~_seen(ys[:stop], fixed, swap_width, near)
                evaluated += int(scored.sum())
                if better.size:
                    accepted = (pos_combo, first + (int(ys[stop - 1]),))
                    b = int(scores[stop - 1])
                    break
            if accepted:
                break
        if not accepted:
            break
        history.append(_Round(current, in_use, *accepted))
        hops = list(current)
        for p, w in zip(*accepted):
            hops[p] = w
        best = CayleyTopology(d=d, hops=tuple(hops))
        spectrum = bisection_fwht(best)
        rounds += 1
    return SearchReport(
        best=best,
        best_b=b,
        evaluated=evaluated,
        method="greedy",
        rounds=rounds,
    )


@dataclass(frozen=True)
class _Round:
    """An accepted greedy round: the hop set it started from and the swap it
    accepted, which is the last candidate it scored."""

    hops: tuple[int, ...]
    in_use: set[int]
    positions: tuple[int, ...]
    words: tuple[int, ...]

    def position_key(self, removed: set[int]) -> tuple[int, ...] | None:
        """Sorted positions of the removed hops, None if one is a basis word."""
        if any(not h & (h - 1) for h in removed):
            return None
        return tuple(sorted(self.hops.index(h) for h in removed))


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


def _seen(ys: np.ndarray, fixed: set[int], width: int, near: list[_Round]) -> np.ndarray:
    """Mask over ys: True where fixed + {y} was scored in an earlier round.

    A hop set is round R's candidate when it removes `width` non-basis hops
    `miss` from R.hops and adds `width` words, and R scored it when that
    swap comes no later than R's accepted one in scan order.  With
    out = fixed - R.hops, a y outside R.hops needs len(out) == width - 1,
    and a y inside R.hops needs len(out) == width (or 0: R.hops itself).
    """
    seen = np.zeros(ys.size, dtype=bool)
    for r in near:
        out = fixed - r.in_use
        if len(out) > width:
            continue
        miss = r.in_use - fixed
        if len(out) == width - 1:
            key = r.position_key(miss)
            if key is not None and key <= r.positions:
                hit = ~np.isin(ys, list(miss))
                if key == r.positions:
                    hit &= _words_le(ys, out, r.words)
                seen |= hit
        for y in miss:
            i = int(np.searchsorted(ys, y))
            if i == ys.size or ys[i] != y:
                continue
            if not out:
                seen[i] = True
            elif len(out) == width:
                key = r.position_key(miss - {y})
                seen[i] = key is not None and (key, tuple(sorted(out))) <= (
                    r.positions, r.words)
    return seen


def _words_le(ys: np.ndarray, out: set[int], words: tuple[int, ...]) -> np.ndarray:
    """Mask over ys: sorted(out + {y}) <= words lexicographically (len(out) < 2)."""
    if not out:
        return ys <= words[0]
    (f,) = out
    lo, hi = np.minimum(ys, f), np.maximum(ys, f)
    return (lo < words[0]) | ((lo == words[0]) & (hi <= words[1]))
