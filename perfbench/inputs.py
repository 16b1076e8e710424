"""Seeded inputs and independent reference values for the benchmark.

    python3 perfbench/inputs.py WORKLOAD SEED DIR

writes the workload's input files and `ref.json` (the values the checks
compare against) into DIR.  It runs as its own process so that the
benchmark's driver never holds large arrays: a child's peak RSS, as
os.wait4 reports it, includes the peak of the process that spawned it.

Everything here is computed without importing longhop (checks.py does
not import it either), so the references do not share code with the
program measured.

Words follow the program's conventions: a hop or code column is a d-bit
int, bit i of column s is row i of the generator matrix, and row text has
code position 1 leftmost while hop text has the most significant bit first.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np

import checks

# Commands a workload does not aim at run on companion inputs, sized so
# that each still does some tenths of a second of work, because every
# workload must report every end-to-end metric.  The benchmark runs each
# command twice per round, except those named in "once", which take
# seconds at these sizes.
COMPANION_CODE = (40, 16)    # [n, k] code for compare and cluster
COMPANION_START = (9, 18)    # (d, m) greedy start for optimize/verify/ftable/routes

WORKLOADS = {
    # fwht at N = 2M, the scan in 2 chunks of 2**20 (so LONGHOP_THREADS
    # matters) and a 2**21-codeword min_distance; no large BFS.
    "spectrum-d21": {"code": (64, 21), "analysis": COMPANION_CODE, "start": COMPANION_START,
                     "once": ["scan", "scan_par"]},
    # the unique-based BFS behind compare at N = 2**17 and cluster, then
    # the same layers as many small calls at d = 9: about 5.4k greedy
    # candidates, 511 BFS in ftable and the per-edge cut check in verify.
    "distance-design": {"code": (46, 17), "analysis": None, "start": (9, 20), "once": []},
}


def _rank(words: list[int]) -> int:
    by_msb: dict[int, int] = {}
    for w in words:
        while w:
            msb = w.bit_length() - 1
            if msb not in by_msb:
                by_msb[msb] = w
                break
            w ^= by_msb[msb]
    return len(by_msb)


def random_code(rng: random.Random, n: int, k: int) -> list[int]:
    """Columns of a random full-rank [n, k] code with no zero or repeated
    column, the codes that translate into a valid network."""
    while True:
        cols = [rng.getrandbits(k) for _ in range(n)]
        if 0 not in cols and len(set(cols)) == n and _rank(cols) == k:
            return cols


def code_text(cols: list[int], k: int) -> str:
    rows = ("".join(str((c >> i) & 1) for c in cols) for i in range(k))
    return "\n".join(rows) + "\n"


def hopset_text(d: int, hops: list[int]) -> str:
    return f"d={d}\n" + "".join(f"{h:0{d}b}\n" for h in hops)


def min_weight(cols: list[int], k: int) -> int:
    """Minimum nonzero codeword weight, by listing all 2**k codewords."""
    rows = [sum(((c >> i) & 1) << s for s, c in enumerate(cols)) for i in range(k)]
    words = np.zeros(1, dtype=np.uint64)
    for row in rows:
        words = np.concatenate([words, words ^ np.uint64(row)])
    return int(np.bitwise_count(words[1:]).min())


def fixed_start(name: str, d: int, m: int) -> list[int]:
    """The greedy start: the hypercube basis plus m - d random words, drawn
    from an RNG seeded by the workload's name alone.  It is the same on
    every seed, so greedy does the same work (its accepted swaps included)
    in every run, while the code inputs still vary with the seed."""
    rng = random.Random(f"{name}:start")
    basis = [1 << i for i in range(d)]
    return basis + rng.sample([w for w in range(1, 1 << d) if w not in basis], m - d)


def bfs_distances(d: int, hops: list[int]) -> np.ndarray:
    """Hop distance from node 0 to every node, by a boolean-frontier BFS."""
    n = 1 << d
    nodes = np.arange(n, dtype=np.int64)
    dist = np.full(n, -1, dtype=np.int64)
    dist[0] = 0
    frontier = dist == 0
    level = 0
    while frontier.any():
        level += 1
        reached = np.zeros(n, dtype=bool)
        for h in hops:
            reached |= frontier[nodes ^ h]
        frontier = reached & (dist < 0)
        dist[frontier] = level
    return dist


def write(name: str, seed: int, work: Path) -> dict:
    """Write the workload's input files and ref.json; return the references."""
    rng = random.Random(f"{name}:{seed}")
    n, k = WORKLOADS[name]["code"]
    cols = random_code(rng, n, k)
    (work / "code.txt").write_text(code_text(cols, k), encoding="utf-8")
    ref = {"n": n, "k": k, "delta": min_weight(cols, k), "net_text": hopset_text(k, cols),
           "cmp_code": "code.txt", "cmp_hops": "net.hops", "once": WORKLOADS[name]["once"]}

    analysis = WORKLOADS[name]["analysis"]
    if analysis:
        n, k = analysis
        cols = random_code(rng, n, k)
        (work / "cmp.txt").write_text(code_text(cols, k), encoding="utf-8")
        (work / "cmp.hops").write_text(hopset_text(k, cols), encoding="utf-8")
        ref.update(cmp_code="cmp.txt", cmp_hops="cmp.hops")
    dist = bfs_distances(k, cols)
    ref.update(cmp_d=k, cmp_delta=min_weight(cols, k), cmp_max_hops=int(dist.max()),
               cmp_avg_hops=float(dist.sum()) / (dist.size - 1))

    d, m = WORKLOADS[name]["start"]
    hops = fixed_start(name, d, m)
    (work / "start.hops").write_text(hopset_text(d, hops), encoding="utf-8")
    ref.update(start_d=d, start_m=m, start_b=checks.bisection(d, hops))
    (work / "ref.json").write_text(json.dumps(ref), encoding="utf-8")
    return ref


if __name__ == "__main__":
    write(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
