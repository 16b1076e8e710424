#!/usr/bin/env python3
"""Write a random spanning hop set: the d unit words, then distinct
non-unit words of random.Random(seed).getrandbits(d), until there are m.

The CI steps that run commands at d = 16..32 build their hop sets with
it, so the same (d, m, seed) always gives the same file.

Usage: python3 scripts/random_hopset.py D M SEED OUT
"""
from __future__ import annotations

import random
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        sys.stderr.write(__doc__.rsplit("\n\n", 1)[1])
        return 1
    d, m, seed = (int(arg) for arg in argv[:3])
    if not 1 <= d <= m <= (1 << d) - 1:
        sys.stderr.write(f"need 1 <= d <= m <= 2**d - 1, got d={d}, m={m}\n")
        return 1
    rng = random.Random(seed)
    hops = [1 << i for i in range(d)]
    while len(hops) < m:
        w = rng.getrandbits(d)
        if w & (w - 1) and w not in hops:
            hops.append(w)
    Path(argv[3]).write_text(f"d={d}\n" + "".join(f"{h:0{d}b}\n" for h in hops))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
