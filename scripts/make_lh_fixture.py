#!/usr/bin/env python3
"""Build and verify the [48, 13, 16] generator-matrix fixture.

Construction: start from the cyclic [23, 12, 7] Golay code, extend each
row with an overall parity bit to the [24, 12, 8] code, take the 11-dim
subcode that drops row 5, and apply the (u | u+v) construction with the
two-dimensional [24, 2, 16] code spanned by two overlapping weight-16
masks.  The result is a 13-dimensional [48, >=16] code; every parameter
is re-verified exhaustively below before the fixture is written.

Usage: python3 scripts/make_lh_fixture.py [outfile]
"""
from __future__ import annotations

import sys
from pathlib import Path

from longhop import codes, construct, topology

GOLAY_POLY = 0b101011100011  # degree-11 generator of the cyclic [23,12,7] code
DROP_ROW = 5                 # 11-dim subcode choice (keeps all 48 columns distinct)
MASK_A = (1 << 16) - 1       # positions 1..16
MASK_B = ((1 << 16) - 1) << 8  # positions 9..24; the union covers all 24


def build() -> codes.GeneratorMatrix:
    g23 = [GOLAY_POLY << i for i in range(12)]
    g24 = [r | ((r.bit_count() & 1) << 23) for r in g23]
    sub11 = [g24[i] for i in range(12) if i != DROP_ROW]
    rows = [r | (r << 24) for r in sub11]      # (u | u)
    rows += [MASK_A << 24, MASK_B << 24]       # (0 | v)
    return codes.GeneratorMatrix(k=13, n=48, rows=tuple(rows))


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("tests/data/g48_13_16.txt")
    g = build()
    delta = codes.min_distance(g)
    assert delta == 16, f"expected minimum distance 16, got {delta}"
    t = construct.code_to_network(g)
    assert (t.d, t.m) == (13, 48)
    bisection = topology.bisection_scan(t)
    assert bisection.b == delta, (bisection.b, delta)
    summary = topology.distances(t)
    header = (
        "# [48,13,16] binary code: extended-Golay (u|u+v) construction\n"
        f"# generator polynomial {GOLAY_POLY:#014b}, subcode drops row {DROP_ROW},\n"
        f"# second block spanned by masks {MASK_A:#08x} and {MASK_B:#08x}\n"
        f"# verified: min_distance=16, network b=16, diameter={summary.diameter}, "
        f"mean hops={summary.mean:.6f}\n"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(header + codes.emit_generator(g), encoding="utf-8")
    print(f"wrote {out}")
    print(f"min_distance: {delta}")
    print(f"bisection b:  {bisection.b}  ({bisection.links} links)")
    print(f"diameter:     {summary.diameter}")
    print(f"mean hops:    {summary.mean:.6f}")
    print(f"histogram:    {summary.histogram}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
