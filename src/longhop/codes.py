"""Linear [n, k] block codes over GF(2).

A generator-matrix row is stored as an int whose bit (j-1) is the
coefficient of codeword position j, so text renderings put position 1
leftmost.  Messages use the same convention: bit (i-1) selects row i.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import gf2
from .topology import HARD_MAX_D

__all__ = [
    "GeneratorMatrix",
    "encode",
    "min_distance",
    "change_basis",
    "parse_generator",
    "emit_generator",
    "vector_from_text",
    "vector_to_text",
]

@dataclass(frozen=True)
class GeneratorMatrix:
    """k independent rows spanning an [n, k] binary code."""

    k: int
    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.n < self.k:
            raise ValueError(f"n={self.n} smaller than k={self.k}")
        if len(self.rows) != self.k:
            raise ValueError(f"expected {self.k} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows, 1):
            if row < 0 or row >> self.n:
                raise ValueError(f"row {i} does not fit in {self.n} columns")
        if gf2.rank(self.rows) != self.k:
            raise ValueError("rows are linearly dependent over GF(2)")


def encode(g: GeneratorMatrix, message: int) -> int:
    """XOR together the rows of g selected by the set bits of `message`."""
    if message < 0 or message >> g.k:
        raise ValueError(f"message {message} does not fit in {g.k} bits")
    cw = 0
    rest = message
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        cw ^= g.rows[i]
    return cw


def min_distance(g: GeneratorMatrix) -> int:
    """Minimum weight of encode(g, u) over u != 0, read from the codeword
    weights of g's rows in bounded chunks (gf2.codeword_weights): O(2**k *
    ceil(n/64)) 64-bit word work in O(2**16) memory, about 3 s at k = 32,
    n = 64 on a 2-vCPU VM.  For linear codes this equals the minimum
    pairwise codeword distance.  Refuses (rather than approximates) k above
    HARD_MAX_D, before any work.
    """
    if g.k > HARD_MAX_D:
        raise ValueError(f"k={g.k} exceeds the exhaustive-search cap {HARD_MAX_D}; refusing")
    best = g.n   # no codeword is heavier; weight 0 at u = 0 is the zero message
    for u, weights in enumerate(gf2.codeword_weights(g.rows, g.n)):
        best = min(best, int(weights[int(u == 0) :].min(initial=best)))
    return best


def change_basis(g: GeneratorMatrix, transform_rows: Sequence[int]) -> GeneratorMatrix:
    """Replace g by R*g for an invertible k x k GF(2) matrix R.

    `transform_rows[i]` holds row i of R with bit (j-1) selecting row j of g.
    The row span (the code itself) is unchanged.
    """
    if len(transform_rows) != g.k:
        raise ValueError("transform must be square of size k")
    if gf2.rank(transform_rows) != g.k:
        raise ValueError("transform matrix is singular over GF(2)")
    return GeneratorMatrix(
        k=g.k, n=g.n, rows=tuple(encode(g, int(r)) for r in transform_rows)
    )


def vector_from_text(text: str) -> int:
    """Parse a code vector; the leftmost character is position 1 (bit 0)."""
    if set(text) - {"0", "1"}:
        raise ValueError(f"not a binary vector: {text!r}")
    out = 0
    for j, ch in enumerate(text):
        if ch == "1":
            out |= 1 << j
    return out


def vector_to_text(value: int, length: int) -> str:
    """Render a code vector with position 1 leftmost."""
    if value < 0 or value >> length:
        raise ValueError(f"value {value} does not fit in {length} positions")
    return "".join("1" if (value >> j) & 1 else "0" for j in range(length))


def parse_generator(text: str) -> GeneratorMatrix:
    """Parse a generator-matrix file: '#' comments, then k rows of n
    characters from {0, 1}; row i has the coefficient of position 1 leftmost.
    """
    rows: list[int] = []
    n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        bad = set(line) - {"0", "1"}
        if bad:
            raise ValueError(
                f"line {lineno}: invalid characters {sorted(bad)} in matrix row"
            )
        if n is None:
            n = len(line)
        elif len(line) != n:
            raise ValueError(
                f"line {lineno}: expected {n} columns, got {len(line)}"
            )
        rows.append(vector_from_text(line))
    if not rows or n is None:
        raise ValueError("no matrix rows found")
    try:
        return GeneratorMatrix(k=len(rows), n=n, rows=tuple(rows))
    except ValueError as exc:
        raise ValueError(f"invalid generator matrix: {exc}") from exc


def emit_generator(g: GeneratorMatrix) -> str:
    """Inverse of parse_generator (modulo comments and whitespace)."""
    return "\n".join(vector_to_text(row, g.n) for row in g.rows) + "\n"
