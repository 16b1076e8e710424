"""Bit-level GF(2) primitives shared by the rest of the package.

A d-bit word is a plain Python int in [0, 2**d); bit mu is the
coefficient of 2**mu.  Rendered as text, words are written most
significant bit first.  codeword_weights is the one engine that streams
Walsh-domain quantities: the weight of the codeword r.G is the cut of the
Walsh partition r of the hop set whose bit columns are G's rows, so
bisection, code distance and clustering all read it.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "parity",
    "weight",
    "walsh",
    "fwht",
    "codeword_weights",
    "transpose",
    "rank",
    "column_diagonalize",
    "word_from_text",
    "word_to_text",
]

_TABLE_BITS = 16   # codeword_weights tabulates the low r bits and yields one chunk per table


def parity(x: int) -> int:
    """XOR of all bits of x: 1 iff an odd number of bits are set."""
    return x.bit_count() & 1


def weight(x: int) -> int:
    """Hamming weight (number of set bits)."""
    return x.bit_count()


def walsh(r: int, x: int) -> int:
    """Binary Walsh function: parity(r AND x)."""
    return (r & x).bit_count() & 1


def fwht(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2**d integer vector.

    Returns w with w[r] = sum_x values[x] * (-1)**parity(r & x), computed by
    an in-place butterfly on a copy with one half-length scratch buffer, in
    exact int64 arithmetic, O(N log N).  Applied twice it scales by N.
    """
    a = np.array(values, dtype=np.int64)
    n = a.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"fwht length must be a power of two, got {n}")
    scratch = np.empty(n // 2, dtype=np.int64)
    h = 1
    while h < n:
        lo, hi = a.reshape(-1, 2, h).transpose(1, 0, 2)
        diff = np.subtract(lo, hi, out=scratch.reshape(-1, h))
        lo += hi
        hi[...] = diff
        h *= 2
    return a


def codeword_weights(rows: Sequence[int], n: int) -> Iterator[np.ndarray]:
    """Yield weight(r.G) for r = 0 .. 2**k - 1 ascending, in int64 chunks of
    2**min(k, _TABLE_BITS) entries; G is the k x n bit matrix with the given
    rows, and r.G is the XOR of the rows selected by the set bits of r.

    Rows are split into ceil(n/64) uint64 lanes.  A table of the codewords
    of the low min(k, _TABLE_BITS) bits of r, built by XOR doubling, is
    XORed with the codeword of each high part of r and popcounted into that
    part's chunk, lane counts summed, so the work is O(2**k * ceil(n/64))
    64-bit words and the memory is O(2**_TABLE_BITS * ceil(n/64)).
    """
    k, width = len(rows), max(-(-n // 64), 1)   # n = 0 still gets one all-zero lane
    lanes = np.array(
        [[(int(w) >> (64 * lane)) & ((1 << 64) - 1) for w in rows] for lane in range(width)],
        dtype=np.uint64,
    ).reshape(width, k)
    low = min(k, _TABLE_BITS)
    table = np.zeros((width, 1 << low), dtype=np.uint64)
    for i in range(low):   # codeword of j + 2**i is that of j XOR row i
        np.bitwise_xor(table[:, : 1 << i], lanes[:, i : i + 1], out=table[:, 1 << i : 2 << i])
    high = lanes[:, low:]
    buf = np.empty(1 << low, dtype=np.uint64)
    count = np.empty(1 << low, dtype=np.uint8)
    for u in range(1 << (k - low)):
        cu = np.bitwise_xor.reduce(high[:, [i for i in range(k - low) if u >> i & 1]], axis=1)
        chunk = np.empty(1 << low, dtype=np.int64)
        np.bitwise_count(np.bitwise_xor(table[0], cu[0], out=buf), out=chunk)
        for lane in range(1, width):
            chunk += np.bitwise_count(np.bitwise_xor(table[lane], cu[lane], out=buf), out=count)
        yield chunk


def transpose(words: Sequence[int], width: int) -> list[int]:
    """Bit-matrix transpose: bit i of result j (j < width) is bit j of words[i]."""
    return [sum(((int(w) >> j) & 1) << i for i, w in enumerate(words)) for j in range(width)]


def rank(rows: Iterable[int]) -> int:
    """GF(2) rank of a collection of words (each row an int bitset)."""
    by_msb: dict[int, int] = {}
    for row in rows:
        row = int(row)
        while row:
            msb = row.bit_length() - 1
            if msb not in by_msb:
                by_msb[msb] = row
                break
            row ^= by_msb[msb]
    return len(by_msb)


def column_diagonalize(rows: Sequence[int], width: int) -> tuple[list[int], bool]:
    """Column-reduce a bit matrix so d of its rows become the unit words.

    `rows` holds m words of `width` bits each.  Only invertible column
    operations are applied (bit-position swaps and XORing one bit position
    into another), so the set of all 2**width GF(2) column combinations is
    preserved and row order is untouched.  Pivots are taken from the first
    row, in ascending index order, that has a usable nonzero bit.

    Returns (new_rows, ok); ok is False when the columns do not have full
    rank `width`, in which case new_rows holds the partial reduction.
    """
    work = [int(r) for r in rows]
    m = len(work)
    col = 0
    for row_idx in range(m):
        if col == width:
            break
        rest = work[row_idx] >> col
        if rest == 0:
            continue
        j = col + ((rest & -rest).bit_length() - 1)
        if j != col:
            for q in range(m):
                v = work[q]
                bc = (v >> col) & 1
                bj = (v >> j) & 1
                if bc != bj:
                    work[q] = v ^ (1 << col) ^ (1 << j)
        # clear every other set bit of the pivot row via column additions
        mask = work[row_idx] & ~(1 << col)
        while mask:
            j2 = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            for q in range(m):
                work[q] ^= ((work[q] >> col) & 1) << j2
        col += 1
    return work, col == width


def word_from_text(text: str) -> int:
    """Parse a binary string written most significant bit first."""
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"not a binary word: {text!r}")
    return int(text, 2)


def word_to_text(value: int, width: int) -> str:
    """Render a word as `width` binary digits, most significant bit first."""
    if value < 0 or value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")
