"""Bit-level GF(2) primitives shared by the rest of the package.

A d-bit word is a plain Python int in [0, 2**d); bit mu is the
coefficient of 2**mu.  Rendered as text, words are written most
significant bit first.  codeword_weights is the one engine that streams
Walsh-domain quantities: the weight of the codeword r.G is the cut of the
Walsh partition r of the hop set whose bit columns are G's rows, so
bisection, code distance and clustering all read it.  text_rows is the
one renderer of per-word tables (the spectrum, cluster and forwarding-table
outputs): one text row per d-bit word, with integer columns.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "fwht",
    "codeword_weights",
    "transpose",
    "rank",
    "word_from_text",
    "word_to_text",
    "text_rows",
    "TEXT_ROWS",
]

_TABLE_BITS = 16   # codeword_weights tabulates the low r bits and yields one chunk per table
# text_rows renders this many rows per reused table: a power of two, small
# enough that a fresh process pages the table and its temporaries in once
TEXT_ROWS = 1 << 13


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


def _span_table(lanes: np.ndarray) -> np.ndarray:
    """The (width, 2**c) uint64 table of the XORs of the c columns of
    `lanes`: column j is the XOR of the columns selected by the set bits of
    j, built by XOR doubling."""
    table = np.zeros((lanes.shape[0], 1 << lanes.shape[1]), dtype=np.uint64)
    for i in range(lanes.shape[1]):   # entry j + 2**i is entry j XOR column i
        np.bitwise_xor(table[:, : 1 << i], lanes[:, i : i + 1], out=table[:, 1 << i : 2 << i])
    return table


def codeword_weights(rows: Sequence[int], n: int) -> Iterator[np.ndarray]:
    """Yield weight(r.G) for r = 0 .. 2**k - 1 ascending, in chunks of
    2**min(k, _TABLE_BITS) entries of dtype np.min_scalar_type(n + 1):
    uint8 up to n = 254, uint16 above, so n + 1 fits too.  G is the k x n
    bit matrix with the given rows, and r.G is the XOR of the rows selected
    by the set bits of r.

    Rows are split into ceil(n/64) uint64 lanes.  The codewords of the low
    min(k, _TABLE_BITS) bits of r and those of the high bits are tabulated
    once each (_span_table).  Per high part u, the low table is XORed in
    place with the change in high codeword (that of u XOR that of u - 1),
    so it holds the codewords of the chunk, and is popcounted straight into
    a fresh chunk, lane counts summed in the chunk's dtype (exact: a weight
    is at most n).  The work is O(2**k * ceil(n/64)) 64-bit words.  The
    memory is the two tables, O((2**min(k, _TABLE_BITS) + 2**max(k -
    _TABLE_BITS, 0)) * ceil(n/64)) words, plus the chunk and one byte-wide
    lane count: no second table-sized buffer.
    """
    k, width = len(rows), max(-(-n // 64), 1)   # n = 0 still gets one all-zero lane
    lanes = np.array(
        [[(int(w) >> (64 * lane)) & ((1 << 64) - 1) for w in rows] for lane in range(width)],
        dtype=np.uint64,
    ).reshape(width, k)
    low = min(k, _TABLE_BITS)
    table, high = _span_table(lanes[:, :low]), _span_table(lanes[:, low:])
    dtype = np.min_scalar_type(n + 1)
    count = np.empty(1 << low, dtype=np.uint8)   # bitwise_count's own dtype
    for u in range(high.shape[1]):
        if u:   # table[:, v] = low codeword v XOR high codeword u
            table ^= (high[:, u] ^ high[:, u - 1])[:, None]
        chunk = np.empty(1 << low, dtype=dtype)
        np.bitwise_count(table[0], out=chunk)
        for lane in range(1, width):
            chunk += np.bitwise_count(table[lane], out=count)
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


def text_rows(
    d: int,
    blocks: Iterable[Sequence[np.ndarray]],
    bounds: Sequence[tuple[int, int]],
    *,
    lead: str = "",
    sep: str = ",",
) -> Iterator[str]:
    """Yield the rows lead + word_to_text(x, d) + sep + str(v_0[x]) + sep +
    str(v_1[x]) ... + "\n" for x = 0 .. 2**d - 1, one string per run of
    at most TEXT_ROWS rows.

    `blocks` yields, for consecutive runs of x, one integer array per
    column; each run's length is a power of two and its first x a multiple
    of it.  `bounds` holds each column's (lowest, highest) value, which
    fixes its digit cells and whether it needs a sign cell.

    The rows are written into one reused uint8 character table: the lead,
    d bit columns, then per column the separator, an optional sign cell
    and the digits right-aligned; unused sign and leading digit cells are
    dropped.  The low bit columns vary the same way in every run of table
    rows and are written once; a run rewrites its high bit columns, which
    are constant within it, and its value cells.
    """
    rows = min(TEXT_ROWS, 1 << d)
    low = rows.bit_length() - 1   # word bits that vary within a table
    row, cells = lead + "0" * d, []   # per column: its sign cell or None, first digit cell, digits
    for least, most in bounds:
        row += sep
        sign = len(row) if least < 0 else None
        row += "-" * (least < 0)
        digits = max(len(str(abs(least))), len(str(abs(most))))
        cells.append((sign, len(row), digits))
        row += "0" * digits
    row += "\n"
    table = np.empty((rows, len(row)), dtype=np.uint8)
    table[:] = np.frombuffer(row.encode("ascii"), np.uint8)
    for j in range(low):   # the column of bit j: runs of 2**j '0', then 2**j '1'
        table.reshape(-1, 2, 1 << j, len(row))[:, 1, :, len(lead) + d - 1 - j] = ord("1")
    droppable = any(sign is not None or digits > 1 for sign, _, digits in cells)
    keep = np.ones(table.shape, dtype=bool) if droppable else None
    x = 0
    for block in blocks:
        for lo in range(0, len(block[0]), rows):
            values = [column[lo : lo + rows] for column in block]
            part = slice(x % rows, x % rows + values[0].size)
            view = table[part]
            view[:, len(lead) : len(lead) + d - low] = np.frombuffer(
                f"{x:0{d}b}"[: d - low].encode("ascii"), np.uint8)
            for (sign, first, digits), value in zip(cells, values):
                rest = magnitude = value if sign is None else np.abs(value)
                for k in range(first + digits - 1, first, -1):   # right to left, then the leading one
                    rest, digit = np.divmod(rest, 10)
                    view[:, k] = digit + ord("0")
                view[:, first] = rest + ord("0")
                if keep is not None:
                    keep[part, first : first + digits - 1] = (
                        magnitude[:, None] >= 10 ** np.arange(digits - 1, 0, -1))
                    if sign is not None:
                        keep[part, sign] = value < 0
            x += values[0].size
            yield (view if keep is None else view[keep[part]]).tobytes().decode("ascii")
