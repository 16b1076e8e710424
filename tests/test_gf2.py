import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from longhop import gf2

from conftest import parity, walsh, weight


def naive_parity(x):
    return bin(x).count("1") % 2


def naive_transform(values):
    """O(N^2) double-loop transform, the independent oracle for fwht."""
    n = len(values)
    out = []
    for r in range(n):
        acc = 0
        for x in range(n):
            acc += values[x] * (1 - 2 * naive_parity(r & x))
        out.append(acc)
    return out


class TestParityWeight:
    # the bit-count oracles of conftest, which other test modules compare against
    @pytest.mark.parametrize("x,expected", [(0, 0), (0b1011, 1), (0b0110, 0)])
    def test_parity_examples(self, x, expected):
        assert parity(x) == expected

    @pytest.mark.parametrize("x,expected", [(0, 0), (0b0100011, 3), (0b1111, 4)])
    def test_weight_examples(self, x, expected):
        assert weight(x) == expected

    def test_parity_xor_additive_exhaustive(self):
        # exhaustive over all 8-bit pairs
        for x in range(256):
            px = parity(x)
            for y in range(256):
                assert parity(x ^ y) == px ^ parity(y)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_weight_mod_two_is_parity(self, x):
        assert weight(x) % 2 == parity(x)


class TestWalsh:
    def test_zero_index_vanishes(self):
        assert all(walsh(0, x) == 0 for x in range(64))

    def test_examples(self):
        assert walsh(0b011, 0b101) == 1
        assert walsh(0b111, 0b110) == 0

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_symmetry(self, r, x):
        assert walsh(r, x) == walsh(x, r)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_index_additivity(self, r, s, x):
        assert walsh(r, x) ^ walsh(s, x) == walsh(r ^ s, x)

    def test_balanced_rows(self):
        # every nonzero index has equally many 0 and 1 values, d <= 10
        for d in range(1, 11):
            n = 1 << d
            for r in range(1, n):
                ones = sum(walsh(r, x) for x in range(n))
                assert ones == n // 2


class TestFwht:
    def test_all_ones(self):
        assert gf2.fwht([1] * 8).tolist() == [8, 0, 0, 0, 0, 0, 0, 0]

    def test_indicator_of_zero(self):
        v = [0] * 16
        v[0] = 1
        assert gf2.fwht(v).tolist() == [1] * 16

    @given(st.lists(st.integers(-50, 50), min_size=8, max_size=8))
    def test_involution_up_to_n(self, v):
        assert gf2.fwht(gf2.fwht(v)).tolist() == [8 * x for x in v]

    @pytest.mark.parametrize("d", [0, 1, 2, 4, 6, 8, 10])
    def test_matches_naive_oracle(self, d):
        rng = np.random.default_rng(d)
        v = rng.integers(-20, 20, size=1 << d).tolist()
        assert gf2.fwht(v).tolist() == naive_transform(v)

    @pytest.mark.parametrize("n", [0, 3, 6, 12])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            gf2.fwht([1] * n)

    def test_input_not_mutated(self):
        v = np.array([1, 2, 3, 4], dtype=np.int64)
        gf2.fwht(v)
        assert v.tolist() == [1, 2, 3, 4]


def xor_weights(rows):
    """weight(r.G) for every r, by XOR of the rows selected by r: the
    definition codeword_weights must match."""
    weights = []
    for r in range(1 << len(rows)):
        cw = 0
        for i, row in enumerate(rows):
            if r >> i & 1:
                cw ^= row
        weights.append(weight(cw))
    return weights


@st.composite
def bit_matrices(draw, max_k=10, max_n=150):
    """(rows, n): k = 1..max_k rows of n = 0..max_n bits, so 0-3 uint64
    lanes, with the lane boundaries and zero rows drawn often."""
    k = draw(st.integers(1, max_k))
    n = draw(st.one_of(st.integers(0, max_n), st.sampled_from([0, 63, 64, 65, 128])))
    row = st.one_of(st.integers(0, (1 << n) - 1), st.just(0))
    return draw(st.lists(row, min_size=k, max_size=k)), n


class TestCodewordWeights:
    @given(bit_matrices())
    def test_matches_xor_of_rows(self, case):
        rows, n = case
        chunks = list(gf2.codeword_weights(rows, n))
        assert {c.dtype for c in chunks} == {np.dtype(np.uint8)}   # n <= 254
        assert {c.size for c in chunks} == {1 << len(rows)}   # k <= 10: one chunk
        assert np.concatenate(chunks).tolist() == xor_weights(rows)

    @pytest.mark.parametrize("table_bits", [0, 1, 3])
    @given(bit_matrices(max_k=7))
    def test_table_sizes(self, table_bits, case):
        # a table narrower than k yields one chunk per high part of r
        rows, n = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "_TABLE_BITS", table_bits)
            chunks = list(gf2.codeword_weights(rows, n))
        assert {c.size for c in chunks} == {1 << min(len(rows), table_bits)}
        assert np.concatenate(chunks).tolist() == xor_weights(rows)

    @pytest.mark.parametrize("n,dtype", [
        (254, np.uint8), (255, np.uint16), (256, np.uint16), (300, np.uint16)])
    @pytest.mark.parametrize("table_bits", [3, 16])
    def test_wide_rows(self, monkeypatch, n, dtype, table_bits):
        # chunks hold n + 1: uint8 up to n = 254, then uint16; an all-ones
        # row puts weight n itself in the first chunk
        monkeypatch.setattr(gf2, "_TABLE_BITS", table_bits)
        rng = random.Random(n)
        rows = [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]
        chunks = list(gf2.codeword_weights(rows, n))
        assert {c.dtype for c in chunks} == {np.dtype(dtype)}
        assert np.concatenate(chunks).tolist() == xor_weights(rows)
        assert int(chunks[0].max()) == n

    @pytest.mark.parametrize("n", [64, 200])
    def test_consumer_holds_one_table_per_lane(self, n):
        # k = 20: the low table (one 2**16-word table per lane), the chunk
        # the consumer still holds, the next one and a byte-wide lane count;
        # no second 2**16-word buffer
        rng = random.Random(n)
        rows = [rng.getrandbits(n) for _ in range(20)]
        tracemalloc.start()
        try:
            for chunk in gf2.codeword_weights(rows, n):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lanes = -(-n // 64)
        assert peak < (lanes + 0.5) * (8 << gf2._TABLE_BITS)

    @pytest.mark.parametrize("table_bits", [1, 3])
    def test_chunks_are_fresh_arrays(self, monkeypatch, table_bits):
        # the table is XORed in place; each chunk owns its entries, so a
        # consumer that overwrites them (as cluster's masking does) changes
        # no later chunk
        monkeypatch.setattr(gf2, "_TABLE_BITS", table_bits)
        rng = random.Random(table_bits)
        rows = [rng.getrandbits(130) for _ in range(7)]
        weights = xor_weights(rows)
        lo = 0
        for chunk in gf2.codeword_weights(rows, 130):
            assert chunk.flags.owndata
            assert chunk.tolist() == weights[lo : lo + chunk.size]
            chunk[:] = 0
            lo += chunk.size
        assert lo == 1 << 7

    def test_k21_full_table(self):
        # rows 1, 2, 4, ... of 21 bits: weight(r.G) = weight(r), in 32 chunks of 2**16
        k = 21
        chunks = list(gf2.codeword_weights([1 << i for i in range(k)], k))
        assert [c.size for c in chunks] == [1 << 16] * 32
        weights = np.concatenate(chunks)
        assert (weights == np.bitwise_count(np.arange(1 << k, dtype=np.uint64))).all()


class TestTranspose:
    def test_example(self):
        # bit j of row i becomes bit i of column j
        assert gf2.transpose([0b101, 0b110], 3) == [0b01, 0b10, 0b11]

    @given(st.integers(1, 9).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=9))))
    def test_involution(self, case):
        width, words = case
        assert gf2.transpose(gf2.transpose(words, width), len(words)) == words


class TestRank:
    def test_examples(self):
        assert gf2.rank([1, 2, 4]) == 3
        assert gf2.rank([1, 2, 3]) == 2
        assert gf2.rank([0, 0]) == 0
        assert gf2.rank([7, 7]) == 1


class TestWordText:
    def test_msb_first(self):
        assert gf2.word_from_text("1101") == 13
        assert gf2.word_to_text(13, 4) == "1101"

    def test_round_trip(self):
        for v in range(32):
            assert gf2.word_from_text(gf2.word_to_text(v, 5)) == v

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            gf2.word_from_text("10x1")
        with pytest.raises(ValueError):
            gf2.word_to_text(16, 4)
