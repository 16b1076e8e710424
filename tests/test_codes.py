import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from longhop import codes, gf2
from longhop.codes import GeneratorMatrix

from conftest import HAMMING_ROWS, random_full_rank_generator, random_invertible


def all_codewords(g):
    return [codes.encode(g, x) for x in range(1 << g.k)]


def oracle_min_distance(g):
    """Exhaust all 2**k - 1 nonzero messages with a Gray-code incremental
    XOR; independent of the table-and-popcount engine behind min_distance."""
    best = g.n + 1
    cw = 0
    for idx in range(1, 1 << g.k):
        # bit flipped between successive Gray codes = lowest set bit of idx
        cw ^= g.rows[(idx & -idx).bit_length() - 1]
        best = min(best, cw.bit_count())
    return best


@st.composite
def generators_with_repeats(draw):
    """Full-rank k x n generators, k = 1..9, whose columns may be zero or
    repeated; unit columns missing from the span are appended."""
    k = draw(st.integers(1, 9))
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=3 * k))
    cols += draw(st.lists(st.sampled_from(cols), max_size=4)) if cols else []
    for i in range(k):
        if gf2.rank(cols + [1 << i]) > gf2.rank(cols):
            cols.append(1 << i)
    rows = [sum(((c >> i) & 1) << s for s, c in enumerate(cols)) for i in range(k)]
    return GeneratorMatrix(k=k, n=len(cols), rows=tuple(rows))


class TestEncode:
    def test_hamming_reference_word(self, hamming):
        msg = codes.vector_from_text("0011")
        assert codes.vector_to_text(codes.encode(hamming, msg), 7) == "0100011"

    def test_zero_message(self, hamming):
        assert codes.encode(hamming, 0) == 0

    def test_single_row_selection(self, hamming):
        msg = codes.vector_from_text("1000")
        assert codes.vector_to_text(codes.encode(hamming, msg), 7) == "1101000"

    def test_message_length_checked(self, hamming):
        with pytest.raises(ValueError):
            codes.encode(hamming, 1 << 4)

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_linearity(self, hamming, x1, x2):
        lhs = codes.encode(hamming, x1) ^ codes.encode(hamming, x2)
        assert lhs == codes.encode(hamming, x1 ^ x2)

    def test_linearity_random_sizes(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randint(1, 12)
            n = rng.randint(k, 24)
            g = random_full_rank_generator(rng, k, n)
            x1, x2 = rng.getrandbits(k), rng.getrandbits(k)
            assert codes.encode(g, x1) ^ codes.encode(g, x2) == codes.encode(g, x1 ^ x2)


class TestMinDistance:
    def test_hamming(self, hamming):
        assert codes.min_distance(hamming) == 3

    def test_repetition(self):
        for n in (1, 3, 8):
            g = GeneratorMatrix(k=1, n=n, rows=((1 << n) - 1,))
            assert codes.min_distance(g) == n

    def test_identity(self):
        g = GeneratorMatrix(k=5, n=5, rows=tuple(1 << i for i in range(5)))
        assert codes.min_distance(g) == 1

    def test_refuses_beyond_limit(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the codeword weights were enumerated")

        monkeypatch.setattr(gf2, "codeword_weights", no_work)
        g = GeneratorMatrix(k=33, n=33, rows=tuple(1 << i for i in range(33)))
        with pytest.raises(ValueError, match="k=33 exceeds the exhaustive-search cap 32"):
            codes.min_distance(g)

    @pytest.mark.parametrize("table_bits", [0, 1, 3, 20])
    @given(generators_with_repeats())
    def test_matches_gray_code_oracle(self, table_bits, g):
        # table_bits < k makes min_distance reduce several gf2.codeword_weights chunks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf2, "_TABLE_BITS", table_bits)
            assert codes.min_distance(g) == oracle_min_distance(g)

    def test_k24_multi_chunk(self):
        # G = [I | I]: every nonzero message has weight 2 * weight(u), so d = 2;
        # k = 24 spans 256 chunks of 2**16 codeword weights
        k = 24
        g = GeneratorMatrix(k=k, n=2 * k, rows=tuple((1 << i) | (1 << (k + i)) for i in range(k)))
        assert codes.min_distance(g) == 2

    @pytest.mark.parametrize("table_bits", [3, 16])
    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_wide_codes(self, monkeypatch, table_bits, n):
        # n >= 255 makes the engine's chunks uint16
        monkeypatch.setattr(gf2, "_TABLE_BITS", table_bits)
        g = random_full_rank_generator(random.Random(n), 8, n)
        assert codes.min_distance(g) == oracle_min_distance(g)

    def test_distance_above_uint8(self):
        # two disjoint blocks of 300 ones: weights 300, 300 and 600
        block = (1 << 300) - 1
        g = GeneratorMatrix(k=2, n=600, rows=(block, block << 300))
        assert codes.min_distance(g) == 300

    @pytest.mark.parametrize("k,n", [(4, 9), (6, 14), (8, 17), (10, 20)])
    def test_equals_min_pairwise_distance(self, k, n):
        rng = random.Random(100 * k + n)
        g = random_full_rank_generator(rng, k, n)
        words = all_codewords(g)
        pairwise = min(
            (a ^ b).bit_count() for a, b in itertools.combinations(words, 2)
        )
        assert codes.min_distance(g) == pairwise


class TestChangeBasis:
    def test_invariance_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randint(2, 10)
            n = rng.randint(k, 20)
            g = random_full_rank_generator(rng, k, n)
            r = random_invertible(rng, k)
            g2 = codes.change_basis(g, r)
            # same code: identical codeword sets, identical distance
            assert set(all_codewords(g)) == set(all_codewords(g2))
            assert codes.min_distance(g) == codes.min_distance(g2)

    def test_rejects_singular_transform(self, hamming):
        with pytest.raises(ValueError, match="singular"):
            codes.change_basis(hamming, [1, 1, 4, 8])


class TestGeneratorMatrixValidation:
    def test_rejects_dependent_rows(self):
        with pytest.raises(ValueError, match="dependent"):
            GeneratorMatrix(k=2, n=3, rows=(0b101, 0b101))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(k=3, n=2, rows=(1, 2, 3))
        with pytest.raises(ValueError):
            GeneratorMatrix(k=2, n=4, rows=(1, 2, 3))

    def test_rejects_wide_rows(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(k=1, n=2, rows=(0b100,))


class TestFiles:
    def test_parse_reference_file(self, hamming):
        text = "# a comment\n" + "\n".join(HAMMING_ROWS) + "\n"
        g = codes.parse_generator(text)
        assert (g.k, g.n) == (4, 7)
        assert g == hamming

    def test_round_trip(self, hamming):
        assert codes.parse_generator(codes.emit_generator(hamming)) == hamming

    def test_ragged_rows_report_line(self):
        with pytest.raises(ValueError, match="line 3"):
            codes.parse_generator("101\n110\n10\n")

    def test_non_binary_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            codes.parse_generator("101\n1x1\n")

    def test_duplicate_rows_rank_error(self):
        with pytest.raises(ValueError, match="dependent"):
            codes.parse_generator("101\n101\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no matrix rows"):
            codes.parse_generator("# nothing here\n")


class TestVectorText:
    def test_position_one_is_leftmost(self):
        assert codes.vector_from_text("0100011") == 0b1100010
        assert codes.vector_to_text(0b1100010, 7) == "0100011"

    @given(st.integers(0, 2**12 - 1))
    def test_round_trip(self, v):
        assert codes.vector_from_text(codes.vector_to_text(v, 12)) == v
