"""Tests for the MDS diffusion matrices."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mds import WordMatrix, candidate_matrices, circulant, default_mds_matrix, hadamard_like
from repro.fields import AES_POLY, SCFI_POLY, WordRing
from repro.linalg import gf2_rank

WORDS = st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=4)


@pytest.fixture(scope="module")
def ring():
    return WordRing(SCFI_POLY)


@pytest.fixture(scope="module")
def mds(ring):
    return default_mds_matrix(ring)


def reference_is_mds(matrix: WordMatrix) -> bool:
    """Every square block submatrix invertible, checked on copied submatrices."""
    width = matrix.ring.width
    bit_matrix = matrix.to_bit_matrix()
    indices = range(matrix.size)
    for order in range(1, matrix.size + 1):
        for rows in combinations(indices, order):
            row_bits = [r * width + i for r in rows for i in range(width)]
            for cols in combinations(indices, order):
                col_bits = [c * width + i for c in cols for i in range(width)]
                if gf2_rank(bit_matrix.submatrix(row_bits, col_bits)) != order * width:
                    return False
    return True


class TestConstructors:
    def test_circulant_structure(self, ring):
        m = circulant(ring, [1, 2, 3, 4])
        assert m.entries[0] == [1, 2, 3, 4]
        assert m.entries[1] == [4, 1, 2, 3]
        assert m.entries[3] == [2, 3, 4, 1]

    def test_hadamard_structure(self, ring):
        m = hadamard_like(ring, [1, 2, 3, 4])
        assert m.entries[0] == [1, 2, 3, 4]
        assert m.entries[1] == [2, 1, 4, 3]
        assert m.entries[2] == [3, 4, 1, 2]

    def test_hadamard_requires_power_of_two(self, ring):
        with pytest.raises(ValueError):
            hadamard_like(ring, [1, 2, 3])

    def test_non_square_rejected(self, ring):
        with pytest.raises(ValueError):
            WordMatrix(ring, [[1, 2], [3]])


class TestDefaultMatrix:
    def test_default_matrix_is_mds(self, mds):
        assert mds.is_mds()

    def test_default_matrix_cached(self, ring):
        assert default_mds_matrix(ring) is default_mds_matrix(ring)

    def test_default_matrix_for_aes_ring(self):
        matrix = default_mds_matrix(WordRing(AES_POLY))
        assert matrix.is_mds()

    def test_branch_number_is_five(self, mds):
        # MDS <=> branch number k + 1 = 5 for the 4x4 construction.
        assert mds.branch_number() == 5

    def test_identity_matrix_is_not_mds(self, ring):
        identity = WordMatrix(ring, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert not identity.is_mds()
        assert identity.branch_number() == 2

    @pytest.mark.parametrize("modulus", [SCFI_POLY, AES_POLY, 0x11D], ids=hex)
    def test_is_mds_matches_reference_on_every_candidate(self, modulus):
        verdicts = [
            (name, matrix.is_mds(), reference_is_mds(matrix))
            for name, matrix in candidate_matrices(WordRing(modulus))
        ]
        assert [(name, ours) for name, ours, _ in verdicts] == [
            (name, ref) for name, _, ref in verdicts
        ]
        assert {ours for _, ours, _ in verdicts} == {True, False}  # both verdicts occur

    def test_candidate_list_contains_an_mds_matrix(self, ring):
        assert any(matrix.is_mds() for _, matrix in candidate_matrices(ring))


class TestEvaluation:
    def test_apply_requires_four_words(self, mds):
        with pytest.raises(ValueError):
            mds.apply([1, 2, 3])

    def test_apply_zero_is_zero(self, mds):
        assert mds.apply([0, 0, 0, 0]) == [0, 0, 0, 0]

    @given(words=WORDS)
    @settings(max_examples=60)
    def test_bit_matrix_matches_word_arithmetic(self, words):
        matrix = default_mds_matrix(WordRing(SCFI_POLY))
        expected = matrix.apply(words)
        bits = []
        for word in words:
            bits.extend((word >> i) & 1 for i in range(8))
        output_bits = matrix.to_bit_matrix().multiply_vector(bits)
        observed = [
            sum(output_bits[w * 8 + i] << i for i in range(8)) for w in range(4)
        ]
        assert observed == expected

    @given(a=WORDS, b=WORDS)
    @settings(max_examples=40)
    def test_linearity(self, a, b):
        matrix = default_mds_matrix(WordRing(SCFI_POLY))
        combined = [x ^ y for x, y in zip(a, b)]
        lhs = matrix.apply(combined)
        rhs = [x ^ y for x, y in zip(matrix.apply(a), matrix.apply(b))]
        assert lhs == rhs

    @given(words=WORDS)
    @settings(max_examples=60)
    def test_avalanche_single_word(self, words):
        """A single active input word activates every output word (branch 5)."""
        matrix = default_mds_matrix(WordRing(SCFI_POLY))
        base = matrix.apply([0, 0, 0, 0])
        for position in range(4):
            if words[position] == 0:
                continue
            probe = [0, 0, 0, 0]
            probe[position] = words[position]
            output = matrix.apply(probe)
            active = sum(1 for b, o in zip(base, output) if b != o)
            assert active == 4

    def test_naive_xor_count_positive(self, mds):
        assert mds.naive_xor_count() > 32

    def test_equality(self, ring, mds):
        assert mds == default_mds_matrix(ring)
        assert mds != circulant(ring, [1, 1, 1, 1])
