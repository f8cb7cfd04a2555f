"""Tests for Gaussian elimination, solving and inversion over GF(2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg import (
    BitMatrix,
    gf2_inverse,
    gf2_null_space,
    gf2_rank,
    gf2_rank_rows,
    gf2_row_reduce,
    gf2_solve,
)
from repro.linalg.solve import gf2_is_invertible


def random_matrix_strategy(max_dim=6):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda rows: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(min_value=0, max_value=1), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )


@st.composite
def selections(draw, max_rows=40, max_cols=70):
    """A random matrix (rows up to 70 bits, so packed rows cross 64 bits)
    plus a random row selection (repeats allowed) and column selection."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    values = draw(
        st.lists(st.integers(min_value=0, max_value=(1 << cols) - 1), min_size=rows, max_size=rows)
    )
    data = [[(value >> col) & 1 for col in range(cols)] for value in values]
    row_pick = draw(st.lists(st.integers(min_value=0, max_value=rows - 1), min_size=1, max_size=rows))
    col_pick = sorted(
        draw(st.sets(st.integers(min_value=0, max_value=cols - 1), min_size=1, max_size=cols))
    )
    return BitMatrix(data), row_pick, col_pick


class TestRank:
    def test_identity_full_rank(self):
        assert gf2_rank(BitMatrix.identity(5)) == 5

    def test_zero_matrix(self):
        assert gf2_rank(BitMatrix.zeros(3, 4)) == 0

    def test_duplicate_rows(self):
        assert gf2_rank(BitMatrix([[1, 1, 0], [1, 1, 0]])) == 1

    @given(data=random_matrix_strategy())
    @settings(max_examples=50)
    def test_rank_bounded_by_dimensions(self, data):
        m = BitMatrix(data)
        assert 0 <= gf2_rank(m) <= min(m.rows, m.cols)

    @given(case=selections())
    @settings(max_examples=150, deadline=None)
    def test_packed_rank_equals_submatrix_rank(self, case):
        matrix, row_pick, col_pick = case
        packed = matrix.packed_rows()
        assert [[(row >> col) & 1 for col in range(matrix.cols)] for row in packed] == (
            matrix.to_lists()
        )
        mask = sum(1 << col for col in col_pick)
        expected = gf2_rank(matrix.submatrix(row_pick, col_pick))
        assert gf2_rank_rows([packed[r] for r in row_pick], mask) == expected
        assert gf2_rank_rows(packed, (1 << matrix.cols) - 1) == gf2_rank(matrix)

    @given(data=random_matrix_strategy())
    @settings(max_examples=50)
    def test_rank_invariant_under_transpose(self, data):
        m = BitMatrix(data)
        assert gf2_rank(m) == gf2_rank(m.transpose())


def reference_rref(rows):
    """Textbook Gauss-Jordan elimination over GF(2) on a list of bit lists."""
    m = [list(row) for row in rows]
    cols = len(m[0]) if m else 0
    pivots = []
    top = 0
    for col in range(cols):
        found = next((r for r in range(top, len(m)) if m[r][col]), None)
        if found is None:
            continue
        m[top], m[found] = m[found], m[top]
        for r in range(len(m)):
            if r != top and m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[top])]
        pivots.append(col)
        top += 1
    return m, pivots


def random_bits(rng, rows, cols, density=0.5, zero_prefix=0):
    """Random rows whose first ``zero_prefix`` columns are all zero."""
    return [
        [int(c >= zero_prefix and rng.random() < density) for c in range(cols)] for _ in range(rows)
    ]


class TestRowReduce:
    def test_pivots_are_increasing(self):
        m = BitMatrix([[0, 1, 1], [1, 1, 0], [1, 0, 1]])
        _, pivots = gf2_row_reduce(m)
        assert pivots == sorted(pivots)

    def test_reduced_rows_have_unit_pivots(self):
        m = BitMatrix([[1, 1], [1, 0]])
        reduced, pivots = gf2_row_reduce(m)
        for row_index, col in enumerate(pivots):
            assert reduced.data[row_index, col] == 1
            # The pivot column is zero everywhere else.
            assert sum(reduced.column(col)) == 1

    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=70),
        density=st.sampled_from([0.05, 0.5, 0.95]),
        zero_prefix=st.integers(min_value=0, max_value=69),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_elimination(self, rows, cols, density, zero_prefix, seed):
        """Rows wider than 64 bits cross the packed-int word boundary, and a
        zero column prefix pushes pivots past it."""
        import random

        data = random_bits(random.Random(seed), rows, cols, density, zero_prefix)
        reduced, pivots = gf2_row_reduce(BitMatrix(data))
        expected, expected_pivots = reference_rref(data)
        assert pivots == expected_pivots
        assert reduced.to_lists() == expected


class TestSolve:
    def test_simple_system(self):
        # x0 ^ x1 = 1, x1 = 1  ->  x0 = 0, x1 = 1
        matrix = BitMatrix([[1, 1], [0, 1]])
        assert gf2_solve(matrix, [1, 1]) == [0, 1]

    def test_inconsistent_system(self):
        matrix = BitMatrix([[1, 1], [1, 1]])
        assert gf2_solve(matrix, [0, 1]) is None

    def test_underdetermined_system_returns_some_solution(self):
        matrix = BitMatrix([[1, 1, 0]])
        solution = gf2_solve(matrix, [1])
        assert solution is not None
        assert matrix.multiply_vector(solution) == [1]

    def test_rhs_length_check(self):
        with pytest.raises(ValueError):
            gf2_solve(BitMatrix.identity(2), [1])

    @given(data=random_matrix_strategy(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60)
    def test_solution_of_consistent_system_verifies(self, data, seed):
        import random

        matrix = BitMatrix(data)
        rng = random.Random(seed)
        x = [rng.randint(0, 1) for _ in range(matrix.cols)]
        rhs = matrix.multiply_vector(x)
        solution = gf2_solve(matrix, rhs)
        assert solution is not None
        assert matrix.multiply_vector(solution) == rhs


class TestInverse:
    def test_identity_inverse(self):
        assert gf2_inverse(BitMatrix.identity(4)) == BitMatrix.identity(4)

    def test_known_inverse(self):
        m = BitMatrix([[1, 1], [0, 1]])
        inverse = gf2_inverse(m)
        assert inverse is not None
        assert (m @ inverse) == BitMatrix.identity(2)

    def test_singular_returns_none(self):
        assert gf2_inverse(BitMatrix([[1, 1], [1, 1]])) is None

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            gf2_inverse(BitMatrix.zeros(2, 3))

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_random_32x32_inverse(self, seed):
        import random

        rng = random.Random(seed)
        size = 32
        # A row permutation of unit lower times unit upper triangular is
        # always invertible, and the permutation forces row swaps.
        lower = [[1 if i == j else (rng.randint(0, 1) if j < i else 0) for j in range(size)] for i in range(size)]
        upper = [[1 if i == j else (rng.randint(0, 1) if j > i else 0) for j in range(size)] for i in range(size)]
        rows = (BitMatrix(lower) @ BitMatrix(upper)).to_lists()
        rng.shuffle(rows)
        m = BitMatrix(rows)
        inverse = gf2_inverse(m)
        assert inverse is not None
        assert inverse @ m == BitMatrix.identity(size)

    def test_is_invertible_helper(self):
        assert gf2_is_invertible(BitMatrix.identity(3))
        assert not gf2_is_invertible(BitMatrix.zeros(3, 3))
        assert not gf2_is_invertible(BitMatrix.zeros(2, 3))


class TestNullSpace:
    def test_full_rank_square_has_trivial_null_space(self):
        assert gf2_null_space(BitMatrix.identity(3)) == []

    def test_null_space_vectors_map_to_zero(self):
        m = BitMatrix([[1, 1, 0], [0, 0, 1]])
        basis = gf2_null_space(m)
        assert len(basis) == 1
        for vector in basis:
            assert all(v == 0 for v in m.multiply_vector(vector))

    def test_null_space_dimension(self):
        m = BitMatrix([[1, 1, 1, 1]])
        assert len(gf2_null_space(m)) == 3
