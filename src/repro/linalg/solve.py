"""Gaussian elimination, solving and inversion over GF(2)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.bitmatrix import BitMatrix


def gf2_row_reduce(matrix: BitMatrix) -> Tuple[BitMatrix, List[int]]:
    """Return the reduced row echelon form of ``matrix`` and its pivot columns.

    Each row is packed into one Python int (bit ``j`` is column ``j``) and
    Gauss-Jordan elimination runs as int ``&``/``^``: on the few-dozen-bit
    matrices SCFI reduces, that beats paying numpy call overhead per step.
    The result is unpacked once at the end.
    """
    rows, cols = matrix.shape
    data = matrix.packed_rows()
    pivots: List[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        bit = 1 << col
        swap = next((r for r in range(pivot_row, rows) if data[r] & bit), None)
        if swap is None:
            continue
        data[pivot_row], data[swap] = data[swap], data[pivot_row]
        pivot = data[pivot_row]
        # Eliminate this column from every other row.
        for r in range(rows):
            if r != pivot_row and data[r] & bit:
                data[r] ^= pivot
        pivots.append(col)
        pivot_row += 1
    width = (cols + 7) // 8
    buffer = b"".join(row.to_bytes(width, "little") for row in data)
    bits = np.frombuffer(buffer, dtype=np.uint8).reshape(rows, width)
    return BitMatrix(np.unpackbits(bits, axis=1, count=cols, bitorder="little")), pivots


def gf2_rank(matrix: BitMatrix) -> int:
    """Rank of ``matrix`` over GF(2)."""
    _, pivots = gf2_row_reduce(matrix)
    return len(pivots)


def gf2_rank_rows(rows: Iterable[int], mask: int) -> int:
    """Rank over GF(2) of packed rows restricted to the columns in ``mask``.

    Each row is an int whose bit ``j`` is column ``j``
    (:meth:`BitMatrix.packed_rows`), and ``mask`` selects the columns, so
    ``gf2_rank_rows([packed[r] for r in rows], mask)`` equals
    ``gf2_rank(matrix.submatrix(rows, cols))`` for the columns set in ``mask``
    without building the submatrix.  Each row is reduced by the basis row
    owning its top bit until it either vanishes or claims a new top bit.
    """
    basis: Dict[int, int] = {}
    for row in rows:
        row &= mask
        while row:
            top = row.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                break
            row ^= pivot
    return len(basis)


def gf2_solve(matrix: BitMatrix, rhs: Sequence[int]) -> Optional[List[int]]:
    """Solve ``matrix @ x = rhs`` over GF(2).

    Returns one solution (with free variables set to zero) or ``None`` when the
    system is inconsistent.
    """
    rhs_bits = [int(b) & 1 for b in rhs]
    if len(rhs_bits) != matrix.rows:
        raise ValueError(f"rhs length {len(rhs_bits)} != rows {matrix.rows}")
    augmented = matrix.hstack(BitMatrix.column_vector(rhs_bits))
    reduced, pivots = gf2_row_reduce(augmented)
    rhs_col = matrix.cols
    if rhs_col in pivots:
        return None  # A pivot in the RHS column means the system is inconsistent.
    solution = [0] * matrix.cols
    data = reduced.data
    for row_index, pivot_col in enumerate(pivots):
        solution[pivot_col] = int(data[row_index, rhs_col])
    return solution


def gf2_inverse(matrix: BitMatrix) -> Optional[BitMatrix]:
    """Return the inverse of a square matrix, or ``None`` if singular."""
    if matrix.rows != matrix.cols:
        raise ValueError("only square matrices can be inverted")
    size = matrix.rows
    augmented = matrix.hstack(BitMatrix.identity(size))
    reduced, pivots = gf2_row_reduce(augmented)
    if pivots[:size] != list(range(size)) or len(pivots) < size:
        return None
    return BitMatrix(reduced.data[:, size:])


def gf2_null_space(matrix: BitMatrix) -> List[List[int]]:
    """Return a basis of the null space of ``matrix`` over GF(2)."""
    reduced, pivots = gf2_row_reduce(matrix)
    cols = matrix.cols
    free_cols = [c for c in range(cols) if c not in pivots]
    basis: List[List[int]] = []
    data = reduced.data
    for free in free_cols:
        vector = [0] * cols
        vector[free] = 1
        for row_index, pivot_col in enumerate(pivots):
            vector[pivot_col] = int(data[row_index, free])
        basis.append(vector)
    return basis


def gf2_is_invertible(matrix: BitMatrix) -> bool:
    """Return ``True`` when the (square) matrix has full rank."""
    if matrix.rows != matrix.cols:
        return False
    return gf2_rank(matrix) == matrix.rows
