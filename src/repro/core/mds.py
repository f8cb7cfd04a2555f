"""Maximum-distance-separable (MDS) word matrices for the diffusion layer.

The hardened next-state function of SCFI absorbs its input triple
``{S_Ce, X_e, Mod}`` through a linear diffusion ``D(L) = M . L`` where ``M`` is
a ``k x k`` matrix of ring elements (the paper uses ``k = 4`` words of 8 bits).
``M`` being MDS means every square block submatrix is invertible, which gives
the matrix a branch number of ``k + 1``: any non-zero input word pattern plus
its output pattern activates at least ``k + 1`` words.  That avalanche is what
turns a localised fault into a detectable corruption of the next state.

This module provides:

* :class:`WordMatrix` -- a matrix of ring elements with bit-matrix lifting,
  MDS verification and branch-number computation;
* constructors for circulant and Hadamard-like candidate matrices;
* :func:`default_mds_matrix` -- a deterministic search over a small candidate
  list that returns a verified-MDS matrix for the requested ring (the paper's
  ``X^8 + X^2 + 1`` ring by default).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.fields import WordRing, SCFI_POLY
from repro.linalg import BitMatrix, gf2_rank_rows


class WordMatrix:
    """A square matrix whose entries are elements of a :class:`WordRing`."""

    def __init__(self, ring: WordRing, entries: Sequence[Sequence[int]]):
        size = len(entries)
        for row in entries:
            if len(row) != size:
                raise ValueError("WordMatrix must be square")
        self.ring = ring
        self.entries: List[List[int]] = [[int(e) for e in row] for row in entries]
        self.size = size

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def apply(self, words: Sequence[int]) -> List[int]:
        """Multiply the matrix by a vector of words."""
        if len(words) != self.size:
            raise ValueError(f"expected {self.size} words, got {len(words)}")
        result = []
        for row in self.entries:
            acc = 0
            for coeff, word in zip(row, words):
                acc ^= self.ring.mul(coeff, word)
            result.append(acc)
        return result

    def to_bit_matrix(self) -> BitMatrix:
        """Lift to the ``(size*w) x (size*w)`` bit matrix acting on word bits.

        Word ``j`` occupies bit columns ``[j*w, (j+1)*w)`` (little-endian bits
        within a word); output word ``i`` occupies the matching rows.
        """
        width = self.ring.width
        block_rows = []
        for row in self.entries:
            blocks = [self.ring.element_matrix(coeff) for coeff in row]
            stacked = blocks[0]
            for block in blocks[1:]:
                stacked = stacked.hstack(block)
            block_rows.append(stacked)
        full = block_rows[0]
        for block_row in block_rows[1:]:
            full = full.vstack(block_row)
        expected = self.size * width
        assert full.shape == (expected, expected)
        return full

    # ------------------------------------------------------------------
    # MDS verification
    # ------------------------------------------------------------------
    def is_mds(self) -> bool:
        """Check that every square block submatrix is invertible over GF(2).

        For matrices over a commutative ring this is the standard criterion
        for the linear code ``[x, Mx]`` being MDS, i.e. branch number
        ``size + 1``.
        """
        width = self.ring.width
        packed = self.to_bit_matrix().packed_rows()
        word_mask = (1 << width) - 1
        indices = range(self.size)
        for order in range(1, self.size + 1):
            for rows in combinations(indices, order):
                selected = [packed[r * width + i] for r in rows for i in range(width)]
                for cols in combinations(indices, order):
                    col_mask = sum(word_mask << (c * width) for c in cols)
                    if gf2_rank_rows(selected, col_mask) != order * width:
                        return False
        return True

    def branch_number(self) -> int:
        """Differential branch number ``min(wt(x) + wt(Mx))`` over non-zero x.

        The word-level weight ``wt`` counts non-zero words.  For a ``k x k``
        MDS matrix the result is ``k + 1``.  The search space is restricted to
        inputs with a single non-zero word, which is sufficient to witness
        any branch-number deficiency of small matrices and keeps the check
        cheap (the full space of a 32-bit block is 2^32).
        """
        width = self.ring.width
        best = self.size + 1
        nonzero_words = range(1, 1 << width)
        # Single active input word.
        for position in range(self.size):
            for value in nonzero_words:
                words = [0] * self.size
                words[position] = value
                output = self.apply(words)
                weight = 1 + sum(1 for w in output if w)
                if weight < best:
                    best = weight
                if best <= 2:
                    return best
        return best

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def naive_xor_count(self) -> int:
        """XOR2 count of a naive bit-level realisation (one XOR tree per row)."""
        bit_matrix = self.to_bit_matrix()
        count = 0
        for i in range(bit_matrix.rows):
            weight = sum(bit_matrix.row(i))
            if weight > 1:
                count += weight - 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"WordMatrix(size={self.size}, entries={self.entries!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordMatrix):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def circulant(ring: WordRing, first_row: Sequence[int]) -> WordMatrix:
    """Circulant matrix whose first row is ``first_row``."""
    size = len(first_row)
    rows = []
    for i in range(size):
        rows.append([first_row[(j - i) % size] for j in range(size)])
    return WordMatrix(ring, rows)


def hadamard_like(ring: WordRing, first_row: Sequence[int]) -> WordMatrix:
    """Hadamard-type matrix: entry (i, j) = first_row[i XOR j]."""
    size = len(first_row)
    if size & (size - 1):
        raise ValueError("hadamard_like requires a power-of-two size")
    rows = []
    for i in range(size):
        rows.append([first_row[i ^ j] for j in range(size)])
    return WordMatrix(ring, rows)


def candidate_matrices(ring: WordRing, size: int = 4) -> Iterable[Tuple[str, WordMatrix]]:
    """A deterministic list of lightweight candidate matrices to test for MDS.

    The candidates follow the shapes used in lightweight cryptography
    (circulants and Hadamard matrices with entries in {1, alpha, alpha^-1,
    alpha+1, alpha^2}); the first verified-MDS candidate becomes the default
    diffusion matrix, mirroring the paper's statement that the matrix choice
    is interchangeable.
    """
    alpha = ring.alpha
    alpha2 = ring.mul(alpha, alpha)
    one = 1
    a1 = alpha ^ 1  # alpha + 1
    rows = [
        ("circ(alpha, alpha+1, 1, 1)", [alpha, a1, one, one]),
        ("circ(1, 1, alpha, alpha+1)", [one, one, alpha, a1]),
        ("circ(alpha, 1, 1, alpha+1)", [alpha, one, one, a1]),
        ("circ(alpha^2, alpha+1, 1, alpha)", [alpha2, a1, one, alpha]),
        ("circ(alpha, alpha^2, 1, 1)", [alpha, alpha2, one, one]),
    ]
    for name, row in rows:
        if len(row) == size:
            yield name, circulant(ring, row)
    hadamards = [
        ("had(1, alpha, alpha+1, alpha^2)", [one, alpha, a1, alpha2]),
        ("had(alpha, 1, alpha^2, alpha+1)", [alpha, one, alpha2, a1]),
    ]
    for name, row in hadamards:
        if len(row) == size:
            yield name, hadamard_like(ring, row)


_DEFAULT_CACHE: dict = {}


def default_mds_matrix(ring: Optional[WordRing] = None, size: int = 4) -> WordMatrix:
    """Return a verified MDS matrix for ``ring`` (the SCFI ring by default).

    The search over :func:`candidate_matrices` is deterministic, so every run
    picks the same matrix for the same ring.  Raises ``ValueError`` when no
    candidate verifies, which would indicate an unsupported ring.
    """
    ring = ring or WordRing(SCFI_POLY)
    key = (ring.modulus, size)
    if key in _DEFAULT_CACHE:
        return _DEFAULT_CACHE[key]
    for _, matrix in candidate_matrices(ring, size):
        if matrix.is_mds():
            _DEFAULT_CACHE[key] = matrix
            return matrix
    raise ValueError(
        f"no MDS candidate found for ring with modulus {ring.modulus:#x} and size {size}"
    )
