"""Dense bit matrices over GF(2).

A :class:`BitMatrix` wraps a ``numpy`` array of ``uint8`` values restricted to
{0, 1}.  All arithmetic is performed modulo 2.  The class is deliberately
small and explicit: the SCFI pass only needs construction, multiplication,
stacking, rank computation and linear solving, and those operations dominate
neither runtime nor memory for the matrix sizes involved (at most a few
hundred rows).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

import numpy as np

IntVector = Sequence[int]


class BitMatrix:
    """A matrix over GF(2) backed by a ``numpy`` ``uint8`` array."""

    __slots__ = ("_data",)

    def __init__(self, data: Union[np.ndarray, Sequence[Sequence[int]]]):
        array = np.array(data, dtype=np.uint8, copy=True)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.ndim != 2:
            raise ValueError(f"BitMatrix requires 2-D data, got {array.ndim}-D")
        self._data = array & 1

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        """Return the all-zero matrix of the requested shape."""
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, size: int) -> "BitMatrix":
        """Return the ``size`` x ``size`` identity matrix."""
        return cls(np.eye(size, dtype=np.uint8))

    @classmethod
    def from_rows(cls, rows: Iterable[IntVector]) -> "BitMatrix":
        """Build a matrix from an iterable of equal-length bit rows."""
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("from_rows requires at least one row")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("all rows must have the same length")
        return cls(np.array(rows, dtype=np.uint8))

    @classmethod
    def from_int_columns(cls, columns: Sequence[int], rows: int) -> "BitMatrix":
        """Build a matrix whose columns are the little-endian bits of integers.

        ``columns[j]`` bit ``i`` becomes entry ``(i, j)``.  This is the layout
        used when lifting ring elements to their multiplication matrices.
        """
        data = np.zeros((rows, len(columns)), dtype=np.uint8)
        for j, value in enumerate(columns):
            for i in range(rows):
                data[i, j] = (value >> i) & 1
        return cls(data)

    @classmethod
    def column_vector(cls, bits: IntVector) -> "BitMatrix":
        """Return a single-column matrix from a bit sequence."""
        return cls(np.array(bits, dtype=np.uint8).reshape(-1, 1))

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying ``uint8`` array (do not mutate)."""
        return self._data

    @property
    def shape(self) -> tuple:
        return self._data.shape

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    def copy(self) -> "BitMatrix":
        return BitMatrix(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    def __hash__(self) -> int:
        return hash((self.shape, self._data.tobytes()))

    def __getitem__(self, key) -> Union[int, "BitMatrix"]:
        result = self._data[key]
        if np.isscalar(result) or result.ndim == 0:
            return int(result)
        if result.ndim == 1:
            return BitMatrix(result.reshape(1, -1))
        return BitMatrix(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BitMatrix({self._data.tolist()!r})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return BitMatrix(self._data ^ other._data)

    __xor__ = __add__

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape}: inner dimensions differ"
            )
        product = (self._data.astype(np.uint32) @ other._data.astype(np.uint32)) & 1
        return BitMatrix(product.astype(np.uint8))

    def multiply_vector(self, bits: IntVector) -> List[int]:
        """Multiply by a column vector of bits and return the result bits."""
        vector = np.array(list(bits), dtype=np.uint32)
        if vector.shape[0] != self.cols:
            raise ValueError(f"vector length {vector.shape[0]} != columns {self.cols}")
        result = (self._data.astype(np.uint32) @ vector) & 1
        return [int(v) for v in result]

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self._data.T)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def hstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack requires equal row counts")
        return BitMatrix(np.hstack([self._data, other._data]))

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("vstack requires equal column counts")
        return BitMatrix(np.vstack([self._data, other._data]))

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "BitMatrix":
        """Return the submatrix selected by the given row and column indices."""
        return BitMatrix(self._data[np.ix_(list(row_indices), list(col_indices))])

    def row(self, index: int) -> List[int]:
        return [int(v) for v in self._data[index]]

    def packed_rows(self) -> List[int]:
        """Every row as one Python int whose bit ``j`` is column ``j``."""
        packed = np.packbits(self._data, axis=1, bitorder="little")
        width = packed.shape[1]
        buffer = packed.tobytes()
        return [
            int.from_bytes(buffer[r * width : (r + 1) * width], "little") for r in range(self.rows)
        ]

    def column(self, index: int) -> List[int]:
        return [int(v) for v in self._data[:, index]]

    def is_zero(self) -> bool:
        return not bool(self._data.any())

    def weight(self) -> int:
        """Number of ones in the matrix."""
        return int(self._data.sum())

    def to_lists(self) -> List[List[int]]:
        return [[int(v) for v in row] for row in self._data]
