"""GF(2) linear algebra used throughout the SCFI tooling."""

from repro.linalg.bitmatrix import BitMatrix
from repro.linalg.solve import (
    gf2_rank,
    gf2_rank_rows,
    gf2_solve,
    gf2_inverse,
    gf2_null_space,
    gf2_row_reduce,
)

__all__ = [
    "BitMatrix",
    "gf2_rank",
    "gf2_rank_rows",
    "gf2_solve",
    "gf2_inverse",
    "gf2_null_space",
    "gf2_row_reduce",
]
