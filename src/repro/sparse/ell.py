"""ELLPACK (ELL) format.

ELL pads every row to the length of the longest row and stores the result as
dense ``num_rows x max_row_length`` column-index and value arrays.  The
regular layout maps perfectly to SIMD hardware when rows have similar
lengths, but wastes memory and compute when a few rows are much longer than
the rest — exactly the trade-off the ELL,TM kernel of the paper exposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.coo import COOMatrix, SparseFormatError
from repro.sparse.csr import CSRMatrix

#: Rows-to-average ratio beyond which ELL conversion is refused by default.
DEFAULT_MAX_PADDING_RATIO = 1024.0

#: Sentinel column index used for padding slots.
PADDING_COLUMN = -1


@dataclass
class ELLMatrix:
    """A sparse matrix in ELLPACK format.

    Attributes
    ----------
    num_rows, num_cols:
        Matrix dimensions.
    max_row_length:
        Width of the padded storage (length of the longest row).
    col_indices:
        ``(num_rows, max_row_length)`` array of column indices;
        :data:`PADDING_COLUMN` marks padding slots.
    values:
        ``(num_rows, max_row_length)`` array of values; padding slots are 0.
    """

    num_rows: int
    num_cols: int
    max_row_length: int
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.col_indices = np.asarray(self.col_indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.validate()

    @property
    def nnz(self) -> int:
        """Number of non-padding entries."""
        return int(np.count_nonzero(self.col_indices != PADDING_COLUMN))

    @property
    def padded_size(self) -> int:
        """Total number of storage slots including padding."""
        return self.num_rows * self.max_row_length

    @property
    def padding_ratio(self) -> float:
        """Padded slots divided by nonzeros (1.0 means no waste)."""
        nnz = self.nnz
        return float(self.padded_size) / nnz if nnz else float("inf")

    @property
    def shape(self) -> tuple:
        """``(num_rows, num_cols)``."""
        return (self.num_rows, self.num_cols)

    def validate(self) -> None:
        """Check structural invariants, raising :class:`SparseFormatError`."""
        expected = (self.num_rows, self.max_row_length)
        if self.col_indices.shape != expected or self.values.shape != expected:
            raise SparseFormatError(
                f"ELL arrays must have shape {expected}, got "
                f"{self.col_indices.shape} and {self.values.shape}"
            )
        stored = self.col_indices[self.col_indices != PADDING_COLUMN]
        if stored.size and (stored.min() < 0 or stored.max() >= self.num_cols):
            raise SparseFormatError("column index out of bounds")

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        csr: CSRMatrix,
        max_padding_ratio: float = DEFAULT_MAX_PADDING_RATIO,
    ) -> "ELLMatrix":
        """Convert a CSR matrix to ELL.

        Raises
        ------
        SparseFormatError
            If padding would exceed ``max_padding_ratio`` times the number of
            nonzeros (the conversion would be pathologically wasteful).
        """
        row_lengths = csr.row_lengths()
        width = csr.max_row_length
        padded = csr.num_rows * width
        if csr.nnz and padded > max_padding_ratio * csr.nnz:
            raise SparseFormatError(
                "ELL padding ratio "
                f"{padded / csr.nnz:.1f} exceeds limit {max_padding_ratio:.1f}"
            )
        col_indices = np.full((csr.num_rows, width), PADDING_COLUMN, dtype=np.int64)
        values = np.zeros((csr.num_rows, width), dtype=np.float64)
        if csr.nnz:
            row_ids = np.repeat(np.arange(csr.num_rows), row_lengths)
            slot_ids = np.arange(csr.nnz) - np.repeat(
                csr.row_offsets[:-1], row_lengths
            )
            col_indices[row_ids, slot_ids] = csr.col_indices
            values[row_ids, slot_ids] = csr.values
        return cls(
            num_rows=csr.num_rows,
            num_cols=csr.num_cols,
            max_row_length=width,
            col_indices=col_indices,
            values=values,
        )

    def to_csr(self) -> CSRMatrix:
        """Convert back to CSR (padding slots are dropped)."""
        mask = self.col_indices != PADDING_COLUMN
        rows, slots = np.nonzero(mask)
        coo = COOMatrix(
            num_rows=self.num_rows,
            num_cols=self.num_cols,
            rows=rows,
            cols=self.col_indices[rows, slots],
            values=self.values[rows, slots],
        )
        return CSRMatrix.from_coo(coo)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array."""
        return self.to_csr().to_dense()

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference sparse matrix-vector product ``y = A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.num_cols,):
            raise ValueError(
                f"vector has shape {x.shape}, expected ({self.num_cols},)"
            )
        if self.max_row_length == 0:
            return np.zeros(self.num_rows, dtype=np.float64)
        gather = np.where(
            self.col_indices == PADDING_COLUMN,
            0.0,
            x[np.maximum(self.col_indices, 0)],
        )
        return (self.values * gather).sum(axis=1)
