"""Compressed Sparse Row (CSR) format.

CSR is the primary format of the SpMV case study: six of the eight kernel
variants in the paper (Table II) operate on CSR.  The format stores a
``row_offsets`` array of length ``num_rows + 1`` plus per-nonzero column
indices and values sorted by row.  A generated matrix may carry both of the
per-nonzero arrays as O(rows) recipes — :class:`RowRuns` for the columns,
:class:`DeferredValues` for the values — that expand on first access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.coo import COOMatrix, SparseFormatError

#: Stored values of generated matrices are drawn uniformly from this range,
#: so SpMV results are well-conditioned for comparisons.
VALUE_LOW, VALUE_HIGH = 0.5, 1.5

_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class DeferredValues:
    """A ``Generator(PCG64).uniform(0.5, 1.5, size)`` draw not yet taken.

    ``state`` is the full ``bit_generator.state`` dict the draw starts from;
    :meth:`draw` replays it bit-identically.  Seer's features and every
    kernel cost model read only the sparsity structure, so most generated
    matrices never need their values at all.
    """

    state: dict
    size: int

    @property
    def max_row_length(self) -> int:
        """Longest row's entry count (0 without rows or nonzeros)."""
        return self._max_row_length

    @property
    def shape(self) -> tuple:
        return (self.size,)

    def draw(self) -> np.ndarray:
        """The values the original generator would have produced."""
        rng = np.random.default_rng(0)
        rng.bit_generator.state = self.state
        return rng.uniform(VALUE_LOW, VALUE_HIGH, size=self.size)

    def to_words(self) -> np.ndarray:
        """The state as six ``uint64`` words (archive form)."""
        inner = self.state["state"]
        return np.array(
            [
                inner["state"] >> 64,
                inner["state"] & _UINT64_MASK,
                inner["inc"] >> 64,
                inner["inc"] & _UINT64_MASK,
                self.state["has_uint32"],
                self.state["uinteger"],
            ],
            dtype=np.uint64,
        )

    @classmethod
    def from_words(cls, words, size: int) -> "DeferredValues":
        """Inverse of :meth:`to_words`; raises :class:`SparseFormatError`."""
        words = np.asarray(words)
        if words.dtype != np.uint64 or words.shape != (6,):
            raise SparseFormatError(
                f"values_state must be 6 uint64 words, got {words.dtype} {words.shape}"
            )
        state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger = (int(w) for w in words)
        if has_uint32 not in (0, 1) or uinteger >> 32 or not inc_lo & 1:
            raise SparseFormatError("values_state is not a PCG64 state")
        return cls(
            state={
                "bit_generator": "PCG64",
                "state": {
                    "state": state_hi << 64 | state_lo,
                    "inc": inc_hi << 64 | inc_lo,
                },
                "has_uint32": has_uint32,
                "uinteger": uinteger,
            },
            size=size,
        )


def uniform_values(rng: np.random.Generator, size: int):
    """``rng.uniform(0.5, 1.5, size)``, deferred when the stream is PCG64.

    Either way ``rng`` ends in the state the eager draw leaves it in.  A
    PCG64 stream is skipped with ``advance``; any other bit generator draws
    eagerly.
    """
    bit_generator = rng.bit_generator
    if size == 0 or type(bit_generator) is not np.random.PCG64:
        return rng.uniform(VALUE_LOW, VALUE_HIGH, size=size)
    state = bit_generator.state
    bit_generator.advance(size)
    # advance() also clears the buffered 32-bit half-word, which a uniform
    # draw leaves in place; restore it so later integer draws match.
    after = bit_generator.state
    after["has_uint32"] = state["has_uint32"]
    after["uinteger"] = state["uinteger"]
    bit_generator.state = after
    return DeferredValues(state=state, size=size)


@dataclass(frozen=True, eq=False)
class RowRuns:
    """Column indices not yet expanded: one arithmetic run per row.

    Row ``i`` holds the columns ``(starts[i] + k * strides[i]) % num_cols``
    for ``k`` in ``range(row_length)``, the layout every run generator in
    :mod:`repro.sparse.generators` draws, in ascending order.  Seer's
    features and every SpMV cost model read only ``row_offsets``, so most
    generated matrices never expand the recipe: it costs two integers per
    row instead of one per nonzero.  Generators build int64 arrays; a
    loaded cache-tier container keeps its int32 arrays (stored only when
    ``num_cols`` fits int32) as views of the read buffer.
    """

    starts: np.ndarray
    strides: np.ndarray

    def expand(self, row_offsets: np.ndarray, num_cols: int) -> np.ndarray:
        """The int64 column indices of a matrix with these ``row_offsets``.

        A run that passes ``num_cols`` wraps to the front of its row, so it
        is emitted as its two ascending segments: the ``tail`` entries that
        wrapped, then the run from its start.  Sorted entry ``k`` of a row is
        run entry ``k - tail``, modulo the row length.
        """
        nnz = int(row_offsets[-1])
        if nnz == 0:
            return np.empty(0, dtype=np.int64)
        lengths = np.diff(row_offsets)
        # ceil((num_cols - starts) / strides) run entries stay below num_cols.
        # Runs are int32 only when num_cols fits int32, so starts - num_cols
        # cannot overflow; every per-nonzero product below is int64.
        fits = -((self.starts - num_cols) // self.strides)
        tail = np.maximum(lengths - fits, 0)
        cols = np.arange(nnz, dtype=np.int64)
        cols -= np.repeat(row_offsets[:-1] + tail, lengths)
        cols *= np.repeat(self.strides, lengths)
        cols += np.repeat(self.starts, lengths)
        # The first ``tail`` entries of a row are run entries
        # ``k - tail + length``, past num_cols before wrapping.
        wrapped = np.flatnonzero(tail)
        if wrapped.shape[0]:
            counts = tail[wrapped]
            heads = np.repeat(row_offsets[wrapped] - np.cumsum(counts) + counts, counts)
            heads += np.arange(heads.shape[0])
            cols[heads] += np.repeat(
                lengths[wrapped] * self.strides[wrapped] - num_cols, counts
            )
        return cols

    def validate(self, row_lengths: np.ndarray, num_cols: int) -> None:
        """Check the recipe in O(rows), raising :class:`SparseFormatError`.

        One run per row, ``0 <= starts < num_cols``, ``strides >= 1`` and
        ``(length - 1) * stride < num_cols``: together these keep every
        expanded column in bounds and unique within its row.
        """
        num_rows = row_lengths.shape[0]
        if self.starts.shape != (num_rows,) or self.strides.shape != (num_rows,):
            raise SparseFormatError(
                f"column runs must hold one start and one stride per row, got "
                f"{self.starts.shape} and {self.strides.shape} for {num_rows} rows"
            )
        if num_rows == 0:
            return
        if self.starts.min() < 0 or self.starts.max() >= num_cols:
            raise SparseFormatError("column run start out of bounds")
        if self.strides.min() < 1:
            raise SparseFormatError("column run strides must be positive")
        # (length - 1) * stride < num_cols, written so it cannot overflow.
        # Every row within the bound of the longest stride passes; only the
        # rows past it pay the per-row division.
        bound = (num_cols - 1) // int(self.strides.max())
        rows = np.flatnonzero(row_lengths > bound + 1)
        if rows.shape[0] and np.any(
            row_lengths[rows] - 1 > (num_cols - 1) // self.strides[rows].astype(np.int64)
        ):
            raise SparseFormatError("column run would repeat a column")


class CSRMatrix:
    """A sparse matrix in compressed-sparse-row format.

    Attributes
    ----------
    num_rows, num_cols:
        Matrix dimensions.
    row_offsets:
        Integer array of length ``num_rows + 1``; row ``i`` owns the nonzeros
        in ``[row_offsets[i], row_offsets[i + 1])``.
    col_indices:
        Column index of every stored entry (int64), grouped by row.  The
        constructor also accepts a :class:`RowRuns` recipe, expanded on
        first access, and keeps int32 columns (a loaded cache-tier
        container's view) as given, widened to int64 on first access.
    values:
        Stored values, aligned with ``col_indices``.  The constructor also
        accepts a :class:`DeferredValues` recipe, drawn on first access.

    The structure (dimensions, ``row_offsets`` and the columns) is immutable
    after construction: :meth:`validate` derives the row lengths and their
    maximum once, and every cost model and feature reads those.
    """

    def __init__(
        self,
        num_rows: int,
        num_cols: int,
        row_offsets: np.ndarray,
        col_indices,
        values,
    ) -> None:
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        # Run recipes and int32 columns stay as given until first read.
        narrow = isinstance(col_indices, np.ndarray) and col_indices.dtype == np.int32
        if not (narrow or isinstance(col_indices, RowRuns)):
            col_indices = np.asarray(col_indices, dtype=np.int64)
        self._col_indices = col_indices
        if not isinstance(values, DeferredValues):
            values = np.asarray(values, dtype=np.float64)
        self._values = values
        self.validate()

    @property
    def col_indices(self) -> np.ndarray:
        """Column index of every stored entry (int64), grouped by row."""
        columns = self._col_indices
        if isinstance(columns, RowRuns):
            columns = self._col_indices = columns.expand(self.row_offsets, self.num_cols)
        elif columns.dtype != np.int64:
            columns = self._col_indices = columns.astype(np.int64)
        return columns

    @property
    def column_runs(self):
        """The unexpanded :class:`RowRuns` recipe, or ``None``."""
        if isinstance(self._col_indices, RowRuns):
            return self._col_indices
        return None

    @property
    def values(self) -> np.ndarray:
        """Stored values, aligned with ``col_indices``."""
        if isinstance(self._values, DeferredValues):
            self._values = self._values.draw()
        return self._values

    @property
    def deferred_values(self):
        """The undrawn :class:`DeferredValues` recipe, or ``None``."""
        if isinstance(self._values, DeferredValues):
            return self._values
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.row_offsets[-1])

    @property
    def max_row_length(self) -> int:
        """Longest row's entry count (0 without rows or nonzeros)."""
        return self._max_row_length

    @property
    def shape(self) -> tuple:
        """``(num_rows, num_cols)``."""
        return (self.num_rows, self.num_cols)

    def validate(self) -> None:
        """Check structural invariants, raising :class:`SparseFormatError`.

        Explicit column arrays are checked entry by entry; a :class:`RowRuns`
        recipe is checked in O(rows) without expanding it.
        """
        if self.num_rows < 0 or self.num_cols < 0:
            raise SparseFormatError("matrix dimensions must be non-negative")
        if self.row_offsets.shape != (self.num_rows + 1,):
            raise SparseFormatError(
                "row_offsets must have length num_rows + 1, got "
                f"{self.row_offsets.shape[0]} for {self.num_rows} rows"
            )
        if self.row_offsets[0] != 0:
            raise SparseFormatError("row_offsets must start at 0")
        lengths = np.diff(self.row_offsets)
        if lengths.shape[0] and lengths.min() < 0:
            raise SparseFormatError("row_offsets must be non-decreasing")
        lengths.setflags(write=False)
        self._row_lengths = lengths
        self._max_row_length = int(lengths.max()) if lengths.shape[0] else 0
        if self._values.shape != (self.nnz,):
            raise SparseFormatError("values must hold one entry per nonzero")
        columns = self._col_indices
        if isinstance(columns, RowRuns):
            columns.validate(lengths, self.num_cols)
            return
        if columns.shape != (self.nnz,):
            raise SparseFormatError("row_offsets must end at nnz")
        if columns.shape[0]:
            if columns.min() < 0 or columns.max() >= self.num_cols:
                raise SparseFormatError("column index out of bounds")

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        """Convert from COO (duplicates are preserved, entries sorted by row)."""
        ordered = coo.sorted_by_row()
        row_offsets = np.zeros(coo.num_rows + 1, dtype=np.int64)
        counts = np.bincount(ordered.rows, minlength=coo.num_rows)
        row_offsets[1:] = np.cumsum(counts)
        return cls(
            num_rows=coo.num_rows,
            num_cols=coo.num_cols,
            row_offsets=row_offsets,
            col_indices=ordered.cols,
            values=ordered.values,
        )

    def to_coo(self) -> COOMatrix:
        """Convert to COO format."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.row_lengths())
        return COOMatrix(
            num_rows=self.num_rows,
            num_cols=self.num_cols,
            rows=rows,
            cols=self.col_indices.copy(),
            values=self.values.copy(),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a dense 2-D array (zeros dropped)."""
        return cls.from_coo(COOMatrix.from_dense(dense))

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array."""
        return self.to_coo().to_dense()

    @classmethod
    def from_row_lengths(
        cls,
        row_lengths: np.ndarray,
        num_cols: int,
        rng: np.random.Generator,
    ) -> "CSRMatrix":
        """Build a matrix with the given per-row nonzero counts.

        Column indices within each row are sampled without replacement from
        ``[0, num_cols)`` and sorted; values come from :func:`uniform_values`.
        """
        row_lengths = np.asarray(row_lengths, dtype=np.int64)
        if np.any(row_lengths < 0):
            raise SparseFormatError("row lengths must be non-negative")
        if np.any(row_lengths > num_cols):
            raise SparseFormatError("row length exceeds number of columns")
        num_rows = row_lengths.shape[0]
        row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
        row_offsets[1:] = np.cumsum(row_lengths)
        nnz = int(row_offsets[-1])
        col_indices = np.empty(nnz, dtype=np.int64)
        for row in range(num_rows):
            start, stop = row_offsets[row], row_offsets[row + 1]
            length = stop - start
            if length == 0:
                continue
            if length > num_cols // 2 and num_cols < 1 << 20:
                cols = rng.permutation(num_cols)[:length]
            else:
                # Sampling with replacement then deduplicating is much faster
                # for sparse rows; top up until the row is full.
                cols = np.unique(rng.integers(0, num_cols, size=int(length * 1.3) + 4))
                while cols.shape[0] < length:
                    extra = rng.integers(0, num_cols, size=length)
                    cols = np.unique(np.concatenate([cols, extra]))
                cols = rng.permutation(cols)[:length]
            col_indices[start:stop] = np.sort(cols)
        return cls(
            num_rows=num_rows,
            num_cols=num_cols,
            row_offsets=row_offsets,
            col_indices=col_indices,
            values=uniform_values(rng, nnz),
        )

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def row_lengths(self) -> np.ndarray:
        """Number of stored entries per row (read-only, computed once)."""
        return self._row_lengths

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference sparse matrix-vector product ``y = A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.num_cols,):
            raise ValueError(
                f"vector has shape {x.shape}, expected ({self.num_cols},)"
            )
        products = self.values * x[self.col_indices]
        y = np.add.reduceat(
            np.concatenate([products, [0.0]]),
            np.minimum(self.row_offsets[:-1], products.shape[0]),
        )
        # reduceat repeats the previous segment when a row is empty; zero them.
        y[self.row_lengths() == 0] = 0.0
        return y[: self.num_rows]

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a new CSR matrix."""
        coo = self.to_coo()
        flipped = COOMatrix(
            num_rows=self.num_cols,
            num_cols=self.num_rows,
            rows=coo.cols,
            cols=coo.rows,
            values=coo.values,
        )
        return CSRMatrix.from_coo(flipped)
