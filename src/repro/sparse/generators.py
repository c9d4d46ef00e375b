"""Synthetic sparse-matrix generators.

The real evaluation of the paper runs over the SuiteSparse Matrix Collection.
That collection is not available offline, so these generators produce
matrices spanning the same *structural* axes the Seer predictor exploits:

* near-uniform row lengths (FEM meshes, banded stencils) — ELL and
  thread-mapped kernels shine here;
* power-law row lengths (web/social graphs) — warp/block-mapped and
  work-oriented kernels shine here;
* long-tail rows (a handful of extremely heavy rows) — block-mapped and
  merge-path kernels shine here;
* very small or very sparse matrices — launch overhead and feature-collection
  cost dominate;
* matrices with many empty rows — row-mapped schedules waste lanes.

All generators are deterministic given a ``numpy.random.Generator`` or an
integer seed, so the collection, the benchmarks and the trained models are
reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix, RowRuns, uniform_values


def _as_rng(rng) -> np.random.Generator:
    """Accept either a Generator or an integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def matrix_from_row_lengths(
    row_lengths: np.ndarray, num_cols: int, rng=0
) -> CSRMatrix:
    """Build a CSR matrix with the requested per-row nonzero counts.

    Column indices are laid out as a strided run starting at a random
    position per row, which guarantees uniqueness within a row while staying
    fully vectorized (the per-row rejection sampling of
    :meth:`CSRMatrix.from_row_lengths` is too slow for collection-sized
    matrices).  The runs are kept as a :class:`~repro.sparse.csr.RowRuns`
    recipe, expanded only when something reads ``col_indices``.
    """
    rng = _as_rng(rng)
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    row_lengths = np.minimum(row_lengths, num_cols)
    num_rows = row_lengths.shape[0]
    row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    row_offsets[1:] = np.cumsum(row_lengths)
    nnz = int(row_offsets[-1])
    if nnz == 0:
        return CSRMatrix(
            num_rows=num_rows,
            num_cols=num_cols,
            row_offsets=row_offsets,
            col_indices=np.empty(0, dtype=np.int64),
            values=np.empty(0, dtype=np.float64),
        )
    starts = rng.integers(0, num_cols, size=num_rows)
    # Strides are 1 + draw % cap, cap = max(1, (num_cols - 1) // max(length, 1)),
    # so that (length - 1) * stride < num_cols: a run may wrap past
    # num_cols, but never far enough to repeat a column.  A draw from
    # [0, 8) is its own remainder under any cap of at least 8, so only the
    # rows with max(length, 1) > (num_cols - 1) // 8 divide.
    strides = rng.integers(0, 8, size=num_rows)
    capped = np.flatnonzero(np.maximum(row_lengths, 1) > (num_cols - 1) // 8)
    if capped.shape[0]:
        strides[capped] %= np.maximum(1, (num_cols - 1) // np.maximum(row_lengths[capped], 1))
    strides += 1
    return CSRMatrix(
        num_rows=num_rows,
        num_cols=num_cols,
        row_offsets=row_offsets,
        col_indices=RowRuns(starts=starts, strides=strides),
        values=uniform_values(rng, nnz),
    )


def _row_runs_matrix(num_rows, row_offsets, starts, rng) -> CSRMatrix:
    """Square matrix whose row ``i`` holds columns ``starts[i], starts[i] + 1, ...``."""
    return CSRMatrix(
        num_rows=num_rows,
        num_cols=num_rows,
        row_offsets=row_offsets,
        col_indices=RowRuns(starts=starts, strides=np.ones(num_rows, dtype=np.int64)),
        values=uniform_values(rng, int(row_offsets[-1])),
    )


def regular_matrix(num_rows: int, num_cols: int, row_length: int, rng=0) -> CSRMatrix:
    """Every row has exactly ``row_length`` nonzeros (ELL-friendly)."""
    row_lengths = np.full(num_rows, row_length, dtype=np.int64)
    return matrix_from_row_lengths(row_lengths, num_cols, rng)


def diagonal_matrix(num_rows: int, rng=0) -> CSRMatrix:
    """Square matrix with a single nonzero on each diagonal position."""
    rng = _as_rng(rng)
    row_offsets = np.arange(num_rows + 1, dtype=np.int64)
    return CSRMatrix(
        num_rows=num_rows,
        num_cols=num_rows,
        row_offsets=row_offsets,
        col_indices=np.arange(num_rows, dtype=np.int64),
        values=uniform_values(rng, num_rows),
    )


def banded_matrix(num_rows: int, bandwidth: int, rng=0) -> CSRMatrix:
    """Square banded matrix (stencil / FEM-like locality, near-uniform rows)."""
    rng = _as_rng(rng)
    half = max(bandwidth // 2, 0)
    rows = np.arange(num_rows, dtype=np.int64)
    starts = np.maximum(rows - half, 0)
    stops = np.minimum(rows + half + 1, num_rows)
    row_lengths = stops - starts
    row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    row_offsets[1:] = np.cumsum(row_lengths)
    return _row_runs_matrix(num_rows, row_offsets, starts, rng)


def uniform_random_matrix(
    num_rows: int, num_cols: int, density: float, rng=0
) -> CSRMatrix:
    """Erdos-Renyi style matrix: row lengths are binomial around the mean."""
    rng = _as_rng(rng)
    mean = density * num_cols
    row_lengths = rng.binomial(num_cols, min(max(density, 0.0), 1.0), size=num_rows)
    if mean >= 1 and row_lengths.max() == 0:
        row_lengths[rng.integers(0, num_rows)] = 1
    return matrix_from_row_lengths(row_lengths, num_cols, rng)


def power_law_matrix(
    num_rows: int,
    num_cols: int,
    avg_row_length: float,
    exponent: float = 2.1,
    rng=0,
    max_row_length: int = None,
) -> CSRMatrix:
    """Graph-like matrix whose row lengths follow a truncated power law.

    ``max_row_length`` caps the tail (hub rows); by default rows may grow up
    to the full matrix width, as the hubs of real web/social graphs do.
    """
    rng = _as_rng(rng)
    raw = rng.pareto(exponent - 1.0, size=num_rows) + 1.0
    raw = raw / raw.mean() * avg_row_length
    cap = num_cols if max_row_length is None else min(int(max_row_length), num_cols)
    row_lengths = np.minimum(np.maximum(raw.astype(np.int64), 0), cap)
    return matrix_from_row_lengths(row_lengths, num_cols, rng)


def skewed_matrix(
    num_rows: int,
    num_cols: int,
    base_row_length: int,
    heavy_rows: int,
    heavy_row_length: int,
    rng=0,
) -> CSRMatrix:
    """Mostly-light matrix with a handful of extremely heavy rows.

    This is the archetype that breaks thread-mapped schedules: the heavy rows
    become the slowest SIMD lanes while every other lane idles.
    """
    rng = _as_rng(rng)
    row_lengths = np.full(num_rows, base_row_length, dtype=np.int64)
    heavy_rows = min(heavy_rows, num_rows)
    if heavy_rows:
        heavy_ids = rng.choice(num_rows, size=heavy_rows, replace=False)
        row_lengths[heavy_ids] = min(heavy_row_length, num_cols)
    return matrix_from_row_lengths(row_lengths, num_cols, rng)


def block_diagonal_matrix(num_blocks: int, block_size: int, rng=0) -> CSRMatrix:
    """Dense blocks along the diagonal (circuit / multi-body structure)."""
    rng = _as_rng(rng)
    num_rows = num_blocks * block_size
    row_lengths = np.full(num_rows, block_size, dtype=np.int64)
    row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    row_offsets[1:] = np.cumsum(row_lengths)
    rows = np.arange(num_rows, dtype=np.int64)
    block_starts = (rows // block_size) * block_size
    return _row_runs_matrix(num_rows, row_offsets, block_starts, rng)


def road_network_matrix(num_rows: int, rng=0) -> CSRMatrix:
    """Road-network-like matrix: enormous row count, 2-4 nonzeros per row.

    The largest matrices of the SuiteSparse collection by row count are road
    networks and circuits with average degree barely above two.  They are the
    class that punishes schedules with per-row overheads (warp/block mapped)
    and per-row atomics (COO) while being trivial for thread-mapped and ELL
    kernels.
    """
    rng = _as_rng(rng)
    row_lengths = rng.integers(1, 5, size=num_rows).astype(np.int64)
    return matrix_from_row_lengths(row_lengths, num_rows, rng)


def variable_block_matrix(
    num_rows: int, min_block: int, max_block: int, rng=0
) -> CSRMatrix:
    """Dense diagonal blocks of varying size (stiffness-matrix structure).

    The varying block sizes give the matrix a moderate spread of row lengths:
    regular enough for row-mapped kernels, irregular enough that ELL pays a
    padding penalty — the structure of matrices like PWTK.
    """
    rng = _as_rng(rng)
    if min_block < 1 or max_block < min_block:
        raise ValueError("need 1 <= min_block <= max_block")
    block_sizes = []
    total = 0
    while total < num_rows:
        size = int(rng.integers(min_block, max_block + 1))
        size = min(size, num_rows - total)
        block_sizes.append(size)
        total += size
    sizes = np.array(block_sizes, dtype=np.int64)
    row_lengths = np.repeat(sizes, sizes)
    block_starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    row_offsets[1:] = np.cumsum(row_lengths)
    return _row_runs_matrix(num_rows, row_offsets, block_starts, rng)


def stencil_matrix(num_rows: int, points: int = 9, rng=0) -> CSRMatrix:
    """Finite-difference stencil on a square 2D grid (banded, near-uniform).

    ``points`` selects the classic 5-point (von Neumann) or 9-point (Moore)
    neighbourhood.  Rows in the grid interior all have exactly ``points``
    nonzeros; boundary rows are slightly shorter — the mild irregularity real
    mesh matrices show at domain edges.
    """
    if points not in (5, 9):
        raise ValueError("points must be 5 or 9")
    rng = _as_rng(rng)
    width = max(int(round(num_rows**0.5)), 3)
    if points == 5:
        neighbourhood = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    else:
        neighbourhood = [
            (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
        ]
    # Unflatten each row index into 2D grid coordinates so the
    # neighbourhood never wraps around a grid-row boundary: a left-edge
    # point has no left neighbour rather than coupling to the previous
    # grid row's right edge.
    rows = np.arange(num_rows, dtype=np.int64)
    grid_c = rows % width
    # Sort by flattened offset so columns come out ascending within a row.
    neighbourhood.sort(key=lambda pair: pair[0] * width + pair[1])
    offsets = np.array(
        [dr * width + dc for dr, dc in neighbourhood], dtype=np.int64
    )
    delta_c = np.array([dc for _, dc in neighbourhood], dtype=np.int64)
    cols = rows[:, None] + offsets[None, :]
    neighbour_c = grid_c[:, None] + delta_c[None, :]
    valid = (
        (cols >= 0)
        & (cols < num_rows)
        & (neighbour_c >= 0)
        & (neighbour_c < width)
    )
    row_lengths = valid.sum(axis=1).astype(np.int64)
    row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    row_offsets[1:] = np.cumsum(row_lengths)
    col_indices = cols[valid]
    return CSRMatrix(
        num_rows=num_rows,
        num_cols=num_rows,
        row_offsets=row_offsets,
        col_indices=col_indices,
        values=uniform_values(rng, int(row_offsets[-1])),
    )


def empty_row_heavy_matrix(
    num_rows: int,
    num_cols: int,
    empty_fraction: float,
    row_length: int,
    rng=0,
) -> CSRMatrix:
    """Matrix where a large fraction of rows hold no nonzeros at all."""
    rng = _as_rng(rng)
    row_lengths = np.full(num_rows, row_length, dtype=np.int64)
    num_empty = int(round(min(max(empty_fraction, 0.0), 1.0) * num_rows))
    if num_empty:
        empty_ids = rng.choice(num_rows, size=num_empty, replace=False)
        row_lengths[empty_ids] = 0
    return matrix_from_row_lengths(row_lengths, num_cols, rng)
