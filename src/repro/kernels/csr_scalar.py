"""CSR thread-mapped (scalar) SpMV — ``CSR,TM`` in the paper.

Each thread owns one row (Bell & Garland's CSR-scalar kernel).  A wavefront
therefore processes 64 consecutive rows in lockstep and is as slow as its
longest row.  Because each lane walks its own row, accesses to the value and
column-index arrays are *not* coalesced: consecutive lanes touch addresses a
full row apart, so a growing fraction of every cache line fetched is wasted
as rows get longer.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.simulator import LaunchSpec, exact_weighted_sum
from repro.kernels.base import (
    CSR_NNZ_BYTES,
    CYCLES_PER_NONZERO,
    ROW_OVERHEAD_CYCLES,
    LaunchContext,
    SpmvKernel,
)
from repro.gpu.memory import INDEX_BYTES, VALUE_BYTES
from repro.sparse.csr import CSRMatrix

#: Maximum waste factor for uncoalesced row-private streaming accesses.
MAX_COALESCING_PENALTY = 8.0


def uncoalesced_penalty(row_lengths: np.ndarray) -> np.ndarray:
    """Per-row waste factor for thread-private traversal of a CSR row.

    Rows of up to about four nonzeros still share cache lines with their
    neighbours and pay no penalty; longer rows waste progressively more of
    each fetched line, saturating at :data:`MAX_COALESCING_PENALTY`.
    """
    lengths = np.asarray(row_lengths, dtype=np.float64)
    return np.clip((lengths - 2.0) / 2.0, 1.0, MAX_COALESCING_PENALTY)


class CsrThreadMapped(SpmvKernel):
    """One row per thread over CSR."""

    name = "CSR,TM"
    sparse_format = "CSR"
    schedule = "Thread Mapped"
    has_preprocessing = False
    bandwidth_utilization = 0.90

    def _launch_spec(self, matrix: CSRMatrix, context: LaunchContext) -> LaunchSpec:
        # The per-lane cycle transform is monotone in the row length, so it
        # commutes with the wavefront max: transforming the shared grouped
        # maxima is bit-identical to group-reducing the transformed lanes
        # and touches a simd_width-times-smaller array.  (The grouping
        # depends on row order, so the cycles stay per row.)
        wavefront_cycles = (
            context.grouped_max(self.device.simd_width) * CYCLES_PER_NONZERO
            + ROW_OVERHEAD_CYCLES
        )
        # The stream bytes do not depend on row order: 12 * l * penalty(l)
        # is a multiple of 6 for integer l, so the histogram-weighted sum
        # is exact and equals the per-row sum.
        lengths, counts = context.length_histogram
        per_length = lengths * CSR_NNZ_BYTES * uncoalesced_penalty(lengths)
        stream_bytes = exact_weighted_sum(
            per_length, counts, f"{self.name} stream bytes"
        )
        bytes_moved = (
            stream_bytes
            + (matrix.num_rows + 1) * INDEX_BYTES
            + matrix.num_rows * VALUE_BYTES
            + self._gather_bytes(matrix, matrix.nnz)
        )
        return self._spec(wavefront_cycles, bytes_moved)
