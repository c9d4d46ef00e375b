"""CSR warp-mapped (vector) SpMV — ``CSR,WM`` in the paper.

One wavefront cooperatively processes one row: the 64 lanes stride across
the row's nonzeros and combine their partial sums with a wavefront-wide
reduction.  Accesses are coalesced, long rows are handled gracefully, but
every row pays the reduction cost and rows shorter than the SIMD width leave
lanes idle — which is why the schedule collapses on matrices made of many
tiny rows.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.memory import INDEX_BYTES, VALUE_BYTES
from repro.gpu.simulator import LaunchSpec
from repro.kernels.base import (
    CSR_NNZ_BYTES,
    CYCLES_PER_NONZERO,
    ROW_OVERHEAD_CYCLES,
    WAVE_REDUCTION_CYCLES,
    LaunchContext,
    SpmvKernel,
)
from repro.sparse.csr import CSRMatrix

#: Extra per-row bookkeeping of the vector kernel: offset loads, lane
#: predication, output write, and the wavefront dispatch itself.  This is the
#: cost that makes the schedule collapse on matrices made of millions of tiny
#: rows.
PER_ROW_BOOKKEEPING_CYCLES = 36.0

#: Minimum DRAM traffic per row: the wavefront's loads for one row are one
#: transaction, so a row shorter than a cache line still moves a full line
#: of values and a full line of column indices.
MIN_ROW_TRANSACTION_BYTES = 128.0


class CsrWarpMapped(SpmvKernel):
    """One row per wavefront over CSR."""

    name = "CSR,WM"
    sparse_format = "CSR"
    schedule = "Warp Mapped"
    has_preprocessing = False
    bandwidth_utilization = 0.80

    def _launch_spec(self, matrix: CSRMatrix, context: LaunchContext) -> LaunchSpec:
        # One wavefront per row, and a row's cost depends only on its length:
        # evaluate each distinct length once and weight it by its row count.
        # Computed in place on the strip count; the summands stay exact
        # (strip counts and cycle constants are integer-valued doubles), so
        # folding the constants matches the chained adds bit for bit.
        lengths, counts = context.length_histogram
        wavefront_cycles = np.ceil(lengths / self.device.simd_width)
        wavefront_cycles *= CYCLES_PER_NONZERO
        wavefront_cycles += (
            WAVE_REDUCTION_CYCLES + ROW_OVERHEAD_CYCLES + PER_ROW_BOOKKEEPING_CYCLES
        )
        stream_bytes = context.clamped_stream_bytes(
            CSR_NNZ_BYTES, MIN_ROW_TRANSACTION_BYTES
        )
        bytes_moved = (
            stream_bytes
            + (matrix.num_rows + 1) * INDEX_BYTES
            + matrix.num_rows * VALUE_BYTES
            + self._gather_bytes(matrix, matrix.nnz)
        )
        return self._spec(wavefront_cycles, bytes_moved, wave_counts=counts)
