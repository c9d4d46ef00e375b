"""CSR block-mapped SpMV — ``CSR,BM`` in the paper.

One workgroup (four wavefronts, 256 lanes) cooperatively processes one row,
combining partial sums through the LDS.  This is the schedule of choice for
matrices with very heavy rows, but the per-row workgroup launch and LDS
reduction overhead makes it expensive when rows are short, and the larger
workgroup footprint lowers occupancy.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.memory import INDEX_BYTES, VALUE_BYTES
from repro.gpu.simulator import LaunchSpec
from repro.kernels.base import (
    BLOCK_REDUCTION_CYCLES,
    CSR_NNZ_BYTES,
    CYCLES_PER_NONZERO,
    ROW_OVERHEAD_CYCLES,
    LaunchContext,
    SpmvKernel,
)
from repro.sparse.csr import CSRMatrix

#: Wavefronts per workgroup of the block-mapped kernel.
WAVES_PER_WORKGROUP = 4

#: Occupancy factor reflecting the LDS footprint of the block reduction.
BLOCK_OCCUPANCY = 0.75

#: Minimum DRAM traffic per row (one transaction per workgroup-owned row).
MIN_ROW_TRANSACTION_BYTES = 128.0


class CsrBlockMapped(SpmvKernel):
    """One row per workgroup over CSR."""

    name = "CSR,BM"
    sparse_format = "CSR"
    schedule = "Block Mapped"
    has_preprocessing = False
    bandwidth_utilization = 0.80

    def _launch_spec(self, matrix: CSRMatrix, context: LaunchContext) -> LaunchSpec:
        group_width = self.device.simd_width * WAVES_PER_WORKGROUP
        # A row's cost depends only on its length: one entry per distinct
        # length.  In place on the strip count; summands are integer-valued
        # doubles, so folding the constants matches the chained adds bit
        # for bit.
        lengths, counts = context.length_histogram
        workgroup_cycles = np.ceil(lengths / group_width)
        workgroup_cycles *= CYCLES_PER_NONZERO
        workgroup_cycles += BLOCK_REDUCTION_CYCLES + ROW_OVERHEAD_CYCLES
        stream_bytes = context.clamped_stream_bytes(
            CSR_NNZ_BYTES, MIN_ROW_TRANSACTION_BYTES
        )
        bytes_moved = (
            stream_bytes
            + (matrix.num_rows + 1) * INDEX_BYTES
            + matrix.num_rows * VALUE_BYTES
            + self._gather_bytes(matrix, matrix.nnz)
        )
        # Every wavefront of the workgroup is busy for the workgroup's
        # duration, so each row contributes WAVES_PER_WORKGROUP waves of the
        # same cost.
        return self._spec(
            workgroup_cycles,
            bytes_moved,
            occupancy_factor=BLOCK_OCCUPANCY,
            wave_counts=counts * WAVES_PER_WORKGROUP,
        )
