"""Adaptive-CSR SpMV — ``CSR,A`` — and the rocSPARSE-like variant.

Adaptive CSR (Daga & Greathouse, HiPC'15; the algorithm behind rocSPARSE's
CSR SpMV) bins rows by size during a sequential preprocessing pass: runs of
short rows are packed together so a whole workgroup streams them through the
LDS, medium rows get a wavefront each, and very long rows are split across
workgroups.  The result is near-ideal load balance and fully coalesced
traffic *per iteration*, paid for by the preprocessing pass — which is the
amortization trade-off the multi-iteration study (Fig. 7) revolves around.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.memory import INDEX_BYTES
from repro.gpu.simulator import LaunchSpec, group_reduce_sum
from repro.kernels.base import (
    CYCLES_PER_NONZERO,
    ROW_OVERHEAD_CYCLES,
    WAVE_REDUCTION_CYCLES,
    LaunchContext,
    SpmvKernel,
)
from repro.sparse.csr import CSRMatrix

#: Rows with at most this many nonzeros are packed into row blocks (LDS path).
SHORT_ROW_LIMIT = 256

#: Nonzeros each row block feeds to one wavefront of the stream path.
ROW_BLOCK_NNZ = 1024

#: Host operations per row of the sequential binning pass (a single linear
#: scan over the row offsets).
BINNING_OPS_PER_ROW = 1.0

#: Compute advantage of the hand-tuned vendor kernel (rocSPARSE).
VENDOR_CPN = 3.5


def adaptive_wave_work(sorted_lengths: np.ndarray, simd_width: int) -> tuple:
    """``(block_nnz / simd_width, strips)``: the adaptive kernels' wave work.

    ``sorted_lengths`` are the ascending row lengths; the short/long split
    is a binary search on them (two views) instead of two boolean-mask
    passes and copies.  Stream path: like-sized short rows are packed into
    blocks of roughly ROW_BLOCK_NNZ nonzeros; each block is one wavefront
    streaming through the LDS with negligible imbalance.  Vector path: long
    rows are split across wavefronts of ``simd_width`` nonzeros each.
    """
    split = int(np.searchsorted(sorted_lengths, SHORT_ROW_LIMIT, side="right"))
    short = sorted_lengths[:split]
    long = sorted_lengths[split:]
    block_strips = short
    if short.size:
        # How many sorted short rows fit in one ROW_BLOCK_NNZ-sized block.
        rows_per_block = max(1, int(ROW_BLOCK_NNZ / max(float(short.mean()), 1.0)))
        block_strips = group_reduce_sum(short, rows_per_block) / simd_width
    return block_strips, np.ceil(long / simd_width)


class CsrAdaptive(SpmvKernel):
    """Adaptive-CSR: row binning preprocessing plus streamed execution."""

    name = "CSR,A"
    sparse_format = "CSR"
    schedule = "Adaptive-CSR"
    has_preprocessing = True

    #: Cycles per nonzero of the streaming path (coalesced LDS streaming).
    cycles_per_nonzero = CYCLES_PER_NONZERO

    def preprocessing_time_ms(self, matrix: CSRMatrix) -> float:
        """Sequential row binning plus upload of the row-block table."""
        binning_ms = self.host.sequential_time_ms(
            matrix.num_rows, ops_per_element=BINNING_OPS_PER_ROW
        )
        num_blocks = max(1, matrix.nnz // ROW_BLOCK_NNZ)
        upload_ms = self.host.transfer_time_ms(num_blocks * INDEX_BYTES)
        return binning_ms + upload_ms

    def _launch_spec(self, matrix: CSRMatrix, context: LaunchContext) -> LaunchSpec:
        # Both adaptive variants share the per-wave work and differ only in
        # cycles_per_nonzero.  The block sums are not integer-valued and
        # their packing depends on the sorted order, so the waves stay per
        # block and per long row (no histogram weights).
        simd_width = self.device.simd_width
        block_strips, strips = context.shared(
            ("adaptive", simd_width),
            lambda: adaptive_wave_work(context.sorted_row_lengths_f64, simd_width),
        )
        wave_costs = [
            work * self.cycles_per_nonzero
            + WAVE_REDUCTION_CYCLES
            + ROW_OVERHEAD_CYCLES
            for work in (block_strips, strips)
            if work.size
        ]
        wavefront_cycles = (
            np.concatenate(wave_costs) if wave_costs else np.zeros(1)
        )
        bytes_moved = self._csr_stream_bytes(matrix) + self._gather_bytes(
            matrix, matrix.nnz
        )
        return self._spec(wavefront_cycles, bytes_moved)


class RocSparseAdaptive(CsrAdaptive):
    """rocSPARSE-like vendor kernel.

    Same adaptive algorithm with hand-tuned constants: a faster streaming
    inner loop, but a heavier analysis (preprocessing) stage because the
    library builds additional metadata for repeated use.
    """

    name = "rocSPARSE"
    schedule = "Adaptive-CSR (vendor)"
    cycles_per_nonzero = VENDOR_CPN

    def preprocessing_time_ms(self, matrix: CSRMatrix) -> float:
        base = super().preprocessing_time_ms(matrix)
        analysis_ms = self.host.sequential_time_ms(
            matrix.num_rows, ops_per_element=2.0 * BINNING_OPS_PER_ROW
        )
        return base + analysis_ms
