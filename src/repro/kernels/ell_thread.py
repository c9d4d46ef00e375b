"""ELL thread-mapped SpMV — ``ELL,TM`` in the paper.

The ELLPACK layout pads every row to the longest row's length and stores the
result column-major, so a thread-per-row schedule is perfectly regular: all
lanes execute the same number of iterations and every access is coalesced.
The flip side is that the padded slots are real work and real traffic — a
single long row inflates the whole matrix, which is why ELL,TM swings from
the best kernel on uniform matrices to the worst on skewed ones.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.memory import INDEX_BYTES, VALUE_BYTES
from repro.gpu.simulator import LaunchSpec
from repro.kernels.base import (
    CYCLES_PER_NONZERO,
    ROW_OVERHEAD_CYCLES,
    LaunchContext,
    SpmvKernel,
)
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import ELLMatrix

#: Padding ratios beyond this are refused (the ELL arrays would not fit).
MAX_SUPPORTED_PADDING = 4096.0

#: Largest padded element count for which the numeric path materializes ELL.
MATERIALIZE_LIMIT = 4_000_000


class EllThreadMapped(SpmvKernel):
    """One row per thread over the padded ELL layout."""

    name = "ELL,TM"
    sparse_format = "ELL"
    schedule = "Thread Mapped"
    has_preprocessing = False

    def supports(self, matrix: CSRMatrix) -> bool:
        """Refuse matrices whose padding would be astronomically wasteful."""
        padded = matrix.num_rows * float(matrix.max_row_length)
        return padded <= MAX_SUPPORTED_PADDING * matrix.nnz

    def _launch_spec(self, matrix: CSRMatrix, context: LaunchContext) -> LaunchSpec:
        width = matrix.max_row_length
        num_waves = max(1, int(np.ceil(matrix.num_rows / self.device.simd_width)))
        wave_cycles = width * CYCLES_PER_NONZERO + ROW_OVERHEAD_CYCLES
        padded_slots = matrix.num_rows * width
        bytes_moved = (
            padded_slots * (VALUE_BYTES + INDEX_BYTES)
            + matrix.num_rows * VALUE_BYTES
            + self._gather_bytes(matrix, matrix.nnz)
        )
        wavefront_cycles = np.full(num_waves, wave_cycles, dtype=np.float64)
        return self._spec(wavefront_cycles, bytes_moved)

    def _numeric_result(self, matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
        """Compute through the ELL layout when it is small enough to build."""
        if matrix.num_rows * max(matrix.max_row_length, 1) <= MATERIALIZE_LIMIT:
            return ELLMatrix.from_csr(matrix, max_padding_ratio=float("inf")).spmv(x)
        return matrix.spmv(x)
