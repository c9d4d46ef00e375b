"""Histogram-weighted cost models against the per-row models they replaced.

``CSR,WM``, ``CSR,BM`` and ``CSR,TM``'s stream bytes evaluate their per-row
transform once per distinct row length and weight it by the row count; the
adaptive kernels share their per-wave work through the context.  The
oracles below are test-local copies of the per-row models: one cycle entry
per row (``np.repeat`` for the block-mapped kernel's four waves per row)
and ``ndarray.sum`` over per-row byte arrays.  Every launch must equal the
oracle's field by field with ``==``, ``num_wavefronts`` included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.device import MI100, SMALL_GPU
from repro.gpu.memory import INDEX_BYTES, VALUE_BYTES
from repro.gpu.simulator import (
    LaunchSpec,
    group_reduce_max,
    group_reduce_sum,
    simulate_spec,
)
from repro.kernels.base import (
    BLOCK_REDUCTION_CYCLES,
    CSR_NNZ_BYTES,
    CYCLES_PER_NONZERO,
    ROW_OVERHEAD_CYCLES,
    WAVE_REDUCTION_CYCLES,
    LaunchContext,
    batch_timings,
)
from repro.kernels.csr_adaptive import (
    ROW_BLOCK_NNZ,
    SHORT_ROW_LIMIT,
    CsrAdaptive,
    RocSparseAdaptive,
)
from repro.kernels.csr_block import (
    BLOCK_OCCUPANCY,
    WAVES_PER_WORKGROUP,
    CsrBlockMapped,
)
from repro.kernels.csr_scalar import CsrThreadMapped, uncoalesced_penalty
from repro.kernels.csr_vector import PER_ROW_BOOKKEEPING_CYCLES, CsrWarpMapped
from repro.sparse.generators import matrix_from_row_lengths

MIN_ROW_TRANSACTION_BYTES = 128.0


def _spec(kernel, cycles, bytes_moved, occupancy_factor=1.0):
    return LaunchSpec(
        wavefront_cycles=np.asarray(cycles, dtype=np.float64),
        bytes_moved=float(bytes_moved),
        label=kernel.name,
        occupancy_factor=occupancy_factor,
        bandwidth_utilization=kernel.bandwidth_utilization,
    )


def _lengths(matrix):
    return np.diff(matrix.row_offsets).astype(np.float64)


def _clamped_stream(matrix, bytes_per_nonzero, floor):
    return float(np.maximum(_lengths(matrix) * bytes_per_nonzero, floor).sum())


def _row_stream_tail(kernel, matrix):
    return (
        (matrix.num_rows + 1) * INDEX_BYTES
        + matrix.num_rows * VALUE_BYTES
        + kernel._gather_bytes(matrix, matrix.nnz)
    )


def _warp_mapped(kernel, matrix):
    cycles = np.ceil(_lengths(matrix) / kernel.device.simd_width)
    cycles *= CYCLES_PER_NONZERO
    cycles += WAVE_REDUCTION_CYCLES + ROW_OVERHEAD_CYCLES + PER_ROW_BOOKKEEPING_CYCLES
    stream = _clamped_stream(matrix, CSR_NNZ_BYTES, MIN_ROW_TRANSACTION_BYTES)
    return _spec(kernel, cycles, stream + _row_stream_tail(kernel, matrix))


def _block_mapped(kernel, matrix):
    group_width = kernel.device.simd_width * WAVES_PER_WORKGROUP
    cycles = np.ceil(_lengths(matrix) / group_width)
    cycles *= CYCLES_PER_NONZERO
    cycles += BLOCK_REDUCTION_CYCLES + ROW_OVERHEAD_CYCLES
    stream = _clamped_stream(matrix, CSR_NNZ_BYTES, MIN_ROW_TRANSACTION_BYTES)
    return _spec(
        kernel,
        np.repeat(cycles, WAVES_PER_WORKGROUP),
        stream + _row_stream_tail(kernel, matrix),
        occupancy_factor=BLOCK_OCCUPANCY,
    )


def _thread_mapped(kernel, matrix):
    lengths = _lengths(matrix)
    cycles = (
        group_reduce_max(lengths, kernel.device.simd_width) * CYCLES_PER_NONZERO
        + ROW_OVERHEAD_CYCLES
    )
    stream = float((lengths * CSR_NNZ_BYTES * uncoalesced_penalty(lengths)).sum())
    return _spec(kernel, cycles, stream + _row_stream_tail(kernel, matrix))


def _adaptive(kernel, matrix):
    lengths = np.sort(_lengths(matrix))
    simd = kernel.device.simd_width
    split = int(np.searchsorted(lengths, SHORT_ROW_LIMIT, side="right"))
    short, long = lengths[:split], lengths[split:]
    waves = []
    if short.size:
        rows_per_block = max(1, int(ROW_BLOCK_NNZ / max(float(short.mean()), 1.0)))
        block_nnz = group_reduce_sum(short, rows_per_block)
        waves.append(
            block_nnz / simd * kernel.cycles_per_nonzero
            + WAVE_REDUCTION_CYCLES
            + ROW_OVERHEAD_CYCLES
        )
    if long.size:
        waves.append(
            np.ceil(long / simd) * kernel.cycles_per_nonzero
            + WAVE_REDUCTION_CYCLES
            + ROW_OVERHEAD_CYCLES
        )
    cycles = np.concatenate(waves) if waves else np.zeros(1)
    return _spec(
        kernel,
        cycles,
        kernel._csr_stream_bytes(matrix) + kernel._gather_bytes(matrix, matrix.nnz),
    )


ORACLES = {
    CsrWarpMapped: _warp_mapped,
    CsrBlockMapped: _block_mapped,
    CsrThreadMapped: _thread_mapped,
    CsrAdaptive: _adaptive,
    RocSparseAdaptive: _adaptive,
}

#: Row lengths on either side of the wavefront width, the workgroup width
#: and the adaptive kernels' short-row limit.
BOUNDARY_LENGTHS = sorted(
    {edge + delta for edge in (64, 256, SHORT_ROW_LIMIT) for delta in (-1, 0, 1)}
)


@st.composite
def row_lengths(draw):
    """Row-length mixes: empty, short, boundary, long, and many repeats."""
    per_row = st.one_of(
        st.integers(min_value=0, max_value=8),
        st.sampled_from(BOUNDARY_LENGTHS),
        st.integers(min_value=0, max_value=3000),
    )
    lengths = draw(st.lists(per_row, min_size=1, max_size=200))
    repeat = draw(st.integers(min_value=1, max_value=3))
    return lengths * repeat


def _matrix(lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    return matrix_from_row_lengths(lengths, max(int(lengths.max()), 1), rng=5)


@given(row_lengths())
@example([0] * 100)  # all rows empty
@example([0])  # one empty row
@example([300])  # a single row
@example([17] * 130)  # equal lengths, 130 rows (not a multiple of 64)
@example([1] * 70 + [200_000])  # one huge row
@example(BOUNDARY_LENGTHS * 7)
@settings(max_examples=60, deadline=None)
def test_weighted_models_match_the_per_row_oracle(lengths):
    matrix = _matrix(lengths)
    kernels = [kernel_class() for kernel_class in ORACLES]
    batched = batch_timings(kernels, matrix)
    for kernel in kernels:
        expected = simulate_spec(kernel.device, ORACLES[type(kernel)](kernel, matrix))
        # LaunchResult equality compares every field, num_wavefronts too.
        assert batched[kernel.name].iteration_detail == expected, kernel.name
        assert kernel.timing(matrix).iteration_detail == expected, kernel.name


def test_devices_sharing_one_context_keep_their_own_wave_work():
    matrix = _matrix(BOUNDARY_LENGTHS * 3 + [5000, 0])
    context = LaunchContext(matrix)
    for device in (MI100, SMALL_GPU, MI100):
        kernels = [kernel_class(device) for kernel_class in ORACLES]
        batched = batch_timings(kernels, matrix, context=context)
        for kernel in kernels:
            expected = simulate_spec(device, ORACLES[type(kernel)](kernel, matrix))
            assert batched[kernel.name].iteration_detail == expected, kernel.name


@given(row_lengths(), st.sampled_from([(12.0, 128.0), (8.0, 0.0), (4.0, 64.0)]))
@example([0] * 65, (12.0, 128.0))
@settings(max_examples=40, deadline=None)
def test_clamped_stream_bytes_match_the_per_row_sum(lengths, bytes_and_floor):
    matrix = _matrix(lengths)
    context = LaunchContext(matrix)
    assert context.clamped_stream_bytes(*bytes_and_floor) == _clamped_stream(
        matrix, *bytes_and_floor
    )


@given(row_lengths())
@settings(max_examples=40, deadline=None)
def test_length_histogram_counts_every_row(lengths):
    values, counts = LaunchContext(_matrix(lengths)).length_histogram
    distinct, expected = np.unique(np.asarray(lengths), return_counts=True)
    assert values.dtype == np.float64 and counts.dtype == np.int64
    np.testing.assert_array_equal(values, distinct)
    np.testing.assert_array_equal(counts, expected)


def test_fractional_byte_sums_are_refused():
    context = LaunchContext(_matrix([3, 5, 5]))
    with pytest.raises(ValueError, match="clamped stream bytes: .*integer-valued"):
        context.clamped_stream_bytes(0.3, 0.0)
