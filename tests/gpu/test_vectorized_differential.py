"""Differential tests: batched measurement paths vs. their scalar references.

The vectorized sweep hot path (shared :class:`~repro.kernels.base.LaunchContext`
plus :func:`~repro.gpu.simulator.simulate_launch_batch`) must be *bit-identical*
to timing every kernel independently — the golden artifacts and every
downstream model depend on it.  These properties drive both domains through
hypothesis-generated matrices and compare the two paths with exact equality,
never tolerances.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benchmarking import measure_matrix
from repro.domains import get_domain
from repro.domains.spmm import SpmmWorkload, spmm_gathered_features
from repro.kernels.base import LaunchContext, batch_timings
from repro.sparse.features import gathered_features
from repro.sparse.generators import matrix_from_row_lengths


@st.composite
def csr_matrices(draw):
    """Small matrices with adversarial row-length mixes (empty/short/long)."""
    lengths = draw(
        st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=50)
    )
    cols = draw(st.integers(min_value=max(lengths + [1]), max_value=96))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return matrix_from_row_lengths(np.array(lengths, dtype=np.int64), cols, rng=seed)


def _scalar_timings(kernels, workload):
    """The pre-batching reference: each kernel timed in isolation."""
    timings = {}
    for kernel in kernels:
        if not kernel.supports(workload):
            continue
        timings[kernel.name] = kernel.timing(workload)
    return timings


def _assert_timings_identical(batched, scalar):
    assert set(batched) == set(scalar)
    for name, timing in batched.items():
        reference = scalar[name]
        assert timing.preprocessing_ms == reference.preprocessing_ms
        assert timing.iteration_ms == reference.iteration_ms
        assert timing.iteration_detail == reference.iteration_detail


@given(csr_matrices())
@settings(max_examples=40, deadline=None)
def test_spmv_batch_timings_match_scalar(matrix):
    kernels = get_domain("spmv").default_kernels()
    _assert_timings_identical(
        batch_timings(kernels, matrix), _scalar_timings(kernels, matrix)
    )


@given(csr_matrices(), st.sampled_from([1, 4, 32, 128]))
@settings(max_examples=40, deadline=None)
def test_spmm_batch_timings_match_scalar(matrix, num_vectors):
    workload = SpmmWorkload(matrix=matrix, num_vectors=num_vectors)
    kernels = get_domain("spmm").default_kernels()
    _assert_timings_identical(
        batch_timings(kernels, workload), _scalar_timings(kernels, workload)
    )


@given(csr_matrices())
@settings(max_examples=40, deadline=None)
def test_gathered_features_with_shared_row_lengths(matrix):
    context = LaunchContext(matrix)
    assert gathered_features(matrix, row_lengths=context.row_lengths_f64) == (
        gathered_features(matrix)
    )


@given(csr_matrices(), st.sampled_from([2, 16]))
@settings(max_examples=40, deadline=None)
def test_spmm_gathered_features_with_shared_context(matrix, num_vectors):
    workload = SpmmWorkload(matrix=matrix, num_vectors=num_vectors)
    shared = spmm_gathered_features(workload, context=LaunchContext(matrix))
    assert shared == spmm_gathered_features(workload)


def _scalar_measurement(workload, kernels, pipeline):
    """The per-kernel reference: each kernel timed alone, features extracted
    without a shared context."""
    timings = _scalar_timings(kernels, workload)
    runtime = {
        k.name: timings[k.name].iteration_ms if k.name in timings else math.inf
        for k in kernels
    }
    preprocessing = {
        k.name: timings[k.name].preprocessing_ms if k.name in timings else 0.0
        for k in kernels
    }
    return runtime, preprocessing, pipeline.extract(workload)


def _assert_measurement_matches_scalar(measured, workload, kernels, pipeline):
    runtime, preprocessing, bundle = _scalar_measurement(workload, kernels, pipeline)
    assert measured.kernel_runtime_ms == runtime
    assert measured.kernel_preprocessing_ms == preprocessing
    assert measured.known == bundle.known
    assert measured.gathered == bundle.gathered
    assert measured.collection_time_ms == bundle.gathered.collection_time_ms


@given(csr_matrices())
@settings(max_examples=15, deadline=None)
def test_measure_matrix_matches_scalar_reference_spmv(matrix):
    domain = get_domain("spmv")
    kernels = domain.default_kernels()
    pipeline = domain.make_pipeline()
    measured = measure_matrix("m", matrix, kernels, pipeline)
    _assert_measurement_matches_scalar(measured, matrix, kernels, pipeline)


@given(csr_matrices(), st.sampled_from([4, 32]))
@settings(max_examples=15, deadline=None)
def test_measure_matrix_matches_scalar_reference_spmm(matrix, num_vectors):
    domain = get_domain("spmm")
    workload = SpmmWorkload(matrix=matrix, num_vectors=num_vectors)
    kernels = domain.default_kernels()
    pipeline = domain.make_pipeline()
    measured = measure_matrix("m", workload, kernels, pipeline)
    _assert_measurement_matches_scalar(measured, workload, kernels, pipeline)
