"""Tests for the SpMM domain: kernels, features, and the end-to-end sweep."""

import math

import numpy as np
import pytest

from repro.bench.engine import SweepEngine, matrix_key
from repro.bench.runner import run_sweep
from repro.domains import get_domain
from repro.domains.spmm import (
    COLUMN_BLOCK,
    NUM_VECTORS_GRID,
    SpmmEllBlockMapped,
    SpmmWorkload,
    spmm_gathered_features,
)
from repro.kernels.base import UnsupportedKernelError
from repro.sparse import generators as gen

SPMM = get_domain("spmm")


@pytest.fixture(scope="module")
def spmm_sweep():
    """One end-to-end SpMM pipeline run on the tiny profile."""
    return run_sweep(profile="tiny", domain="spmm")


def _workload(matrix, num_vectors=4):
    return SpmmWorkload(matrix=matrix, num_vectors=num_vectors)


# ----------------------------------------------------------------------
# Workload and numeric correctness
# ----------------------------------------------------------------------
def test_workload_spmm_matches_dense_reference(rng):
    matrix = gen.power_law_matrix(60, 50, 5.0, rng=3)
    workload = _workload(matrix, num_vectors=7)
    b = rng.standard_normal((50, 7))
    np.testing.assert_allclose(
        workload.spmm(b), matrix.to_dense() @ b, rtol=1e-12, atol=1e-12
    )


def test_workload_rejects_bad_shapes_and_counts(rng):
    matrix = gen.regular_matrix(8, 8, 2, rng=1)
    with pytest.raises(ValueError):
        SpmmWorkload(matrix=matrix, num_vectors=0)
    with pytest.raises(ValueError):
        _workload(matrix, 4).spmm(rng.standard_normal((8, 3)))


@pytest.mark.parametrize("label", SPMM.kernel_names())
def test_kernel_run_matches_dense_reference(label, rng):
    matrix = gen.regular_matrix(64, 64, 6, rng=2)
    workload = _workload(matrix, num_vectors=4)
    kernel = SPMM.make_kernel(label)
    b = rng.standard_normal((64, 4))
    result = kernel.run(workload, b)
    np.testing.assert_allclose(result.y, matrix.to_dense() @ b, rtol=1e-12, atol=1e-12)
    assert result.timing.iteration_ms > 0.0


def test_kernel_timings_are_finite_and_positive(small_matrices):
    for num_vectors in NUM_VECTORS_GRID:
        workload = _workload(small_matrices["uniform"], num_vectors)
        for kernel in SPMM.default_kernels():
            timing = kernel.timing(workload)
            assert math.isfinite(timing.iteration_ms) and timing.iteration_ms > 0
            assert timing.preprocessing_ms >= 0.0


def test_ell_refuses_extreme_padding():
    matrix = gen.skewed_matrix(2048, 2048, 1, 1, 2000, rng=5)
    kernel = SpmmEllBlockMapped()
    workload = _workload(matrix)
    assert not kernel.supports(workload)
    with pytest.raises(UnsupportedKernelError):
        kernel.timing(workload)


# ----------------------------------------------------------------------
# Gathered features (column-block occupancy)
# ----------------------------------------------------------------------
def test_occupancy_of_dense_rows_is_one():
    dense = gen.regular_matrix(32, COLUMN_BLOCK, COLUMN_BLOCK, rng=1)
    features = spmm_gathered_features(_workload(dense))
    assert features.max_block_occupancy == pytest.approx(1.0)
    assert features.mean_block_occupancy == pytest.approx(1.0)


def test_occupancy_bounds_and_ordering(small_matrices):
    for matrix in small_matrices.values():
        features = spmm_gathered_features(_workload(matrix))
        assert 0.0 <= features.mean_block_occupancy <= features.max_block_occupancy
        assert features.max_block_occupancy <= 1.0
        assert features.var_row_density >= 0.0


def test_occupancy_counts_distinct_blocks_on_wrapped_rows():
    # Rows of 40 strided columns out of 300 often wrap past the last column.
    matrix = gen.regular_matrix(400, 300, 40, rng=11)
    runs = matrix.column_runs
    last = runs.starts + (matrix.row_lengths() - 1) * runs.strides
    assert np.count_nonzero(last >= matrix.num_cols) > 100
    num_blocks = -(-matrix.num_cols // COLUMN_BLOCK)
    occupancy = np.array(
        [
            np.unique(cols // COLUMN_BLOCK).shape[0] / num_blocks
            for cols in np.split(matrix.col_indices, matrix.row_offsets[1:-1])
        ]
    )
    features = spmm_gathered_features(_workload(matrix))
    assert features.max_block_occupancy == occupancy.max()
    assert features.mean_block_occupancy == pytest.approx(occupancy.mean(), rel=1e-12)


def test_empty_matrix_features_are_zero():
    empty = gen.diagonal_matrix(0, rng=1)
    features = spmm_gathered_features(_workload(empty))
    assert list(features.as_vector()) == [0.0, 0.0, 0.0, 0.0]


def test_collector_cost_grows_with_nnz():
    collector = SPMM.make_collector()
    small = collector.collect(_workload(gen.regular_matrix(256, 256, 4, rng=1)))
    large = collector.collect(_workload(gen.regular_matrix(65536, 256, 4, rng=1)))
    assert small.collection_time_ms > 0.0
    assert large.collection_time_ms > small.collection_time_ms
    assert small.features.collection_time_ms == small.collection_time_ms


# ----------------------------------------------------------------------
# End-to-end sweep
# ----------------------------------------------------------------------
def test_spmm_sweep_completes_end_to_end(spmm_sweep):
    assert spmm_sweep.domain_name == "spmm"
    assert len(spmm_sweep.suite) > 0
    assert spmm_sweep.kernel_names == list(SPMM.kernel_names())
    # Multiple kernels genuinely win somewhere: the domain is non-degenerate.
    assert len(set(spmm_sweep.dataset.labels())) >= 2
    report = spmm_sweep.test_report
    for approach in ("Known", "Gathered", "Selector"):
        assert 0.0 <= report.accuracy(approach) <= 1.0
    assert report.slowdown_vs_oracle() >= 1.0
    table = report.aggregate_table()
    assert all(math.isfinite(value) for value in table.values())


def test_spmm_dataset_uses_domain_schemas(spmm_sweep):
    dataset = spmm_sweep.dataset
    assert dataset.known_feature_names == SPMM.known_feature_names
    assert dataset.gathered_feature_names == SPMM.gathered_feature_names
    assert dataset.full_feature_names == (
        SPMM.known_feature_names + SPMM.gathered_feature_names
    )
    sample = dataset.samples[0]
    assert len(sample.known_vector) == len(SPMM.known_feature_names)
    assert len(sample.gathered_vector) == len(SPMM.gathered_feature_names)


def test_spmm_predictor_round_trip(spmm_sweep):
    matrix = gen.regular_matrix(512, 512, 8, rng=11)
    workload = _workload(matrix, num_vectors=8)
    decision = spmm_sweep.predictor.predict(workload, iterations=4, name="probe")
    assert decision.kernel in SPMM.kernel_names()
    assert decision.iterations == 4
    assert decision.known.num_vectors == 8


def test_spmm_engine_matches_serial(spmm_sweep, tmp_path):
    engine = SweepEngine(jobs=2, cache_dir=tmp_path)
    parallel = run_sweep(profile="tiny", domain="spmm", engine=engine)
    assert parallel.suite.names() == spmm_sweep.suite.names()
    for serial_m, parallel_m in zip(spmm_sweep.suite, parallel.suite):
        assert serial_m.kernel_runtime_ms == parallel_m.kernel_runtime_ms
        assert serial_m.known == parallel_m.known
        assert serial_m.gathered == parallel_m.gathered
    assert (
        parallel.test_report.aggregate_table()
        == spmm_sweep.test_report.aggregate_table()
    )

    warm = SweepEngine(jobs=2, cache_dir=tmp_path)
    again = run_sweep(profile="tiny", domain="spmm", engine=warm)
    assert warm.stats.sweep_cache_hits == 1
    assert again.test_report.aggregate_table() == parallel.test_report.aggregate_table()


def test_spmm_matrix_artifacts_shared_across_num_vectors():
    specs = SPMM.collection_specs("tiny")
    assert len(specs) == len({spec.name for spec in specs})
    by_matrix = {}
    for spec in specs:
        by_matrix.setdefault(matrix_key(spec, SPMM), set()).add(spec.num_vectors)
    # Every matrix recipe is shared by all B widths in the grid.
    assert all(widths == set(NUM_VECTORS_GRID) for widths in by_matrix.values())
    assert len(by_matrix) == len(specs) // len(NUM_VECTORS_GRID)


def test_occupancy_is_gathered_once_per_recipe_of_an_uncached_sweep(monkeypatch):
    """The ``num_vectors`` variants of a recipe share one occupancy pass."""
    from repro.core.benchmarking import measure_matrix
    from repro.domains import spmm as spmm_module

    recipes = []
    gather = spmm_module.spmm_gathered_features

    def spy(workload, context=None):
        recipes.append(workload.matrix)
        return gather(workload, context=context)

    monkeypatch.setattr(spmm_module, "spmm_gathered_features", spy)
    result = run_sweep(profile="tiny", domain="spmm", engine=SweepEngine())
    specs = SPMM.collection_specs("tiny")
    assert len(recipes) == len({matrix_key(spec, SPMM) for spec in specs})
    assert len(recipes) == len(specs) // len(NUM_VECTORS_GRID)
    # Sharing changes nothing: each spec measured with a context of its own.
    kernels = SPMM.default_kernels()
    pipeline = SPMM.make_pipeline()
    for spec, shared in zip(specs, result.suite):
        workload = SPMM.workload_from_matrix(spec, SPMM.spec_matrix(spec))
        assert shared == measure_matrix(spec.name, workload, kernels, pipeline)
