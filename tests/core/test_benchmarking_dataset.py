"""Tests for the benchmarking stage and training-set assembly."""

import math

import numpy as np
import pytest

from repro.core.benchmarking import (
    BenchmarkSuite,
    measure_matrix,
    run_benchmark_suite,
)
from repro.core.dataset import build_training_dataset, sample_from_measurement
from repro.domains.spmv import SPMV
from repro.sparse.collection import collection_specs, iter_collection
from repro.sparse.features import gathered_features


@pytest.fixture(scope="module")
def suite():
    return run_benchmark_suite(iter_collection("tiny"))


def test_suite_covers_every_matrix_and_kernel(suite):
    names = [spec.name for spec in collection_specs("tiny")]
    assert len(suite) == len(names)
    assert set(suite.names()) == set(names)
    for measurement in suite:
        assert set(measurement.kernel_runtime_ms) == set(suite.kernel_names)
        assert set(measurement.kernel_preprocessing_ms) == set(suite.kernel_names)


def test_measurement_features_match_direct_computation(suite):
    for record in list(iter_collection("tiny"))[:5]:
        measurement = suite.get(record.name)
        direct = gathered_features(record.matrix)
        np.testing.assert_allclose(
            measurement.gathered.as_vector(), direct.as_vector()
        )
        assert measurement.known.rows == record.matrix.num_rows
        assert measurement.known.nnz == record.matrix.nnz
        assert measurement.collection_time_ms > 0.0


def test_fastest_kernel_and_oracle(suite):
    for measurement in suite:
        best = measurement.fastest_kernel(1)
        oracle = measurement.kernel_total_ms(best, 1)
        for kernel in suite.kernel_names:
            total = measurement.kernel_total_ms(kernel, 1)
            if math.isfinite(total):
                assert total >= oracle


def test_kernel_total_includes_preprocessing_amortization(suite):
    measurement = suite.measurements[0]
    one = measurement.kernel_total_ms("CSR,A", 1)
    many = measurement.kernel_total_ms("CSR,A", 10)
    runtime = measurement.kernel_runtime_ms["CSR,A"]
    assert many == pytest.approx(one + 9 * runtime)
    with pytest.raises(ValueError):
        measurement.kernel_total_ms("CSR,A", 0)


def test_suite_csv_round_trip(tmp_path, suite):
    suite.save(tmp_path)
    loaded = BenchmarkSuite.load(tmp_path)
    assert loaded.kernel_names == suite.kernel_names
    assert loaded.names() == sorted(suite.names())
    original = suite.get(suite.names()[0])
    restored = loaded.get(original.name)
    assert restored.kernel_runtime_ms == pytest.approx(original.kernel_runtime_ms)
    assert restored.known == original.known
    # per-kernel CSVs exist too (one per kernel, as in the paper's pipeline)
    assert len(list(tmp_path.glob("kernel_*.csv"))) == len(suite.kernel_names)


def test_measure_matrix_records_unsupported_kernels():
    from repro.sparse.generators import skewed_matrix

    matrix = skewed_matrix(300_000, 300_000, 1, 1, 300_000, rng=1)
    measurement = measure_matrix(
        "extreme", matrix, SPMV.default_kernels(), SPMV.make_pipeline()
    )
    assert math.isinf(measurement.kernel_runtime_ms["ELL,TM"])
    assert math.isfinite(measurement.kernel_runtime_ms["CSR,WO"])
    assert measurement.fastest_kernel(1) != "ELL,TM"


def test_build_training_dataset_expands_iterations(suite):
    dataset = build_training_dataset(suite, iteration_counts=(1, 19))
    assert len(dataset) == 2 * len(suite)
    iterations = {sample.iterations for sample in dataset}
    assert iterations == {1, 19}
    sample = dataset.samples[0]
    assert sample.known_vector.shape == (4,)
    assert sample.full_vector.shape == (8,)
    assert sample.best_kernel in suite.kernel_names
    assert dataset.known_matrix().shape == (len(dataset), 4)
    assert dataset.full_matrix().shape == (len(dataset), 8)


def test_training_dataset_subset(suite):
    dataset = build_training_dataset(suite, iteration_counts=(1,))
    subset = dataset.subset([0, 2, 4])
    assert len(subset) == 3
    assert subset.samples[1] is dataset.samples[2]


def test_sample_best_kernel_is_truly_best(suite):
    dataset = build_training_dataset(suite, iteration_counts=(1, 4))
    for sample in dataset:
        best_total = sample.kernel_total_ms[sample.best_kernel]
        finite = [t for t in sample.kernel_total_ms.values() if math.isfinite(t)]
        assert best_total == min(finite)
        assert sample.oracle_ms == best_total


def test_build_training_dataset_validation(suite):
    with pytest.raises(ValueError):
        build_training_dataset(suite, iteration_counts=())
    with pytest.raises(ValueError):
        build_training_dataset(suite, iteration_counts=(0,))


def test_sample_from_measurement_requires_runnable_kernel(suite):
    measurement = suite.measurements[0]
    broken = type(measurement)(
        name="broken",
        known=measurement.known,
        gathered=measurement.gathered,
        kernel_runtime_ms={k: math.inf for k in suite.kernel_names},
        kernel_preprocessing_ms={k: 0.0 for k in suite.kernel_names},
    )
    with pytest.raises(ValueError):
        sample_from_measurement(broken, 1, suite.kernel_names)
