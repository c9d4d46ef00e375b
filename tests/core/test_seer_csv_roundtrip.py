"""Round-trip tests: benchmark CSVs on disk -> ``seer()`` -> trained models.

The paper's tooling communicates between stages exclusively through CSV
files (Section III-D); these tests pin down that the reproduction's
file-driven path is equivalent to the in-memory one, for the default SpMV
domain and for a second domain's artifacts.
"""

import numpy as np
import pytest

from repro.bench.runner import run_sweep
from repro.core.benchmarking import BenchmarkSuite
from repro.core.seer import seer
from repro.core import csv_schemas


@pytest.fixture(scope="module")
def spmm_tiny_sweep():
    return run_sweep(profile="tiny", domain="spmm")


def _csv_paths(directory):
    return (
        directory / "runtime.csv",
        directory / "preprocessing.csv",
        directory / "features.csv",
        directory / "known.csv",
    )


# ----------------------------------------------------------------------
# SpMV (default domain)
# ----------------------------------------------------------------------
def test_seer_from_disk_equals_seer_from_loaded_suite(tiny_sweep, tmp_path):
    tiny_sweep.suite.save(tmp_path)
    runtime, preprocessing, features, known = _csv_paths(tmp_path)
    from_disk = seer(runtime, preprocessing, features, known=known)
    # Training from the raw CSV paths and from the loaded suite must agree
    # exactly: both see the same (9-significant-digit quantized) inputs.
    from_suite = seer(BenchmarkSuite.load(tmp_path), None, None)
    # The generated artifacts are a complete, deterministic serialization of
    # the trained trees: equality means the models are identical.
    assert from_disk.cpp_header == from_suite.cpp_header
    assert from_disk.python_module == from_suite.python_module
    # suite_from_tables orders kernels alphabetically, load keeps CSV order.
    assert set(from_disk.models.kernel_names) == set(from_suite.models.kernel_names)


def test_seer_from_disk_matches_in_memory_predictions(tiny_sweep, tmp_path):
    tiny_sweep.suite.save(tmp_path)
    runtime, preprocessing, features, known = _csv_paths(tmp_path)
    from_disk = seer(runtime, preprocessing, features, known=known)
    in_memory = seer(tiny_sweep.suite, None, None)
    # CSV emission quantizes floats to 9 significant digits, so tree
    # thresholds may differ in the last ulps — but the behaviour must match.
    agree = sum(
        from_disk.models.predict_known(s.known_vector)
        == in_memory.models.predict_known(s.known_vector)
        for s in tiny_sweep.dataset.samples
    )
    assert agree == len(tiny_sweep.dataset.samples)


def test_csv_trained_predictor_agrees_with_in_memory(tiny_sweep, tmp_path):
    tiny_sweep.suite.save(tmp_path)
    runtime, preprocessing, features, known = _csv_paths(tmp_path)
    result = seer(runtime, preprocessing, features, known=known)
    samples = tiny_sweep.dataset.samples[:10]
    batch = result.predictor.models.predict_batch(
        [tiny_sweep.suite.get(sample.name).known.as_vector() for sample in samples],
        [tiny_sweep.suite.get(sample.name).gathered.as_vector() for sample in samples],
    )
    assert set(batch.kernels) <= set(result.models.kernel_names)


def test_suite_save_load_round_trip_preserves_measurements(tiny_sweep, tmp_path):
    tiny_sweep.suite.save(tmp_path)
    restored = BenchmarkSuite.load(tmp_path)
    assert restored.domain_name == "spmv"
    assert restored.kernel_names == tiny_sweep.suite.kernel_names
    assert sorted(restored.names()) == sorted(tiny_sweep.suite.names())
    original = tiny_sweep.suite.get(restored.measurements[0].name)
    rebuilt = restored.measurements[0]
    assert rebuilt.known == original.known
    np.testing.assert_allclose(
        rebuilt.gathered.as_vector(), original.gathered.as_vector()
    )


def test_manifest_written_and_parsed(tiny_sweep, tmp_path):
    tiny_sweep.suite.save(tmp_path)
    manifest = csv_schemas.read_manifest(tmp_path / "manifest.json")
    assert manifest["domain"] == "spmv"
    assert manifest["kernels"] == list(tiny_sweep.suite.kernel_names)
    assert manifest["known_features"] == ["rows", "cols", "nnz", "iterations"]
    assert csv_schemas.read_manifest(tmp_path / "absent.json") is None


# ----------------------------------------------------------------------
# SpMM (second domain through the same CSV layouts)
# ----------------------------------------------------------------------
def test_spmm_suite_round_trips_through_csvs(spmm_tiny_sweep, tmp_path):
    spmm_tiny_sweep.suite.save(tmp_path)
    restored = BenchmarkSuite.load(tmp_path)  # domain read from the manifest
    assert restored.domain_name == "spmm"
    original = spmm_tiny_sweep.suite.get(restored.measurements[0].name)
    rebuilt = restored.measurements[0]
    assert rebuilt.known.as_dict() == original.known.as_dict()
    np.testing.assert_allclose(
        rebuilt.gathered.as_vector(), original.gathered.as_vector()
    )


def test_seer_trains_spmm_models_from_disk(spmm_tiny_sweep, tmp_path):
    spmm_tiny_sweep.suite.save(tmp_path)
    runtime, preprocessing, features, known = _csv_paths(tmp_path)
    result = seer(runtime, preprocessing, features, known=known, domain="spmm")
    assert set(result.models.kernel_names) == set(spmm_tiny_sweep.kernel_names)
    assert result.models.known_feature_names == (
        "rows",
        "cols",
        "nnz",
        "num_vectors",
        "iterations",
    )
    reference = seer(BenchmarkSuite.load(tmp_path), None, None)
    assert result.cpp_header == reference.cpp_header
