"""Tests for the parallel, cached sweep engine."""

import json
import logging
import math
import shutil

import pytest

from repro.bench import engine as engine_module
from repro.bench.engine import (
    SweepEngine,
    code_version,
    engine_from_env,
    measurement_from_dict,
    measurement_key,
    measurement_to_dict,
    sweep_config_key,
)
from repro.bench.runner import run_sweep
from repro.core.benchmarking import MatrixMeasurement
from repro.core.dataset import DEFAULT_ITERATION_COUNTS
from repro.core.training import TrainingConfig
from repro.domains.spmv import SPMV
from repro.gpu.device import MI100, SMALL_GPU
from repro.sparse.collection import collection_specs
from repro.sparse.features import GatheredFeatures, KnownFeatures

KERNELS = SPMV.kernel_names()


def _forbid_benchmarking(monkeypatch):
    """Make any actual matrix measurement fail the test."""

    def _fail(*args, **kwargs):
        raise AssertionError("benchmarking ran although the cache should serve")

    monkeypatch.setattr(engine_module, "measure_matrix", _fail)


# ----------------------------------------------------------------------
# Parallel == serial equivalence
# ----------------------------------------------------------------------
def test_parallel_sweep_is_bit_identical_to_serial(tiny_sweep):
    engine = SweepEngine(jobs=2)
    parallel = run_sweep(profile="tiny", iteration_counts=(1, 19), engine=engine)
    assert engine.stats.matrices_measured == len(tiny_sweep.suite)
    assert parallel.suite.names() == tiny_sweep.suite.names()
    for serial_m, parallel_m in zip(tiny_sweep.suite, parallel.suite):
        assert serial_m.kernel_runtime_ms == parallel_m.kernel_runtime_ms
        assert serial_m.kernel_preprocessing_ms == parallel_m.kernel_preprocessing_ms
        assert serial_m.known == parallel_m.known
        assert serial_m.gathered == parallel_m.gathered
    assert parallel.train_report.aggregate_table() == tiny_sweep.train_report.aggregate_table()
    assert parallel.test_report.aggregate_table() == tiny_sweep.test_report.aggregate_table()
    assert [row.name for row in parallel.test_report.rows] == [
        row.name for row in tiny_sweep.test_report.rows
    ]


def test_measure_specs_preserves_spec_order():
    specs = collection_specs("tiny")
    engine = SweepEngine(jobs=3)
    measurements = engine.measure_specs(specs, KERNELS)
    assert [m.name for m in measurements] == [spec.name for spec in specs]


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------
def test_second_sweep_served_from_cache_without_benchmarking(tmp_path, monkeypatch):
    first_engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = run_sweep(profile="tiny", iteration_counts=(1,), engine=first_engine)
    assert first_engine.stats.sweep_cache_misses == 1
    assert first_engine.stats.matrices_measured > 0

    _forbid_benchmarking(monkeypatch)
    second_engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    second = run_sweep(profile="tiny", iteration_counts=(1,), engine=second_engine)
    assert second_engine.stats.sweep_cache_hits == 1
    assert second_engine.stats.matrices_measured == 0
    assert second.test_report.aggregate_table() == first.test_report.aggregate_table()
    assert second.suite.names() == first.suite.names()


def test_measurement_tier_survives_sweep_tier_loss(tmp_path, monkeypatch):
    populate = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = run_sweep(profile="tiny", iteration_counts=(1,), engine=populate)
    shutil.rmtree(tmp_path / "sweeps")

    _forbid_benchmarking(monkeypatch)
    rebuild = SweepEngine(jobs=1, cache_dir=tmp_path)
    second = run_sweep(profile="tiny", iteration_counts=(1,), engine=rebuild)
    assert rebuild.stats.sweep_cache_hits == 0
    assert rebuild.stats.matrices_measured == 0
    assert rebuild.stats.measurement_cache_hits == len(first.suite)
    assert second.test_report.aggregate_table() == first.test_report.aggregate_table()


def _engine_warnings(caplog) -> list:
    """Messages of the warnings the engine logged so far."""
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == engine_module.__name__ and record.levelno == logging.WARNING
    ]


def test_corrupt_sweep_artifact_is_recomputed(tmp_path, caplog):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = run_sweep(profile="tiny", iteration_counts=(1,), engine=engine)
    assert _engine_warnings(caplog) == []  # a cold run's misses are silent
    [artifact] = (tmp_path / "sweeps").glob("*.pkl")
    artifact.write_bytes(b"not a pickle")

    retry = SweepEngine(jobs=1, cache_dir=tmp_path)
    second = run_sweep(profile="tiny", iteration_counts=(1,), engine=retry)
    assert retry.stats.sweep_cache_misses == 1
    [warning] = _engine_warnings(caplog)
    assert str(artifact) in warning
    assert second.test_report.aggregate_table() == first.test_report.aggregate_table()


def test_truncated_sweep_pickle_is_recomputed(tmp_path, caplog):
    """A half-written pickle (e.g. a killed process) is a miss, not a crash."""
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = run_sweep(profile="tiny", iteration_counts=(1,), engine=engine)
    assert _engine_warnings(caplog) == []
    [artifact] = (tmp_path / "sweeps").glob("*.pkl")
    artifact.write_bytes(artifact.read_bytes()[: artifact.stat().st_size // 2])

    retry = SweepEngine(jobs=1, cache_dir=tmp_path)
    second = run_sweep(profile="tiny", iteration_counts=(1,), engine=retry)
    assert retry.stats.sweep_cache_misses == 1
    [warning] = _engine_warnings(caplog)
    assert str(artifact) in warning
    assert second.test_report.aggregate_table() == first.test_report.aggregate_table()


@pytest.mark.parametrize(
    "corruption",
    [b"{ not json at all", b"", b'{"valid": "json", "wrong": "shape"}'],
    ids=["garbage", "empty", "wrong-shape"],
)
def test_corrupt_measurement_artifact_is_remeasured(tmp_path, corruption, caplog):
    """Unreadable measurement JSONs — including *valid* JSON with the wrong
    shape — are re-measured and overwritten, never fatal."""
    populate = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = run_sweep(profile="tiny", iteration_counts=(1,), engine=populate)
    assert _engine_warnings(caplog) == []  # a cold run's misses are silent
    measurement_paths = sorted((tmp_path / "measurements").glob("*.json"))
    assert measurement_paths
    for path in measurement_paths:
        path.write_bytes(corruption)
    shutil.rmtree(tmp_path / "sweeps")

    retry = SweepEngine(jobs=1, cache_dir=tmp_path)
    second = run_sweep(profile="tiny", iteration_counts=(1,), engine=retry)
    assert retry.stats.measurement_cache_hits == 0
    assert retry.stats.matrices_measured == len(first.suite)
    # One warning per corrupt file, naming it.
    warnings = _engine_warnings(caplog)
    assert len(warnings) == len(measurement_paths)
    assert all(any(str(path) in warning for warning in warnings) for path in measurement_paths)
    assert second.test_report.aggregate_table() == first.test_report.aggregate_table()
    # The corrupted slots were overwritten with readable artifacts.
    for path in measurement_paths:
        measurement_from_dict(json.loads(path.read_text()))


def test_cacheless_engine_writes_nothing(tmp_path):
    engine = SweepEngine(jobs=1)
    run_sweep(profile="tiny", iteration_counts=(1,), engine=engine)
    assert engine.cache_dir is None
    assert list(tmp_path.iterdir()) == []


def test_cached_sweep_artifact_has_readable_metadata(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    run_sweep(profile="tiny", iteration_counts=(1,), engine=engine)
    [meta_path] = (tmp_path / "sweeps").glob("*.json")
    meta = json.loads(meta_path.read_text())
    assert meta["profile"]["name"] == "tiny"
    assert meta["profile"]["families"]
    assert meta["code"] == code_version()
    assert meta["kernels"] == list(KERNELS)


# ----------------------------------------------------------------------
# Config hashing
# ----------------------------------------------------------------------
def test_sweep_config_key_is_stable_and_sensitive():
    base = {
        "profile": "tiny",
        "seed": 7,
        "split_seed": 13,
        "iteration_counts": DEFAULT_ITERATION_COUNTS,
        "device": MI100,
        "kernel_labels": KERNELS,
    }
    key = sweep_config_key(**base)
    assert key == sweep_config_key(**base)
    assert key == sweep_config_key(**base, config=TrainingConfig())

    assert key != sweep_config_key(**{**base, "profile": "small"})
    assert key != sweep_config_key(**{**base, "seed": 8})
    assert key != sweep_config_key(**{**base, "split_seed": 14})
    assert key != sweep_config_key(**{**base, "iteration_counts": (1,)})
    assert key != sweep_config_key(**{**base, "device": SMALL_GPU})
    assert key != sweep_config_key(**{**base, "kernel_labels": KERNELS[:-1]})
    assert key != sweep_config_key(**base, config=TrainingConfig(known_depth=2))


def test_measurement_key_is_sensitive_to_spec_and_device():
    spec_a, spec_b = collection_specs("tiny")[:2]
    key = measurement_key(spec_a, KERNELS, MI100)
    assert key == measurement_key(spec_a, KERNELS, MI100)
    assert key != measurement_key(spec_b, KERNELS, MI100)
    assert key != measurement_key(spec_a, KERNELS[:-1], MI100)
    assert key != measurement_key(spec_a, KERNELS, SMALL_GPU)


# ----------------------------------------------------------------------
# Measurement JSON round trip
# ----------------------------------------------------------------------
def test_measurement_roundtrips_through_json_with_infinities():
    measurement = MatrixMeasurement(
        name="m",
        known=KnownFeatures(rows=10, cols=20, nnz=30),
        gathered=GatheredFeatures(0.5, 0.1, 0.3, 0.01, collection_time_ms=1.5),
        kernel_runtime_ms={"CSR,A": 1.0, "ELL,TM": math.inf},
        kernel_preprocessing_ms={"CSR,A": 0.25, "ELL,TM": 0.0},
    )
    payload = json.loads(json.dumps(measurement_to_dict(measurement)))
    restored = measurement_from_dict(payload)
    assert restored == measurement
    assert restored.gathered.collection_time_ms == 1.5
    assert math.isinf(restored.kernel_runtime_ms["ELL,TM"])


# ----------------------------------------------------------------------
# Construction and environment plumbing
# ----------------------------------------------------------------------
def test_engine_rejects_negative_jobs():
    with pytest.raises(ValueError):
        SweepEngine(jobs=-1)


def test_jobs_zero_uses_cpu_count():
    engine = SweepEngine(jobs=0)
    assert engine.jobs >= 1


def test_engine_from_env():
    assert engine_from_env({}) is None
    engine = engine_from_env({"SEER_JOBS": "3"})
    assert engine.jobs == 3 and engine.cache_dir is None
    engine = engine_from_env({"SEER_CACHE_DIR": "/tmp/seer-cache"})
    assert engine.jobs == 1 and str(engine.cache_dir) == "/tmp/seer-cache"


def test_engine_from_env_validates_jobs():
    assert engine_from_env({"SEER_JOBS": ""}) is None
    assert engine_from_env({"SEER_JOBS": "1"}) is None  # serial, cacheless
    with pytest.raises(ValueError, match="SEER_JOBS"):
        engine_from_env({"SEER_JOBS": "abc"})
    with pytest.raises(ValueError, match="SEER_JOBS"):
        engine_from_env({"SEER_JOBS": "-1"})


def test_engine_from_env_explicit_overrides_win_per_setting():
    environ = {"SEER_JOBS": "8", "SEER_CACHE_DIR": "/tmp/seer-cache"}
    # --jobs 1 forces the serial stage but keeps the configured cache
    engine = engine_from_env(environ, jobs=1)
    assert engine.jobs == 1 and str(engine.cache_dir) == "/tmp/seer-cache"
    # --jobs 4 does not discard the environment's cache dir
    engine = engine_from_env(environ, jobs=4)
    assert engine.jobs == 4 and str(engine.cache_dir) == "/tmp/seer-cache"
    # an explicit cache dir keeps the environment's jobs
    engine = engine_from_env(environ, cache_dir="/tmp/other")
    assert engine.jobs == 8 and str(engine.cache_dir) == "/tmp/other"
    # explicit serial + no cache -> no engine at all
    assert engine_from_env({"SEER_JOBS": "8"}, jobs=1) is None


def test_engine_accepts_collection_profile_objects(tmp_path):
    from repro.sparse.collection import CollectionProfile

    profile = CollectionProfile.from_name("tiny")
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    by_object = run_sweep(profile=profile, iteration_counts=(1,), engine=engine)
    reload_engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    by_name = run_sweep(profile="tiny", iteration_counts=(1,), engine=reload_engine)
    # the object and its name describe the same collection -> same cache key
    assert reload_engine.stats.sweep_cache_hits == 1
    assert by_name.suite.names() == by_object.suite.names()
    # a custom profile sharing the name must NOT collide with the built-in
    custom = CollectionProfile(
        name="tiny", sizes=(256,), variants=1, families=("regular",)
    )
    assert sweep_config_key(
        custom, 7, 13, (1,), MI100, KERNELS
    ) != sweep_config_key("tiny", 7, 13, (1,), MI100, KERNELS)


# ----------------------------------------------------------------------
# Generated-matrix artifact tier
# ----------------------------------------------------------------------
def test_matrix_artifacts_survive_measurement_tier_loss(tmp_path):
    populate = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = run_sweep(profile="tiny", iteration_counts=(1,), engine=populate)
    assert populate.stats.matrices_generated == len(first.suite)
    assert populate.stats.matrix_cache_hits == 0
    assert list((tmp_path / "matrices").glob("*.csr"))

    # Losing the measurement and sweep tiers (e.g. a code edit bumped the
    # code version) must not force matrix regeneration.
    shutil.rmtree(tmp_path / "measurements")
    shutil.rmtree(tmp_path / "sweeps")
    rebuild = SweepEngine(jobs=1, cache_dir=tmp_path)
    second = run_sweep(profile="tiny", iteration_counts=(1,), engine=rebuild)
    assert rebuild.stats.matrices_generated == 0
    assert rebuild.stats.matrix_cache_hits == len(first.suite)
    assert second.test_report.aggregate_table() == first.test_report.aggregate_table()


def test_corrupt_matrix_artifact_is_regenerated(tmp_path):
    populate = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = run_sweep(profile="tiny", iteration_counts=(1,), engine=populate)
    for artifact in (tmp_path / "matrices").glob("*.csr"):
        artifact.write_bytes(b"not a container")
    shutil.rmtree(tmp_path / "measurements")
    shutil.rmtree(tmp_path / "sweeps")

    retry = SweepEngine(jobs=1, cache_dir=tmp_path)
    second = run_sweep(profile="tiny", iteration_counts=(1,), engine=retry)
    assert retry.stats.matrix_cache_hits == 0
    assert retry.stats.matrices_generated == len(first.suite)
    assert second.test_report.aggregate_table() == first.test_report.aggregate_table()


@pytest.mark.parametrize("domain", ["spmv", "spmm"])
def test_sweeps_never_draw_matrix_values(domain, tmp_path, monkeypatch):
    """Features and cost models read structure only: values stay undrawn."""
    from repro.sparse.csr import DeferredValues

    def _refuse(self):
        raise AssertionError("a sweep drew matrix values")

    monkeypatch.setattr(DeferredValues, "draw", _refuse)
    cold = SweepEngine(jobs=1, cache_dir=tmp_path)
    cold.run_sweep(profile="tiny", domain=domain)
    shutil.rmtree(tmp_path / "measurements")
    shutil.rmtree(tmp_path / "sweeps")
    warm = SweepEngine(jobs=1, cache_dir=tmp_path)
    warm.run_sweep(profile="tiny", domain=domain)
    assert cold.stats.matrices_generated > 0
    assert warm.stats.matrices_generated == 0
    assert warm.stats.matrix_cache_hits == warm.stats.matrices_measured


def test_uncached_spmm_sweep_generates_each_recipe_once():
    """The ``num_vectors`` variants of one recipe share one built matrix."""
    from repro.domains.spmm import NUM_VECTORS_GRID, SPMM

    specs = SPMM.collection_specs("tiny")
    engine = SweepEngine()
    run_sweep(profile="tiny", domain="spmm", iteration_counts=(1,), engine=engine)
    assert engine.stats.matrices_generated == len(specs) // len(NUM_VECTORS_GRID)
    assert engine.stats.matrix_cache_hits == len(specs) - engine.stats.matrices_generated


def test_spmv_sweeps_never_expand_column_runs(tmp_path, monkeypatch):
    """SpMV features and cost models read row_offsets only: columns stay runs."""
    from repro.sparse.csr import RowRuns

    def _refuse(self, row_offsets, num_cols):
        raise AssertionError("a sweep expanded column runs")

    monkeypatch.setattr(RowRuns, "expand", _refuse)
    cold = SweepEngine(jobs=1, cache_dir=tmp_path)
    cold.run_sweep(profile="tiny", domain="spmv")
    shutil.rmtree(tmp_path / "measurements")
    shutil.rmtree(tmp_path / "sweeps")
    warm = SweepEngine(jobs=1, cache_dir=tmp_path)
    warm.run_sweep(profile="tiny", domain="spmv")
    assert cold.stats.matrices_generated > 0
    assert warm.stats.matrices_generated == 0
    assert warm.stats.matrix_cache_hits == warm.stats.matrices_measured


def test_matrix_roundtrips_through_the_tier_container(tmp_path):
    from repro.sparse import generators as gen
    from repro.sparse.io import csr_to_tier_bytes, load_tier

    matrix = gen.power_law_matrix(50, 40, 4.0, rng=3)
    path = tmp_path / "m.csr"
    path.write_bytes(csr_to_tier_bytes(matrix))
    restored = load_tier(path)
    assert restored.shape == matrix.shape
    assert (restored.row_offsets == matrix.row_offsets).all()
    assert (restored.col_indices == matrix.col_indices).all()
    assert (restored.values == matrix.values).all()


def test_matrix_key_ignores_name_but_not_recipe():
    from repro.bench.engine import matrix_key

    spec_a, spec_b = collection_specs("tiny")[:2]
    renamed = type(spec_a)(
        name="renamed",
        family=spec_a.family,
        builder=spec_a.builder,
        params=spec_a.params,
        seed=spec_a.seed,
    )
    assert matrix_key(spec_a) == matrix_key(renamed)
    assert matrix_key(spec_a) != matrix_key(spec_b)


def test_measurement_keys_differ_across_domains():
    spec = collection_specs("tiny")[0]
    assert measurement_key(spec, KERNELS, MI100, "spmv") != measurement_key(
        spec, KERNELS, MI100, "spmm"
    )


def test_sweep_config_key_differs_across_domains():
    base = {
        "profile": "tiny",
        "seed": 7,
        "split_seed": 13,
        "iteration_counts": DEFAULT_ITERATION_COUNTS,
        "device": MI100,
        "kernel_labels": KERNELS,
    }
    assert sweep_config_key(**base, domain="spmv") != sweep_config_key(**base, domain="spmm")


def test_experiment_suite_warm_cache_equals_cold_run(tmp_path):
    """Parity at the experiment layer: a warm engine reproduces a cold run.

    Every registered experiment is run twice per domain — once against a
    cold cache (benchmarking happens) and once against the now-warm cache
    (the sweep is served from disk) — and the persisted artifacts must be
    byte-identical.
    """
    from repro.experiments.registry import (
        ExperimentContext,
        experiments_for,
        run_experiment,
        write_artifact,
    )

    cache = tmp_path / "cache"
    for domain in ("spmv", "spmm"):
        cold = ExperimentContext(
            domain=domain, profile="tiny", engine=SweepEngine(jobs=1, cache_dir=cache)
        )
        warm = ExperimentContext(
            domain=domain, profile="tiny", engine=SweepEngine(jobs=1, cache_dir=cache)
        )
        for spec in experiments_for(domain):
            cold_result = run_experiment(spec, cold)
            warm_result = run_experiment(spec, warm)
            cold_paths = write_artifact(spec, cold, cold_result, tmp_path / "cold")
            warm_paths = write_artifact(spec, warm, warm_result, tmp_path / "warm")
            for key in ("data", "manifest"):
                label = (domain, spec.name, key)
                assert cold_paths[key].read_bytes() == warm_paths[key].read_bytes(), label
        # The warm context really was served from the sweep artifact tier.
        assert cold.engine.stats.sweep_cache_misses == 1
        assert warm.engine.stats.sweep_cache_hits == 1
        assert warm.engine.stats.matrices_measured == 0


def test_truncated_zip_matrix_artifact_is_regenerated(tmp_path):
    from repro.bench.engine import _load_matrix_artifact

    # A truncated zip where a container belongs (say, an entry of an older
    # npz-based tier renamed into place) must read as a miss, never a crash.
    artifact = tmp_path / "bad.csr"
    artifact.write_bytes(b"PK\x03\x04" + b"\x00" * 16)
    assert _load_matrix_artifact(artifact) is None

