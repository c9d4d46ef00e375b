"""Parity tests for the shared FeaturePipeline.

The pipeline is the single featurization path of the reproduction; these
tests pin that its output is element-wise identical to the legacy
*sweep-side* extraction (``domain.known_features`` + the domain collector,
what ``run_benchmark_suite`` used to inline) and the legacy *inference-side*
extraction (what ``SeerPredictor`` used to inline) — for both registered
domains, over hypothesis-generated workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import get_domain
from repro.pipeline import FeatureBundle, FeaturePipeline
from repro.sparse.generators import power_law_matrix


@st.composite
def workload_params(draw):
    """Size/degree/seed triples for small power-law matrices."""
    rows = draw(st.integers(min_value=1, max_value=96))
    cols = draw(st.integers(min_value=1, max_value=96))
    degree = draw(st.floats(min_value=0.5, max_value=8.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    iterations = draw(st.sampled_from([1, 4, 19]))
    return rows, cols, degree, seed, iterations


def _workload(domain, rows, cols, degree, seed):
    matrix = power_law_matrix(rows, cols, degree, rng=seed)
    options = (
        {"num_vectors": 8} if "num_vectors" in domain.serving_option_names else {}
    )
    return domain.serving_workload(matrix, options)


@pytest.mark.parametrize("domain_name", ["spmv", "spmm"])
@given(params=workload_params())
@settings(max_examples=25, deadline=None)
def test_pipeline_matches_legacy_sweep_side_extraction(domain_name, params):
    """pipeline.extract == domain.known_features + collector.collect."""
    rows, cols, degree, seed, _ = params
    domain = get_domain(domain_name)
    workload = _workload(domain, rows, cols, degree, seed)
    bundle = domain.make_pipeline().extract(workload)

    legacy_known = domain.known_features(workload)
    legacy_collection = domain.make_collector().collect(workload)
    np.testing.assert_array_equal(bundle.known.as_vector(), legacy_known.as_vector())
    np.testing.assert_array_equal(
        bundle.gathered.as_vector(), legacy_collection.features.as_vector()
    )
    assert bundle.collected
    assert bundle.collection_time_ms == legacy_collection.features.collection_time_ms


@pytest.mark.parametrize("domain_name", ["spmv", "spmm"])
@given(params=workload_params())
@settings(max_examples=25, deadline=None)
def test_pipeline_matches_legacy_inference_side_extraction(domain_name, params):
    """Known features at arbitrary iteration counts match the runtime flow."""
    rows, cols, degree, seed, iterations = params
    domain = get_domain(domain_name)
    workload = _workload(domain, rows, cols, degree, seed)
    pipeline = domain.make_pipeline()

    known = pipeline.known_features(workload, iterations)
    legacy = domain.known_features(workload, iterations)
    np.testing.assert_array_equal(known.as_vector(), legacy.as_vector())
    assert known.iterations == iterations

    gathered = pipeline.gather(workload)
    legacy_gathered = domain.make_collector().collect(workload).features
    np.testing.assert_array_equal(gathered.as_vector(), legacy_gathered.as_vector())
    assert gathered.collection_time_ms == legacy_gathered.collection_time_ms


def test_extract_without_gather_uses_empty_row():
    domain = get_domain("spmv")
    workload = power_law_matrix(40, 40, 3.0, rng=7)
    bundle = domain.make_pipeline().extract(workload, gather=False)
    assert isinstance(bundle, FeatureBundle)
    assert not bundle.collected
    assert bundle.collection_time_ms == 0.0
    np.testing.assert_array_equal(bundle.gathered.as_vector(), np.zeros(4))


def test_pipeline_reuses_one_collector():
    pipeline = get_domain("spmv").make_pipeline()
    assert pipeline.collector is pipeline.collector


def test_pipeline_accepts_injected_collector():
    domain = get_domain("spmv")
    collector = domain.make_collector()
    pipeline = FeaturePipeline(domain=domain, collector=collector)
    assert pipeline.collector is collector


def test_load_workload_from_source(tmp_path):
    from repro.sparse.io import write_matrix_market

    matrix = power_law_matrix(30, 30, 3.0, rng=5)
    path = tmp_path / "m.mtx"
    write_matrix_market(matrix, path)

    spmv_workload = get_domain("spmv").make_pipeline().load_workload(path)
    np.testing.assert_allclose(spmv_workload.to_dense(), matrix.to_dense())

    spmm_workload = (
        get_domain("spmm").make_pipeline().load_workload(path, {"num_vectors": 4})
    )
    assert spmm_workload.num_vectors == 4
    np.testing.assert_allclose(spmm_workload.matrix.to_dense(), matrix.to_dense())


def test_extract_from_source_matches_in_memory(tmp_path):
    from repro.sparse.io import write_matrix_market

    domain = get_domain("spmv")
    matrix = power_law_matrix(50, 50, 4.0, rng=11)
    path = tmp_path / "m.mtx"
    write_matrix_market(matrix, path)
    pipeline = domain.make_pipeline()
    from_file = pipeline.extract(pipeline.load_workload(path), iterations=4)
    in_memory = pipeline.extract(domain.serving_workload(matrix, {}), iterations=4)
    np.testing.assert_array_equal(
        from_file.known.as_vector(), in_memory.known.as_vector()
    )
    np.testing.assert_array_equal(
        from_file.gathered.as_vector(), in_memory.gathered.as_vector()
    )


def test_sweep_and_predictor_share_the_pipeline_path():
    """The two consumers produce identical features for one workload."""
    from repro.core.benchmarking import measure_matrix
    from repro.core.inference import SeerPredictor

    domain = get_domain("spmv")
    workload = power_law_matrix(64, 64, 4.0, rng=3)
    pipeline = domain.make_pipeline()
    measurement = measure_matrix("w", workload, domain.default_kernels(), pipeline)

    # The predictor's pipeline is the same implementation; its gathered
    # features (when the selector routes there) must equal the sweep's.
    np.testing.assert_array_equal(
        pipeline.gather(workload).as_vector(), measurement.gathered.as_vector()
    )
    np.testing.assert_array_equal(
        pipeline.known_features(workload).as_vector(), measurement.known.as_vector()
    )

    from repro.bench.runner import run_sweep

    sweep = run_sweep(profile="tiny")
    predictor = SeerPredictor(sweep.models, domain=domain, pipeline=pipeline)
    assert predictor.pipeline is pipeline
    decision = predictor.predict(workload, iterations=1, name="w")
    if decision.selector_choice == "gathered":
        np.testing.assert_array_equal(
            decision.gathered.as_vector(), measurement.gathered.as_vector()
        )
