"""Tests for raw-matrix ingestion and batch serving (``repro serve``)."""

import math

import numpy as np
import pytest

from repro.pipeline.sources import discover_sources, source_from_path
from repro.serving.ingest import (
    DECISIONS_FILE_NAME,
    SERVE_MANIFEST_FILE_NAME,
    IngestCache,
    ServeResult,
    ingest_matrix,
    ingest_records,
    serve_sources,
    write_serve_artifact,
)
from repro.serving.requests import IngestError, feature_matrix, parse_workload_options
from repro.sparse.generators import banded_matrix, power_law_matrix, regular_matrix
from repro.sparse.io import save_npz, write_matrix_market


@pytest.fixture()
def corpus(tmp_path):
    """A small mixed corpus: .mtx, .npz and a recipe via manifest."""
    directory = tmp_path / "corpus"
    directory.mkdir()
    write_matrix_market(power_law_matrix(200, 200, 5.0, rng=3), directory / "pl.mtx")
    save_npz(banded_matrix(128, 7, rng=1), directory / "band.npz")
    write_matrix_market(regular_matrix(96, 96, 4, rng=2), directory / "reg.mtx")
    return directory


# ----------------------------------------------------------------------
# The ingest cache tier
# ----------------------------------------------------------------------
def test_ingest_cache_roundtrip_and_hit(tmp_path, corpus):
    cache = IngestCache(tmp_path / "cache")
    source = source_from_path(corpus / "pl.mtx")
    matrix, hit = ingest_matrix(source, cache)
    assert not hit
    again, hit = ingest_matrix(source, cache)
    assert hit
    np.testing.assert_allclose(again.to_dense(), matrix.to_dense())
    assert cache.path(source).is_file()


def test_ingest_cache_key_tracks_file_content(tmp_path, corpus):
    cache = IngestCache(tmp_path / "cache")
    source = source_from_path(corpus / "pl.mtx")
    first_key = cache.key(source)
    write_matrix_market(power_law_matrix(200, 200, 5.0, rng=99), corpus / "pl.mtx")
    assert cache.key(source) != first_key


def test_corrupt_cache_entry_is_a_miss(tmp_path, corpus):
    cache = IngestCache(tmp_path / "cache")
    source = source_from_path(corpus / "band.npz")
    ingest_matrix(source, cache)
    cache.path(source).write_bytes(b"definitely not an npz archive")
    matrix, hit = ingest_matrix(source, cache)
    assert not hit  # corrupt artifact reparsed, never fatal
    np.testing.assert_allclose(
        matrix.to_dense(), banded_matrix(128, 7, rng=1).to_dense()
    )


def test_ingest_records_builds_domain_workloads(corpus):
    records = ingest_records(corpus, domain="spmm", options={"num_vectors": 4})
    assert [r.name for r in records] == ["band", "pl", "reg"]
    assert all(r.matrix.num_vectors == 4 for r in records)
    assert {r.family for r in records} == {"mtx", "npz"}


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def test_serve_sources_decides_for_every_source(tiny_sweep, corpus):
    result = serve_sources(corpus, tiny_sweep.models, domain="spmv")
    assert isinstance(result, ServeResult)
    assert [d.name for d in result.decisions] == ["band", "pl", "reg"]
    kernel_names = set(tiny_sweep.models.kernel_names)
    for decision in result.decisions:
        assert decision.kernel in kernel_names
        assert decision.selector_choice in ("known", "gathered")
        assert decision.inference_time_ms > 0.0
        if decision.selector_choice == "known":
            assert decision.collection_time_ms == 0.0
        else:
            assert decision.collection_time_ms > 0.0
        assert math.isfinite(decision.total_ms) or not decision.supported


def test_parallel_serve_is_bit_identical_to_serial(tiny_sweep, tmp_path, corpus):
    serial = serve_sources(
        corpus, tiny_sweep.models, domain="spmv", cache_dir=tmp_path / "c1"
    )
    parallel = serve_sources(
        corpus, tiny_sweep.models, domain="spmv", jobs=2, cache_dir=tmp_path / "c2"
    )
    assert serial.decisions == parallel.decisions
    out_a = write_serve_artifact(serial, tmp_path / "a")
    out_b = write_serve_artifact(parallel, tmp_path / "b")
    assert out_a["data"].read_bytes() == out_b["data"].read_bytes()
    assert out_a["manifest"].read_bytes() == out_b["manifest"].read_bytes()


def test_warm_cache_serve_is_bit_identical(tiny_sweep, tmp_path, corpus):
    cache_dir = tmp_path / "cache"
    cold = serve_sources(corpus, tiny_sweep.models, domain="spmv", cache_dir=cache_dir)
    warm = serve_sources(corpus, tiny_sweep.models, domain="spmv", cache_dir=cache_dir)
    assert cold.stats.matrices_ingested == 3 and cold.stats.ingest_cache_hits == 0
    assert warm.stats.matrices_ingested == 0 and warm.stats.ingest_cache_hits == 3
    assert cold.decisions == warm.decisions
    a = write_serve_artifact(cold, tmp_path / "a")
    b = write_serve_artifact(warm, tmp_path / "b")
    assert a["data"].read_bytes() == b["data"].read_bytes()
    assert a["manifest"].read_bytes() == b["manifest"].read_bytes()


def test_serve_respects_iterations(tiny_sweep, corpus):
    once = serve_sources(corpus, tiny_sweep.models, domain="spmv", iterations=1)
    many = serve_sources(corpus, tiny_sweep.models, domain="spmv", iterations=19)
    for one, nineteen in zip(once.decisions, many.decisions):
        assert nineteen.known.iterations == 19
        if one.supported and nineteen.supported and one.kernel == nineteen.kernel:
            assert nineteen.kernel_total_ms > one.kernel_total_ms


def test_serve_rejects_bad_iterations(tiny_sweep, corpus):
    with pytest.raises(ValueError, match="iterations"):
        serve_sources(corpus, tiny_sweep.models, domain="spmv", iterations=0)


def test_serve_artifact_format(tiny_sweep, tmp_path, corpus):
    import csv
    import json

    result = serve_sources(corpus, tiny_sweep.models, domain="spmv")
    paths = write_serve_artifact(
        result, tmp_path / "out", model_info={"domain": "spmv"}
    )
    assert paths["data"].name == DECISIONS_FILE_NAME
    assert paths["manifest"].name == SERVE_MANIFEST_FILE_NAME
    with open(paths["data"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    assert {"name", "rows", "cols", "nnz", "selector_choice", "kernel"} <= set(rows[0])
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["experiment"] == "serve"
    assert manifest["domain"]["name"] == "spmv"
    assert manifest["row_count"] == 3
    assert manifest["summary"]["workloads"] == 3
    assert manifest["model"] == {"domain": "spmv"}
    assert manifest["sources"]["kinds"] == {"mtx": 2, "npz": 1}


def test_serve_spmm_corpus_with_workload_options(tiny_sweep_spmm, corpus):
    result = serve_sources(
        corpus,
        tiny_sweep_spmm.models,
        domain="spmm",
        options={"num_vectors": 16},
    )
    for decision in result.decisions:
        assert decision.known.num_vectors == 16
        assert decision.kernel in tiny_sweep_spmm.models.kernel_names


def test_serve_a_recipe_spec_directly(tiny_sweep):
    result = serve_sources(
        "recipe:power_law_matrix?num_rows=256&num_cols=256&avg_row_length=4&seed=5",
        tiny_sweep.models,
        domain="spmv",
    )
    assert len(result.decisions) == 1
    assert result.decisions[0].known.rows == 256


def test_ingested_corpora_feed_the_benchmark_suite(corpus):
    from repro.core.benchmarking import run_benchmark_suite

    records = ingest_records(corpus, domain="spmv")
    assert [r.name for r in records] == ["band", "pl", "reg"]
    suite = run_benchmark_suite(records, domain="spmv")
    assert suite.names() == ["band", "pl", "reg"]
    assert suite.domain_name == "spmv"
    measurement = suite.get("pl")
    assert measurement.known.rows == 200
    assert measurement.gathered.collection_time_ms > 0.0


def test_fractional_num_vectors_rejected(tiny_sweep_spmm, corpus):
    # The unified request core labels the failing request instead of letting
    # the domain's raw ValueError escape.
    with pytest.raises(IngestError, match="whole number"):
        serve_sources(
            corpus,
            tiny_sweep_spmm.models,
            domain="spmm",
            options={"num_vectors": 2.5},
        )


def test_serve_jobs_zero_means_one_worker_per_cpu(tiny_sweep, corpus):
    all_cpus = serve_sources(corpus, tiny_sweep.models, domain="spmv", jobs=0)
    serial = serve_sources(corpus, tiny_sweep.models, domain="spmv", jobs=1)
    assert all_cpus.decisions == serial.decisions
    with pytest.raises(ValueError, match="jobs"):
        serve_sources(corpus, tiny_sweep.models, domain="spmv", jobs=-2)


def test_ingest_cache_expands_user_home(monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = IngestCache("~/.cache/seer")
    assert str(cache.root).startswith(str(tmp_path))


def test_corpus_suite_forwards_workload_options(tiny_sweep_spmm, corpus):
    from repro.serving.feedback import feedback_from_corpus

    result = feedback_from_corpus(
        tiny_sweep_spmm.models, corpus, domain="spmm", options={"num_vectors": 16}
    )
    column = result.dataset.known_feature_names.index("num_vectors")
    assert [sample.known_vector[column] for sample in result.dataset.samples] == [16.0] * 3


def test_binary_manifest_rejected(tmp_path):
    from repro.pipeline.sources import MatrixSourceError, discover_sources

    binary = tmp_path / "corpus.bin"
    binary.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(MatrixSourceError, match="not a readable manifest"):
        discover_sources(binary)


# ----------------------------------------------------------------------
# The shared column-validation helper
# ----------------------------------------------------------------------
def test_feature_matrix_parses_floats():
    rows = [{"a": "1", "b": "2.5"}, {"a": "3", "b": "4"}]
    assert feature_matrix(rows, ["a", "b"], "f.csv", "known") == [
        [1.0, 2.5],
        [3.0, 4.0],
    ]


def test_feature_matrix_one_line_errors():
    with pytest.raises(IngestError, match=r"f.csv:2 is missing known feature"):
        feature_matrix([{"a": "1"}], ["a", "missing"], "f.csv", "known")
    with pytest.raises(IngestError, match=r"f.csv:3 has a non-numeric value"):
        feature_matrix(
            [{"a": "1"}, {"a": "banana"}], ["a"], "f.csv", "known"
        )
    with pytest.raises(IngestError, match="missing"):
        feature_matrix([{"a": None}], ["a"], "f.csv", "known")


def test_parse_workload_options():
    assert parse_workload_options(["num_vectors=8", "scale=1.5"]) == {
        "num_vectors": 8,
        "scale": 1.5,
    }
    assert parse_workload_options([]) == {}
    with pytest.raises(IngestError, match="malformed"):
        parse_workload_options(["oops"])
    with pytest.raises(IngestError, match="non-numeric"):
        parse_workload_options(["k=v"])


def test_discover_sources_used_by_serve_matches_direct_list(tiny_sweep, corpus):
    sources = discover_sources(corpus)
    by_target = serve_sources(corpus, tiny_sweep.models, domain="spmv")
    by_list = serve_sources(sources, tiny_sweep.models, domain="spmv")
    assert by_target.decisions == by_list.decisions


def test_unknown_workload_options_rejected_loudly(tiny_sweep, corpus):
    """A typo must not silently serve the corpus with default parameters."""
    with pytest.raises(ValueError, match="num_vector.*did you mean"):
        serve_sources(
            corpus, tiny_sweep.models, domain="spmm", options={"num_vector": 16}
        )
    with pytest.raises(ValueError, match="accepts none"):
        serve_sources(
            corpus, tiny_sweep.models, domain="spmv", options={"num_vectors": 16}
        )
    with pytest.raises(ValueError, match="workload option"):
        ingest_records(corpus, domain="spmv", options={"bogus": 1})


def test_list_targets_reject_duplicate_names(tiny_sweep, tmp_path, corpus):
    from repro.pipeline.sources import MatrixSourceError

    other = tmp_path / "other"
    other.mkdir()
    write_matrix_market(power_law_matrix(10, 10, 2.0, rng=9), other / "pl.mtx")
    with pytest.raises(MatrixSourceError, match="duplicate source name"):
        serve_sources(
            [corpus / "pl.mtx", other / "pl.mtx"], tiny_sweep.models, domain="spmv"
        )


def test_ingest_miss_digests_the_file_once(tmp_path, corpus, monkeypatch):
    import repro.serving.ingest as ingest_module

    calls = []
    real = ingest_module.source_digest
    monkeypatch.setattr(
        ingest_module, "source_digest", lambda s: calls.append(1) or real(s)
    )
    cache = IngestCache(tmp_path / "cache")
    ingest_matrix(source_from_path(corpus / "pl.mtx"), cache)
    assert len(calls) == 1  # one digest per miss, not one per load+store


def test_serve_accepts_a_mixed_list_of_paths_and_specs(tiny_sweep, corpus):
    """Explicit lists may mix MatrixSource objects, paths and recipe specs."""
    mixed = [
        source_from_path(corpus / "band.npz"),
        str(corpus / "pl.mtx"),
        "recipe:diagonal_matrix?num_rows=64&name=diag",
    ]
    result = serve_sources(mixed, tiny_sweep.models, domain="spmv")
    assert [d.name for d in result.decisions] == ["band", "pl", "diag"]
    records = ingest_records(mixed, domain="spmv")
    assert [r.name for r in records] == ["band", "pl", "diag"]
