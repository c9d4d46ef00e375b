"""What an ingest-cache hit costs: one read, one CRC, views, no widening.

A served SpMV workload never reads its column indices, so a hit keeps the
stored int32 columns as a view of the read buffer; its feature collection
and kernel timing share one launch context; and the daemon's memoized
cache derives the same keys as the plain one.
"""

import dataclasses
import time

import numpy as np
import pytest

import repro.kernels.feature_kernels as feature_kernels
import repro.serving.ingest as ingest_module
import repro.serving.service as service_module
from repro.core.training import USE_GATHERED
from repro.kernels.base import LaunchContext
from repro.pipeline.sources import resolve_source, source_from_path
from repro.serving.backends import CompiledBackend
from repro.serving.ingest import IngestCache
from repro.serving.requests import ServeRequest, evaluate_requests
from repro.serving.service import MemoizedIngestCache
from repro.sparse.generators import power_law_matrix
from repro.sparse.io import read_matrix_market, write_matrix_market


class RouteEverythingToGathered:
    """The compiled backend, with every row routed to the gathered classifier."""

    def __init__(self, models):
        self.backend = CompiledBackend(models)

    def predict_batch(self, known_matrix, gathered_matrix=None):
        selection = self.backend.predict_batch(known_matrix, gathered_matrix)
        return dataclasses.replace(
            selection, selector_choices=(USE_GATHERED,) * len(selection)
        )


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "pl.mtx"
    write_matrix_market(power_law_matrix(300, 300, 6.0, rng=3), path)
    return path


@pytest.fixture()
def loaded_matrices(monkeypatch):
    """Every matrix ``ingest_matrix`` returns, with its hit flag."""
    loaded = []
    real = ingest_module.ingest_matrix

    def recording(source, cache=None):
        matrix, hit = real(source, cache)
        loaded.append((matrix, hit))
        return matrix, hit

    monkeypatch.setattr(ingest_module, "ingest_matrix", recording)
    return loaded


def test_spmv_cache_hit_serves_without_widening_the_stored_columns(
    tiny_sweep, matrix_file, tmp_path, loaded_matrices
):
    """Guards the lazy widening on the serving path: a hit stays int32 views."""
    request = ServeRequest(name="pl", source=str(matrix_file))
    cache = IngestCache(tmp_path / "cache")
    models = tiny_sweep.models
    backend = RouteEverythingToGathered(models)
    cold, _ = evaluate_requests(models, [request], domain="spmv", cache=cache, backend=backend)
    warm, stats = evaluate_requests(
        models, [request], domain="spmv", cache=cache, backend=backend
    )
    assert stats.ingest_cache_hits == 1
    assert warm == cold
    assert warm[0].selector_choice == USE_GATHERED and warm[0].executed
    matrix, hit = loaded_matrices[-1]
    assert hit
    stored = matrix._col_indices
    assert stored.dtype == np.int32
    assert stored.base.obj is matrix.row_offsets.base.obj  # a view of the one read
    # Reading the columns widens them then, to the parsed matrix's columns.
    np.testing.assert_array_equal(
        matrix.col_indices, read_matrix_market(matrix_file).col_indices
    )


def test_routed_source_request_gathers_from_its_timing_context(
    tiny_sweep, matrix_file, monkeypatch
):
    """Guards the shared context: one per workload, its row lengths gathered."""
    contexts = []
    received = []
    real_init = LaunchContext.__init__
    real_gathered = feature_kernels.gathered_features

    def init(self, matrix):
        contexts.append(self)
        real_init(self, matrix)

    def gathered(matrix, row_lengths=None):
        received.append(row_lengths)
        return real_gathered(matrix, row_lengths=row_lengths)

    monkeypatch.setattr(LaunchContext, "__init__", init)
    monkeypatch.setattr(feature_kernels, "gathered_features", gathered)
    request = ServeRequest(name="pl", source=str(matrix_file))
    [response], _ = evaluate_requests(
        tiny_sweep.models,
        [request],
        domain="spmv",
        backend=RouteEverythingToGathered(tiny_sweep.models),
    )
    assert response.selector_choice == USE_GATHERED and response.executed
    assert len(contexts) == 1
    assert len(received) == 1 and received[0] is not None
    assert received[0] is contexts[0].row_lengths_f64


@pytest.fixture()
def aged(monkeypatch):
    """Every file looks a minute old: past the racy window, without waiting."""
    monkeypatch.setattr(
        service_module, "_wall_clock_ns", lambda: time.time_ns() + 60 * 10**9
    )


def test_memoized_paths_equal_the_plain_cache_paths_across_an_in_place_edit(
    matrix_file, tmp_path, aged
):
    """Guards the memoized key: never a key the plain cache would not derive."""
    hits = []
    memoized = MemoizedIngestCache(tmp_path / "cache", on_memo_hit=lambda: hits.append(1))
    plain = IngestCache(tmp_path / "cache")
    source = source_from_path(matrix_file)
    before = plain.path(source)
    assert memoized.path(source) == before
    assert memoized.path(source) == before
    assert len(hits) == 1  # the second path came from the memo
    size = matrix_file.stat().st_size
    write_matrix_market(power_law_matrix(300, 300, 4.0, rng=5), matrix_file)
    assert matrix_file.stat().st_size != size  # the stat identity changed
    after = plain.path(source)
    assert after != before
    assert memoized.path(source) == after
    assert memoized.path(source) == after
    assert len(hits) == 2
    recipe = resolve_source("recipe:diagonal_matrix?num_rows=64")
    assert memoized.path(recipe) == plain.path(recipe)
