"""The daemon's memo of prepared sources (``PreparedSourceMemo``).

A repeat source request is decided from what the first one derived — the
known row, the gathered row and every kernel's timing — with no matrix
load, featurization, collection or kernel timing, and every response must
equal the memo-less serving core and the serial Fig. 3 walk field for
field.  The racy-clean margin is exercised by patching the service's wall
clock, never by sleeping through it.
"""

import dataclasses
import json
import math
import os
import time
import urllib.request

import numpy as np
import pytest

import repro.serving.ingest as ingest_module
import repro.serving.service as service_module
import repro.sparse.io as sparse_io
from repro.core.training import USE_GATHERED, USE_KNOWN
from repro.domains import get_domain
from repro.kernels.base import SpmvKernel
from repro.pipeline import FeaturePipeline
from repro.serving.artifacts import save_models
from repro.serving.backends import CompiledBackend
from repro.serving.requests import ServeRequest, evaluate_requests
from repro.serving.service import MemoizedIngestCache, ServiceConfig, ServingService
from repro.sparse.generators import banded_matrix, matrix_from_row_lengths, power_law_matrix
from repro.sparse.io import save_npz, write_matrix_market
from serial_walk import serial_decision

MINUTE_NS = 60 * 10**9


class ChooseKernel:
    """The compiled backend, with every row routed known to one kernel."""

    def __init__(self, models, kernel):
        self.backend = CompiledBackend(models)
        self.kernel = kernel

    def predict_batch(self, known_matrix, gathered_matrix=None):
        selection = self.backend.predict_batch(known_matrix, gathered_matrix)
        return dataclasses.replace(
            selection,
            selector_choices=(USE_KNOWN,) * len(selection),
            known_kernels=(self.kernel,) * len(selection),
        )


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
def aged(monkeypatch):
    """Every file looks a minute old: past the racy window, without waiting."""
    monkeypatch.setattr(
        service_module, "_wall_clock_ns", lambda: time.time_ns() + MINUTE_NS
    )


@pytest.fixture(scope="module")
def model_path(tiny_sweep, tmp_path_factory):
    directory = tmp_path_factory.mktemp("prepared-memo-model")
    return str(
        save_models(tiny_sweep.models, directory / "model.json", domain="spmv")
    )


@pytest.fixture()
def corpus(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    write_matrix_market(power_law_matrix(200, 200, 5.0, rng=3), directory / "pl.mtx")
    write_matrix_market(banded_matrix(128, 7, rng=1), directory / "band.mtx")
    write_matrix_market(power_law_matrix(160, 160, 4.0, rng=9), directory / "pl2.mtx")
    return directory


def _service(model_path, tmp_path, **settings):
    return ServingService(
        ServiceConfig(
            model=model_path,
            cache_dir=str(tmp_path / "cache"),
            log_dir=str(tmp_path / "logs"),
            **settings,
        )
    )


def _serve(service, path, name="m", **fields):
    return service.serve_request(ServeRequest(name=name, source=str(path), **fields))


def _fresh(models, path, name="m", domain="spmv", **fields):
    """A cache-less ``evaluate_requests`` of ``path`` — the reference decision."""
    [response], _ = evaluate_requests(
        models, [ServeRequest(name=name, source=str(path), **fields)], domain=domain
    )
    return response


def _assert_same(responses, expected):
    """Equal field for field, including what ``==`` leaves out."""
    assert responses == expected
    for response, reference in zip(responses, expected):
        assert response.to_payload() == reference.to_payload()
        assert response.gathered.collection_time_ms == reference.gathered.collection_time_ms


# ----------------------------------------------------------------------
# Equality with the memo-less core and the serial walk
# ----------------------------------------------------------------------
def _tiny_matrix(domain, name):
    spec = next(s for s in domain.collection_specs("tiny") if s.name == name)
    return domain.spec_matrix(spec)


@pytest.mark.parametrize(
    "domain_name, routed_spec, options",
    [
        ("spmv", "power_law_1024_0", {}),
        ("spmm", "power_law_1024_0_v4", {"num_vectors": 4}),
    ],
)
def test_memoized_responses_equal_the_core_and_the_serial_walk(
    request, tmp_path, aged, domain_name, routed_spec, options
):
    sweep = request.getfixturevalue("tiny_sweep" if domain_name == "spmv" else "tiny_sweep_spmm")
    domain = get_domain(domain_name)
    matrices = {
        "pl": power_law_matrix(200, 200, 5.0, rng=3),
        "band": banded_matrix(128, 7, rng=1),
        "routed": _tiny_matrix(domain, routed_spec),
    }
    requests, workloads = [], []
    for name, matrix in matrices.items():
        path = tmp_path / f"{name}.npz"
        save_npz(matrix, path)
        for iterations in (1, 7, 19):
            requests.append(
                ServeRequest(
                    name=name, source=str(path), iterations=iterations, options=dict(options)
                )
            )
            workloads.append((domain.serving_workload(matrix, options), iterations))
    expected, _ = evaluate_requests(sweep.models, requests, domain=domain)
    cache = MemoizedIngestCache(tmp_path / "cache")
    first, first_stats = evaluate_requests(sweep.models, requests, domain=domain, cache=cache)
    repeat, repeat_stats = evaluate_requests(sweep.models, requests, domain=domain, cache=cache)
    _assert_same(first, expected)
    _assert_same(repeat, expected)
    assert (first_stats.matrices_ingested, first_stats.prepared_memo_hits) == (3, 6)
    assert (repeat_stats.matrices_ingested, repeat_stats.prepared_memo_hits) == (0, 9)
    assert repeat_stats.ingest_cache_hits == 9
    pipeline = domain.make_pipeline()
    routes = set()
    for response, (workload, iterations) in zip(repeat, workloads):
        serial = serial_decision(sweep.models, pipeline, workload, iterations)
        assert response.selector_choice == serial.selector_choice
        assert response.kernel == serial.kernel
        assert response.known == serial.known
        assert response.gathered == serial.gathered
        assert response.collection_time_ms == serial.collection_time_ms
        assert response.inference_time_ms == serial.inference_time_ms
        assert response.iterations == iterations and response.executed
        routes.add(serial.selector_choice)
    assert routes == {"known", "gathered"}  # both paths exercised


def test_a_hit_touches_no_matrix(tiny_sweep, corpus, tmp_path, monkeypatch, aged):
    models = tiny_sweep.models
    backend = RouteEverythingToGathered(models)
    requests = [
        ServeRequest(name=path.stem, source=str(path), iterations=iterations)
        for path in sorted(corpus.glob("*.mtx"))
        for iterations in (1, 19)
    ]
    cache = MemoizedIngestCache(tmp_path / "cache")
    first, _ = evaluate_requests(models, requests, domain="spmv", cache=cache, backend=backend)

    def forbidden(*args, **kwargs):
        raise AssertionError("a memo hit touched the matrix")

    monkeypatch.setattr(ingest_module, "ingest_matrix", forbidden)
    monkeypatch.setattr(sparse_io, "load_tier", forbidden)
    monkeypatch.setattr(FeaturePipeline, "gather", forbidden)
    monkeypatch.setattr(FeaturePipeline, "known_features", forbidden)
    monkeypatch.setattr(SpmvKernel, "timing", forbidden)
    repeat, stats = evaluate_requests(models, requests, domain="spmv", cache=cache, backend=backend)
    _assert_same(repeat, first)
    assert all(r.selector_choice == USE_GATHERED and r.executed for r in repeat)
    assert stats.prepared_memo_hits == len(requests)


# ----------------------------------------------------------------------
# Freshness, racy files, workload options and the cap
# ----------------------------------------------------------------------
def test_in_place_edit_misses_and_reingests_once(model_path, tiny_sweep, corpus, tmp_path, aged):
    path = corpus / "pl.mtx"
    before = _fresh(tiny_sweep.models, path)
    with _service(model_path, tmp_path) as service:
        original = [_serve(service, path), _serve(service, path)]
        inode = os.stat(path).st_ino
        write_matrix_market(power_law_matrix(200, 200, 9.0, rng=4), path)
        assert os.stat(path).st_ino == inode  # same path, same file, new content
        edited = [_serve(service, path), _serve(service, path)]
        metrics = service.metrics.snapshot()
    _assert_same(original, [before] * 2)
    _assert_same(edited, [_fresh(tiny_sweep.models, path)] * 2)
    assert edited[0] != original[0]
    assert metrics["matrices_ingested"] == 2
    assert metrics["prepared_memo_hits"] == 2


def test_file_inside_the_racy_window_is_served_correctly(
    model_path, tiny_sweep, corpus, tmp_path, monkeypatch
):
    path = corpus / "pl.mtx"
    written = os.stat(path).st_ctime_ns
    margin_ns = int(service_module.DIGEST_MEMO_RACY_MARGIN_S * 1e9)
    monkeypatch.setattr(service_module, "_wall_clock_ns", lambda: written + margin_ns // 2)
    with _service(model_path, tmp_path) as service:
        served = [_serve(service, path, iterations=n) for n in (1, 7, 1)]
        digest_memo = dict(service.cache._memo)
        metrics = service.metrics.snapshot()
    expected = [_fresh(tiny_sweep.models, path, iterations=n) for n in (1, 7, 1)]
    _assert_same(served, expected)
    assert digest_memo == {}  # the digest is taken anew every time
    assert metrics["prepared_memo_hits"] == 2
    assert metrics["matrices_ingested"] == 1


def test_spmm_widths_get_separate_entries(tiny_sweep_spmm, corpus, tmp_path, aged):
    models = tiny_sweep_spmm.models
    path = corpus / "pl.mtx"
    requests = [
        ServeRequest(name=f"v{width}", source=str(path), options={"num_vectors": width})
        for width in (8, 16, 8, 16)
    ]
    cache = MemoizedIngestCache(tmp_path / "cache")
    served, stats = evaluate_requests(models, requests, domain="spmm", cache=cache)
    expected, _ = evaluate_requests(models, requests, domain="spmm")
    _assert_same(served, expected)
    assert len(cache.prepared_sources._entries) == 2
    assert stats.matrices_ingested == 1  # one parse, two workloads
    assert stats.prepared_memo_hits == 2
    assert served[0].runtime_ms != served[1].runtime_ms


def test_invalid_options_still_fail(tiny_sweep_spmm, corpus, tmp_path, aged):
    path = str(corpus / "pl.mtx")
    cache = MemoizedIngestCache(tmp_path / "cache")
    requests = [
        ServeRequest(name="ok", source=path, options={"num_vectors": 8}),
        ServeRequest(name="half", source=path, options={"num_vectors": 8.5}),
        ServeRequest(name="typo", source=path, options={"num_vector": 8}),
    ]
    for _ in range(2):
        results, _ = evaluate_requests(
            tiny_sweep_spmm.models, requests, domain="spmm", cache=cache, strict=False
        )
        assert results[0].executed
        assert "whole number" in results[1].error
        assert "num_vector" in results[2].error
    assert len(cache.prepared_sources._entries) == 1


def test_eviction_at_the_cap(tiny_sweep, corpus, tmp_path, monkeypatch, aged):
    monkeypatch.setattr(service_module, "DIGEST_MEMO_MAX_ENTRIES", 2)
    models = tiny_sweep.models
    cache = MemoizedIngestCache(tmp_path / "cache")

    def serve(*names):
        requests = [ServeRequest(name=n, source=str(corpus / f"{n}.mtx")) for n in names]
        return evaluate_requests(models, requests, domain="spmv", cache=cache)[1]

    assert serve("pl", "band").prepared_memo_evictions == 0
    assert serve("pl").prepared_memo_hits == 1  # pl is now the most recent
    stats = serve("pl2")
    assert (stats.prepared_memo_hits, stats.prepared_memo_evictions) == (0, 1)
    assert len(cache.prepared_sources._entries) == 2
    assert serve("pl").prepared_memo_hits == 1
    stats = serve("band")  # evicted: served from the ingest cache, no parse
    assert (stats.prepared_memo_hits, stats.matrices_ingested) == (0, 0)
    assert stats.ingest_cache_hits == 1 and stats.prepared_memo_evictions == 1


# ----------------------------------------------------------------------
# Execution settings
# ----------------------------------------------------------------------
def test_unsupported_chosen_kernel_is_reported(tiny_sweep, tmp_path, aged):
    lengths = np.zeros(10_000, dtype=np.int64)
    lengths[0] = 5_000  # one hub row: ELL padding far past its limit
    path = tmp_path / "hub.npz"
    save_npz(matrix_from_row_lengths(lengths, 5_000, rng=2), path)
    backend = ChooseKernel(tiny_sweep.models, "ELL,TM")
    request = ServeRequest(name="hub", source=str(path), iterations=7)
    cache = MemoizedIngestCache(tmp_path / "cache")
    expected, _ = evaluate_requests(tiny_sweep.models, [request], domain="spmv", backend=backend)
    for _ in range(2):
        [served], _ = evaluate_requests(
            tiny_sweep.models, [request], domain="spmv", cache=cache, backend=backend
        )
        assert served.kernel == "ELL,TM" and served.executed
        assert served.supported is False and served.runtime_ms == math.inf
        assert served.to_payload() == expected[0].to_payload()


def test_execute_false_responses_are_unchanged(model_path, tiny_sweep, corpus, tmp_path, aged):
    paths = sorted(corpus.glob("*.mtx"))
    requests = [ServeRequest(name=p.stem, source=str(p), iterations=7) for p in paths]
    expected, _ = evaluate_requests(tiny_sweep.models, requests, domain="spmv", execute=False)
    with _service(model_path, tmp_path, execute=False) as service:
        for _ in range(2):
            served = [service.serve_request(r) for r in requests]
            _assert_same(served, expected)
            assert not any(r.executed for r in served)
        metrics = service.metrics.snapshot()
    assert metrics["prepared_memo_hits"] == len(requests)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_metrics_and_summary_report_the_same_memo_counters(
    model_path, corpus, tmp_path, monkeypatch, aged
):
    monkeypatch.setattr(service_module, "DIGEST_MEMO_MAX_ENTRIES", 2)
    names = ("pl", "band", "pl", "pl2", "band", "band")
    with _service(model_path, tmp_path) as service:
        for name in names:
            _serve(service, corpus / f"{name}.mtx", name=name)
        with urllib.request.urlopen(service.url + "/metrics", timeout=30) as reply:
            live = json.loads(reply.read().decode("utf-8"))
    summary = json.loads((tmp_path / "logs" / "summary.json").read_text())["metrics"]
    # pl, band: fill; pl: hit; pl2: fill, evicts band; band: fill, evicts pl;
    # band: hit.  Every request after a source's first is served unparsed.
    for metrics in (live, summary):
        assert metrics["prepared_memo_hits"] == 2
        assert metrics["prepared_memo_evictions"] == 2
        assert metrics["matrices_ingested"] == 3
        assert metrics["ingest_cache_hits"] == 3
