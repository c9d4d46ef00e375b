"""The daemon's memo of source digests (``MemoizedIngestCache``).

A cache hit on an unchanged file must cost a ``stat``, not a read and hash
— and an edited file must never be served from a stale memo entry.  The
racy-clean margin is exercised by patching the service's wall clock, never
by sleeping through it.
"""

import json
import os
import sys
import threading
import time
import urllib.request
from collections import Counter

import pytest

import repro.serving.ingest as ingest_module
import repro.serving.service as service_module
from repro.pipeline.sources import source_digest, source_from_path
from repro.serving.artifacts import save_models
from repro.serving.requests import ServeRequest, evaluate_requests
from repro.serving.service import (
    DIGEST_MEMO_RACY_MARGIN_S,
    MemoizedIngestCache,
    ServiceConfig,
    ServiceMetrics,
    ServingService,
)
from repro.sparse.generators import banded_matrix, power_law_matrix
from repro.sparse.io import write_matrix_market

MINUTE_NS = 60 * 10**9


@pytest.fixture(scope="module")
def model_path(tiny_sweep, tmp_path_factory):
    directory = tmp_path_factory.mktemp("memo-model")
    return str(
        save_models(tiny_sweep.models, directory / "model.json", domain="spmv")
    )


@pytest.fixture()
def corpus(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    write_matrix_market(
        power_law_matrix(200, 200, 5.0, rng=3), directory / "pl.mtx"
    )
    write_matrix_market(banded_matrix(128, 7, rng=1), directory / "band.mtx")
    return directory


@pytest.fixture()
def digests(monkeypatch):
    """Counts full source digests per location, as the ingest cache takes them."""
    calls = Counter()
    real = ingest_module.source_digest

    def counting(source):
        calls[source.location] += 1
        return real(source)

    monkeypatch.setattr(ingest_module, "source_digest", counting)
    return calls


@pytest.fixture()
def aged(monkeypatch):
    """Every file looks a minute old: past the racy window, without waiting."""
    monkeypatch.setattr(
        service_module, "_wall_clock_ns", lambda: time.time_ns() + MINUTE_NS
    )


def _service(model_path, tmp_path):
    return ServingService(
        ServiceConfig(
            model=model_path,
            port=0,
            execute=True,
            cache_dir=str(tmp_path / "cache"),
            log_dir=str(tmp_path / "logs"),
        )
    )


def _serve(service, path, name="m"):
    return service.serve_request(ServeRequest(name=name, source=str(path)))


def _fresh(tiny_sweep, path, name="m"):
    """A cache-less ``evaluate_requests`` of ``path`` — the reference decision."""
    [response], _ = evaluate_requests(
        tiny_sweep.models,
        [ServeRequest(name=name, source=str(path))],
        domain="spmv",
    )
    return response


def _move_one_entry(path) -> None:
    """Move one entry of a Matrix-Market file to its fullest row, in place.

    The file keeps its byte size: the new row index has as many digits as
    the old one.  Row lengths change, so the matrix's features do too.
    """
    lines = path.read_bytes().split(b"\n")
    body = next(i for i, line in enumerate(lines) if not line.startswith(b"%")) + 1
    entries = [tuple(lines[i].split()[:2]) for i in range(body, len(lines) - 1)]
    taken = set(entries)
    fullest = Counter(row for row, _ in entries).most_common(1)[0][0]
    for offset, (row, col) in enumerate(entries):
        if row != fullest and len(row) == len(fullest) and (fullest, col) not in taken:
            lines[body + offset] = fullest + lines[body + offset][len(row):]
            break
    else:
        raise AssertionError("no entry can move without changing the file size")
    with open(path, "r+b") as handle:
        handle.write(b"\n".join(lines))


def _wait_for_timestamp_tick(path, scratch) -> None:
    """Block until a new write would get a later ctime than ``path`` has.

    File timestamps come from a coarse kernel clock; an edit in the same
    tick as the original write would carry an identical ctime.
    """
    ctime = os.stat(path).st_ctime_ns
    probe = scratch / ".tick"
    while True:
        probe.write_bytes(b"")
        if os.stat(probe).st_ctime_ns > ctime:
            return


def test_aged_unchanged_file_is_digested_once(
    model_path, tmp_path, corpus, digests, aged
):
    path = corpus / "pl.mtx"
    service = _service(model_path, tmp_path)
    service.start_background()
    try:
        responses = [_serve(service, path) for _ in range(5)]
    finally:
        summary = service.shutdown()
    assert digests[str(path)] == 1
    assert len({response.kernel for response in responses}) == 1
    metrics = summary["metrics"]
    assert metrics["matrices_ingested"] == 1
    assert metrics["ingest_cache_hits"] == 4
    assert metrics["ingest_digest_memo_hits"] == 4


def test_metrics_endpoint_reports_memo_hits(model_path, tmp_path, corpus, aged):
    with _service(model_path, tmp_path) as service:
        _serve(service, corpus / "pl.mtx")
        _serve(service, corpus / "pl.mtx")
        with urllib.request.urlopen(service.url + "/metrics", timeout=30) as reply:
            metrics = json.loads(reply.read().decode("utf-8"))
    assert metrics["ingest_cache_hits"] == 1
    assert metrics["ingest_digest_memo_hits"] == 1


def test_same_size_edit_with_restored_mtime_serves_the_new_matrix(
    model_path, tmp_path, corpus, tiny_sweep, digests, aged
):
    path = corpus / "pl.mtx"
    original = _fresh(tiny_sweep, path)
    with _service(model_path, tmp_path) as service:
        assert _serve(service, path) == original
        assert _serve(service, path) == original  # memoized
        before = os.stat(path)
        _wait_for_timestamp_tick(path, tmp_path)
        _move_one_entry(path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert after.st_ctime_ns != before.st_ctime_ns
        served = _serve(service, path)
        metrics = service.metrics.snapshot()
    edited = _fresh(tiny_sweep, path)
    assert edited != original  # the edit is visible in the decision
    assert served == edited
    assert metrics["matrices_ingested"] == 2
    assert digests[str(path)] == 2


def test_replaced_file_is_digested_again(
    model_path, tmp_path, corpus, digests, aged
):
    path = corpus / "pl.mtx"
    with _service(model_path, tmp_path) as service:
        _serve(service, path)
        _serve(service, path)
        assert digests[str(path)] == 1
        replacement = corpus / "pl.tmp"
        replacement.write_bytes(path.read_bytes())
        os.replace(replacement, path)
        _serve(service, path)
        metrics = service.metrics.snapshot()
    assert digests[str(path)] == 2
    # Same bytes, same key: the replacement still hits the ingest cache.
    assert metrics["matrices_ingested"] == 1
    assert metrics["ingest_cache_hits"] == 2


def test_file_inside_the_racy_window_is_not_memoized(
    model_path, tmp_path, corpus, digests, monkeypatch
):
    path = corpus / "pl.mtx"
    written = os.stat(path).st_ctime_ns
    margin_ns = int(DIGEST_MEMO_RACY_MARGIN_S * 1e9)
    now = [written + margin_ns // 2]
    monkeypatch.setattr(service_module, "_wall_clock_ns", lambda: now[0])
    with _service(model_path, tmp_path) as service:
        _serve(service, path)
        _serve(service, path)
        assert digests[str(path)] == 2
        assert service.cache._memo == {}
        now[0] = written + margin_ns  # the file has now settled
        _serve(service, path)
        _serve(service, path)
        metrics = service.metrics.snapshot()
    assert digests[str(path)] == 3
    assert metrics["ingest_digest_memo_hits"] == 1


def test_recipe_sources_bypass_the_memo(model_path, tmp_path, digests, aged):
    spec = "recipe:diagonal_matrix?num_rows=64&name=diag"
    with _service(model_path, tmp_path) as service:
        for _ in range(3):
            service.serve_request(ServeRequest(name="diag", source=spec))
        memo = dict(service.cache._memo)
        metrics = service.metrics.snapshot()
    assert sum(digests.values()) == 3
    assert memo == {}
    assert metrics["ingest_digest_memo_hits"] == 0
    assert metrics["ingest_cache_hits"] == 2


def test_memo_never_grows_past_its_cap(tmp_path, monkeypatch, aged):
    monkeypatch.setattr(service_module, "DIGEST_MEMO_MAX_ENTRIES", 3)
    cache = MemoizedIngestCache(tmp_path / "cache")
    sources = []
    for index in range(6):
        path = tmp_path / f"m{index}.mtx"
        path.write_bytes(f"matrix {index}\n".encode())
        sources.append(source_from_path(path))
        cache.digest(sources[-1])
        assert len(cache._memo) <= 3
    assert list(cache._memo) == [source.location for source in sources[-3:]]


def test_daemon_decisions_match_evaluate_requests(
    model_path, tmp_path, corpus, tiny_sweep, aged
):
    payloads = [
        {"name": "pl", "source": str(corpus / "pl.mtx")},
        {"name": "band", "source": str(corpus / "band.mtx")},
        {"name": "diag", "source": "recipe:diagonal_matrix?num_rows=64"},
    ]
    requests = [ServeRequest.from_payload(payload) for payload in payloads]
    expected, _ = evaluate_requests(tiny_sweep.models, requests, domain="spmv")
    with _service(model_path, tmp_path) as service:
        for _ in range(3):
            assert [service.serve_request(r) for r in requests] == expected
        metrics = service.metrics.snapshot()
    assert metrics["ingest_digest_memo_hits"] == 4  # two files, two repeats


def test_memo_stays_consistent_under_concurrent_requests(tmp_path, monkeypatch, aged):
    """Threads racing on a capped memo: right digests, no lost hit counts."""
    monkeypatch.setattr(service_module, "DIGEST_MEMO_MAX_ENTRIES", 4)
    full_digests = []
    real = ingest_module.source_digest
    monkeypatch.setattr(
        ingest_module,
        "source_digest",
        lambda source: full_digests.append(1) or real(source),
    )
    sources = []
    for index in range(6):
        path = tmp_path / f"m{index}.mtx"
        path.write_bytes(f"matrix {index}\n".encode() * 64)
        sources.append(source_from_path(path))
    expected = {source.location: source_digest(source) for source in sources}
    metrics = ServiceMetrics()
    cache = MemoizedIngestCache(
        tmp_path / "cache", on_memo_hit=metrics.record_digest_memo_hit
    )
    wrong = []

    def worker(offset):
        for step in range(200):
            source = sources[(offset + step) % len(sources)]
            if cache.digest(source) != expected[source.location]:
                wrong.append(source.location)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(cache._memo) <= 4
    hits = metrics.snapshot()["ingest_digest_memo_hits"]
    assert hits + len(full_digests) == 8 * 200
    assert hits > 0
