"""Daemon lifecycle tests: config, readiness, batching, drain, shutdown.

The :class:`ServingService` is exercised in-process (context manager +
real HTTP over an ephemeral port) for readiness, concurrent-vs-one-shot
parity and the flush triggers, and as a subprocess for the SIGTERM drain
contract ``repro serve --daemon`` promises.
"""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.serving.artifacts import save_models
from repro.serving.ingest import serve_sources
from repro.serving.requests import ServeFailure, ServeRequest
from repro.serving.service import (
    HANDLER_TIMEOUT_S,
    DynamicBatcher,
    ServiceConfig,
    ServiceConfigError,
    ServingService,
    _Handler,
)
from repro.sparse.generators import banded_matrix, power_law_matrix
from repro.sparse.io import write_matrix_market


@pytest.fixture(scope="module")
def model_path(tiny_sweep, tmp_path_factory):
    directory = tmp_path_factory.mktemp("service-model")
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


def _config(model_path, **overrides):
    settings = {"model": model_path, "port": 0, "execute": False}
    settings.update(overrides)
    return ServiceConfig(**settings)


def _get(url: str) -> tuple:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(url: str, payload: dict) -> tuple:
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_config_from_toml_on_a_missing_file_is_a_config_error(tmp_path):
    path = tmp_path / "absent.toml"
    with pytest.raises(ServiceConfigError, match=r"absent\.toml: unreadable config"):
        ServiceConfig.from_toml(path)


@pytest.mark.parametrize(
    "text", ["not toml at all", 'model = "half', "[service]\nport = = 8091"]
)
def test_config_from_toml_on_malformed_toml_names_the_path(tmp_path, text):
    path = tmp_path / "broken.toml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ServiceConfigError) as excinfo:
        ServiceConfig.from_toml(path)
    assert str(excinfo.value).startswith(f"{path}: ")


def test_config_requires_a_model_origin():
    with pytest.raises(ServiceConfigError, match="needs a model origin"):
        ServiceConfig()


def test_config_validates_ranges(model_path):
    with pytest.raises(ServiceConfigError, match="max_batch_size"):
        ServiceConfig(model=model_path, max_batch_size=0)
    with pytest.raises(ServiceConfigError, match="max_wait_ms"):
        ServiceConfig(model=model_path, max_wait_ms=-1.0)
    with pytest.raises(ServiceConfigError, match="port"):
        ServiceConfig(model=model_path, port=70000)
    # Requests carry their own iteration count; the daemon has none to set.
    with pytest.raises(ServiceConfigError, match=r"unknown setting\(s\) 'iterations'"):
        ServiceConfig.from_mapping({"model": model_path, "iterations": 19})


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_wait_ms", "abc"),
        ("max_wait_ms", True),
        ("max_batch_size", "8"),
        ("max_batch_size", 8.0),
        ("max_batch_size", True),
        ("port", True),
        ("port", "8091"),
        ("drift_threshold", "0.1"),
        ("drift_threshold", False),
        ("host", 127),
        ("profile", 1),
        ("domain", 1),
        ("model", 1),
        ("cache_dir", ["a"]),
        ("execute", "yes"),
        ("execute", 1),
    ],
)
def test_config_rejects_mistyped_settings_by_name(model_path, key, value):
    with pytest.raises(ServiceConfigError, match=rf"^{key} must be "):
        ServiceConfig.from_mapping({"model": model_path, key: value})


def test_config_from_mapping_rejects_unknown_settings(model_path):
    with pytest.raises(ServiceConfigError, match=r"unknown setting\(s\) 'prot'"):
        ServiceConfig.from_mapping({"model": model_path, "prot": 1})
    with pytest.raises(ServiceConfigError, match=r"unknown table \[srvice\]"):
        ServiceConfig.from_mapping({"srvice": {"model": model_path}})
    # The daemon has one inference backend, so a service.toml cannot pick one.
    with pytest.raises(ServiceConfigError, match=r"unknown setting\(s\) 'backend'"):
        ServiceConfig.from_mapping(
            {"service": {"model": model_path, "backend": "codegen"}}
        )


def test_config_from_toml_and_overrides(model_path, tmp_path):
    path = tmp_path / "service.toml"
    path.write_text(
        "[service]\n"
        f'model = "{model_path}"\n'
        "max_batch_size = 4\n"
        "max_wait_ms = 10.0\n"
    )
    config = ServiceConfig.from_toml(path)
    assert config.max_batch_size == 4 and config.max_wait_ms == 10.0
    overridden = config.with_overrides(max_batch_size=32, host=None)
    assert overridden.max_batch_size == 32
    assert overridden.host == config.host  # None means "keep"


# ----------------------------------------------------------------------
# Readiness and the request/response wire contract
# ----------------------------------------------------------------------
def test_daemon_readiness_and_single_request(model_path, tiny_sweep):
    with ServingService(_config(model_path)) as service:
        status, health = _get(service.url + "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["default_model"] == "default"
        assert health["loaded_models"] == ["default"]

        known = {name: 1.0 for name in tiny_sweep.models.known_feature_names}
        known.update(rows=512, cols=512, nnz=4096, iterations=1)
        gathered = {
            name: 0.5 for name in tiny_sweep.models.gathered_feature_names
        }
        status, body = _post(
            service.url + "/v1/serve",
            {"name": "w", "known": known, "gathered": gathered},
        )
        assert status == 200
        assert body["name"] == "w"
        assert body["kernel"] in tiny_sweep.models.kernel_names
        assert body["selector_choice"] in ("known", "gathered")

        status, body = _post(
            service.url + "/v1/serve", {"name": "w", "bogus": 1}
        )
        assert status == 400
        assert "unknown request field(s) 'bogus'" in body["error"]

        status, metrics = _get(service.url + "/metrics")
        assert status == 200
        assert metrics["requests_total"] == 2
        assert metrics["responses_total"] == 1
        assert metrics["failures_total"] == 1  # the malformed payload
        assert metrics["errors_total"] == 1  # ... bucketed as an error
        # The failed request's latency stays out of the success histogram.
        assert metrics["error_latency_ms_max"] > 0.0
        assert metrics["drift"] == {"enabled": False}  # no feedback_dir
    assert service.draining


def test_concurrent_daemon_matches_one_shot_serve(
    model_path, tiny_sweep, corpus, tmp_path
):
    """N concurrent clients get decisions element-wise identical to
    one-shot ``repro serve`` over the same corpus."""
    one_shot = serve_sources(
        corpus,
        tiny_sweep.models,
        domain="spmv",
        iterations=3,
        cache_dir=tmp_path / "oneshot-cache",
    )
    config = _config(
        model_path,
        execute=True,
        max_batch_size=4,
        max_wait_ms=50.0,
        cache_dir=str(tmp_path / "daemon-cache"),
    )
    replies = {}
    failures = []
    with ServingService(config) as service:
        url = service.url + "/v1/serve"

        def client(decision):
            payload = {
                "name": decision.name,
                "source": str(corpus / f"{decision.name}.mtx"),
                "iterations": 3,
            }
            try:
                status, body = _post(url, payload)
                assert status == 200, body
                replies[decision.name] = body
            except Exception as error:  # surfaced after join
                failures.append((decision.name, error))

        threads = [
            threading.Thread(target=client, args=(d,))
            for d in one_shot.decisions
            for _ in range(3)  # duplicates exercise the cache under load
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        metrics = service.metrics.snapshot()
    assert failures == []
    for decision in one_shot.decisions:
        body = replies[decision.name]
        assert body["selector_choice"] == decision.selector_choice
        assert body["kernel"] == decision.kernel
        assert body["iterations"] == 3
        assert body["known"] == decision.known.as_dict()
        assert body["gathered"] == decision.gathered.as_dict()
        assert body["collection_time_ms"] == decision.collection_time_ms
        assert body["runtime_ms"] == decision.runtime_ms
    assert metrics["requests_total"] == 3 * len(one_shot.decisions)
    # Each matrix is ingested at most once; the duplicates hit the warm cache.
    assert metrics["matrices_ingested"] == len(one_shot.decisions)
    assert metrics["ingest_cache_hits"] == 2 * len(one_shot.decisions)


def test_client_assembled_batch_round_trip(model_path, tiny_sweep):
    known = {name: 1.0 for name in tiny_sweep.models.known_feature_names}
    known.update(rows=64, cols=64, nnz=512, iterations=1)
    gathered = {name: 0.5 for name in tiny_sweep.models.gathered_feature_names}
    with ServingService(_config(model_path)) as service:
        status, body = _post(
            service.url + "/v1/serve",
            {
                "requests": [
                    {"name": "a", "known": known, "gathered": gathered},
                    {"name": "broken", "nonsense": True},
                ]
            },
        )
    assert status == 200
    assert body["batch_size"] == 2
    good, bad = body["responses"]
    assert good["name"] == "a" and good["kernel"]
    assert "unknown request field(s) 'nonsense'" in bad["error"]


# ----------------------------------------------------------------------
# Flush triggers
# ----------------------------------------------------------------------
def test_batcher_flushes_on_full_window():
    seen = []
    flushes = []
    batcher = DynamicBatcher(
        lambda batch: seen.append(len(batch)) or list(batch),
        max_batch_size=4,
        max_wait_ms=5_000.0,  # the timer must never fire in this test
        on_flush=lambda size, reason: flushes.append((size, reason)),
    )
    try:
        # All eight arrivals are announced first, so no window goes idle
        # before it fills.
        threads = [
            threading.Thread(
                target=batcher.submit,
                args=(object(),),
                kwargs={"admission": batcher.admit()},
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert seen == [4, 4]
        assert flushes == [(4, "full"), (4, "full")]
        assert batcher.admitted == 0
    finally:
        batcher.close()


def test_batcher_flushes_on_timer():
    flushes = []
    batcher = DynamicBatcher(
        lambda batch: list(batch),
        max_batch_size=64,  # the window can never fill
        max_wait_ms=10.0,
        on_flush=lambda size, reason: flushes.append((size, reason)),
    )
    # An announced request that never arrives holds the window open.
    straggler = batcher.admit()
    try:
        started = time.monotonic()
        batcher.submit(object(), timeout=30, admission=batcher.admit())
        waited_ms = (time.monotonic() - started) * 1000.0
        assert flushes == [(1, "timer")]
        assert waited_ms >= 9.0  # the window deadline was honoured
    finally:
        straggler.release()
        batcher.close()
    assert batcher.admitted == 0


def test_batcher_flushes_when_nothing_else_can_join():
    flushes = []
    batcher = DynamicBatcher(
        lambda batch: list(batch),
        max_batch_size=64,
        max_wait_ms=10_000.0,
        on_flush=lambda size, reason: flushes.append((size, reason)),
    )
    try:
        started = time.monotonic()
        with batcher.admit() as admission:
            batcher.submit(object(), timeout=30, admission=admission)
        batcher.submit(object(), timeout=30)  # a direct caller announces nothing
        assert time.monotonic() - started < 5.0  # well under the 10 s timer
        assert flushes == [(1, "idle"), (1, "idle")]
        assert batcher.admitted == 0
    finally:
        batcher.close()


def test_released_admission_closes_the_window():
    """An announced request that turns away (a 400, a client batch) must
    not leave the open window waiting for the timer."""
    flushes = []
    batcher = DynamicBatcher(
        lambda batch: list(batch),
        max_batch_size=64,
        max_wait_ms=10_000.0,
        on_flush=lambda size, reason: flushes.append((size, reason)),
    )
    try:
        announced = batcher.admit()
        done = threading.Event()
        threading.Thread(
            target=lambda: (batcher.submit(object(), timeout=30), done.set()),
            daemon=True,
        ).start()
        assert not done.wait(0.05)  # held open by the announced request
        announced.release()
        announced.release()  # idempotent
        assert done.wait(5.0)
        assert flushes == [(1, "idle")]
        assert batcher.admitted == 0
    finally:
        batcher.close()


def test_admission_count_holds_under_concurrent_traffic():
    """Admit, submit and turn-away races never lose an admission update."""
    flushes = []
    served = []
    batcher = DynamicBatcher(
        lambda batch: list(batch),
        max_batch_size=4,
        max_wait_ms=50.0,
        on_flush=lambda size, reason: flushes.append((size, reason)),
    )

    def client(worker: int) -> None:
        for index in range(50):
            with batcher.admit() as admission:
                if (worker + index) % 3:  # every third request turns away
                    served.append(
                        batcher.submit((worker, index), timeout=30, admission=admission)
                    )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        batcher.close()
    expected = [(k, i) for k in range(8) for i in range(50) if (k + i) % 3]
    assert sorted(served) == expected
    assert sum(size for size, _ in flushes) == len(expected)
    assert batcher.admitted == 0


def test_batcher_drains_queued_work_on_close():
    release = threading.Event()
    flushes = []

    def evaluate(batch):
        release.wait(30)
        return list(batch)

    batcher = DynamicBatcher(
        evaluate,
        max_batch_size=1,
        max_wait_ms=5_000.0,
        on_flush=lambda size, reason: flushes.append(reason),
    )
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(batcher.submit(object())))
        for _ in range(3)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let the first window open and block in evaluate
    closer = threading.Thread(target=batcher.close)
    closer.start()
    release.set()
    closer.join(timeout=30)
    for thread in threads:
        thread.join(timeout=30)
    assert len(results) == 3  # every accepted request was served
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(object())


def test_batcher_delivers_evaluator_exceptions():
    batcher = DynamicBatcher(
        lambda batch: (_ for _ in ()).throw(ValueError("boom")),
        max_batch_size=2,
        max_wait_ms=1.0,
    )
    try:
        with pytest.raises(ValueError, match="boom"):
            batcher.submit(object(), timeout=30)
    finally:
        batcher.close()


# ----------------------------------------------------------------------
# Transport and admission over HTTP
# ----------------------------------------------------------------------
def _inline_payload(tiny_sweep, name: str) -> dict:
    known = {n: 1.0 for n in tiny_sweep.models.known_feature_names}
    known.update(rows=64, cols=64, nnz=512, iterations=1)
    gathered = {n: 0.5 for n in tiny_sweep.models.gathered_feature_names}
    return {"name": name, "known": known, "gathered": gathered}


def _raw_exchange(address, data: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes and read until the server closes (bounded in time)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def test_lone_http_request_does_not_wait_for_the_timer(model_path, tiny_sweep):
    config = _config(model_path, max_wait_ms=10_000.0)
    with ServingService(config) as service:
        started = time.monotonic()
        status, body = _post(
            service.url + "/v1/serve", _inline_payload(tiny_sweep, "lone")
        )
        elapsed = time.monotonic() - started
        metrics = service.metrics.snapshot()
    assert status == 200 and body["name"] == "lone"
    assert elapsed < 5.0  # well under the 10 s window
    assert metrics["idle_flushes"] == 1
    assert metrics["timer_flushes"] == 0


def test_connection_burst_is_served_not_reset(model_path, tiny_sweep):
    """64 clients connecting at once all get answers (socketserver's default
    listen backlog of 5 reset some of them)."""
    statuses, errors = [], []

    def client(url, name):
        try:
            status, _ = _post(url, _inline_payload(tiny_sweep, name))
            statuses.append(status)
        except OSError as error:
            errors.append(repr(error))

    with ServingService(_config(model_path)) as service:
        for burst in range(3):
            threads = [
                threading.Thread(
                    target=client, args=(service.url + "/v1/serve", f"b{burst}-{i}")
                )
                for i in range(64)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert statuses == [200] * 3 * 64


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_malformed_content_length_answers_400(model_path, length):
    with ServingService(_config(model_path)) as service:
        reply = _raw_exchange(
            service.address,
            (
                "POST /v1/serve HTTP/1.1\r\nHost: test\r\n"
                f"Content-Type: application/json\r\nContent-Length: {length}"
                "\r\n\r\n{}"
            ).encode("ascii"),
        )
        metrics = service.metrics.snapshot()
        admitted = service.batcher.admitted
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400")
    assert b"Connection: close" in head
    assert "Content-Length must be a non-negative integer" in json.loads(body)["error"]
    assert metrics["errors_total"] == 1
    assert admitted == 0


def test_admission_is_released_on_every_exit(model_path, tiny_sweep):
    with ServingService(_config(model_path)) as service:
        url = service.url

        def released() -> bool:
            return service.batcher.admitted == 0

        assert _post(url + "/nope", {})[0] == 404
        assert released()
        for body in (b"", b"{not json"):
            request = urllib.request.Request(url + "/v1/serve", data=body)
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request, timeout=30)
            assert error.value.code == 400
            error.value.close()
            assert released()
        reply = _raw_exchange(
            service.address,
            b"POST /v1/serve HTTP/1.1\r\nHost: test\r\nContent-Length: abc\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400") and released()
        assert _post(url + "/v1/serve", {"name": "bad", "bogus": 1})[0] == 400
        assert released()
        assert _post(url + "/v1/serve", _inline_payload(tiny_sweep, "ok"))[0] == 200
        assert released()
        many = {"requests": [_inline_payload(tiny_sweep, "a")]}
        assert _post(url + "/v1/serve", many)[0] == 200
        assert released()
        assert service.metrics.snapshot()["errors_total"] == 4

        # A request still being read when the drain starts gets a 503.
        body = json.dumps(_inline_payload(tiny_sweep, "late")).encode("utf-8")
        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(
                b"POST /v1/serve HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body[:10]
            )
            _wait_until(lambda: service.batcher.admitted == 1)
            closer = threading.Thread(target=service.shutdown)
            closer.start()
            _wait_until(lambda: service.batcher._closed)
            sock.sendall(body[10:])
            reply = sock.recv(65536)
        closer.join(timeout=30)
        assert reply.startswith(b"HTTP/1.1 503")
        assert released()


def test_client_batch_releases_its_admission_while_evaluating(
    model_path, tiny_sweep, monkeypatch
):
    """A client-assembled batch never joins a window, so it must not hold
    one open while it evaluates."""
    with ServingService(_config(model_path)) as service:
        entered, proceed = threading.Event(), threading.Event()
        evaluate_batch = service.evaluate_batch

        def held(requests, reason="full"):
            entered.set()
            proceed.wait(30)
            return evaluate_batch(requests, reason=reason)

        monkeypatch.setattr(service, "evaluate_batch", held)
        many = {"requests": [_inline_payload(tiny_sweep, name) for name in "ab"]}
        replies = []
        poster = threading.Thread(
            target=lambda: replies.append(_post(service.url + "/v1/serve", many))
        )
        poster.start()
        assert entered.wait(10)
        admitted = service.batcher.admitted
        proceed.set()
        poster.join(30)
    assert admitted == 0
    assert replies[0][0] == 200


def test_stalled_request_body_answers_408(model_path, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    with ServingService(_config(model_path)) as service:
        started = time.monotonic()
        reply = _raw_exchange(
            service.address,
            b"POST /v1/serve HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 100\r\n\r\n{\"name\": ",
        )
        elapsed = time.monotonic() - started
        metrics = service.metrics.snapshot()
        admitted = service.batcher.admitted
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408")
    assert b"Connection: close" in head
    assert "request body not received" in json.loads(body)["error"]
    assert elapsed < 5.0
    assert metrics["errors_total"] == 1
    assert admitted == 0


def test_oversized_body_answers_413_before_reading_it(model_path, tiny_sweep):
    with ServingService(_config(model_path)) as service:
        started = time.monotonic()
        reply = _raw_exchange(
            service.address,
            b"POST /v1/serve HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 1000000000000\r\n\r\n{\"name\": ",
        )
        elapsed = time.monotonic() - started
        metrics = service.metrics.snapshot()
        admitted = service.batcher.admitted
        status, body = _post(service.url + "/v1/serve", _inline_payload(tiny_sweep, "next"))
    head, _, error = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413")
    assert b"Connection: close" in head
    assert "1000000000000 bytes exceeds" in json.loads(error)["error"]
    assert elapsed < 5.0
    assert metrics["errors_total"] == 1
    assert admitted == 0
    assert status == 200 and body["name"] == "next"


class _CountingSocket(socket.socket):
    """An accepted server socket that counts the writes it issues."""

    def send(self, data, *args):
        self.writes = getattr(self, "writes", 0) + 1
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.writes = getattr(self, "writes", 0) + 1
        return super().sendall(data, *args)


def test_each_response_is_one_write_with_nagle_off(model_path, tiny_sweep):
    service = ServingService(_config(model_path))
    accepted = []
    accept = service._httpd.get_request

    def counting_accept():
        sock, address = accept()
        counting = _CountingSocket(
            sock.family, sock.type, sock.proto, fileno=sock.detach()
        )
        accepted.append(counting)
        return counting, address

    service._httpd.get_request = counting_accept
    service.start_background()
    try:
        connection = http.client.HTTPConnection(*service.address, timeout=30)
        exchanges = [
            ("GET", "/healthz", None, 200),
            ("GET", "/metrics", None, 200),
            ("POST", "/v1/serve", _inline_payload(tiny_sweep, "one"), 200),
            ("POST", "/v1/serve", {"name": "bad", "bogus": 1}, 400),
            ("POST", "/v1/serve", {"requests": [_inline_payload(tiny_sweep, "a")]}, 200),
            ("GET", "/nope", None, 404),
        ]
        try:
            for count, (method, path, payload, status) in enumerate(exchanges, 1):
                body = None if payload is None else json.dumps(payload).encode()
                connection.request(method, path, body)
                response = connection.getresponse()
                response.read()
                assert response.status == status
                assert len(accepted) == 1  # one keep-alive connection
                assert accepted[0].writes == count, (method, path)
            assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            connection.close()
    finally:
        service.shutdown()


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------
def test_shutdown_is_idempotent_and_summary_is_written(
    model_path, tmp_path, tiny_sweep
):
    config = _config(
        model_path, log_dir=str(tmp_path / "logs"), max_batch_size=2
    )
    service = ServingService(config)
    service.start_background()
    known = {name: 1.0 for name in tiny_sweep.models.known_feature_names}
    known.update(rows=64, cols=64, nnz=512, iterations=1)
    gathered = {name: 0.5 for name in tiny_sweep.models.gathered_feature_names}
    _post(
        service.url + "/v1/serve",
        {"name": "w", "known": known, "gathered": gathered},
    )
    _post(service.url + "/v1/serve", {"name": "bad", "iterations": "x"})
    _, metrics = _get(service.url + "/metrics")
    assert "precision" not in metrics
    summary = service.shutdown()
    assert service.shutdown() is None  # second caller: already drained
    assert summary["metrics"]["requests_total"] == 2
    assert summary["metrics"]["failures_total"] == 1
    assert summary["service"]["max_batch_size"] == 2
    assert "precision" not in summary["service"]
    on_disk = json.loads((tmp_path / "logs" / "summary.json").read_text())
    assert on_disk == summary
    # /metrics and summary.json hold the same counters for the same traffic;
    # only the wall-clock-derived rates move between the two reads.
    moving = ("uptime_s", "throughput_rps")
    assert {k: v for k, v in metrics.items() if k not in moving + ("drift",)} == {
        k: v for k, v in on_disk["metrics"].items() if k not in moving
    }
    log_lines = (
        (tmp_path / "logs" / "requests.log").read_text().strip().splitlines()
    )
    assert len(log_lines) == 1
    record = json.loads(log_lines[0])
    assert record["name"] == "w" and record["latency_ms"] >= 0.0


def test_failed_summary_write_still_finishes_shutdown(model_path, tmp_path, caplog):
    """A log dir removed under a running daemon must not hang a later SIGTERM."""
    log_dir = tmp_path / "logs"
    service = ServingService(_config(model_path, log_dir=str(log_dir)))
    service.start_background()
    for child in log_dir.iterdir():
        child.unlink()
    log_dir.rmdir()
    results = []
    for _ in range(2):
        caller = threading.Thread(
            target=lambda: results.append(service.shutdown()), daemon=True
        )
        caller.start()
        caller.join(10)
        assert not caller.is_alive(), "shutdown hung after a failed summary write"
    first, second = results
    assert first["metrics"]["requests_total"] == 0
    assert second is None
    assert "summary.json" in caplog.text
    assert service._log_handle is None


def test_idle_keep_alive_client_does_not_hold_shutdown(model_path, monkeypatch):
    assert _Handler.timeout == HANDLER_TIMEOUT_S  # shipped handlers time out
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    service = ServingService(_config(model_path))
    service.start_background()
    with socket.create_connection(service.address, timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" not in reply  # the connection stays open
        done = threading.Event()
        threading.Thread(
            target=lambda: (service.shutdown(), done.set()), daemon=True
        ).start()
        assert done.wait(5), "an idle keep-alive client held graceful shutdown"


def test_embedded_service_shutdown_without_accept_loop(model_path):
    """Batcher-only (no HTTP traffic) services must still shut down cleanly."""
    service = ServingService(_config(model_path, max_batch_size=1))
    done = threading.Event()
    threading.Thread(
        target=lambda: (service.shutdown(), done.set()), daemon=True
    ).start()
    assert done.wait(10), "shutdown hung without a running accept loop"
    with pytest.raises(RuntimeError, match="closed"):
        service.serve_request(
            ServeRequest(name="late", known={"rows": 1.0})
        )


# ----------------------------------------------------------------------
# Error bucketing and drift monitoring
# ----------------------------------------------------------------------
def test_metrics_bucket_error_latencies_separately():
    """Failed-request latencies must never pollute the success histogram."""
    from repro.serving.service import ServiceMetrics

    metrics = ServiceMetrics()
    metrics.record_latency(10.0)
    metrics.record_error(50.0)
    metrics.record_error()  # error with no measurable latency still counts
    snapshot = metrics.snapshot()
    assert snapshot["errors_total"] == 2
    assert snapshot["error_latency_ms_max"] == 50.0
    assert snapshot["error_latency_ms_mean"] == 25.0
    assert snapshot["latency_ms_max"] == 10.0  # success bucket untouched


def test_batch_error_shares_are_bucketed_per_failure(model_path, tiny_sweep):
    """A client batch with failures books one error share per failure and
    keeps the batch latency in the success histogram for the good ones."""
    known = {name: 1.0 for name in tiny_sweep.models.known_feature_names}
    known.update(rows=64, cols=64, nnz=512, iterations=1)
    gathered = {name: 0.5 for name in tiny_sweep.models.gathered_feature_names}
    with ServingService(_config(model_path)) as service:
        _post(
            service.url + "/v1/serve",
            {
                "requests": [
                    {"name": "a", "known": known, "gathered": gathered},
                    {"name": "broken", "nonsense": True},
                ]
            },
        )
        snapshot = service.metrics.snapshot()
    assert snapshot["failures_total"] == 1
    assert snapshot["errors_total"] == 1
    assert snapshot["error_latency_ms_max"] > 0.0
    assert snapshot["latency_ms_max"] > 0.0  # the good response's latency


def test_drift_monitor_flags_degraded_feedback(tiny_sweep, tmp_path):
    """Feedback artifacts far below the manifest baseline flip the drift
    status in /metrics and the shutdown summary."""
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry(tmp_path / "registry")
    baseline = {
        "selector_kernel_accuracy": 0.95,
        "selector_slowdown_vs_oracle": 1.05,
    }
    model_file = registry.save(
        tiny_sweep.models, domain="spmv", profile="tiny", evaluation=baseline
    )
    feedback_dir = tmp_path / "feedback"
    feedback_dir.mkdir()
    (feedback_dir / "manifest.json").write_text(
        json.dumps(
            {
                "summary": {
                    "selector_kernel_accuracy": 0.5,
                    "selector_slowdown_vs_oracle": 2.0,
                }
            },
            sort_keys=True,
        )
    )
    config = _config(str(model_file), feedback_dir=str(feedback_dir))
    with ServingService(config) as service:
        status, metrics = _get(service.url + "/metrics")
        assert status == 200
        drift = metrics["drift"]
        assert drift["enabled"] and drift["baseline_available"]
        assert drift["observations"] == 1
        assert drift["drifted"]
        assert len(drift["reasons"]) == 2  # accuracy drop and slowdown growth
        assert drift["baseline_accuracy"] == 0.95
        assert drift["observed_accuracy"] == 0.5
        summary = service.summary()
    assert summary["drift"]["drifted"]


def test_drift_monitor_stays_quiet_on_healthy_feedback(tiny_sweep, tmp_path):
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry(tmp_path / "registry")
    baseline = {
        "selector_kernel_accuracy": 0.9,
        "selector_slowdown_vs_oracle": 1.1,
    }
    model_file = registry.save(
        tiny_sweep.models, domain="spmv", profile="tiny", evaluation=baseline
    )
    feedback_dir = tmp_path / "feedback"
    (feedback_dir / "run-1").mkdir(parents=True)
    (feedback_dir / "run-1" / "manifest.json").write_text(
        json.dumps(
            {
                "summary": {
                    "selector_kernel_accuracy": 0.88,
                    "selector_slowdown_vs_oracle": 1.12,
                }
            },
            sort_keys=True,
        )
    )
    config = _config(str(model_file), feedback_dir=str(feedback_dir))
    with ServingService(config) as service:
        drift = service.drift_status()
    assert drift["enabled"] and drift["baseline_available"]
    assert drift["observations"] == 1  # nested run directories are scanned
    assert not drift["drifted"] and drift["reasons"] == []


def test_drift_without_manifest_baseline_reports_unavailable(
    model_path, tmp_path
):
    """A bare model.json (no manifest sidecar) still serves; drift just
    reports that no training baseline is available."""
    feedback_dir = tmp_path / "feedback"
    feedback_dir.mkdir()
    config = _config(model_path, feedback_dir=str(feedback_dir))
    with ServingService(config) as service:
        drift = service.drift_status()
    assert drift["enabled"]
    assert not drift["baseline_available"]
    assert not drift["drifted"]


def test_config_validates_drift_threshold(model_path):
    with pytest.raises(ServiceConfigError, match="drift_threshold"):
        ServiceConfig(model=model_path, drift_threshold=0.0)


# ----------------------------------------------------------------------
# The subprocess contract: repro serve --daemon + SIGTERM drain
# ----------------------------------------------------------------------
@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_daemon_subprocess_sigterm_drains_and_summarizes(
    model_path, tmp_path, tiny_sweep
):
    log_dir = tmp_path / "logs"
    config_path = tmp_path / "service.toml"
    config_path.write_text(
        "[service]\n"
        f'model = "{model_path}"\n'
        "port = 0\n"
        "max_batch_size = 4\n"
        "max_wait_ms = 10.0\n"
        "execute = false\n"
        f'log_dir = "{log_dir}"\n'
    )
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        repo_src + os.pathsep + existing if existing else repo_src
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--daemon", "--config", str(config_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        startup = process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", startup)
        assert match, f"no address in startup line: {startup!r}"
        url = f"http://{match.group(1)}:{match.group(2)}"

        status, health = _get(url + "/healthz")
        assert status == 200 and health["status"] == "ok"

        known = {name: 1.0 for name in tiny_sweep.models.known_feature_names}
        known.update(rows=64, cols=64, nnz=512, iterations=1)
        gathered = {
            name: 0.5 for name in tiny_sweep.models.gathered_feature_names
        }
        status, body = _post(
            url + "/v1/serve",
            {"name": "w", "known": known, "gathered": gathered},
        )
        assert status == 200 and body["kernel"]

        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, stderr
    summary = json.loads(stdout)  # the shutdown summary is the only stdout
    assert summary["metrics"]["requests_total"] == 1
    assert summary["service"]["default_model"] == "default"
    on_disk = json.loads((log_dir / "summary.json").read_text())
    assert on_disk["metrics"]["requests_total"] == 1
    assert len((log_dir / "requests.log").read_text().strip().splitlines()) == 1
