"""The closed-loop load generator behind ``repro bench serve``."""

import pytest

from repro.bench.loadgen import _HttpClient, render_bench_serve, run_load, synth_requests
from repro.serving.artifacts import save_models
from repro.serving.service import ServiceConfig, ServingService, _ServingHTTPServer


@pytest.fixture(scope="module")
def config(tiny_sweep, tmp_path_factory):
    path = save_models(
        tiny_sweep.models,
        tmp_path_factory.mktemp("loadgen-model") / "model.json",
        domain="spmv",
    )
    return ServiceConfig(model=str(path), max_batch_size=4, execute=False)


def test_http_transport_keeps_one_connection_per_client(
    config, tiny_sweep, monkeypatch
):
    accepted = []
    accept = _ServingHTTPServer.get_request

    def counting_accept(server):
        connection = accept(server)
        accepted.append(connection)
        return connection

    monkeypatch.setattr(_ServingHTTPServer, "get_request", counting_accept)
    payloads = synth_requests(tiny_sweep.models, 24)
    report = run_load(config, payloads, clients=3, transport="http")
    assert report.errors == 0
    assert len(report.latencies_ms) == 24
    assert len(accepted) == 3
    metrics = report.server_metrics
    assert metrics["requests_total"] == 24
    assert sum(
        metrics[f"{reason}_flushes"] for reason in ("full", "idle", "timer", "drain")
    ) == metrics["batches_total"]


def test_http_client_reconnects_after_an_error(config, tiny_sweep):
    payload = synth_requests(tiny_sweep.models, 1)[0]
    with ServingService(config) as service:
        client = _HttpClient(service.address, timeout=30)
        try:
            assert client.send(payload)["name"] == payload["name"]
            client.connection.sock.close()  # the transport breaks under it
            with pytest.raises(OSError):
                client.send(payload)
            assert client.send(payload)["name"] == payload["name"]
        finally:
            client.close()


def test_render_reports_every_flush_reason():
    report = {
        "label": "batched(window=8)",
        "requests": 10,
        "clients": 2,
        "throughput_rps": 100.0,
        "latency_ms_p50": 1.0,
        "latency_ms_p95": 2.0,
        "batch_occupancy_mean": 2.5,
        "full_flushes": 1,
        "idle_flushes": 2,
        "timer_flushes": 1,
    }
    table = render_bench_serve({"transport": "http", "batched": report})
    assert "full/idle/timer" in table
    assert "1/2/1" in table
