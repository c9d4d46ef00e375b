"""Closed-loop load generation against the serving daemon.

``repro bench serve`` answers the question the dynamic batcher exists for:
*does admission batching actually beat per-request inference under
concurrent load?*  It starts an in-process :class:`ServingService` and
drives it with N closed-loop client threads (each fires its next request
the moment the previous response lands), reporting throughput, latency
and the server's batch-occupancy counters.  With ``--compare`` the same
workload is replayed against a ``max_batch_size = 1`` service — the
per-request baseline — so the speedup is measured, not assumed.

Two transports:

* ``inproc`` (default) — clients call :meth:`ServingService.serve_request`
  directly, i.e. they enter at the admission batcher like an HTTP handler
  thread would, but without the stdlib HTTP server in the way.  They
  announce nothing, so a window holds the requests that queued while the
  previous batch evaluated.  Tree inference is microseconds per request
  while ``http.server``'s parse and handler-thread cost is about a
  millisecond, so ``inproc`` shows the batching signal most clearly; it is
  the measurement the regression baseline guards.
* ``http`` — clients POST to ``/v1/serve`` over real sockets, one
  keep-alive connection per client thread (reopened after an error), the
  way a long-lived client would talk to the daemon.  Measures end-to-end
  daemon throughput including parsing, the handler thread and JSON on both
  sides.

The request stream is deterministic: inline-feature requests synthesized
from the model's own feature schema (seeded RNG), so runs are comparable
and no matrix parsing or kernel execution muddies the inference-throughput
signal.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.training import SeerModels
from repro.serving.requests import ServeRequest
from repro.serving.service import ServiceConfig, ServingService

TRANSPORTS = ("inproc", "http")


def synth_requests(models: SeerModels, count: int, seed: int = 7) -> list:
    """Deterministic inline-feature request payloads for one model.

    Feature values are drawn from ranges wide enough to exercise both
    selector routes; every request carries gathered features so routed rows
    never fail.
    """
    rng = np.random.default_rng(seed)
    known_names = list(models.known_feature_names)
    gathered_names = list(models.gathered_feature_names)
    payloads = []
    for index in range(count):
        known = {}
        for name in known_names:
            if name == "iterations":
                known[name] = int(rng.integers(1, 20))
            elif name in ("rows", "cols", "nnz"):
                known[name] = int(rng.integers(64, 100_000))
            else:
                known[name] = float(np.round(rng.uniform(0.0, 64.0), 6))
        gathered = {
            name: float(np.round(rng.uniform(0.0, 1.0), 6))
            for name in gathered_names
        }
        payloads.append(
            {"name": f"load-{index}", "known": known, "gathered": gathered}
        )
    return payloads


@dataclass
class LoadReport:
    """What one closed-loop run measured, client- and server-side."""

    label: str
    requests: int
    clients: int
    errors: int
    elapsed_s: float
    latencies_ms: list
    server_metrics: dict

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_quantile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.quantile(np.asarray(self.latencies_ms), q))

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "requests": self.requests,
            "clients": self.clients,
            "errors": self.errors,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms_p50": self.latency_quantile_ms(0.5),
            "latency_ms_p95": self.latency_quantile_ms(0.95),
            "batches_total": self.server_metrics.get("batches_total", 0),
            "batch_occupancy_mean": self.server_metrics.get(
                "batch_occupancy_mean", 0.0
            ),
            "full_flushes": self.server_metrics.get("full_flushes", 0),
            "idle_flushes": self.server_metrics.get("idle_flushes", 0),
            "timer_flushes": self.server_metrics.get("timer_flushes", 0),
        }


class _HttpClient:
    """One client thread's keep-alive connection to ``/v1/serve``.

    After a transport error the connection is closed; the next request
    reopens it.  Non-200 answers raise, so they count as client errors.
    """

    def __init__(self, address, timeout: float = 60.0):
        self.connection = http.client.HTTPConnection(*address, timeout=timeout)

    def send(self, payload: dict) -> dict:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            self.connection.request(
                "POST", "/v1/serve", body, {"Content-Type": "application/json"}
            )
            response = self.connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            raise
        if response.status != 200:
            raise RuntimeError(f"/v1/serve answered {response.status}")
        return json.loads(data.decode("utf-8"))

    def close(self) -> None:
        self.connection.close()


def run_load(
    config: ServiceConfig,
    payloads: list,
    clients: int = 8,
    label: str = "serve",
    transport: str = "inproc",
) -> LoadReport:
    """Drive one in-process service with closed-loop client threads.

    The payload list is partitioned round-robin over ``clients`` threads.
    ``transport="inproc"`` submits each request straight into the admission
    batcher (:meth:`ServingService.serve_request`); ``transport="http"``
    POSTs it to ``/v1/serve`` over one keep-alive connection per client
    thread.  Returns the aggregate
    report including the server's own ``/metrics`` snapshot taken right
    before shutdown.
    """
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )
    latencies: list = []
    errors = [0]
    lock = threading.Lock()
    service = ServingService(config)
    try:
        if transport == "http":
            service.start_background()
        else:
            requests = [ServeRequest.from_payload(p) for p in payloads]
            by_id = {id(p): r for p, r in zip(payloads, requests)}

        def client(worker: int) -> None:
            mine = payloads[worker::clients]
            local_latencies = []
            local_errors = 0
            http_client = _HttpClient(service.address) if transport == "http" else None
            try:
                for payload in mine:
                    started = time.perf_counter()
                    try:
                        if http_client is not None:
                            http_client.send(payload)
                        else:
                            service.serve_request(by_id[id(payload)])
                    except Exception:
                        local_errors += 1
                    local_latencies.append(
                        (time.perf_counter() - started) * 1000.0
                    )
            finally:
                if http_client is not None:
                    http_client.close()
            with lock:
                latencies.extend(local_latencies)
                errors[0] += local_errors

        threads = [
            threading.Thread(target=client, args=(worker,), daemon=True)
            for worker in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        metrics = service.metrics.snapshot()
    finally:
        service.shutdown()
    return LoadReport(
        label=label,
        requests=len(payloads),
        clients=clients,
        errors=errors[0],
        elapsed_s=elapsed,
        latencies_ms=latencies,
        server_metrics=metrics,
    )


def bench_serve(
    model_path,
    requests: int = 200,
    clients: int = 8,
    max_batch_size: int = 8,
    max_wait_ms: float = 5.0,
    seed: int = 7,
    compare: bool = True,
    transport: str = "inproc",
) -> dict:
    """The ``repro bench serve`` measurement: batched vs per-request.

    Runs the batched service (admission window ``max_batch_size`` /
    ``max_wait_ms``), and — when ``compare`` — an otherwise-identical
    ``max_batch_size = 1`` service over the same deterministic request
    stream.  Returns both reports plus the batched-over-per-request
    throughput speedup.
    """
    from repro.serving.artifacts import load_artifact

    artifact = load_artifact(model_path)
    payloads = synth_requests(artifact.models, requests, seed=seed)

    def config(batch_size: int) -> ServiceConfig:
        return ServiceConfig(
            model=str(artifact.path),
            max_batch_size=batch_size,
            max_wait_ms=max_wait_ms,
            execute=False,
        )

    batched = run_load(
        config(max_batch_size),
        payloads,
        clients=clients,
        label=f"batched(window={max_batch_size})",
        transport=transport,
    )
    result = {"transport": transport, "batched": batched.as_dict()}
    if compare:
        per_request = run_load(
            config(1),
            payloads,
            clients=clients,
            label="per-request",
            transport=transport,
        )
        result["per_request"] = per_request.as_dict()
        baseline = per_request.throughput_rps
        result["speedup"] = (
            batched.throughput_rps / baseline if baseline > 0 else float("inf")
        )
    return result


def render_bench_serve(result: dict) -> str:
    """Console table for one :func:`bench_serve` result."""
    from repro.experiments.common import format_table

    headers = (
        "mode",
        "req",
        "clients",
        "rps",
        "p50 ms",
        "p95 ms",
        "occupancy",
        "full/idle/timer",
    )
    rows = []
    for key in ("batched", "per_request"):
        report = result.get(key)
        if report is None:
            continue
        rows.append(
            (
                report["label"],
                report["requests"],
                report["clients"],
                f"{report['throughput_rps']:.0f}",
                f"{report['latency_ms_p50']:.2f}",
                f"{report['latency_ms_p95']:.2f}",
                f"{report['batch_occupancy_mean']:.2f}",
                f"{report['full_flushes']}/{report['idle_flushes']}"
                f"/{report['timer_flushes']}",
            )
        )
    lines = [f"transport: {result.get('transport', 'inproc')}"]
    lines.append(format_table(headers, rows))
    if "speedup" in result:
        lines.append(
            f"batched admission throughput speedup vs per-request: "
            f"{result['speedup']:.2f}x"
        )
    return "\n".join(lines)
