"""Benchmarks of the serving daemon: admission batching vs per-request.

These pin the throughput the dynamic batcher buys.  The closed-loop load
runs use the same in-process transport as ``repro bench serve`` (clients
submit straight into the admission batcher), so the regression guard
watches the real daemon path — batcher queue, window fill, grouped
``evaluate_requests`` — without the stdlib HTTP server's per-connection
cost drowning the microsecond-scale inference being amortized.

The batched run is asserted faster than the per-request run (the
ISSUE-level acceptance criterion: batched admission beats per-request
inference at batch windows >= 8), with a small tolerance for scheduler
noise on loaded CI runners.
"""

import statistics

from benchmarks.conftest import record
from repro.bench.loadgen import run_load, synth_requests
from repro.serving.artifacts import save_models
from repro.serving.service import ServiceConfig, ServingService

#: One closed-loop load shape shared by both runs so they are comparable.
REQUESTS = 192
CLIENTS = 16
WINDOW = 8
WAIT_MS = 2.0

#: Requests per round of the window-8 speedup test.  A 192-request round
#: lasts about 35 ms, so host noise decided the ratio; at 2,000 requests
#: ten isolated runs measured speedups of 1.41-2.47x.
SPEEDUP_REQUESTS = 2000


def _service_inputs(paper_sweep, tmp_path_factory, requests=REQUESTS):
    directory = tmp_path_factory.mktemp("service-bench")
    model_path = save_models(
        paper_sweep.models,
        directory / "model.json",
        domain=paper_sweep.domain_name,
    )
    payloads = synth_requests(paper_sweep.models, requests)
    return str(model_path), payloads


def _load(model_path, payloads, batch_size):
    config = ServiceConfig(
        model=model_path,
        max_batch_size=batch_size,
        max_wait_ms=WAIT_MS,
        execute=False,
    )
    report = run_load(
        config,
        payloads,
        clients=CLIENTS,
        label=f"window={batch_size}",
        transport="inproc",
    )
    assert report.errors == 0
    return report


def test_bench_serve_per_request(benchmark, paper_sweep, tmp_path_factory):
    """Baseline: every request is its own window (max_batch_size = 1)."""
    model_path, payloads = _service_inputs(paper_sweep, tmp_path_factory)
    report = benchmark.pedantic(
        _load, args=(model_path, payloads, 1), rounds=3, iterations=1
    )
    record(
        benchmark,
        requests=report.requests,
        clients=report.clients,
        throughput_rps=report.throughput_rps,
        batch_occupancy_mean=report.server_metrics["batch_occupancy_mean"],
    )
    assert report.server_metrics["batch_occupancy_max"] == 1


def test_bench_serve_batched_window8(benchmark, paper_sweep, tmp_path_factory):
    """Admission batching at window 8 must beat per-request throughput.

    Each timed window-8 round is preceded by an untimed per-request round
    (the pedantic ``setup``), so both loads sample the same stretch of host
    noise, and the speedup compares their median throughputs.  Occupancy
    is pooled over every batched round, not read from the last one.
    """
    model_path, payloads = _service_inputs(
        paper_sweep, tmp_path_factory, SPEEDUP_REQUESTS
    )
    per_request, batched = [], []

    def per_request_round():
        per_request.append(_load(model_path, payloads, 1))

    def batched_round():
        batched.append(_load(model_path, payloads, WINDOW))
        return batched[-1]

    report = benchmark.pedantic(
        batched_round, setup=per_request_round, rounds=3, iterations=1
    )
    per_request_rps = statistics.median(r.throughput_rps for r in per_request)
    batched_rps = statistics.median(r.throughput_rps for r in batched)
    speedup = batched_rps / per_request_rps
    occupancy = sum(r.server_metrics["requests_total"] for r in batched) / sum(
        r.server_metrics["batches_total"] for r in batched
    )
    record(
        benchmark,
        requests=report.requests,
        clients=report.clients,
        throughput_rps=batched_rps,
        per_request_rps=per_request_rps,
        speedup=speedup,
        batch_occupancy_mean=occupancy,
        full_flushes=sum(r.server_metrics["full_flushes"] for r in batched),
        timer_flushes=sum(r.server_metrics["timer_flushes"] for r in batched),
    )
    # Windows actually coalesce under 16 concurrent closed-loop clients...
    assert occupancy > 2.0
    # ...and amortized inference wins. Measured 1.4-2.5x, median 1.9x, over
    # ten isolated runs; 1.1 leaves CI headroom.
    assert speedup > 1.1


def test_bench_evaluate_window_amortization(benchmark, paper_sweep):
    """The core itself: one window-8 evaluate vs eight singleton evaluates."""
    import time

    from repro.serving.requests import ServeRequest, evaluate_requests

    models = paper_sweep.models
    payloads = synth_requests(models, 64)
    requests = [ServeRequest.from_payload(p) for p in payloads]

    def singles():
        for request in requests:
            evaluate_requests(models, [request], execute=False)

    def windows():
        for start in range(0, len(requests), 8):
            evaluate_requests(models, requests[start : start + 8], execute=False)

    singles()  # warm the compiled trees outside the timed region
    started = time.perf_counter()
    singles()
    singles_s = time.perf_counter() - started
    benchmark(windows)
    windows_s = benchmark.stats.stats.mean
    record(
        benchmark,
        requests=len(requests),
        singles_s=singles_s,
        windows_s=windows_s,
        speedup=singles_s / windows_s if windows_s else float("nan"),
    )
    assert windows_s < singles_s
