"""Backend differential tests: the compiled decide call vs. the recursive walk.

The serving core decides kernels through one ``predict_batch`` interface,
:class:`CompiledBackend`; the recursive per-row reference
(:class:`RecursiveBackend`) serves nothing and exists to be compared
against.  The two must agree *element-wise* on every input — no tolerance —
on both sides of the compiled tree's walk/vectorize crossover
(:data:`~repro.serving.compiled.WALK_MAX_ROWS`).  These tests pin that
contract on real trained models, through ``evaluate_requests`` and through
a promotion that hot-swaps the served model without a restart.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.training import TrainingConfig, train_seer_models
from repro.serving.backends import CompiledBackend, RecursiveBackend
from repro.serving.compiled import WALK_MAX_ROWS
from repro.serving.registry import ModelRegistry
from repro.serving.requests import ServeRequest, evaluate_requests
from repro.serving.service import ServiceConfig, ServingService

#: Cheap deliberately-different retrain config for the hot-reload test.
STUMP_CONFIG = TrainingConfig(
    known_depth=1, gathered_depth=1, selector_depth=1, selector_cross_fit=0
)


def _feature_batches(sweep):
    """The sweep's full dataset as (known, gathered) feature matrices."""
    samples = sweep.dataset.samples
    known = np.stack([s.known_vector for s in samples])
    gathered = np.stack([s.gathered_vector for s in samples])
    return known, gathered


def _parity_backends(models):
    """The serving backend plus the recursive ground truth."""
    return [CompiledBackend(models), RecursiveBackend(models)]


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
# Element-wise parity
# ----------------------------------------------------------------------
def test_all_backends_agree_elementwise(tiny_sweep):
    models = tiny_sweep.models
    known, gathered = _feature_batches(tiny_sweep)
    compiled, recursive = _parity_backends(models)
    # The dataset's rows, repeated so batches reach past the crossover: the
    # row-walked sizes, the smallest vectorized one, and the whole dataset.
    cycled = np.arange(WALK_MAX_ROWS + 1) % len(known)
    batches = [
        (known[cycled[:size]], gathered[cycled[:size]])
        for size in (1, WALK_MAX_ROWS, WALK_MAX_ROWS + 1)
    ] + [(known, gathered)]
    for batch_known, batch_gathered in batches:
        reference = recursive.predict_batch(batch_known, batch_gathered)
        assert compiled.predict_batch(batch_known, batch_gathered) == reference
        assert reference == models.predict_batch(batch_known, batch_gathered)
        # Known-only batches (no gathered features offered) agree too.
        assert compiled.predict_batch(batch_known) == recursive.predict_batch(
            batch_known
        )


def test_backends_reject_mismatched_batches(tiny_sweep):
    known, gathered = _feature_batches(tiny_sweep)
    for backend in _parity_backends(tiny_sweep.models):
        with pytest.raises(ValueError, match="disagree on the sample count"):
            backend.predict_batch(known, gathered[:-1])


# ----------------------------------------------------------------------
# The serving core and request plumbing
# ----------------------------------------------------------------------
def _inline_requests(sweep):
    models = sweep.models
    requests = []
    for sample in sweep.dataset.samples:
        requests.append(
            ServeRequest(
                name=sample.name,
                known=dict(
                    zip(models.known_feature_names, map(float, sample.known_vector))
                ),
                gathered=dict(
                    zip(
                        models.gathered_feature_names,
                        map(float, sample.gathered_vector),
                    )
                ),
            )
        )
    return requests


def test_evaluate_requests_backend_parity(tiny_sweep):
    """Every decision out of ``evaluate_requests`` is identical across the
    backends and the recursive reference, gathered-routed second pass
    included."""
    models = tiny_sweep.models
    requests = _inline_requests(tiny_sweep)
    reference, _ = evaluate_requests(models, requests, execute=False)
    routed = {r.selector_choice for r in reference}
    assert routed == {"known", "gathered"}  # both passes exercised
    for backend in _parity_backends(models):
        results, _ = evaluate_requests(
            models, requests, execute=False, backend=backend
        )
        for got, expected in zip(results, reference):
            assert got.kernel == expected.kernel
            assert got.selector_choice == expected.selector_choice


# ----------------------------------------------------------------------
# The daemon: hot reload
# ----------------------------------------------------------------------
def test_promotion_hot_reload_swaps_the_served_model(tiny_sweep, tmp_path):
    """Flipping ``current.json`` swaps the served model: the next request
    hot-loads the promoted artifact and is decided by it — no restart."""
    registry = ModelRegistry(tmp_path / "registry")
    incumbent = tiny_sweep.models
    registry.save(incumbent, domain="spmv", profile="tiny", key="incumbent")
    registry.promote("spmv", "tiny", key="incumbent")
    promoted = train_seer_models(tiny_sweep.train_set, STUMP_CONFIG)
    registry.save(promoted, domain="spmv", profile="tiny", key="promoted")

    # A workload the two models decide differently, so the swap shows.
    requests = _inline_requests(tiny_sweep)

    def decisions(models):
        results, _ = evaluate_requests(models, requests, execute=False)
        return [(result.selector_choice, result.kernel) for result in results]

    old, new = decisions(incumbent), decisions(promoted)
    differing = [index for index in range(len(requests)) if old[index] != new[index]]
    assert differing
    index = differing[0]
    payload = requests[index].to_payload()

    config = ServiceConfig(
        registry=str(tmp_path / "registry"),
        domain="spmv",
        profile="tiny",
        port=0,
        execute=False,
    )
    with ServingService(config) as service:
        status, before = _post(service.url + "/v1/serve", payload)
        assert status == 200
        assert (before["selector_choice"], before["kernel"]) == old[index]

        registry.promote("spmv", "tiny", key="promoted")

        status, after = _post(service.url + "/v1/serve", payload)
        assert status == 200
        assert (after["selector_choice"], after["kernel"]) == new[index]
        _, health = _get(service.url + "/healthz")
        assert health["loaded_models"] == ["spmv/tiny"]
    # Nothing is served from generated code, so nothing caches it.
    assert not list((tmp_path / "registry").rglob("selector.py"))
