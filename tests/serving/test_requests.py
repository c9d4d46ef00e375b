"""Tests for the unified serving request/response API.

Every serving entry point — the daemon, one-shot ``repro serve`` and
``repro predict --batch`` — goes through
:class:`ServeRequest`/:class:`ServeResponse` and the admission-batched
:func:`evaluate_requests` core, and ``SeerPredictor.predict`` decides
through the same core.  These tests pin the payload contract, the
validation error strings (exact-match across entry points) and the
bit-for-bit parity of the batched core with the serial Fig. 3 walk of
``serial_walk.py``.
"""

import math

import pytest

from repro.core.inference import SeerPredictor
from repro.domains import get_domain
from repro.pipeline.sources import discover_sources
from repro.serving.ingest import IngestCache, serve_sources
from repro.serving.requests import (
    IngestError,
    ServeFailure,
    ServeRequest,
    ServeResponse,
    evaluate_requests,
    feature_vector,
    requests_from_rows,
    requests_from_sources,
)
from repro.sparse.generators import banded_matrix, power_law_matrix
from repro.sparse.io import save_npz, write_matrix_market
from serial_walk import serial_decision


@pytest.fixture()
def corpus(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    write_matrix_market(
        power_law_matrix(200, 200, 5.0, rng=3), directory / "pl.mtx"
    )
    save_npz(banded_matrix(128, 7, rng=1), directory / "band.npz")
    return directory


def _inline_known(models, **overrides):
    """A plausible known-feature mapping for the tiny SpMV model."""
    row = {name: 1.0 for name in models.known_feature_names}
    row.update(rows=512, cols=512, nnz=4096, iterations=1)
    row.update(overrides)
    return row


# ----------------------------------------------------------------------
# The request payload contract
# ----------------------------------------------------------------------
def test_payload_roundtrip_inline(tiny_sweep):
    models = tiny_sweep.models
    request = ServeRequest(
        name="w",
        known=_inline_known(models),
        gathered={n: 0.5 for n in models.gathered_feature_names},
        iterations=3,
        options={"num_vectors": 8},
        model="spmv/tiny",
    )
    assert ServeRequest.from_payload(request.to_payload()) == request


def test_payload_roundtrip_source():
    request = ServeRequest(name="m", source="recipe:diagonal_matrix?num_rows=8")
    payload = request.to_payload()
    assert payload == {
        "name": "m",
        "source": "recipe:diagonal_matrix?num_rows=8",
    }
    assert ServeRequest.from_payload(payload) == request


def test_request_needs_exactly_one_input_form():
    with pytest.raises(IngestError, match="exactly one of 'source'"):
        ServeRequest(name="neither")
    with pytest.raises(IngestError, match="exactly one of 'source'"):
        ServeRequest(source="a.mtx", known={"rows": 1})
    with pytest.raises(IngestError, match="require inline 'known'"):
        ServeRequest(source="a.mtx", gathered={"g": 1.0})
    with pytest.raises(IngestError, match="iterations must be >= 1"):
        ServeRequest(known={"rows": 1}, iterations=0)


def test_from_payload_rejects_unknown_fields():
    with pytest.raises(
        IngestError, match=r"request:1 has unknown request field\(s\) 'nonsense'"
    ):
        ServeRequest.from_payload({"known": {"rows": 1}, "nonsense": True})
    # Requests pick no inference backend: there is only one.
    with pytest.raises(
        IngestError, match=r"request:1 has unknown request field\(s\) 'backend'"
    ):
        ServeRequest.from_payload({"known": {"rows": 1}, "backend": "codegen"})


def test_from_payload_rejects_bad_shapes():
    with pytest.raises(IngestError, match="request:4 must be a JSON object"):
        ServeRequest.from_payload([1, 2], line=4)
    with pytest.raises(IngestError, match="field 'known' must be an object"):
        ServeRequest.from_payload({"known": [1, 2]})
    with pytest.raises(IngestError, match="'iterations' must be an integer"):
        ServeRequest.from_payload({"known": {"rows": 1}, "iterations": "3"})
    with pytest.raises(IngestError, match="'iterations' must be an integer"):
        ServeRequest.from_payload({"known": {"rows": 1}, "iterations": True})
    with pytest.raises(IngestError, match="request:7 a ServeRequest needs"):
        ServeRequest.from_payload({"name": "empty"}, line=7)


def test_requests_from_sources_names_follow_discovery(corpus):
    sources = discover_sources(corpus)
    requests = requests_from_sources(sources, iterations=5)
    assert [r.name for r in requests] == [s.name for s in sources]
    assert all(r.source == s.location for r, s in zip(requests, sources))
    assert all(r.iterations == 5 and not r.is_inline for r in requests)


def test_requests_from_rows_honours_the_iterations_column(tiny_sweep):
    models = tiny_sweep.models
    row = {k: str(v) for k, v in _inline_known(models, iterations=19).items()}
    (request,) = requests_from_rows([row], models, "b.csv")
    assert request.iterations == 19
    assert request.known["iterations"] == 19.0
    assert request.gathered is None


# ----------------------------------------------------------------------
# Satellite: one error formatter for every entry point (exact match)
# ----------------------------------------------------------------------
def test_missing_column_error_is_identical_across_entry_points(tiny_sweep):
    """CSV batch rows and daemon payloads must produce the same string."""
    models = tiny_sweep.models
    row = _inline_known(models)
    del row["nnz"]

    with pytest.raises(IngestError) as from_rows:
        requests_from_rows([row], models, "batch.csv")
    with pytest.raises(IngestError) as from_vector:
        feature_vector(row, models.known_feature_names, "batch.csv", 2, "known")
    assert str(from_rows.value) == str(from_vector.value)
    assert str(from_rows.value) == (
        "batch.csv:2 is missing known feature column 'nnz'"
    )

    # The daemon path validates the same way, differing only in the origin
    # label — which is exactly the point of the shared formatter.
    request = ServeRequest.from_payload({"name": "w", "known": dict(row)})
    with pytest.raises(IngestError) as from_payload:
        evaluate_requests(models, [request], execute=False)
    assert str(from_payload.value) == (
        "w:1 is missing known feature column 'nnz'"
    )


def test_non_numeric_error_is_identical_across_entry_points(tiny_sweep):
    models = tiny_sweep.models
    row = {k: str(v) for k, v in _inline_known(models).items()}
    row["nnz"] = "banana"
    with pytest.raises(IngestError) as from_rows:
        requests_from_rows([row], models, "batch.csv")
    with pytest.raises(IngestError) as from_vector:
        feature_vector(row, models.known_feature_names, "batch.csv", 2, "known")
    assert str(from_rows.value) == str(from_vector.value)
    assert "batch.csv:2 has a non-numeric value" in str(from_rows.value)


def test_strict_false_converts_errors_to_in_slot_failures(tiny_sweep):
    models = tiny_sweep.models
    good = ServeRequest(name="good", known=_inline_known(models))
    bad = ServeRequest(name="bad", known={"rows": 1.0})
    results, stats = evaluate_requests(
        models, [bad, good, bad], execute=False, strict=False
    )
    assert isinstance(results[0], ServeFailure)
    assert isinstance(results[1], ServeResponse)
    assert isinstance(results[2], ServeFailure)
    assert "missing known feature column" in results[0].error
    assert stats.failures == 2 and stats.requests == 3


@pytest.mark.parametrize(
    "size_and_entry",
    [
        "3 3 1\n99999999999999999999 1 1.0\n",
        "3 3 200000000000\n1 1 1.0\n",
        "200000000000 3 1\n1 1 1.0\n",
    ],
    ids=["overflowing-index", "undelivered-nnz", "huge-row-count"],
)
def test_one_malformed_file_fails_only_its_own_request(
    tiny_sweep, tmp_path, corpus, size_and_entry
):
    bad_path = tmp_path / "bad.mtx"
    bad_path.write_text(
        "%%MatrixMarket matrix coordinate real general\n" + size_and_entry
    )
    bad = ServeRequest(name="bad", source=str(bad_path))
    good = ServeRequest(name="good", source=str(corpus / "pl.mtx"))

    def evaluate(requests):
        return evaluate_requests(
            tiny_sweep.models, requests, domain="spmv", execute=False, strict=False
        )[0]

    results = evaluate([bad, good])
    assert isinstance(results[0], ServeFailure)
    assert "bad.mtx" in results[0].error
    assert results[1] == evaluate([good])[0]


# ----------------------------------------------------------------------
# Parity: the batched core vs. the serial Fig. 3 flow
# ----------------------------------------------------------------------
def test_evaluate_requests_matches_serve_sources(tiny_sweep, tmp_path, corpus):
    """The unified core and the one-shot corpus loop agree element-wise."""
    sources = discover_sources(corpus)
    requests = requests_from_sources(sources, iterations=3)
    responses, stats = evaluate_requests(
        tiny_sweep.models,
        requests,
        domain="spmv",
        cache=IngestCache(tmp_path / "cache"),
        execute=True,
    )
    result = serve_sources(
        corpus, tiny_sweep.models, domain="spmv", iterations=3
    )
    assert stats.matrices_ingested == len(sources)
    for response, decision in zip(responses, result.decisions):
        assert response.name == decision.name
        assert response.selector_choice == decision.selector_choice
        assert response.kernel == decision.kernel
        assert response.known == decision.known
        assert response.gathered == decision.gathered
        assert response.collection_time_ms == decision.collection_time_ms
        assert response.inference_time_ms == decision.inference_time_ms
        assert response.runtime_ms == decision.runtime_ms


def _tiny_matrix(domain, name):
    """The sparse matrix of one ``tiny`` collection spec, by name."""
    spec = next(s for s in domain.collection_specs("tiny") if s.name == name)
    return domain.spec_matrix(spec)


def _assert_matches_serial_walk(response, models, pipeline, workload, iterations):
    serial = serial_decision(models, pipeline, workload, iterations)
    assert response.selector_choice == serial.selector_choice
    assert response.kernel == serial.kernel
    assert response.known == serial.known
    assert response.gathered == serial.gathered
    assert response.collection_time_ms == serial.collection_time_ms
    assert response.inference_time_ms == serial.inference_time_ms
    return serial.selector_choice


def _check_against_serial_walk(sweep, domain_name, gathered_spec, options, tmp_path):
    """Both decision entry points == the serial walk, bit for bit.

    The corpus holds two small matrices plus one ``tiny`` collection matrix
    the selector routes through feature collection at 19 iterations, each
    decided at 1, 7 and 19 iterations — through the batched core from
    source paths, and through ``SeerPredictor.predict`` in memory.
    """
    domain = get_domain(domain_name)
    matrices = {
        "pl": power_law_matrix(200, 200, 5.0, rng=3),
        "band": banded_matrix(128, 7, rng=1),
        "routed": _tiny_matrix(domain, gathered_spec),
    }
    requests, workloads = [], []
    for name, matrix in matrices.items():
        path = tmp_path / f"{name}.npz"
        save_npz(matrix, path)
        for iterations in (1, 7, 19):
            requests.append(
                ServeRequest(
                    name=name,
                    source=str(path),
                    iterations=iterations,
                    options=dict(options),
                )
            )
            workloads.append((domain.serving_workload(matrix, options), iterations))
    responses, _ = evaluate_requests(
        sweep.models, requests, domain=domain, execute=False
    )
    pipeline = domain.make_pipeline()
    predictor = SeerPredictor(sweep.models, domain=domain)
    routes = set()
    for response, (workload, iterations) in zip(responses, workloads):
        routes.add(
            _assert_matches_serial_walk(
                response, sweep.models, pipeline, workload, iterations
            )
        )
        predicted = predictor.predict(workload, iterations, name=response.name)
        _assert_matches_serial_walk(
            predicted, sweep.models, pipeline, workload, iterations
        )
        assert predicted.iterations == iterations
    assert routes == {"known", "gathered"}  # both paths exercised


def test_evaluate_requests_matches_serial_predict(tiny_sweep, tmp_path):
    """SpMV: batched core and predictor == one serial walk per workload."""
    _check_against_serial_walk(
        tiny_sweep, "spmv", "power_law_1024_0", {}, tmp_path
    )


def test_spmm_decisions_match_serial_walk(tiny_sweep_spmm, tmp_path):
    """SpMM (``num_vectors`` as a workload option) against the same walk."""
    _check_against_serial_walk(
        tiny_sweep_spmm, "spmm", "power_law_1024_0_v4", {"num_vectors": 4}, tmp_path
    )


def test_inline_requests_match_source_requests(tiny_sweep, corpus):
    """Inline features replayed from a source decision give the same answer."""
    (source_request,) = requests_from_sources(
        discover_sources(corpus / "pl.mtx")
    )
    ((from_source,), _) = evaluate_requests(
        tiny_sweep.models, [source_request], domain="spmv", execute=False
    )
    inline = ServeRequest(
        name="pl-inline",
        known=from_source.known.as_dict(),
        gathered=(
            from_source.gathered.as_dict()
            if from_source.selector_choice == "gathered"
            else None
        ),
        iterations=from_source.iterations,
    )
    ((from_inline,), _) = evaluate_requests(
        tiny_sweep.models, [inline], domain="spmv", execute=False
    )
    assert from_inline.selector_choice == from_source.selector_choice
    assert from_inline.kernel == from_source.kernel
    assert from_inline.kind == "inline" and from_source.kind != "inline"


def test_inline_gathered_routing_without_features_is_an_error(tmp_path):
    from repro.core.training import SeerModels
    from repro.ml.decision_tree import DecisionTreeClassifier

    known_X = [[0.0], [1.0]]
    full_X = [[0.0, 0.0], [1.0, 1.0]]
    models = SeerModels(
        known_model=DecisionTreeClassifier().fit(known_X, ["k1", "k1"]),
        gathered_model=DecisionTreeClassifier().fit(full_X, ["k1", "k1"]),
        selector_model=DecisionTreeClassifier().fit(
            known_X, ["gathered", "gathered"]
        ),
        kernel_names=["k1"],
        known_feature_names=("f0",),
        gathered_feature_names=("g0",),
        training_size=2,
    )
    request = ServeRequest(name="w", known={"f0": 0.5})
    with pytest.raises(IngestError, match="routed to the gathered classifier"):
        evaluate_requests(models, [request], execute=False)
    results, stats = evaluate_requests(
        models, [request], execute=False, strict=False
    )
    assert isinstance(results[0], ServeFailure)
    assert "supply the g0 feature(s) or a matrix source" in results[0].error
    assert stats.failures == 1


def test_response_payload_shape(tiny_sweep):
    models = tiny_sweep.models
    request = ServeRequest(name="w", known=_inline_known(models))
    (response,), _ = evaluate_requests(models, [request], execute=False)
    payload = response.to_payload()
    assert payload["name"] == "w"
    assert payload["selector_choice"] in ("known", "gathered")
    assert payload["kernel"] in models.kernel_names
    assert payload["inference_time_ms"] > 0.0
    assert "runtime_ms" not in payload  # kernel timings only when executed
    assert "total_ms" not in payload
    assert math.isfinite(response.total_ms)

