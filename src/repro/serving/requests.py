"""The unified serving request/response API.

Every way of asking the trained selector for a kernel decision used to
hand-roll its own input validation and output shape: ``repro predict
--batch`` parsed CSV rows, ``repro serve`` walked raw-matrix sources and
the evaluation harness had its own feature-row plumbing.  This module collapses
those paths onto one stable pair of dataclasses:

* :class:`ServeRequest` — one workload to decide on, either as a *matrix
  reference* (a file path or ``recipe:`` spec) or as *inline features*
  (known, optionally gathered, feature mappings), plus workload options,
  an iteration count and an optional model selector;
* :class:`ServeResponse` — one decision: the routing (``known`` vs
  ``gathered``), the chosen kernel, the feature rows consulted, and the
  timing accounting (collection, inference, and — for executed matrix
  requests — kernel preprocessing/runtime).

:func:`evaluate_requests` is the one serving core behind all entry points.
It is *admission-batched*: however many requests arrive in one call, all
selector/classifier tree evaluations run through two
:meth:`~repro.core.training.SeerModels.predict_batch` calls over the
compiled trees instead of one decision per request.  Its Fig. 3 pass,
:func:`decide_prepared`, is the one decision implementation:
:meth:`~repro.core.inference.SeerPredictor.predict` runs it over a single
in-memory workload.  The persistent daemon (:mod:`repro.serving.service`)
coalesces concurrent single requests into exactly these batches.

The column-validation helpers (:func:`feature_vector`,
:func:`feature_matrix`) live here too, so a missing feature column produces
the *same* one-line error whatever entry point it came through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.training import USE_GATHERED, USE_KNOWN, SeerModels
from repro.domains import get_domain
from repro.domains.base import (
    ITERATIONS_FIELD,
    GatheredFeatureRow,
    KnownFeatureRow,
)
from repro.gpu.device import MI100, DeviceSpec
from repro.kernels.base import KernelTiming, LaunchContext, UnsupportedKernelError
from repro.pipeline.sources import MatrixSource, MatrixSourceError, resolve_source
from repro.serving.backends import CompiledBackend
from repro.sparse.coo import SparseFormatError

if TYPE_CHECKING:  # typing-only imports; runtime imports would be cyclic
    from repro.domains.base import ProblemDomain
    from repro.pipeline import FeaturePipeline
    from repro.serving.ingest import IngestCache

#: Bumped whenever the request/response wire payloads change shape.
REQUEST_FORMAT_VERSION = 1

#: Keys a :class:`ServeRequest` payload may carry; anything else is rejected
#: loudly (a typo silently ignored would serve the wrong workload).
REQUEST_PAYLOAD_KEYS = frozenset(
    {"name", "source", "known", "gathered", "iterations", "options", "model"}
)


class IngestError(RuntimeError):
    """A serving input (CSV cell, request payload, source) is invalid."""


# ----------------------------------------------------------------------
# Column validation — the one error formatter every entry point shares
# ----------------------------------------------------------------------
def parse_numeric_cell(value: object, column: str, origin: str, line: int) -> float:
    """One CSV/option/payload cell as a float, or a one-line error.

    ``origin``/``line`` name the offending location (`file:line` or
    `request:index`), so CLI and daemon callers can surface the message
    verbatim without a traceback.
    """
    try:
        return float(value)
    except TypeError:
        raise IngestError(
            f"{origin}:{line} is missing a value for column {column!r}"
        ) from None
    except ValueError:
        raise IngestError(
            f"{origin}:{line} has a non-numeric value {value!r} for "
            f"column {column!r}"
        ) from None


def feature_vector(
    row: Mapping[str, object],
    names: Sequence[str],
    origin: str,
    line: int,
    kind: str,
) -> List[float]:
    """The named feature columns of one row as floats.

    This is the single missing-column/non-numeric error formatter: CSV
    batches (``repro predict --batch``), inline request features (the
    daemon) and one-shot serving all produce byte-identical messages for
    the same failure.
    """
    vector: List[float] = []
    for name in names:
        if name not in row or row[name] is None:
            raise IngestError(
                f"{origin}:{line} is missing {kind} feature column {name!r}"
            )
        try:
            vector.append(float(row[name]))
        except (TypeError, ValueError):
            raise IngestError(
                f"{origin}:{line} has a non-numeric value {row[name]!r} "
                f"for feature {name!r}"
            ) from None
    return vector


def feature_matrix(
    rows: Iterable[Mapping[str, object]],
    names: Sequence[str],
    origin: str,
    kind: str,
) -> List[List[float]]:
    """Extract the named feature columns of every row as floats.

    Rows are numbered from 2, matching the data lines of a headered CSV.
    """
    return [
        feature_vector(row, names, origin, line, kind)
        for line, row in enumerate(rows, start=2)
    ]


def parse_workload_options(pairs: Optional[Iterable[object]]) -> Dict[str, float]:
    """``KEY=VALUE`` workload options as a dict of ints/floats."""
    options: Dict[str, float] = {}
    for index, pair in enumerate(pairs or (), start=1):
        key, eq, text = str(pair).partition("=")
        if not eq or not key:
            raise IngestError(
                f"workload option {pair!r} is malformed (want KEY=VALUE)"
            )
        value = parse_numeric_cell(text, key, "--workload-option", index)
        options[key] = int(value) if float(value).is_integer() else value
    return options


# ----------------------------------------------------------------------
# The request/response pair
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeRequest:
    """One kernel-selection request, in the unified serving API.

    Exactly one input form must be populated:

    * ``source`` — a matrix reference: a ``.mtx``/``.mtx.gz``/``.npz`` path
      or a ``recipe:`` spec.  The serving core ingests the matrix (through
      the content-addressed cache when one is configured), featurizes it
      through the shared pipeline and executes the chosen kernel;
    * ``known`` (plus optional ``gathered``) — inline feature mappings
      (``{feature_name: value}``).  No matrix exists, so the decision is
      returned without kernel execution; a request routed to the gathered
      classifier without inline gathered features is an error.

    ``options`` are domain workload parameters (e.g. SpMM's
    ``num_vectors``), and ``model`` optionally selects which hot-loaded
    model a daemon should serve the request with (``"<domain>"`` or
    ``"<domain>/<profile>"``; ``None`` = the daemon's default).
    """

    name: Optional[str] = None
    source: Optional[str] = None
    known: Optional[Dict[str, float]] = None
    gathered: Optional[Dict[str, float]] = None
    iterations: int = 1
    options: Dict[str, float] = field(default_factory=dict)
    model: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.source is None) == (self.known is None):
            raise IngestError(
                "a ServeRequest needs exactly one of 'source' (a matrix "
                "reference) or 'known' (inline features)"
            )
        if self.gathered is not None and self.known is None:
            raise IngestError(
                "inline 'gathered' features require inline 'known' features"
            )
        if int(self.iterations) < 1:
            raise IngestError(
                f"iterations must be >= 1, got {self.iterations!r}"
            )

    @property
    def is_inline(self) -> bool:
        """Whether the request carries inline features (no matrix access)."""
        return self.known is not None

    @classmethod
    def from_payload(
        cls, payload: object, origin: str = "request", line: int = 1
    ) -> "ServeRequest":
        """Parse and validate one JSON request payload.

        Unknown keys, malformed feature mappings and bad iteration counts
        all raise :class:`IngestError` with a one-line ``origin:line``
        message, the same shape every other serving entry point uses.
        """
        if not isinstance(payload, dict):
            raise IngestError(
                f"{origin}:{line} must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = sorted(set(payload) - REQUEST_PAYLOAD_KEYS)
        if unknown:
            raise IngestError(
                f"{origin}:{line} has unknown request field(s) "
                f"{', '.join(map(repr, unknown))}; expected a subset of "
                f"{sorted(REQUEST_PAYLOAD_KEYS)}"
            )
        for key in ("known", "gathered", "options"):
            value = payload.get(key)
            if value is not None and not isinstance(value, dict):
                raise IngestError(
                    f"{origin}:{line} field {key!r} must be an object of "
                    f"name/value pairs"
                )
        iterations = payload.get("iterations", 1)
        if not isinstance(iterations, int) or isinstance(iterations, bool):
            raise IngestError(
                f"{origin}:{line} field 'iterations' must be an integer, "
                f"got {iterations!r}"
            )
        try:
            return cls(
                name=payload.get("name"),
                source=payload.get("source"),
                known=dict(payload["known"]) if payload.get("known") else None,
                gathered=(
                    dict(payload["gathered"]) if payload.get("gathered") else None
                ),
                iterations=iterations,
                options=dict(payload.get("options") or {}),
                model=payload.get("model"),
            )
        except IngestError as error:
            raise IngestError(f"{origin}:{line} {error}") from None

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable form of the request (inverse of ``from_payload``)."""
        payload: Dict[str, object] = {}
        if self.name is not None:
            payload["name"] = self.name
        if self.source is not None:
            payload["source"] = self.source
        if self.known is not None:
            payload["known"] = dict(self.known)
        if self.gathered is not None:
            payload["gathered"] = dict(self.gathered)
        if self.iterations != 1:
            payload["iterations"] = int(self.iterations)
        if self.options:
            payload["options"] = dict(self.options)
        if self.model is not None:
            payload["model"] = self.model
        return payload


def requests_from_sources(
    sources: Iterable[MatrixSource],
    iterations: int = 1,
    options: Optional[Mapping[str, float]] = None,
) -> List[ServeRequest]:
    """One matrix-reference :class:`ServeRequest` per discovered source."""
    options = dict(options or {})
    return [
        ServeRequest(
            name=source.name,
            source=source.location,
            iterations=iterations,
            options=dict(options),
        )
        for source in sources
    ]


def requests_from_rows(
    rows: Iterable[Mapping[str, object]],
    models: SeerModels,
    origin: str,
    iterations: int = 1,
) -> List[ServeRequest]:
    """Inline-feature requests from headered-CSV row dicts.

    The known feature columns are required; the gathered columns ride along
    only when *all* of them are present (the ``repro predict --batch``
    contract).  Validation goes through :func:`feature_vector`, so error
    messages match every other entry point exactly.
    """
    rows = list(rows)
    requests: List[ServeRequest] = []
    gathered_names = tuple(models.gathered_feature_names)
    with_gathered = bool(rows) and bool(gathered_names) and all(
        name in rows[0] for name in gathered_names
    )
    for line, row in enumerate(rows, start=2):
        known_values = feature_vector(
            row, models.known_feature_names, origin, line, "known"
        )
        known = dict(zip(models.known_feature_names, known_values))
        gathered = None
        if with_gathered:
            gathered_values = feature_vector(
                row, gathered_names, origin, line, "gathered"
            )
            gathered = dict(zip(gathered_names, gathered_values))
        requests.append(
            ServeRequest(
                name=row.get("name"),
                known=known,
                gathered=gathered,
                iterations=max(1, int(known.get("iterations", iterations))),
            )
        )
    return requests


@dataclass(frozen=True)
class ServeResponse:
    """One decision of the unified serving API.

    ``known``/``gathered`` are the feature rows the decision consulted (the
    gathered row is the domain's all-zero placeholder when collection was
    skipped).  ``executed`` marks matrix-backed requests whose chosen kernel
    was actually run; inline-feature requests carry zero kernel timings.
    """

    name: str
    selector_choice: str
    kernel: str
    known: KnownFeatureRow
    gathered: GatheredFeatureRow
    collection_time_ms: float
    inference_time_ms: float
    source: str = ""
    kind: str = "inline"
    supported: bool = True
    executed: bool = False
    preprocessing_ms: float = 0.0
    runtime_ms: float = 0.0

    @property
    def iterations(self) -> int:
        """Iteration count the decision assumed."""
        return int(getattr(self.known, "iterations", 1))

    @property
    def kernel_total_ms(self) -> float:
        """Preprocessing plus all iterations of the selected kernel."""
        return self.preprocessing_ms + self.iterations * self.runtime_ms

    @property
    def overhead_ms(self) -> float:
        """Selection overhead: feature collection plus tree evaluations."""
        return self.collection_time_ms + self.inference_time_ms

    @property
    def total_ms(self) -> float:
        """Selection overhead plus kernel execution, end to end."""
        return self.overhead_ms + self.kernel_total_ms

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable form of the response (the daemon wire shape)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "selector_choice": self.selector_choice,
            "kernel": self.kernel,
            "supported": self.supported,
            "executed": self.executed,
            "iterations": self.iterations,
            "collection_time_ms": self.collection_time_ms,
            "inference_time_ms": self.inference_time_ms,
            "known": self.known.as_dict(),
            "gathered": self.gathered.as_dict(),
        }
        if self.executed:
            payload.update(
                source=self.source,
                kind=self.kind,
                preprocessing_ms=self.preprocessing_ms,
                runtime_ms=self.runtime_ms,
                kernel_total_ms=self.kernel_total_ms,
                total_ms=self.total_ms,
            )
        return payload


@dataclass(frozen=True)
class ServeFailure:
    """A per-request error, kept in request order by non-strict evaluation."""

    name: str
    error: str

    def to_payload(self) -> Dict[str, str]:
        return {"name": self.name, "error": self.error}


@dataclass
class EvaluationStats:
    """What one :func:`evaluate_requests` call actually did."""

    requests: int = 0
    inline_requests: int = 0
    source_requests: int = 0
    matrices_ingested: int = 0
    ingest_cache_hits: int = 0
    gathered_routed: int = 0
    failures: int = 0
    prepared_memo_hits: int = 0
    prepared_memo_evictions: int = 0

    def add(self, other: "EvaluationStats") -> None:
        """Fold another call's counters into these (chunked serve runs)."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


# ----------------------------------------------------------------------
# The admission-batched serving core
# ----------------------------------------------------------------------
@dataclass
class PreparedRequest:
    """One workload after ingestion/featurization, awaiting inference.

    Matrix-backed items carry their ``workload`` (gathered and timed on
    demand).  Items without one may carry a supplied ``gathered`` row (inline
    features, or a memoized source's collected row) and, for a memoized
    source, the ``timings`` of every kernel.
    """

    name: str
    known: KnownFeatureRow
    source: str = ""
    kind: str = "inline"
    workload: Optional[object] = None
    #: Shared by the workload's feature collection and kernel timing, so its
    #: row-length arrays are derived once.
    context: Optional[LaunchContext] = None
    gathered: Optional[GatheredFeatureRow] = None
    #: Kernel name -> timing, ``None`` where the kernel is unsupported.
    timings: Optional[Mapping[str, Optional[KernelTiming]]] = None


@dataclass(frozen=True)
class PreparedSource:
    """Everything a decision reads of one source, derived once.

    The daemon's cache memoizes these (:class:`~repro.serving.service.
    MemoizedIngestCache`), so a repeat source is decided with no matrix:
    ``known`` is the known row at one iteration (each request applies its
    own count), ``gathered`` the collected row with its simulated collection
    cost, and ``timings`` every kernel's simulated timing (``None`` where the
    kernel does not support the workload).
    """

    known: KnownFeatureRow
    gathered: GatheredFeatureRow
    timings: Mapping[str, Optional[KernelTiming]]

    @classmethod
    def derive(
        cls,
        workload,
        domain: "ProblemDomain",
        device: DeviceSpec,
        pipeline: "FeaturePipeline",
    ) -> "PreparedSource":
        """Featurize, gather and time every kernel over one launch context."""
        context = LaunchContext.of(workload)
        gathered = pipeline.gather(workload, context=context)
        timings = {}
        for name in domain.kernel_names():
            timing = _timing_or_none(domain.make_kernel(name, device), workload, context)
            # No response reads the launch breakdown; without it an entry
            # holds about 1.8 kB instead of 4.6 kB.
            timings[name] = None if timing is None else replace(timing, iteration_detail=None)
        return cls(
            known=pipeline.known_features(workload, 1),
            gathered=gathered,
            timings=timings,
        )

    def request(self, name: str, iterations: int, source) -> PreparedRequest:
        """The prepared form of one request for this source."""
        return PreparedRequest(
            name=name,
            known=self.known.with_iterations(iterations),
            source=source.location,
            kind=source.kind,
            gathered=self.gathered,
            timings=self.timings,
        )


def _timing_or_none(kernel, workload, context) -> Optional[KernelTiming]:
    """``kernel``'s timing of ``workload``, or ``None`` where it is unsupported."""
    try:
        return kernel.timing(workload, context=context)
    except UnsupportedKernelError:
        return None


def _prepare_request(
    request: ServeRequest,
    index: int,
    models: SeerModels,
    domain: "Optional[ProblemDomain]",
    device: DeviceSpec,
    pipeline: "Optional[FeaturePipeline]",
    cache: "Optional[IngestCache]",
    stats: EvaluationStats,
) -> PreparedRequest:
    """Resolve one request to features; raises :class:`IngestError` on bad input.

    With a cache that memoizes prepared sources (the daemon's), a source
    seen before with the same workload options is decided from its
    :class:`PreparedSource`, and a new one is derived in full and
    remembered; any other cache ingests and featurizes every request.
    """
    from repro.serving.ingest import ingest_matrix

    label = request.name or "request"
    line = index + 1
    if request.is_inline:
        stats.inline_requests += 1
        row = dict(request.known)
        # The reserved ``iterations`` known feature may come from the
        # request's top-level count instead of the feature mapping.
        if ITERATIONS_FIELD in models.known_feature_names:
            row.setdefault(ITERATIONS_FIELD, request.iterations)
        known_values = feature_vector(
            row, models.known_feature_names, label, line, "known"
        )
        known = KnownFeatureRow(
            names=tuple(models.known_feature_names),
            values=tuple(known_values),
        )
        if ITERATIONS_FIELD in known.names:
            known = known.with_iterations(int(known.iterations))
        gathered = None
        if request.gathered is not None:
            gathered_values = feature_vector(
                request.gathered,
                models.gathered_feature_names,
                label,
                line,
                "gathered",
            )
            gathered = GatheredFeatureRow(
                names=tuple(models.gathered_feature_names),
                values=tuple(gathered_values),
            )
        return PreparedRequest(
            name=request.name or "matrix",
            known=known,
            gathered=gathered,
        )

    stats.source_requests += 1
    memo = None if cache is None else cache.prepared_sources
    options = request.options or {}
    try:
        source = resolve_source(request.source)
        if memo is None:
            matrix, hit = ingest_matrix(source, cache)
        else:
            content_key = cache.key(source)
            memo_key = memo.key(content_key, domain.name, device.name, options)
            remembered = memo.get(memo_key)
            if remembered is not None:
                stats.ingest_cache_hits += 1
                stats.prepared_memo_hits += 1
                return remembered.request(
                    request.name or source.name, request.iterations, source
                )
            matrix, hit = ingest_matrix(source, cache, key=content_key)
    except (MatrixSourceError, SparseFormatError, OSError) as error:
        raise IngestError(f"{label}: {error}") from None
    if hit:
        stats.ingest_cache_hits += 1
    else:
        stats.matrices_ingested += 1
    try:
        workload = domain.serving_workload(matrix, options)
    except ValueError as error:
        raise IngestError(f"{label}: {error}") from None
    if memo is not None:
        prepared = PreparedSource.derive(workload, domain, device, pipeline)
        stats.prepared_memo_evictions += memo.put(memo_key, prepared)
        return prepared.request(request.name or source.name, request.iterations, source)
    return PreparedRequest(
        name=request.name or source.name,
        known=pipeline.known_features(workload, request.iterations),
        source=source.location,
        kind=source.kind,
        workload=workload,
        context=LaunchContext.of(workload),
    )


def _empty_gathered(
    models: SeerModels, domain: "Optional[ProblemDomain]"
) -> GatheredFeatureRow:
    """The all-zero gathered placeholder in the model's schema."""
    if domain is not None:
        return domain.empty_gathered()
    return GatheredFeatureRow(
        names=tuple(models.gathered_feature_names),
        values=(0.0,) * len(models.gathered_feature_names),
    )


def evaluate_requests(
    models: SeerModels,
    requests: Iterable[ServeRequest],
    domain: "Union[str, ProblemDomain, None]" = None,
    device: DeviceSpec = MI100,
    pipeline: "Optional[FeaturePipeline]" = None,
    cache: "Optional[IngestCache]" = None,
    execute: bool = True,
    strict: bool = True,
    backend=None,
) -> Tuple[List[Union[ServeResponse, ServeFailure, None]], EvaluationStats]:
    """Serve a batch of :class:`ServeRequest`\\ s in one vectorized pass.

    This is the single serving core: the daemon's admission batches, the
    one-shot ``repro serve`` corpus loop and ``repro predict --batch`` all
    call it.  Each request is prepared (ingested and featurized, or its
    inline features validated), then :func:`decide_prepared` decides the
    whole batch at once, so the per-request inference cost is amortized
    across the admission window.

    Decisions come from :class:`~repro.serving.backends.CompiledBackend`;
    ``backend`` substitutes any object with the same ``predict_batch`` —
    the differential tests pass the recursive reference walk here.

    ``cache`` is an :class:`~repro.serving.ingest.IngestCache` (or ``None``)
    used for matrix-reference requests.  With ``strict`` (the default for
    CLI paths) the first invalid request raises :class:`IngestError`; with
    ``strict=False`` (the daemon) each invalid request yields a
    :class:`ServeFailure` in its slot and the rest of the batch proceeds.

    Returns ``(results, stats)`` with one :class:`ServeResponse` or
    :class:`ServeFailure` per request, in request order.
    """
    predict_batch = (CompiledBackend(models) if backend is None else backend).predict_batch
    requests = list(requests)
    stats = EvaluationStats(requests=len(requests))
    domain = get_domain(domain) if any(not r.is_inline for r in requests) or domain is not None else None
    if pipeline is None and domain is not None:
        pipeline = domain.make_pipeline(device)

    results: List[Union[ServeResponse, ServeFailure, None]] = [None] * len(requests)
    prepared: List[PreparedRequest] = []
    prepared_slots: List[int] = []
    for index, request in enumerate(requests):
        try:
            item = _prepare_request(
                request, index, models, domain, device, pipeline, cache, stats
            )
        except IngestError as error:
            if strict:
                raise
            stats.failures += 1
            results[index] = ServeFailure(
                name=request.name or f"request[{index}]", error=str(error)
            )
            continue
        prepared.append(item)
        prepared_slots.append(index)

    decided = decide_prepared(
        models,
        prepared,
        predict_batch,
        stats,
        domain=domain,
        device=device,
        pipeline=pipeline,
        execute=execute,
        strict=strict,
    )
    for slot, result in zip(prepared_slots, decided):
        results[slot] = result
    return results, stats


def decide_prepared(
    models: SeerModels,
    items: Sequence[PreparedRequest],
    predict_batch,
    stats: EvaluationStats,
    domain: "Optional[ProblemDomain]" = None,
    device: DeviceSpec = MI100,
    pipeline: "Optional[FeaturePipeline]" = None,
    execute: bool = True,
    strict: bool = True,
) -> List[Union[ServeResponse, ServeFailure]]:
    """The Fig. 3 runtime flow over prepared items, one result per item.

    Two vectorized ``predict_batch`` passes decide every item: one over the
    known features (selector routing and the known-path kernel), one over
    the gathered-routed subset, whose features are collected (or taken
    inline) only for those rows.  With ``execute``, matrix-backed items
    also time the chosen kernel.  ``stats`` counts gathered routings and
    failures; a gathered-routed inline item without gathered features is a
    :class:`ServeFailure` (or raises, with ``strict``).
    """
    from repro.core.inference import TREE_EVALUATION_MS

    results: List[Union[ServeResponse, ServeFailure, None]] = [None] * len(items)
    if not items:
        return results

    # One vectorized pass decides the routing and the known-path kernel for
    # the entire admission window.
    known_matrix = np.stack([item.known.as_vector() for item in items])
    first_pass = predict_batch(known_matrix)

    # Collect (or accept inline) gathered features only for the rows the
    # selector actually routes through the paid path — exactly the Fig. 3
    # flow — then run the gathered classifier over that subset in one pass.
    routed: List[Tuple[int, GatheredFeatureRow]] = []
    for position, item in enumerate(items):
        if first_pass.selector_choices[position] != USE_GATHERED:
            continue
        if item.workload is not None:
            gathered = pipeline.gather(item.workload, context=item.context)
        elif item.gathered is not None:
            gathered = item.gathered
        else:
            message = (
                f"{item.name} is routed to the gathered classifier but the "
                f"request has no gathered features; supply the "
                f"{', '.join(models.gathered_feature_names)} feature(s) or a "
                f"matrix source"
            )
            if strict:
                raise IngestError(message)
            stats.failures += 1
            results[position] = ServeFailure(name=item.name, error=message)
            continue
        routed.append((position, gathered))

    gathered_kernels: Dict[int, Tuple[str, GatheredFeatureRow]] = {}
    if routed:
        routed_known = known_matrix[[position for position, _ in routed]]
        routed_gathered = np.stack(
            [gathered.as_vector() for _, gathered in routed]
        )
        second_pass = predict_batch(routed_known, routed_gathered)
        for (position, gathered), kernel in zip(
            routed, second_pass.gathered_kernels
        ):
            gathered_kernels[position] = (kernel, gathered)

    for position, item in enumerate(items):
        if results[position] is not None:
            continue
        if position in gathered_kernels:
            kernel_name, gathered = gathered_kernels[position]
            selector_choice = USE_GATHERED
            collection_ms = gathered.collection_time_ms
            stats.gathered_routed += 1
        else:
            selector_choice = USE_KNOWN
            kernel_name = first_pass.known_kernels[position]
            gathered = _empty_gathered(models, domain)
            collection_ms = 0.0
        executed = False
        supported = True
        preprocessing_ms = 0.0
        runtime_ms = 0.0
        if execute and (item.workload is not None or item.timings is not None):
            executed = True
            if item.timings is not None:
                timing = item.timings[kernel_name]
            else:
                timing = _timing_or_none(
                    domain.make_kernel(kernel_name, device),
                    item.workload,
                    item.context,
                )
            if timing is None:
                supported = False
                runtime_ms = math.inf
            else:
                preprocessing_ms = timing.preprocessing_ms
                runtime_ms = timing.iteration_ms
        results[position] = ServeResponse(
            name=item.name,
            selector_choice=selector_choice,
            kernel=kernel_name,
            known=item.known,
            gathered=gathered,
            collection_time_ms=collection_ms,
            inference_time_ms=2 * TREE_EVALUATION_MS,
            source=item.source,
            kind=item.kind,
            supported=supported,
            executed=executed,
            preprocessing_ms=preprocessing_ms,
            runtime_ms=runtime_ms,
        )
    return results
