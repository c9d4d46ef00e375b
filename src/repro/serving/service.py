"""The persistent serving daemon: ``repro serve --daemon``.

One-shot serving re-pays every fixed cost on every invocation: model
loading, pipeline construction, matrix parsing.  The daemon keeps all of
that warm across requests and adds *dynamic batching* — concurrent
single-workload requests are coalesced into admission windows and decided
through one :meth:`~repro.core.training.SeerModels.predict_batch` call,
so sustained traffic amortizes tree inference the same way the
offline suite does.  Everything speaks the unified request/response API of
:mod:`repro.serving.requests`; decisions are element-wise identical to the
one-shot ``repro serve`` path.

The moving parts, stdlib only:

* :class:`ServiceConfig` — declarative, validated configuration, loadable
  from a small TOML file (``repro serve --daemon --config service.toml``);
* :class:`ModelHub` — hot-loads model artifacts on first use (an explicit
  ``model.json`` path and/or any ``<domain>/<profile>`` out of a
  :class:`~repro.serving.registry.ModelRegistry`) and keeps them, plus one
  warm :class:`~repro.pipeline.FeaturePipeline` per domain, for the life of
  the process;
* :class:`MemoizedIngestCache` — the content-addressed ingest cache plus a
  memo of file digests keyed by ``stat`` identity, so a cache hit on an
  unchanged file skips reading and hashing it;
* :class:`DynamicBatcher` — a condition-variable admission queue: a batch
  flushes when it reaches ``max_batch_size`` (*full*), when no request
  the front end has admitted is still being read, so nothing else can
  join (*idle*), when the window opened by its first request exceeds
  ``max_wait_ms`` (*timer*, the upper bound), or on shutdown (*drain*);
* :class:`ServiceMetrics` — lock-guarded counters behind ``GET /metrics``
  and the JSON shutdown summary;
* :class:`ServingService` — the threaded HTTP server: ``GET /healthz``,
  ``GET /metrics``, ``POST /v1/serve`` (one request object → admission
  batching; ``{"requests": [...]}`` → served as its own batch) and
  ``POST /shutdown``.  Shutdown — request, signal or context exit — stops
  the accept loop, drains in-flight batches, joins handler threads and
  writes ``summary.json`` (plus a ``requests.log`` JSONL) into the
  configured log directory.

No fixed timer sits on the request path.  Each response leaves in one
socket write with Nagle's algorithm off, so a client never waits out a
delayed ACK; and a ``POST /v1/serve`` is *admitted* before its body is
read, so the batcher knows whether another request can still join the
open window and flushes the moment none can.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import tomllib
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from repro.experiments.common import DEFAULT_PROFILE
from repro.gpu.device import MI100, DeviceSpec
from repro.serving.ingest import IngestCache
from repro.serving.requests import (
    IngestError,
    ServeFailure,
    ServeRequest,
    evaluate_requests,
)

logger = logging.getLogger(__name__)

#: File names of one daemon run's log-directory artifacts (the run-directory
#: pattern: everything a run produced, together under one root).
REQUEST_LOG_FILE_NAME = "requests.log"
SUMMARY_FILE_NAME = "summary.json"

#: Most file digests the daemon's ingest cache remembers; the oldest entry
#: is evicted first.
DIGEST_MEMO_MAX_ENTRIES = 4096

#: Seconds a file's newest timestamp (mtime or ctime) must predate the start
#: of its hashing before its digest is memoized — git's "racy clean" rule,
#: with the coarsest common timestamp granularity (FAT's 2 s) as margin.
DIGEST_MEMO_RACY_MARGIN_S = 2.0

#: Seconds a connection handler waits on a silent client socket.  An idle
#: keep-alive connection is closed after it, so it cannot hold graceful
#: shutdown (which joins every handler thread); a request body that stalls
#: for it answers 408.
HANDLER_TIMEOUT_S = 5.0

#: Largest request body the daemon reads, in bytes.  A request declaring a
#: longer ``Content-Length`` answers 413 before any of its body is read:
#: buffered reads allocate the declared length up front.
MAX_BODY_BYTES = 16 * 2**20


class ServiceConfigError(ValueError):
    """A daemon configuration file or value is invalid."""


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def _load_toml(path: Path) -> dict:
    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except OSError as error:
        raise ServiceConfigError(f"{path}: unreadable config ({error})") from None
    except ValueError as error:
        raise ServiceConfigError(f"{path}: {error}") from None


#: Keys a ``[service]`` table (or flag overrides) may set.
_CONFIG_KEYS = frozenset(
    {
        "host",
        "port",
        "model",
        "registry",
        "domain",
        "profile",
        "max_batch_size",
        "max_wait_ms",
        "cache_dir",
        "iterations",
        "log_dir",
        "execute",
        "feedback_dir",
        "drift_threshold",
    }
)


@dataclass(frozen=True)
class ServiceConfig:
    """Declarative, eagerly-validated daemon configuration.

    Exactly one model origin is required: ``model`` (a ``model.json`` path,
    served as the default and the only model) and/or ``registry`` (a
    :class:`~repro.serving.registry.ModelRegistry` root, from which any
    ``<domain>/<profile>`` a request selects is hot-loaded; ``domain`` +
    ``profile`` name the default).  ``port = 0`` binds an ephemeral port —
    the daemon prints the bound address on startup.
    """

    host: str = "127.0.0.1"
    port: int = 0
    model: Optional[str] = None
    registry: Optional[str] = None
    domain: Optional[str] = None
    profile: str = DEFAULT_PROFILE
    max_batch_size: int = 16
    max_wait_ms: float = 5.0
    cache_dir: Optional[str] = None
    iterations: int = 1
    log_dir: Optional[str] = None
    execute: bool = True
    feedback_dir: Optional[str] = None
    drift_threshold: float = 0.1
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model is None and self.registry is None:
            raise ServiceConfigError(
                "the service needs a model origin: set 'model' (a model.json "
                "path) or 'registry' (a model-registry root)"
            )
        if not isinstance(self.port, int) or not 0 <= self.port <= 65535:
            raise ServiceConfigError(f"port must be 0..65535, got {self.port!r}")
        if int(self.max_batch_size) < 1:
            raise ServiceConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size!r}"
            )
        if float(self.max_wait_ms) < 0:
            raise ServiceConfigError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms!r}"
            )
        if int(self.iterations) < 1:
            raise ServiceConfigError(
                f"iterations must be >= 1, got {self.iterations!r}"
            )
        if not float(self.drift_threshold) > 0:
            raise ServiceConfigError(
                f"drift_threshold must be > 0, got {self.drift_threshold!r}"
            )

    @classmethod
    def from_mapping(cls, data: dict, origin: str = "config") -> "ServiceConfig":
        """Build a config from a parsed TOML document (or plain dict).

        Keys may sit at the top level or under a ``[service]`` table;
        workload options go in an ``[options]`` table.  Unknown keys are
        rejected — a typo silently falling back to a default would run the
        daemon with the wrong window or model.
        """
        data = dict(data or {})
        service = dict(data.pop("service", {}) or {})
        options = dict(data.pop("options", {}) or {})
        for key, value in data.items():
            if isinstance(value, dict):
                raise ServiceConfigError(
                    f"{origin}: unknown table [{key}] (expected [service] "
                    f"and/or [options])"
                )
            service.setdefault(key, value)
        unknown = sorted(set(service) - _CONFIG_KEYS)
        if unknown:
            raise ServiceConfigError(
                f"{origin}: unknown setting(s) {', '.join(map(repr, unknown))}; "
                f"expected a subset of {sorted(_CONFIG_KEYS)}"
            )
        return cls(options=options, **service)

    @classmethod
    def from_toml(cls, path) -> "ServiceConfig":
        path = Path(path)
        return cls.from_mapping(_load_toml(path), origin=str(path))

    def with_overrides(self, **overrides) -> "ServiceConfig":
        """A copy with non-``None`` overrides applied (CLI flags)."""
        import dataclasses

        changes = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **changes) if changes else self


# ----------------------------------------------------------------------
# Hot model loading
# ----------------------------------------------------------------------
class ModelHub:
    """Loaded-once model artifacts plus one warm pipeline per domain.

    ``resolve(selector)`` maps a request's ``model`` field to a loaded
    artifact: ``None`` is the configured default, ``"<domain>"`` and
    ``"<domain>/<profile>"`` come out of the configured registry (loaded on
    first use, kept for the life of the daemon).  Pipelines — whose
    collectors are the expensive part — are shared across requests and
    batches, which is exactly the warm state one-shot serving cannot keep.
    """

    def __init__(self, config: ServiceConfig, device: DeviceSpec = MI100):
        from repro.serving.registry import ModelRegistry

        self.config = config
        self.device = device
        self.registry = (
            ModelRegistry(config.registry) if config.registry is not None else None
        )
        self._lock = threading.Lock()
        self._artifacts: dict = {}
        self._pipelines: dict = {}

    @property
    def default_key(self) -> str:
        if self.config.model is not None:
            return "default"
        domain = self.config.domain or "spmv"
        return f"{domain}/{self.config.profile}"

    def _model_path(self, key: str) -> Path:
        """The on-disk ``model.json`` a key currently maps to.

        Registry keys resolve promotion-pointer first (the ``current.json``
        a ``repro promote`` run flips), falling back to the default
        config-hash artifact — so a promotion is picked up on the next
        resolve, without restarting the daemon.
        """
        if key == "default" and self.config.model is not None:
            return Path(self.config.model)
        if self.registry is None:
            raise IngestError(
                f"request selects model {key!r} but the service has no "
                f"registry configured (only the default model is servable)"
            )
        domain, _, profile = key.partition("/")
        profile = profile or self.config.profile
        path = self.registry.current_model_path(domain=domain, profile=profile)
        if path is None:
            path = self.registry.find(domain=domain, profile=profile)
        if path is None:
            raise IngestError(
                f"no model registered for {domain!r}/{profile!r} under "
                f"{self.registry.root}"
            )
        return path

    def _load(self, key: str, path: Path):
        from repro.serving.artifacts import ModelArtifactError, load_artifact

        if key == "default" and self.config.model is not None:
            return load_artifact(path)
        try:
            return load_artifact(path)
        except ModelArtifactError as error:
            raise IngestError(str(error)) from None

    def resolve(self, selector: Optional[str] = None):
        """The loaded artifact for a request's model selector.

        Artifacts cache per key, but the cache entry remembers which path
        it was loaded from: when a promotion moves the key's ``current``
        pointer, the next resolve sees the new path and hot-reloads.
        """
        key = selector or ("default" if self.config.model is not None else None)
        if key is None:
            key = self.default_key
        with self._lock:
            path = self._model_path(key)
            entry = self._artifacts.get(key)
            if entry is None or entry[0] != path:
                entry = (path, self._load(key, path))
                self._artifacts[key] = entry
            return key, entry[1]

    def pipeline_for(self, artifact):
        """The warm feature pipeline of an artifact's domain."""
        from repro.domains import get_domain

        domain = get_domain(artifact.domain_name)
        with self._lock:
            pipeline = self._pipelines.get(domain.name)
            if pipeline is None:
                pipeline = domain.make_pipeline(self.device)
                self._pipelines[domain.name] = pipeline
            return pipeline

    def loaded_models(self) -> list:
        with self._lock:
            return sorted(self._artifacts)



# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass
class ServiceMetrics:
    """Lock-guarded service counters (``/metrics`` and the shutdown summary)."""

    requests_total: int = 0
    responses_total: int = 0
    failures_total: int = 0
    errors_total: int = 0
    error_latency_ms_sum: float = 0.0
    error_latency_ms_max: float = 0.0
    inline_requests: int = 0
    source_requests: int = 0
    matrices_ingested: int = 0
    ingest_cache_hits: int = 0
    ingest_digest_memo_hits: int = 0
    gathered_routed: int = 0
    batches_total: int = 0
    batch_occupancy_sum: int = 0
    batch_occupancy_max: int = 0
    full_flushes: int = 0
    idle_flushes: int = 0
    timer_flushes: int = 0
    drain_flushes: int = 0
    latency_ms_sum: float = 0.0
    latency_ms_max: float = 0.0

    def __post_init__(self):
        self._lock = threading.Lock()
        self._started = time.monotonic()

    def record_batch(self, size: int, reason: str) -> None:
        with self._lock:
            self.batches_total += 1
            self.batch_occupancy_sum += size
            self.batch_occupancy_max = max(self.batch_occupancy_max, size)
            if reason == "full":
                self.full_flushes += 1
            elif reason == "idle":
                self.idle_flushes += 1
            elif reason == "timer":
                self.timer_flushes += 1
            else:
                self.drain_flushes += 1

    def record_results(self, results, stats, latencies_ms) -> None:
        with self._lock:
            self.requests_total += len(results)
            self.responses_total += sum(
                1 for r in results if not isinstance(r, ServeFailure)
            )
            self.failures_total += sum(
                1 for r in results if isinstance(r, ServeFailure)
            )
            self.inline_requests += stats.inline_requests
            self.source_requests += stats.source_requests
            self.matrices_ingested += stats.matrices_ingested
            self.ingest_cache_hits += stats.ingest_cache_hits
            self.gathered_routed += stats.gathered_routed
            for latency in latencies_ms:
                self.latency_ms_sum += latency
                self.latency_ms_max = max(self.latency_ms_max, latency)

    def record_digest_memo_hit(self) -> None:
        with self._lock:
            self.ingest_digest_memo_hits += 1

    def record_error(self, latency_ms: Optional[float] = None) -> None:
        """Count one failed request; its latency stays out of the success
        histogram and lands in the separate error bucket instead."""
        with self._lock:
            self.errors_total += 1
            if latency_ms is not None:
                self.error_latency_ms_sum += latency_ms
                self.error_latency_ms_max = max(
                    self.error_latency_ms_max, latency_ms
                )

    def snapshot(self) -> dict:
        """Counters plus derived means/throughput, as one JSON document."""
        with self._lock:
            uptime = max(time.monotonic() - self._started, 1e-9)
            served = self.requests_total
            batches = self.batches_total
            return {
                "requests_total": served,
                "responses_total": self.responses_total,
                "failures_total": self.failures_total,
                "errors_total": self.errors_total,
                "error_latency_ms_mean": (
                    self.error_latency_ms_sum / self.errors_total
                    if self.errors_total
                    else 0.0
                ),
                "error_latency_ms_max": self.error_latency_ms_max,
                "inline_requests": self.inline_requests,
                "source_requests": self.source_requests,
                "matrices_ingested": self.matrices_ingested,
                "ingest_cache_hits": self.ingest_cache_hits,
                "ingest_digest_memo_hits": self.ingest_digest_memo_hits,
                "ingest_cache_hit_rate": (
                    self.ingest_cache_hits
                    / max(self.ingest_cache_hits + self.matrices_ingested, 1)
                ),
                "gathered_routed": self.gathered_routed,
                "batches_total": batches,
                "batch_occupancy_mean": (
                    self.batch_occupancy_sum / batches if batches else 0.0
                ),
                "batch_occupancy_max": self.batch_occupancy_max,
                "full_flushes": self.full_flushes,
                "idle_flushes": self.idle_flushes,
                "timer_flushes": self.timer_flushes,
                "drain_flushes": self.drain_flushes,
                "latency_ms_mean": self.latency_ms_sum / served if served else 0.0,
                "latency_ms_max": self.latency_ms_max,
                "uptime_s": uptime,
                "throughput_rps": served / uptime,
            }


# ----------------------------------------------------------------------
# Ingest digest memo
# ----------------------------------------------------------------------
def _wall_clock_ns() -> int:
    """Wall-clock time, the clock file timestamps are taken on."""
    return time.time_ns()


def _stat_identity(location: str) -> Optional[tuple]:
    """What changes when a file is edited, replaced or re-timestamped."""
    try:
        st = os.stat(location)
    except OSError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


class MemoizedIngestCache(IngestCache):
    """An :class:`IngestCache` that remembers file digests across requests.

    A file source whose ``stat`` identity matches the one recorded when it
    was hashed reuses that digest, so a cache hit on an unchanged file costs
    a ``stat`` instead of a full read and hash.  The kernel bumps ``ctime``
    on every write and ``os.utime``, and a replacement brings a new inode,
    so any edit retires the entry.  A digest is recorded only when the
    identity is the same before and after hashing and the file's newest
    timestamp predates the hashing by :data:`DIGEST_MEMO_RACY_MARGIN_S`: an
    edit within one timestamp tick of the hash could otherwise leave the
    identity unchanged.  Recipe sources hash their spec as before.  Keys
    are identical to the plain cache's.
    """

    def __init__(self, root, on_memo_hit=None):
        super().__init__(root)
        self._on_memo_hit = on_memo_hit
        self._memo_lock = threading.Lock()
        self._memo: "OrderedDict[str, tuple]" = OrderedDict()

    def digest(self, source) -> str:
        if source.kind == "recipe":
            return super().digest(source)
        location = source.location
        identity = _stat_identity(location)
        with self._memo_lock:
            entry = self._memo.get(location)
        if entry is not None and entry[0] == identity:
            if self._on_memo_hit is not None:
                self._on_memo_hit()
            return entry[1]
        started_ns = _wall_clock_ns()
        digest = super().digest(source)
        settled = (
            identity is not None
            and _stat_identity(location) == identity
            and max(identity[3], identity[4])
            <= started_ns - int(DIGEST_MEMO_RACY_MARGIN_S * 1e9)
        )
        if settled:
            with self._memo_lock:
                self._memo[location] = (identity, digest)
                self._memo.move_to_end(location)
                while len(self._memo) > DIGEST_MEMO_MAX_ENTRIES:
                    self._memo.popitem(last=False)
        return digest


# ----------------------------------------------------------------------
# Dynamic batching
# ----------------------------------------------------------------------
class _Pending:
    """One enqueued request waiting for its admission batch to flush."""

    __slots__ = ("request", "event", "result", "enqueued")

    def __init__(self, request: ServeRequest):
        self.request = request
        self.event = threading.Event()
        self.result = None
        self.enqueued = time.monotonic()


class _Admission:
    """One request the HTTP front end has admitted but not yet queued.

    Obtained from :meth:`DynamicBatcher.admit` before the request body is
    read.  :meth:`DynamicBatcher.submit` settles it as it enqueues; every
    other exit (a malformed body, a client-assembled batch, a 503) releases
    it when the ``with`` block ends.  Releasing twice is a no-op.
    """

    __slots__ = ("_batcher", "open")

    def __init__(self, batcher: "DynamicBatcher"):
        self._batcher = batcher
        self.open = True

    def release(self) -> None:
        self._batcher._release(self)

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class DynamicBatcher:
    """Coalesce concurrent requests into bounded admission windows.

    A window opens when a request lands in an empty queue and closes at
    the first of four events:

    * ``max_batch_size`` requests have accumulated (*full*);
    * no admitted request is still on its way to :meth:`submit`, so nothing
      else can join (*idle*) — see :meth:`admit`;
    * ``max_wait_ms`` has elapsed since the window opened (*timer*), the
      upper bound on how long an announced request may hold it open;
    * :meth:`close` (*drain*).

    Callers that announce nothing (direct :meth:`submit`, the in-process
    load generator) therefore batch the requests that queued while the
    previous batch evaluated.  ``evaluate`` is called with the batched
    request list and must return one result per request, in order.
    :meth:`close` drains everything still queued before returning, so no
    accepted request is ever dropped.
    """

    def __init__(
        self,
        evaluate,
        max_batch_size: int = 16,
        max_wait_ms: float = 5.0,
        on_flush=None,
    ):
        self._evaluate = evaluate
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self._on_flush = on_flush
        self._queue: list = []
        self._admitted = 0
        self._cond = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="serve-batcher", daemon=True
        )
        self._worker.start()

    @property
    def admitted(self) -> int:
        """Requests admitted but not yet queued (or released)."""
        with self._cond:
            return self._admitted

    def admit(self) -> _Admission:
        """Announce a request that will :meth:`submit` shortly.

        While any admission is open a window stays open (up to
        ``max_wait_ms``) so the announced request can join it.  Use the
        result as a context manager and pass it to :meth:`submit`.
        """
        with self._cond:
            self._admitted += 1
        return _Admission(self)

    def _release(self, admission: Optional[_Admission]) -> None:
        # self._cond wraps an RLock, so submit() may call this holding it.
        with self._cond:
            if admission is not None and admission.open:
                admission.open = False
                self._admitted -= 1
                self._cond.notify_all()

    def submit(
        self,
        request: ServeRequest,
        timeout: Optional[float] = None,
        admission: Optional[_Admission] = None,
    ):
        """Enqueue one request; block until its batch flushes.

        ``admission`` (from :meth:`admit`) is settled as the request
        enqueues, or when the batcher refuses it.  Returns the request's
        :class:`~repro.serving.requests.ServeResponse` or
        :class:`~repro.serving.requests.ServeFailure`; raises
        :class:`RuntimeError` once the batcher is closed.
        """
        pending = _Pending(request)
        with self._cond:
            self._release(admission)
            if self._closed:
                raise RuntimeError("the serving batcher is closed")
            self._queue.append(pending)
            self._cond.notify_all()
        if not pending.event.wait(timeout):
            raise TimeoutError(
                f"request was not served within {timeout} s"
            )
        if isinstance(pending.result, BaseException):
            raise pending.result
        return pending.result

    def close(self) -> None:
        """Stop accepting work and drain every queued request."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._worker.join()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                # The window opened with the oldest queued request.
                deadline = self._queue[0].enqueued + self.max_wait_ms / 1000.0
                reason = None
                while reason is None:
                    if len(self._queue) >= self.max_batch_size:
                        reason = "full"
                    elif self._closed:
                        reason = "drain"
                    elif not self._admitted:
                        reason = "idle"
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            reason = "timer"
                        else:
                            self._cond.wait(remaining)
                batch = self._queue[: self.max_batch_size]
                del self._queue[: self.max_batch_size]
            self._flush(batch, reason)

    def _flush(self, batch: list, reason: str) -> None:
        try:
            results = self._evaluate([pending.request for pending in batch])
        except BaseException as error:  # deliver, never strand a waiter
            results = [error] * len(batch)
        if self._on_flush is not None:
            self._on_flush(len(batch), reason)
        for pending, result in zip(batch, results):
            pending.result = result
            pending.event.set()


# ----------------------------------------------------------------------
# The HTTP service
# ----------------------------------------------------------------------
class _ServingHTTPServer(ThreadingHTTPServer):
    # Join handler threads on close so graceful shutdown lets in-flight
    # requests write their responses before the process exits.
    daemon_threads = False
    block_on_close = True
    # socketserver's default backlog of 5 resets connections from a burst
    # of concurrent clients before the accept loop reaches them.
    request_queue_size = 128
    service: "ServingService" = None


class _BodyTooLarge(Exception):
    """A request declared a body longer than :data:`MAX_BODY_BYTES`."""


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # One write per response, sent at once: headers and body collect in a
    # buffered writer that the stdlib flushes once per request (a response
    # larger than the buffer, io.DEFAULT_BUFFER_SIZE, takes a few), and
    # with Nagle off no segment waits on the client's delayed ACK.
    wbufsize = -1
    disable_nagle_algorithm = True
    timeout = HANDLER_TIMEOUT_S

    # Quiet by default: per-request stderr chatter is useless under load
    # and breaks the clean stdout contract of `repro serve --daemon`.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _content_length(self) -> int:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot carry
            # another request.
            self.close_connection = True
            raise IngestError(
                f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        return length

    def _read_json(self):
        length = self._content_length()
        if length > MAX_BODY_BYTES:
            # The unread body would otherwise be parsed as the next request.
            self.close_connection = True
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise IngestError("request body is empty (expected JSON)")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise IngestError(f"request body is not valid JSON: {error}") from None

    def do_GET(self):  # noqa: N802 (stdlib casing)
        service = self.server.service
        if self.path == "/healthz":
            if service.draining:
                self._send_json(503, {"status": "draining"})
            else:
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "default_model": service.hub.default_key,
                        "loaded_models": service.hub.loaded_models(),
                    },
                )
        elif self.path == "/metrics":
            payload = service.metrics.snapshot()
            payload["drift"] = service.drift_status()
            self._send_json(200, payload)
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self):  # noqa: N802 (stdlib casing)
        service = self.server.service
        if self.path == "/shutdown":
            self._send_json(200, {"status": "shutting down"})
            threading.Thread(target=service.shutdown, daemon=True).start()
            return
        if self.path != "/v1/serve":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        started = time.monotonic()
        # Admit before reading the body: until this request is queued (or
        # turned away) the open batch window knows it may still join.
        with service.batcher.admit() as admission:
            try:
                payload = self._read_json()
            except TimeoutError:
                # The rest of the body may still arrive, so the stream
                # cannot carry another request.
                self.close_connection = True
                service.metrics.record_error((time.monotonic() - started) * 1000.0)
                self._send_json(
                    408, {"error": f"request body not received within {self.timeout} s"}
                )
                return
            except _BodyTooLarge as error:
                service.metrics.record_error((time.monotonic() - started) * 1000.0)
                self._send_json(413, {"error": str(error)})
                return
            except IngestError as error:
                service.metrics.record_error((time.monotonic() - started) * 1000.0)
                self._send_json(400, {"error": str(error)})
                return
            try:
                if isinstance(payload, dict) and "requests" in payload:
                    admission.release()  # a client batch never joins a window
                    self._serve_many(service, payload)
                else:
                    self._serve_one(service, payload, admission)
            except RuntimeError:
                self._send_json(503, {"error": "the service is shutting down"})

    def _serve_one(self, service, payload, admission) -> None:
        started = time.monotonic()
        try:
            request = ServeRequest.from_payload(payload)
        except IngestError as error:
            latency_ms = (time.monotonic() - started) * 1000.0
            service.metrics.record_results(
                [ServeFailure(name="request", error=str(error))],
                _EMPTY_STATS,
                [],
            )
            service.metrics.record_error(latency_ms)
            self._send_json(400, {"error": str(error)})
            return
        result = service.batcher.submit(request, admission=admission)
        latency_ms = (time.monotonic() - started) * 1000.0
        service.log_request(result, latency_ms)
        if isinstance(result, ServeFailure):
            # Failed requests must not pollute the success latency histogram
            # — a burst of fast 400s would otherwise *improve* the reported
            # service latency.
            service.metrics.record_error(latency_ms)
            self._send_json(400, result.to_payload())
        else:
            service.metrics.record_results([], _EMPTY_STATS, [latency_ms])
            self._send_json(200, result.to_payload())

    def _serve_many(self, service, payload) -> None:
        started = time.monotonic()
        items = payload.get("requests")
        if not isinstance(items, list) or not items:
            self._send_json(
                400, {"error": "'requests' must be a non-empty JSON array"}
            )
            return
        requests = []
        for index, item in enumerate(items):
            try:
                requests.append(
                    ServeRequest.from_payload(item, origin="requests", line=index)
                )
            except IngestError as error:
                failure = ServeFailure(
                    name=f"requests[{index}]", error=str(error)
                )
                # Pre-failed slots never reach evaluate_requests, so count
                # them here or they vanish from requests/failures entirely.
                service.metrics.record_results([failure], _EMPTY_STATS, [])
                requests.append(failure)
        # A client-assembled list is already a batch: serve it as one window
        # instead of trickling it through the admission queue.
        results = service.evaluate_batch(requests, reason="full")
        latency_ms = (time.monotonic() - started) * 1000.0
        share_ms = latency_ms / max(len(results), 1)
        failed = 0
        for result in results:
            service.log_request(result, share_ms)
            if isinstance(result, ServeFailure):
                failed += 1
        # Each failed slot's latency share lands in the error bucket; the
        # batch counts toward the success histogram only if something in it
        # actually succeeded.
        for _ in range(failed):
            service.metrics.record_error(share_ms)
        if failed < len(results):
            service.metrics.record_results([], _EMPTY_STATS, [latency_ms])
        self._send_json(
            200,
            {
                "responses": [result.to_payload() for result in results],
                "batch_size": len(results),
            },
        )


class _EmptyStats:
    inline_requests = 0
    source_requests = 0
    matrices_ingested = 0
    ingest_cache_hits = 0
    gathered_routed = 0


_EMPTY_STATS = _EmptyStats()


class ServingService:
    """The long-running serving daemon behind ``repro serve --daemon``.

    Usable as a context manager (tests run it in-process); the CLI drives
    :meth:`serve_forever` on the main thread and triggers :meth:`shutdown`
    from its signal handlers.  All warm state — loaded model artifacts,
    feature pipelines, the content-addressed ingest cache — lives for the
    life of the service, and every decision goes through the unified
    :func:`~repro.serving.requests.evaluate_requests` core.
    """

    def __init__(self, config: ServiceConfig, device: DeviceSpec = MI100):
        self.config = config
        self.device = device
        self.hub = ModelHub(config, device=device)
        self.metrics = ServiceMetrics()
        self.cache = (
            MemoizedIngestCache(
                config.cache_dir, on_memo_hit=self.metrics.record_digest_memo_hit
            )
            if config.cache_dir is not None
            else None
        )
        self.draining = False
        self._accepting = False
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = threading.Event()
        self._log_lock = threading.Lock()
        self._log_handle = None
        if config.log_dir is not None:
            log_dir = Path(config.log_dir)
            log_dir.mkdir(parents=True, exist_ok=True)
            self._log_handle = open(
                log_dir / REQUEST_LOG_FILE_NAME, "a", encoding="utf-8"
            )
        # Load the default model eagerly: readiness means servable.
        self.hub.resolve(None)
        self.batcher = DynamicBatcher(
            self._evaluate_for_batcher,
            max_batch_size=config.max_batch_size,
            max_wait_ms=config.max_wait_ms,
            on_flush=self.metrics.record_batch,
        )
        self._httpd = _ServingHTTPServer((config.host, config.port), _Handler)
        self._httpd.service = self

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _evaluate_for_batcher(self, requests: list) -> list:
        return self.evaluate_batch(requests, reason=None)

    def evaluate_batch(self, requests: list, reason: Optional[str] = "full") -> list:
        """Serve one batch, grouping by model selector, order preserved.

        ``requests`` may contain pre-failed :class:`ServeFailure` entries
        (malformed payloads) — they pass through in their slots.  When
        ``reason`` is given the batch is recorded in the flush metrics
        (the admission batcher records its own flushes).
        """
        results: list = list(requests)
        groups: dict = {}
        for index, request in enumerate(requests):
            if isinstance(request, ServeFailure):
                continue
            try:
                key, artifact = self.hub.resolve(request.model)
            except IngestError as error:
                results[index] = ServeFailure(
                    name=request.name or f"request[{index}]", error=str(error)
                )
                # Model-resolution failures bypass evaluate_requests; count
                # them so the request/failure totals stay exhaustive.
                self.metrics.record_results([results[index]], _EMPTY_STATS, [])
                continue
            slots, group = groups.setdefault(key, ([], []))
            slots.append(index)
            group.append(request)
        for key, (slots, group) in sorted(groups.items()):
            _, artifact = self.hub.resolve(key)
            needs_domain = any(not r.is_inline for r in group)
            domain = artifact.domain_name if needs_domain else None
            pipeline = self.hub.pipeline_for(artifact) if needs_domain else None
            group_results, stats = evaluate_requests(
                artifact.models,
                group,
                domain=domain,
                device=self.device,
                pipeline=pipeline,
                cache=self.cache,
                execute=self.config.execute,
                strict=False,
            )
            self.metrics.record_results(group_results, stats, [])
            for slot, result in zip(slots, group_results):
                results[slot] = result
        if reason is not None:
            self.metrics.record_batch(len(requests), reason)
        return results

    def serve_request(self, request: ServeRequest):
        """Python-API entry point: one request through the admission batcher.

        It is not announced, so it joins whatever window the requests that
        queued alongside it form and never holds one open.
        """
        return self.batcher.submit(request)

    # ------------------------------------------------------------------
    # Drift monitoring
    # ------------------------------------------------------------------
    def _drift_baseline(self) -> Optional[dict]:
        """Training-time evaluation summary of the default model, if any.

        Registered artifacts carry it in their ``manifest.json`` sidecar
        (``registry.save(evaluation=...)``); an explicit ``model`` path
        is covered when it sits next to such a sidecar.
        """
        try:
            _, artifact = self.hub.resolve(None)
        except IngestError:
            return None
        path = getattr(artifact, "path", None)
        if path is None:
            return None
        manifest_path = Path(path).parent / "manifest.json"
        try:
            payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        evaluation = payload.get("evaluation") if isinstance(payload, dict) else None
        return evaluation if isinstance(evaluation, dict) else None

    def drift_status(self) -> dict:
        """Live-traffic drift report for ``/metrics`` and ``summary.json``.

        Scans the configured ``feedback_dir`` for feedback-artifact
        manifests (each one a ``repro serve --measure`` run over real
        traffic) and compares their rolling metrics against the model's
        training-time evaluation summary, flagging degradation beyond
        ``drift_threshold``.
        """
        from repro.serving.feedback import DriftMonitor

        if self.config.feedback_dir is None:
            return {"enabled": False}
        monitor = DriftMonitor(
            baseline=self._drift_baseline(),
            threshold=self.config.drift_threshold,
        )
        root = Path(self.config.feedback_dir)
        manifests = []
        if (root / "manifest.json").is_file():
            manifests.append(root / "manifest.json")
        manifests.extend(sorted(root.glob("*/manifest.json")))
        for manifest_path in manifests:
            try:
                payload = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            summary = payload.get("summary") if isinstance(payload, dict) else None
            if isinstance(summary, dict):
                monitor.observe(summary)
        status = monitor.status()
        status["enabled"] = True
        return status

    def log_request(self, result, latency_ms: float) -> None:
        """Append one served decision to the run's JSONL request log."""
        if self._log_handle is None:
            return
        if isinstance(result, ServeFailure):
            record = {"name": result.name, "error": result.error}
        else:
            record = {
                "name": result.name,
                "selector_choice": result.selector_choice,
                "kernel": result.kernel,
                "supported": result.supported,
            }
        record["latency_ms"] = round(latency_ms, 3)
        with self._log_lock:
            self._log_handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._log_handle.flush()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves ephemeral port 0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Run the accept loop until :meth:`shutdown` (blocking)."""
        self._accepting = True
        try:
            self._httpd.serve_forever(poll_interval=0.05)
        finally:
            self.shutdown()

    def start_background(self) -> threading.Thread:
        """Run the accept loop on a background thread (tests, load gen)."""
        self._accepting = True
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-http",
            daemon=True,
        )
        thread.start()
        return thread

    def shutdown(self) -> Optional[dict]:
        """Graceful drain: stop accepting, finish in-flight work, summarize.

        Safe to call from any thread (HTTP ``/shutdown``, signal handlers,
        context exit) and idempotent — the first caller performs the drain
        and writes ``summary.json``; later callers wait for it and get
        ``None``.
        """
        with self._shutdown_lock:
            if self.draining:
                self._shutdown_done.wait()
                return None
            self.draining = True
        # BaseServer.shutdown() blocks until serve_forever() exits, which
        # deadlocks when the accept loop was never started (embedded use:
        # batcher-only, no HTTP traffic) — skip straight to the drain.
        if self._accepting:
            self._httpd.shutdown()
        self.batcher.close()
        self._httpd.server_close()
        summary = self.summary()
        try:
            if self.config.log_dir is not None:
                summary_path = Path(self.config.log_dir) / SUMMARY_FILE_NAME
                try:
                    summary_path.write_text(
                        json.dumps(summary, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8",
                    )
                except OSError:
                    logger.exception("could not write %s", summary_path)
        finally:
            # Later callers wait on this event: a failed write must not
            # leave them waiting forever.
            if self._log_handle is not None:
                with self._log_lock:
                    self._log_handle.close()
                    self._log_handle = None
            self._shutdown_done.set()
        return summary

    def summary(self) -> dict:
        """The shutdown-summary document (also servable any time)."""
        return {
            "service": {
                "default_model": self.hub.default_key,
                "loaded_models": self.hub.loaded_models(),
                "max_batch_size": self.config.max_batch_size,
                "max_wait_ms": self.config.max_wait_ms,
                "execute": self.config.execute,
            },
            "metrics": self.metrics.snapshot(),
            "drift": self.drift_status(),
        }

    def __enter__(self) -> "ServingService":
        self.start_background()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
