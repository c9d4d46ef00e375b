"""Raw-matrix ingestion and batch serving: the back end of ``repro serve``.

This closes the loop of the paper's Fig. 3 at production scale: starting
from a *directory of matrix files* (not pre-extracted feature CSVs), every
matrix is parsed, featurized through the shared
:class:`~repro.pipeline.FeaturePipeline`, routed through the trained
selector (paying for feature collection only when the model asks for it),
and the chosen kernel is executed — producing one deterministic
``decisions.csv`` + ``manifest.json`` pair in the experiment-artifact
format.

Scaling machinery is reused from the sweep engine:

* **process fan-out** — sources are chunked over worker processes with
  :func:`repro.bench.engine.run_chunked`, and results reassemble in source
  order, so ``--jobs N`` output is bit-identical to the serial run;
* **content-addressed ingest cache** — parsed matrices persist in the
  flat, CRC-checked container of :func:`repro.sparse.io.load_tier`
  (``.csr``) under ``<cache_dir>/ingest/``, keyed by
  :func:`repro.bench.engine.stable_hash` over the source's *content digest*
  (file bytes or canonical recipe) plus the ``repro.sparse`` source digest,
  so re-serving a corpus skips Matrix-Market parsing entirely while any
  file edit or parser change retires stale entries.  Computing the key
  reads and hashes the whole file; a long-lived daemon
  (:mod:`repro.serving.service`) memoizes the digest and the key of a file
  whose ``stat`` identity (device, inode, size, mtime and ctime) is
  unchanged, so its cache hit costs a ``stat``, then one read of the
  container into an uninitialised buffer, one CRC-32 over it and array
  views of it: no byte is zero-filled or copied, and stored int32 columns
  widen only if something reads them (SpMV serving never does).  Any
  write, ``os.utime`` or replacement changes that identity and retires the
  memo;
* **prepared-source memo** — the daemon's cache also remembers what it
  derived from each source, keyed by the content key above plus the domain,
  device and workload options: the known row at one iteration (each request
  applies its own count), the gathered row with its simulated collection
  cost, and every kernel's simulated timing (``None`` where unsupported).
  A repeat request is then decided from the entry without touching the
  matrix; the figures are the same simulated numbers a fresh ingest would
  produce, so decisions and cost accounting are unchanged.  An edit changes
  the content key, so it misses.  The memo holds at most
  ``DIGEST_MEMO_MAX_ENTRIES`` entries, least recently used evicted first,
  and ``/metrics`` counts ``prepared_memo_hits`` and
  ``prepared_memo_evictions``.  One-shot ``repro serve`` sees each source
  once and keeps no such memo.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.engine import (
    atomic_write_bytes,
    generator_code_version,
    run_chunked,
    stable_hash,
)
from repro.domains import get_domain
from repro.domains.base import jsonable
from repro.experiments.registry import (
    ARTIFACT_MANIFEST_FILE_NAME,
    ExperimentArtifact,
)
from repro.gpu.device import MI100, DeviceSpec
from repro.pipeline.sources import (
    discover_sources,
    ensure_unique_names,
    load_source,
    resolve_source,
    source_digest,
)
from repro.serving.requests import (
    EvaluationStats,
    evaluate_requests,
    requests_from_sources,
)
from repro.sparse import io as sparse_io
from repro.sparse.coo import SparseFormatError
from repro.sparse.csr import CSRMatrix

logger = logging.getLogger(__name__)

#: Bumped whenever the ingest-cache artifact layout changes.
INGEST_FORMAT_VERSION = 3

#: File names of one serve run's artifact pair.
DECISIONS_FILE_NAME = "decisions.csv"
SERVE_MANIFEST_FILE_NAME = ARTIFACT_MANIFEST_FILE_NAME


# ----------------------------------------------------------------------
# The ingest cache tier
# ----------------------------------------------------------------------
class IngestCache:
    """Content-addressed store of parsed matrices under ``<root>/ingest/``.

    Keys embed the source's content digest and the ``repro.sparse`` source
    digest (the parser and the container layout live there), mirroring how
    the engine's generated-matrix tier is keyed by recipe + generator code.
    """

    #: The memo of :class:`~repro.serving.requests.PreparedSource` entries
    #: serving consults before ingesting; only the daemon's cache keeps one.
    prepared_sources = None

    def __init__(self, root):
        # expanduser so the Python API accepts "~/.cache/seer" exactly as
        # the shell-expanded CLI examples do.
        self.root = Path(root).expanduser()
        self._directory = self.root / "ingest"

    def digest(self, source) -> str:
        """The content digest :meth:`key` embeds.

        Reads and hashes a file source in full; the daemon's cache overrides
        this with a memo of digests whose files have not changed since.
        """
        return source_digest(source)

    def key(self, source) -> str:
        return self.content_key(source.kind, self.digest(source))

    @staticmethod
    def content_key(kind: str, digest: str) -> str:
        """The key of a source of ``kind`` whose content digest is ``digest``."""
        return stable_hash(
            {
                "format": INGEST_FORMAT_VERSION,
                "sparse": generator_code_version(),
                "kind": kind,
                "content": digest,
            }
        )

    def path(self, source, key=None) -> Path:
        """Where ``source`` is stored; ``key``, if given, is its :meth:`key`."""
        if key is None:
            key = self.key(source)
        return self._directory / (key + sparse_io.TIER_SUFFIX)


def _load_cached_matrix(path: Path):
    try:
        return sparse_io.load_tier(path)
    except SparseFormatError as exc:
        if path.exists():
            logger.warning("ingest cache entry treated as a miss: %s", exc)
        return None


def _store_cached_matrix(path: Path, matrix: CSRMatrix) -> None:
    atomic_write_bytes(path, sparse_io.csr_to_tier_bytes(matrix))


def ingest_matrix(source, cache=None, key=None) -> tuple:
    """Resolve one source to a CSR matrix; returns ``(matrix, cache_hit)``.

    The cache key — which digests the source's content — is computed once
    per call, so a cache miss on a huge Matrix-Market file hashes its bytes
    a single time; a caller that already holds it passes it as ``key``.
    """
    if cache is None:
        return load_source(source), False
    artifact_path = cache.path(source, key)
    cached = _load_cached_matrix(artifact_path)
    if cached is not None:
        return cached, True
    matrix = load_source(source)
    _store_cached_matrix(artifact_path, matrix)
    return matrix, False


def _resolve_target(target) -> list:
    """A corpus target as a source list.

    Directories/manifests/single specs go through discovery; an explicit
    list may mix :class:`~repro.pipeline.sources.MatrixSource` objects with
    path strings and ``recipe:`` specs, each resolved individually.
    """
    if isinstance(target, (list, tuple)):
        return ensure_unique_names([resolve_source(item) for item in target])
    return discover_sources(target)


def ingest_records(target, domain=None, cache_dir=None, options=None) -> list:
    """Ingest a corpus into named workload records a benchmark suite accepts.

    ``target`` is anything :func:`~repro.pipeline.sources.discover_sources`
    understands (directory, manifest, single file, recipe spec) or an
    already-discovered source list.  This is how the measurement machinery
    consumes ingested corpora: the records feed straight into
    :func:`repro.core.benchmarking.run_benchmark_suite`, as
    :func:`repro.serving.feedback.feedback_from_corpus` does.
    """
    from repro.sparse.collection import MatrixRecord

    domain = get_domain(domain)
    options = domain.validate_serving_options(options)
    sources = _resolve_target(target)
    cache = IngestCache(cache_dir) if cache_dir is not None else None
    # Corpus suites consume the same ServeRequest objects the serving core
    # does, so request validation can never diverge between the two.
    requests = requests_from_sources(sources, options=options)
    records = []
    for source, request in zip(sources, requests):
        matrix, _ = ingest_matrix(source, cache)
        records.append(
            MatrixRecord(
                name=request.name,
                family=source.kind,
                matrix=domain.serving_workload(matrix, request.options),
            )
        )
    return records


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
@dataclass
class ServeResult:
    """All decisions of one ``repro serve`` run, in corpus order.

    ``decisions`` holds the :class:`~repro.serving.requests.ServeResponse`
    of every source; ``stats`` the serving core's counters, summed over
    chunks.
    """

    domain_name: str
    device_name: str
    iterations: int
    decisions: list
    stats: EvaluationStats = field(default_factory=EvaluationStats)

    def __len__(self) -> int:
        return len(self.decisions)

    @property
    def domain(self):
        return get_domain(self.domain_name)

    def summary(self) -> dict:
        """Headline scalars of the run (manifest ``summary`` block)."""
        gathered = sum(1 for d in self.decisions if d.selector_choice == "gathered")
        unsupported = sum(1 for d in self.decisions if not d.supported)
        finite = [d.total_ms for d in self.decisions if math.isfinite(d.total_ms)]
        overhead = sum(d.overhead_ms for d in self.decisions)
        return {
            "workloads": len(self.decisions),
            "gathered_routed": gathered,
            "known_routed": len(self.decisions) - gathered,
            "unsupported_selections": unsupported,
            "selection_overhead_ms": overhead,
            "total_execution_ms": sum(finite),
        }

    def to_artifact(self) -> ExperimentArtifact:
        """The decisions as one flat experiment-format table."""
        domain = self.domain
        columns = (
            ("name", "source", "kind")
            + tuple(domain.known_feature_names)
            + tuple(domain.gathered_feature_names)
            + (
                "selector_choice",
                "kernel",
                "supported",
                "collection_time_ms",
                "inference_time_ms",
                "preprocessing_ms",
                "runtime_ms",
                "kernel_total_ms",
                "total_ms",
            )
        )
        rows = []
        for decision in self.decisions:
            known = decision.known.as_dict()
            gathered = decision.gathered.as_dict()
            rows.append(
                (decision.name, decision.source, decision.kind)
                + tuple(known[name] for name in domain.known_feature_names)
                + tuple(gathered[name] for name in domain.gathered_feature_names)
                + (
                    decision.selector_choice,
                    decision.kernel,
                    decision.supported,
                    decision.collection_time_ms,
                    decision.inference_time_ms,
                    decision.preprocessing_ms,
                    decision.runtime_ms,
                    decision.kernel_total_ms,
                    decision.total_ms,
                )
            )
        return ExperimentArtifact(columns=columns, rows=rows, summary=self.summary())

    def render(self) -> str:
        """Human-readable per-decision table for the console."""
        lines = [
            f"served {len(self.decisions)} workloads "
            f"(domain {self.domain_name}, {self.iterations} iteration(s))"
        ]
        for decision in self.decisions:
            lines.append(
                f"  {decision.name:<28} {decision.selector_choice:<8} "
                f"-> {decision.kernel:<8} total {decision.total_ms:.4f} ms"
            )
        return "\n".join(lines)


def _serve_chunk(
    sources,
    models,
    domain,
    device: DeviceSpec,
    iterations: int,
    options,
    cache_dir,
) -> tuple:
    """Worker entry point: ingest and serve a chunk of sources.

    Runs in a worker process (module-level, picklable).  The models cross
    the boundary as plain dataclasses; the domain crosses as an object —
    registered domains pickle by name and resolve to the worker's singleton,
    exactly as the engine's benchmark workers handle it.  The chunk goes
    through the unified serving core as one admission batch
    (:func:`repro.serving.requests.evaluate_requests`); featurization and
    the simulated timings are deterministic.  Returns ``(responses,
    stats)``.
    """
    domain = get_domain(domain)
    cache = IngestCache(cache_dir) if cache_dir is not None else None
    requests = requests_from_sources(
        sources, iterations=iterations, options=options or {}
    )
    return evaluate_requests(
        models,
        requests,
        domain=domain,
        device=device,
        cache=cache,
        execute=True,
        strict=True,
    )


def serve_sources(
    target,
    models,
    domain=None,
    device: DeviceSpec = MI100,
    iterations: int = 1,
    jobs: int = 1,
    cache_dir=None,
    options=None,
) -> ServeResult:
    """Ingest a corpus and serve kernel decisions for every matrix in it.

    ``target`` is a directory/manifest/file/recipe (or a pre-discovered
    source list); ``models`` a trained :class:`~repro.core.training.SeerModels`.
    With ``jobs > 1`` the corpus fans out over worker processes through the
    engine's chunking machinery, and the decisions reassemble in corpus
    order — bit-identical to the serial run.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    domain = get_domain(domain)
    # Fail fast on unknown workload options, before any worker fan-out.
    options = domain.validate_serving_options(options)
    sources = _resolve_target(target)
    cache_dir = str(cache_dir) if cache_dir is not None else None
    chunk_results = run_chunked(
        _serve_chunk,
        sources,
        jobs=jobs,
        args=(models, domain, device, iterations, options, cache_dir),
    )
    result = ServeResult(
        domain_name=domain.name,
        device_name=device.name,
        iterations=iterations,
        decisions=[],
    )
    for decisions, stats in chunk_results:
        result.decisions.extend(decisions)
        result.stats.add(stats)
    return result


def write_serve_artifact(result: ServeResult, out_dir, model_info=None) -> dict:
    """Persist a serve run as ``decisions.csv`` + ``manifest.json``.

    The pair follows the experiment-artifact contract: repr-precision cells,
    sorted-key manifest, no timestamps or machine state — and the ingest
    stats are deliberately excluded, so a warm-cache re-serve (or a
    ``--jobs N`` run) writes byte-identical files.
    """
    kinds = {}
    for decision in result.decisions:
        kinds[decision.kind] = kinds.get(decision.kind, 0) + 1
    manifest = {
        "experiment": "serve",
        "title": "Raw-matrix serving decisions",
        "description": (
            "Kernel selections over an ingested corpus of raw matrix files, "
            "featurized through the shared FeaturePipeline"
        ),
        "domain": result.domain.describe(),
        "device": result.device_name,
        "iterations": result.iterations,
        "sources": {"count": len(result.decisions), "kinds": kinds},
        "model": jsonable(model_info) if model_info else None,
    }
    return result.to_artifact().write(out_dir, DECISIONS_FILE_NAME, manifest)
