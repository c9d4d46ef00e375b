"""Parallel, cached sweep engine.

The experiment drivers all need the same expensive artifact — a benchmarked,
trained and evaluated :class:`~repro.bench.runner.SweepResult`.
:class:`SweepEngine` is the one path that produces it (``run_sweep`` without
an engine runs a default, in-process and cacheless one), and a configured
engine makes the artifact cheap to come by twice:

* **Parallel benchmarking.**  The per-matrix benchmarking + feature
  collection work is fanned out over worker processes
  (:class:`concurrent.futures.ProcessPoolExecutor`).  Workers receive
  :class:`~repro.sparse.collection.MatrixSpec` recipes — not built matrices —
  so only small tuples cross the process boundary and every matrix is
  generated, benchmarked and discarded inside one worker.  Results are
  reassembled in spec order, so every worker count produces bit-identical
  sweeps.

* **Persistent caching.**  With a ``cache_dir``, each
  :class:`~repro.core.benchmarking.MatrixMeasurement` is stored as JSON keyed
  by a hash of (matrix recipe, kernel set, device, code version), and each
  whole :class:`~repro.bench.runner.SweepResult` is pickled keyed by a hash
  of the full sweep configuration.  A second run of any experiment driver —
  or of a different driver sharing the same configuration — is served from
  disk without re-benchmarking.  The code-version component of every key is a
  digest of the package sources, so editing the simulator or kernels
  invalidates stale artifacts automatically.

* **Matrix artifact caching.**  Generating the largest synthetic matrices
  costs more than benchmarking them, so built matrices are additionally
  persisted in the flat container of :func:`repro.sparse.io.load_tier`
  (``.csr``), keyed by their *recipe* hash (spec payload
  plus a digest of the ``repro.sparse`` sources only).  Editing the kernels,
  the simulator or the training code invalidates measurements and sweeps but
  *not* the generated matrices — re-benchmarking after such an edit skips
  the generation cost entirely.  Matrices are structure-first: a generator's
  columns are a :class:`~repro.sparse.csr.RowRuns` recipe (one start and
  one stride per row) and its values draw a deferred
  :class:`~repro.sparse.csr.DeferredValues` recipe, and an SpMV sweep
  expands neither.  An artifact holds ``row_offsets`` (int64),
  ``run_starts``/``run_strides`` (int32 when ``num_cols`` fits) and the
  six-word ``values_state``: 16 bytes per row, so the ``medium`` tier is
  230 MB where per-nonzero int32 columns made it 705 MB.  Stencil and
  diagonal matrices keep explicit ``col_indices``.  An unreadable artifact
  (absent, truncated, failing its CRC-32, malformed) is a miss: the matrix
  is regenerated and the slot overwritten.

The engine is domain-aware: every cache key embeds the active
:class:`~repro.domains.ProblemDomain`'s name, workers resolve the domain by
name to rebuild workloads, and the per-domain feature schemas drive the
measurement JSON layout.

Cache layout::

    <cache_dir>/
      sweeps/<config-hash>.pkl        # whole SweepResult artifacts
      sweeps/<config-hash>.json       # human-readable config for debugging
      measurements/<matrix-hash>.json # per-workload MatrixMeasurement records
      matrices/<recipe-hash>.csr      # row_offsets + column runs + values_state
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional
from functools import lru_cache
from pathlib import Path

from repro.bench.runner import DEFAULT_SEED, DEFAULT_SPLIT_SEED
from repro.core.benchmarking import (
    BenchmarkSuite,
    MatrixMeasurement,
    measure_matrix,
)
from repro.core.dataset import DEFAULT_ITERATION_COUNTS
from repro.core.training import TrainingConfig
from repro.domains import get_domain, spec_payload
from repro.gpu.device import MI100, DeviceSpec
from repro.sparse import io as sparse_io
from repro.sparse.collection import CollectionProfile
from repro.sparse.coo import SparseFormatError

logger = logging.getLogger(__name__)

#: Bumped whenever the on-disk layout of cached artifacts changes.
CACHE_FORMAT_VERSION = 5


def _digest_sources(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the package sources, part of every cache key.

    Any edit to the simulator, the kernels, the generators or the training
    code changes this digest and therefore invalidates previously cached
    measurements and sweeps — the cache can never serve artifacts produced
    by different code.
    """
    return _digest_sources(Path(__file__).resolve().parent.parent)


@lru_cache(maxsize=1)
def generator_code_version() -> str:
    """Digest of the ``repro.sparse`` sources only.

    Generated matrices depend solely on the sparse formats and generators,
    so their artifact keys use this narrower digest: editing a kernel or the
    trainer invalidates measurements and sweeps but keeps every generated
    matrix servable from disk.
    """
    return _digest_sources(Path(__file__).resolve().parent.parent / "sparse")


def stable_hash(payload: dict) -> str:
    """Deterministic short hash of a JSON-serializable payload.

    Shared cache-keying primitive of every artifact tier: the engine's
    measurement/sweep/matrix tiers, the model registry and the serving
    layer's ingest cache all key by this hash.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def measurement_key(spec, kernel_labels, device: DeviceSpec, domain=None) -> str:
    """Cache key of one workload measurement.

    Every dataclass field of the spec participates (via
    :func:`repro.domains.spec_payload`), so domain-specific recipe
    parameters can never collide.
    """
    domain = get_domain(domain)
    return stable_hash(
        {
            "format": CACHE_FORMAT_VERSION,
            "code": code_version(),
            "domain": domain.name,
            "spec": spec_payload(spec),
            "kernels": list(kernel_labels),
            "device": asdict(device),
        }
    )


def matrix_key(spec, domain=None) -> str:
    """Artifact key of one generated matrix (recipe hash).

    Deliberately independent of the kernel set, the device and the wider
    package sources: a generated matrix is a pure function of its recipe
    and the ``repro.sparse`` generator code.
    """
    domain = get_domain(domain)
    return stable_hash(
        {
            "format": CACHE_FORMAT_VERSION,
            "generators": generator_code_version(),
            "recipe": domain.matrix_payload(spec),
        }
    )


def _profile_payload(profile) -> dict:
    """Hashable description of a profile (name or CollectionProfile).

    The full size/variant/family grid is hashed — not just the name — so a
    custom :class:`~repro.sparse.collection.CollectionProfile` never collides
    with a built-in one sharing its name.
    """
    if isinstance(profile, str):
        profile = CollectionProfile.from_name(profile)
    return asdict(profile)


def sweep_config_key(
    profile,
    seed: int,
    split_seed: int,
    iteration_counts,
    device: DeviceSpec,
    kernel_labels,
    config: Optional[TrainingConfig] = None,
    domain=None,
) -> str:
    """Cache key of a whole sweep configuration.

    ``profile`` may be a name or a ``CollectionProfile``.  ``config=None``
    hashes identically to an explicit default
    :class:`~repro.core.training.TrainingConfig` — they produce the same
    sweep.  The domain name participates, so two domains sharing profile
    names never collide.
    """
    domain = get_domain(domain)
    return stable_hash(
        {
            "format": CACHE_FORMAT_VERSION,
            "code": code_version(),
            "domain": domain.name,
            "profile": _profile_payload(profile),
            "seed": seed,
            "split_seed": split_seed,
            "iteration_counts": list(iteration_counts),
            "device": asdict(device),
            "kernels": list(kernel_labels),
            "training": asdict(config or TrainingConfig()),
        }
    )


# ----------------------------------------------------------------------
# MatrixMeasurement <-> JSON
# ----------------------------------------------------------------------
def measurement_to_dict(measurement: MatrixMeasurement, domain=None) -> dict:
    """JSON-serializable form of one measurement (infinities allowed)."""
    domain = get_domain(domain)
    return {
        "name": measurement.name,
        "domain": domain.name,
        "known": domain.known_to_payload(measurement.known),
        "gathered": domain.gathered_to_payload(measurement.gathered),
        "kernel_runtime_ms": dict(measurement.kernel_runtime_ms),
        "kernel_preprocessing_ms": dict(measurement.kernel_preprocessing_ms),
    }


def measurement_from_dict(payload: dict, domain=None) -> MatrixMeasurement:
    """Inverse of :func:`measurement_to_dict`."""
    if domain is None:
        domain = payload.get("domain")
    domain = get_domain(domain)
    return MatrixMeasurement(
        name=payload["name"],
        known=domain.known_from_payload(payload["known"]),
        gathered=domain.gathered_from_payload(payload["gathered"]),
        kernel_runtime_ms=dict(payload["kernel_runtime_ms"]),
        kernel_preprocessing_ms=dict(payload["kernel_preprocessing_ms"]),
    )


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` without ever exposing a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _load_matrix_artifact(path: Path):
    """Read a cached matrix artifact, or ``None`` when absent/unreadable."""
    try:
        return sparse_io.load_tier(path)
    except SparseFormatError as exc:
        if path.exists():
            logger.warning("matrix artifact treated as a miss: %s", exc)
        return None


def _measure_spec_chunk(
    specs,
    kernel_labels,
    device: DeviceSpec,
    domain=None,
    matrix_dir=None,
) -> tuple:
    """Worker entry point: benchmark a chunk of workload recipes.

    Runs in a worker process (must stay a module-level function so it can be
    pickled).  The domain crosses the process boundary as an object:
    registered domains pickle by name and resolve to the worker's singleton,
    while unregistered custom domains pickle by state — so spawn-start-method
    workers handle both.  Kernels and the feature collector are rebuilt per
    chunk; the simulated timings are deterministic, so where a measurement is
    computed does not change its value.  With a ``matrix_dir``, built
    matrices are served from and stored into the matrix artifact tier.

    Consecutive specs with the same :func:`matrix_key` (SpMM's ``num_vectors``
    variants of one recipe) share one built matrix; each reuse counts as a
    matrix cache hit, as the tier load it replaces would.

    Returns ``(measurements, matrices_generated, matrix_cache_hits)``.
    """
    domain = get_domain(domain)
    kernels = [domain.make_kernel(label, device) for label in kernel_labels]
    pipeline = domain.make_pipeline(device)
    matrix_dir = Path(matrix_dir) if matrix_dir is not None else None
    measurements = []
    generated = 0
    matrix_hits = 0
    matrix = None
    previous_key = None
    for spec in specs:
        key = matrix_key(spec, domain)
        if key == previous_key:
            matrix_hits += 1
        else:
            previous_key = key
            matrix = None
            artifact_path = None
            if matrix_dir is not None:
                artifact_path = matrix_dir / (key + sparse_io.TIER_SUFFIX)
                matrix = _load_matrix_artifact(artifact_path)
            if matrix is None:
                matrix = domain.spec_matrix(spec)
                generated += 1
                if artifact_path is not None:
                    atomic_write_bytes(artifact_path, sparse_io.csr_to_tier_bytes(matrix))
            else:
                matrix_hits += 1
        workload = domain.workload_from_matrix(spec, matrix)
        measurements.append(measure_matrix(spec.name, workload, kernels, pipeline))
    return measurements, generated, matrix_hits


def run_chunked(worker, items, jobs: int, chunks_per_job: int = 4, args=()) -> list:
    """Fan ``worker(chunk, *args)`` out over processes, in deterministic order.

    The engine's benchmarking stage and the serving layer's ingestion stage
    share this process-pool shape: items are split into ``jobs *
    chunks_per_job`` contiguous chunks (smoothing load imbalance between
    cheap and expensive items), futures are collected in submission order,
    and the per-chunk results come back as one list — so a parallel run
    reassembles bit-identically to the serial loop.  ``jobs == 0`` means one
    worker per CPU (as everywhere in the API); ``jobs == 1`` (or a single
    item) short-circuits to an in-process call.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 means one worker per CPU)")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [worker(items, *args)]
    chunk_size = max(1, -(-len(items) // (jobs * max(1, chunks_per_job))))
    chunks = [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]
    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        futures = [pool.submit(worker, chunk, *args) for chunk in chunks]
        # Submission order == item order.
        return [future.result() for future in futures]


@dataclass
class EngineStats:
    """Counters describing what an engine actually did."""

    matrices_measured: int = 0
    measurement_cache_hits: int = 0
    sweep_cache_hits: int = 0
    sweep_cache_misses: int = 0
    matrices_generated: int = 0
    matrix_cache_hits: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class SweepEngine:
    """Parallel, cached executor for benchmark sweeps.

    Parameters
    ----------
    jobs:
        Worker processes for the benchmarking stage.  ``1`` (the default)
        runs serially in-process; ``0`` means one worker per CPU.
    cache_dir:
        Directory for persistent artifacts.  ``None`` disables disk caching
        (the engine still parallelizes).
    chunks_per_job:
        Work chunks created per worker; larger values smooth out load
        imbalance between cheap and expensive matrices at the cost of more
        inter-process traffic.
    """

    def __init__(self, jobs: int = 1, cache_dir=None, chunks_per_job: int = 4):
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means one worker per CPU)")
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.chunks_per_job = max(1, chunks_per_job)
        self.stats = EngineStats()

    def describe(self) -> dict:
        """Configuration plus activity counters, for logs and manifests."""
        return {
            "jobs": self.jobs,
            "cache_dir": str(self.cache_dir) if self.cache_dir is not None else None,
            "chunks_per_job": self.chunks_per_job,
            "stats": self.stats.as_dict(),
        }

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _measurement_path(self, key: str) -> Path:
        return self.cache_dir / "measurements" / f"{key}.json"

    def _sweep_path(self, key: str) -> Path:
        return self.cache_dir / "sweeps" / f"{key}.pkl"

    def _matrix_dir(self):
        """Directory of the generated-matrix artifact tier (or ``None``)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "matrices"

    def _load_measurement(self, key: str):
        if self.cache_dir is None:
            return None
        path = self._measurement_path(key)
        try:
            payload = json.loads(path.read_text())
            return measurement_from_dict(payload)
        except Exception as exc:
            # A cached artifact that cannot be read back — truncated file,
            # valid JSON with the wrong shape, unknown domain name — is a
            # cache miss, never fatal: the measurement is recomputed and
            # the slot overwritten.
            if path.exists():
                logger.warning("measurement artifact treated as a miss: %s: %r", path, exc)
            return None

    def _store_measurement(self, key: str, measurement: MatrixMeasurement, domain=None) -> None:
        if self.cache_dir is None:
            return
        data = json.dumps(measurement_to_dict(measurement, domain), sort_keys=True).encode()
        atomic_write_bytes(self._measurement_path(key), data)

    def _load_sweep(self, key: str):
        if self.cache_dir is None:
            return None
        path = self._sweep_path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception as exc:
            # Corrupted/truncated pickles raise a zoo of exception types
            # (UnpicklingError, EOFError, AttributeError, ImportError,
            # IndexError, ...); any unreadable sweep artifact is simply a
            # cache miss and the sweep is recomputed.
            if path.exists():
                logger.warning("sweep artifact treated as a miss: %s: %r", path, exc)
            return None

    def _store_sweep(self, key: str, result, describe: dict) -> None:
        if self.cache_dir is None:
            return
        atomic_write_bytes(self._sweep_path(key), pickle.dumps(result))
        meta = json.dumps(describe, sort_keys=True, indent=2).encode()
        atomic_write_bytes(self._sweep_path(key).with_suffix(".json"), meta)

    # ------------------------------------------------------------------
    # Benchmarking stage
    # ------------------------------------------------------------------
    def measure_specs(self, specs, kernel_labels, device: DeviceSpec = MI100, domain=None) -> list:
        """Benchmark workload recipes, in order, using cache and workers.

        Returns one :class:`~repro.core.benchmarking.MatrixMeasurement` per
        spec, in the order the specs were given — identical to what
        :func:`repro.core.benchmarking.run_benchmark_suite` produces for the
        same workloads.
        """
        domain = get_domain(domain)
        specs = list(specs)
        kernel_labels = tuple(kernel_labels)
        keys = [measurement_key(spec, kernel_labels, device, domain) for spec in specs]
        results = [None] * len(specs)
        pending = []
        for index, key in enumerate(keys):
            cached = self._load_measurement(key)
            if cached is not None:
                results[index] = cached
                self.stats.measurement_cache_hits += 1
            else:
                pending.append(index)

        if pending:
            pending_specs = [specs[index] for index in pending]
            measured = self._run_pending(pending_specs, kernel_labels, device, domain)
            for index, measurement in zip(pending, measured):
                results[index] = measurement
                self._store_measurement(keys[index], measurement, domain)
            self.stats.matrices_measured += len(pending)
        return results

    def _run_pending(self, specs, kernel_labels, device: DeviceSpec, domain) -> list:
        """Benchmark uncached specs, parallel when the engine has workers."""
        chunk_results = run_chunked(
            _measure_spec_chunk,
            specs,
            jobs=self.jobs,
            chunks_per_job=self.chunks_per_job,
            args=(kernel_labels, device, domain, self._matrix_dir()),
        )
        measurements = []
        for chunk_measurements, generated, matrix_hits in chunk_results:
            measurements.extend(chunk_measurements)
            self.stats.matrices_generated += generated
            self.stats.matrix_cache_hits += matrix_hits
        return measurements

    def run_benchmark_suite(
        self,
        profile: str = "small",
        seed: int = DEFAULT_SEED,
        device: DeviceSpec = MI100,
        include_rocsparse: bool = True,
        domain=None,
    ) -> BenchmarkSuite:
        """Benchmarking + feature collection for a named profile."""
        domain = get_domain(domain)
        kernel_labels = domain.kernel_names(include_aux=include_rocsparse)
        specs = domain.collection_specs(profile, base_seed=seed)
        measurements = self.measure_specs(specs, kernel_labels, device, domain)
        return BenchmarkSuite(
            kernel_names=list(kernel_labels),
            measurements=measurements,
            device_name=device.name,
            domain_name=domain.name,
        )

    # ------------------------------------------------------------------
    # Whole-sweep stage
    # ------------------------------------------------------------------
    def run_sweep(
        self,
        profile: str = "small",
        iteration_counts=DEFAULT_ITERATION_COUNTS,
        device: DeviceSpec = MI100,
        seed: int = DEFAULT_SEED,
        split_seed: int = DEFAULT_SPLIT_SEED,
        config: Optional[TrainingConfig] = None,
        include_rocsparse: bool = True,
        domain=None,
    ):
        """Run (or reload) the full pipeline for one configuration.

        :func:`repro.bench.runner.run_sweep` delegates here.  The worker
        count and the cache decide only where the benchmarking happens and
        whether it happens at all (cache hit), never the result.
        """
        from repro.bench.runner import assemble_sweep

        domain = get_domain(domain)
        kernel_labels = domain.kernel_names(include_aux=include_rocsparse)
        key = sweep_config_key(
            profile,
            seed,
            split_seed,
            iteration_counts,
            device,
            kernel_labels,
            config,
            domain,
        )
        cached = self._load_sweep(key)
        if cached is not None:
            self.stats.sweep_cache_hits += 1
            return cached
        self.stats.sweep_cache_misses += 1

        suite = self.run_benchmark_suite(
            profile=profile,
            seed=seed,
            device=device,
            include_rocsparse=include_rocsparse,
            domain=domain,
        )
        result = assemble_sweep(
            suite,
            iteration_counts=iteration_counts,
            device=device,
            split_seed=split_seed,
            config=config,
        )
        self._store_sweep(
            key,
            result,
            describe={
                "domain": domain.name,
                "profile": _profile_payload(profile),
                "seed": seed,
                "split_seed": split_seed,
                "iteration_counts": list(iteration_counts),
                "device": device.name,
                "kernels": list(kernel_labels),
                "training": asdict(config or TrainingConfig()),
                "code": code_version(),
                "format": CACHE_FORMAT_VERSION,
            },
        )
        return result


def jobs_from_env(environ=None):
    """Validated ``SEER_JOBS`` value, or ``None`` when unset/empty."""
    environ = os.environ if environ is None else environ
    raw = environ.get("SEER_JOBS")
    if raw is None or raw.strip() == "":
        return None
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"SEER_JOBS must be an integer >= 0 (0 means one worker per "
            f"CPU), got {raw!r}"
        ) from None
    if jobs < 0:
        raise ValueError(f"SEER_JOBS must be >= 0, got {jobs}")
    return jobs


def engine_from_env(environ=None, jobs=None, cache_dir=None):
    """Build the engine described by ``SEER_JOBS``/``SEER_CACHE_DIR``.

    ``jobs``/``cache_dir`` override the corresponding environment variable
    (each independently), so callers with explicit settings — e.g. CLI
    flags — can merge them with the environment.  Returns ``None`` when the
    result would be the plain in-process, cacheless configuration —
    :func:`~repro.bench.runner.run_sweep` runs its default engine for that.
    """
    environ = os.environ if environ is None else environ
    if jobs is None:
        jobs = jobs_from_env(environ)
    if cache_dir is None:
        cache_dir = environ.get("SEER_CACHE_DIR") or None
    if (jobs is None or jobs == 1) and cache_dir is None:
        return None
    return SweepEngine(jobs=1 if jobs is None else jobs, cache_dir=cache_dir)
