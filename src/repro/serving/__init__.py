"""Model serving: compiled batch inference plus the versioned model registry.

The training sweep is expensive; serving is not.  This package separates
the two the way the paper's deployment story does (train once, embed the
trees, select kernels at runtime for pennies):

* :mod:`repro.serving.compiled` — fitted decision trees flattened into
  node arrays: small batches walk them row by row in plain Python, large
  ones advance level by level in NumPy (:meth:`SeerModels.predict_batch`
  rides on this);
* :mod:`repro.serving.backends` — the one serving decide call
  (:class:`CompiledBackend`), differential-tested against a recursive
  per-row walk that lives with the tests;
* :mod:`repro.serving.artifacts` — canonical ``model.json`` documents:
  byte-stable serialization of a full :class:`~repro.core.training.SeerModels`
  with eager validation on load;
* :mod:`repro.serving.registry` — a versioned on-disk registry keyed by the
  same config-plus-source-digest hashes the sweep engine uses, populated by
  ``repro train --save`` and served by ``repro predict``;
* :mod:`repro.serving.requests` — the unified request/response API
  (:class:`ServeRequest`/:class:`ServeResponse`) and the admission-batched
  :func:`evaluate_requests` core that every serving entry point shares;
* :mod:`repro.serving.ingest` — raw-matrix ingestion (``.mtx``/``.mtx.gz``/
  ``.npz``/``recipe:`` corpora through a content-addressed cache tier) and
  the parallel batch-serving loop behind ``repro serve``;
* :mod:`repro.serving.service` — the persistent serving daemon
  (``repro serve --daemon``): warm caches, dynamic batching of concurrent
  requests into ``predict_batch`` windows, ``/metrics`` counters and a JSON
  shutdown summary.
"""

from repro.serving.artifacts import (
    MODEL_FILE_NAME,
    MODEL_FORMAT,
    MODEL_FORMAT_VERSION,
    ModelArtifact,
    ModelArtifactError,
    load_artifact,
    load_models,
    models_from_payload,
    models_to_payload,
    save_models,
    tree_from_payload,
    tree_to_payload,
)
from repro.serving.backends import CompiledBackend
from repro.serving.compiled import CompiledTree, compile_tree
from repro.serving.ingest import (
    DECISIONS_FILE_NAME,
    IngestCache,
    ServeResult,
    ingest_records,
    serve_sources,
    write_serve_artifact,
)
from repro.serving.registry import MANIFEST_FILE_NAME, ModelRegistry
from repro.serving.requests import (
    IngestError,
    ServeFailure,
    ServeRequest,
    ServeResponse,
    evaluate_requests,
    requests_from_rows,
    requests_from_sources,
)

__all__ = [
    "CompiledBackend",
    "DECISIONS_FILE_NAME",
    "IngestCache",
    "IngestError",
    "ServeFailure",
    "ServeRequest",
    "ServeResponse",
    "ServeResult",
    "evaluate_requests",
    "ingest_records",
    "requests_from_rows",
    "requests_from_sources",
    "serve_sources",
    "write_serve_artifact",
    "MODEL_FILE_NAME",
    "MODEL_FORMAT",
    "MODEL_FORMAT_VERSION",
    "MANIFEST_FILE_NAME",
    "CompiledTree",
    "ModelArtifact",
    "ModelArtifactError",
    "ModelRegistry",
    "compile_tree",
    "load_artifact",
    "load_models",
    "models_from_payload",
    "models_to_payload",
    "save_models",
    "tree_from_payload",
    "tree_to_payload",
]
