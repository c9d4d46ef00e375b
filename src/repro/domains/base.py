"""The domain plugin API: ``ProblemDomain`` and generic feature rows.

The paper's central abstraction — ``seer(runtime, preprocessing_data,
features)`` — is domain-agnostic (Sections III-A through III-D): nothing in
the training or inference flow is specific to SpMV beyond the kernel set,
the feature definitions and the workload corpus.  This module makes that
explicit.  A :class:`ProblemDomain` bundles everything the pipeline needs to
know about one problem class:

* **feature schemas** — the named known features (free at runtime) and
  gathered features (collected by dedicated kernels at a cost), declared as
  :class:`FeatureField` lists with extraction callables;
* **a kernel registry** — candidate kernel variants registered through the
  ``@domain.register_kernel`` decorator, in paper order;
* **workload generation** — named collection profiles expanded into
  picklable workload *specs* (recipes) that worker processes rebuild;
* **a feature-collector factory** — the simulated parallel kernels that
  gather the dynamic features and account for their cost.

The pipeline stages (:mod:`repro.core.benchmarking`,
:mod:`repro.core.dataset`, :mod:`repro.core.training`,
:mod:`repro.core.inference`, :mod:`repro.bench.runner`,
:mod:`repro.bench.engine`) are all driven by the active domain; registering
a new domain (see ``repro.domains.spmm`` for a complete example) makes a new
irregular workload runnable end to end without touching any of them.
"""

from __future__ import annotations

import dataclasses
import difflib
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.gpu.device import MI100, DeviceSpec

#: Reserved known-feature name filled in from the caller's iteration count
#: rather than extracted from the workload.
ITERATIONS_FIELD = "iterations"

#: Average row length of the default cost-scaling workloads (mildly
#: irregular, FEM-like) — the Fig. 6 sweep of the paper.
SCALING_AVG_ROW_LENGTH = 8.0

#: Power-law exponent of the default cost-scaling workloads.
SCALING_EXPONENT = 2.4


def jsonable(value):
    """Recursively coerce containers and numpy scalars to plain JSON types.

    Tuples become lists, numpy integers/floats become their Python
    equivalents (bools and strings pass through untouched), so spec payloads
    and artifact manifests serialize with the standard ``json`` module.
    """
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return value


def spec_payload(spec) -> dict:
    """Deterministic, JSON-serializable payload of a workload spec.

    Every dataclass field of the spec participates, so two specs differing
    in any recipe parameter (including domain-specific ones such as SpMM's
    ``num_vectors``) can never collide in a cache key.
    """
    return {
        f.name: jsonable(getattr(spec, f.name))
        for f in dataclasses.fields(spec)
    }


def suggest_names(wanted: str, known, limit: int = 3) -> str:
    """A ``; did you mean ...?`` suffix from the close matches of ``wanted``."""
    matches = difflib.get_close_matches(wanted, list(known), n=limit, cutoff=0.4)
    if not matches:
        return ""
    return "; did you mean " + " or ".join(repr(match) for match in matches) + "?"


@dataclass(frozen=True)
class FeatureField:
    """One named feature plus how to extract it from a workload.

    ``extract`` maps a workload to the feature value; it may be ``None`` for
    fields that are filled in externally (the reserved ``iterations`` known
    feature) or computed jointly by the domain's collector (gathered
    features whose per-field extraction would repeat shared work).
    """

    name: str
    extract: Optional[Callable] = None
    description: str = ""


class _FeatureRowBase:
    """Attribute-style access shared by the generic feature rows."""

    def __getattr__(self, item):
        try:
            names = object.__getattribute__(self, "names")
            values = object.__getattribute__(self, "values")
            index = names.index(item)
        except (AttributeError, ValueError):
            raise AttributeError(item) from None
        return values[index]


@dataclass(frozen=True)
class KnownFeatureRow(_FeatureRowBase):
    """Generic known-feature vector of a domain (free at runtime).

    Provides the same protocol as the SpMV case study's ``KnownFeatures``:
    ``as_vector``/``as_dict`` in schema order, an ``iterations`` attribute,
    and ``with_iterations`` returning an updated copy.  Individual features
    are also readable as attributes (``row.nnz``).
    """

    names: tuple
    values: tuple

    def as_vector(self) -> np.ndarray:
        """Return the features in schema order."""
        return np.array(self.values, dtype=np.float64)

    def as_dict(self) -> dict:
        """Return ``{name: value}`` for CSV emission."""
        return dict(zip(self.names, self.values))

    def with_iterations(self, iterations: int) -> "KnownFeatureRow":
        """Return a copy with a different iteration count."""
        if ITERATIONS_FIELD not in self.names:
            raise ValueError(
                f"feature schema {self.names!r} has no {ITERATIONS_FIELD!r} field"
            )
        index = self.names.index(ITERATIONS_FIELD)
        values = list(self.values)
        values[index] = int(iterations)
        return KnownFeatureRow(names=self.names, values=tuple(values))


@dataclass(frozen=True)
class GatheredFeatureRow(_FeatureRowBase):
    """Generic gathered-feature vector plus the cost of collecting it."""

    names: tuple
    values: tuple
    collection_time_ms: float = field(default=0.0, compare=False)

    def as_vector(self) -> np.ndarray:
        """Return the features in schema order."""
        return np.array(self.values, dtype=np.float64)

    def as_dict(self) -> dict:
        """Return ``{name: value}`` for CSV emission (without the cost)."""
        return dict(zip(self.names, self.values))

    def with_collection_time(self, collection_time_ms: float) -> "GatheredFeatureRow":
        """Return a copy carrying the measured collection time."""
        return GatheredFeatureRow(
            names=self.names,
            values=self.values,
            collection_time_ms=collection_time_ms,
        )


def _resolve_or_rebuild_domain(name: str, cls):
    """Unpickle helper tolerant of processes that lack the registration.

    Prefers the process-local registered singleton (built-in domains, or
    custom domains the process registered itself); otherwise rebuilds an
    instance of ``cls`` — pickle applies the carried state next — and
    registers it so name-only references (cache keys, suites) resolve too.
    This is what lets registered custom domains reach spawn/forkserver
    engine workers, whose fresh interpreters only register the built-ins.
    """
    from repro.domains.registry import _DOMAINS

    existing = _DOMAINS.get(name)
    if existing is not None:
        return existing
    instance = cls.__new__(cls)
    instance.__init__()
    _DOMAINS[name] = instance
    return instance


class ProblemDomain:
    """One problem class the Seer pipeline can train and deploy on.

    Subclasses (or configured instances) provide four things: feature
    schemas (:attr:`known_fields` / :attr:`gathered_fields`), kernels
    (via :meth:`register_kernel`), workloads (:meth:`collection_specs`,
    built through :meth:`spec_matrix` / :meth:`workload_from_matrix`) and a
    collector (:meth:`make_collector`).
    Everything else — training-set assembly, the three decision trees, the
    cost-aware selector, evaluation, caching — is shared machinery.
    """

    #: Registry name of the domain (``"spmv"``, ``"spmm"``, ...).
    name: str = "abstract"
    #: One-line description shown in CLI help and manifests.
    description: str = ""
    #: Known-feature schema; must contain a field named ``iterations``.
    known_fields: tuple = ()
    #: Gathered-feature schema.
    gathered_fields: tuple = ()
    #: Iteration counts the default training corpus expands over.
    default_iteration_counts: tuple = (1, 4, 19)
    #: Kernel label the feature-cost study (Fig. 6) compares collection
    #: against; ``None`` disables the study for the domain.
    feature_cost_kernel: Optional[str] = None

    def __init__(self):
        self._kernel_classes = {}
        self._aux_kernel_names = set()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    def __reduce__(self):
        # Registered domains pickle by name *plus* state: the unpickling
        # process resolves its own singleton when it has one (built-ins, or
        # a custom domain it registered itself) and otherwise rebuilds the
        # instance from the carried class and state — so registered custom
        # domains survive spawn/forkserver worker boundaries, whose fresh
        # interpreters only register the built-ins.  Unregistered instances
        # fall back to ordinary state pickling.
        from repro.domains.registry import is_registered_instance

        if is_registered_instance(self):
            return (
                _resolve_or_rebuild_domain,
                (self.name, type(self)),
                dict(self.__dict__),
            )
        return object.__reduce__(self)

    # ------------------------------------------------------------------
    # Feature schemas
    # ------------------------------------------------------------------
    @property
    def known_feature_names(self) -> tuple:
        """Known-feature names in classifier input order."""
        return tuple(f.name for f in self.known_fields)

    @property
    def gathered_feature_names(self) -> tuple:
        """Gathered-feature names in classifier input order."""
        return tuple(f.name for f in self.gathered_fields)

    def known_features(self, workload, iterations: int = 1):
        """Extract the trivially known features of ``workload``."""
        values = []
        for f in self.known_fields:
            if f.name == ITERATIONS_FIELD:
                values.append(int(iterations))
            elif f.extract is None:
                raise ValueError(
                    f"known feature {f.name!r} of domain {self.name!r} has "
                    f"no extractor"
                )
            else:
                values.append(f.extract(workload))
        return KnownFeatureRow(names=self.known_feature_names, values=tuple(values))

    def empty_gathered(self):
        """The all-zero gathered row used when collection is skipped."""
        return GatheredFeatureRow(
            names=self.gathered_feature_names,
            values=(0.0,) * len(self.gathered_fields),
        )

    def known_from_row(self, row: dict):
        """Rebuild a known-feature object from a CSV/table row."""
        values = tuple(
            int(row.get(ITERATIONS_FIELD, 1)) if name == ITERATIONS_FIELD
            else row[name]
            for name in self.known_feature_names
        )
        return KnownFeatureRow(names=self.known_feature_names, values=values)

    def gathered_from_row(self, row: dict, collection_time_ms: float = 0.0):
        """Rebuild a gathered-feature object from a CSV/table row."""
        return GatheredFeatureRow(
            names=self.gathered_feature_names,
            values=tuple(row[name] for name in self.gathered_feature_names),
            collection_time_ms=collection_time_ms,
        )

    # JSON payloads for the engine's measurement cache -------------------
    def known_to_payload(self, known) -> dict:
        """JSON-serializable form of a known-feature object."""
        return known.as_dict()

    def known_from_payload(self, payload: dict):
        """Inverse of :meth:`known_to_payload`."""
        return self.known_from_row(payload)

    def gathered_to_payload(self, gathered) -> dict:
        """JSON-serializable form of a gathered-feature object."""
        payload = gathered.as_dict()
        payload["collection_time_ms"] = gathered.collection_time_ms
        return payload

    def gathered_from_payload(self, payload: dict):
        """Inverse of :meth:`gathered_to_payload`."""
        return self.gathered_from_row(
            payload, collection_time_ms=payload.get("collection_time_ms", 0.0)
        )

    # ------------------------------------------------------------------
    # Kernel registry
    # ------------------------------------------------------------------
    def register_kernel(self, cls=None, *, aux: bool = False):
        """Register a kernel class under its ``name`` label.

        Usable as a plain decorator (``@domain.register_kernel``), with
        arguments (``@domain.register_kernel(aux=True)``) or as a direct
        call.  ``aux`` marks reference/vendor kernels (the rocSPARSE analog)
        that are excluded when the caller asks for the core set only.
        Registration order is the paper order used by figures and reports.
        """

        def decorate(kernel_cls):
            label = getattr(kernel_cls, "name", None)
            if not label or label == "abstract":
                raise ValueError(
                    f"kernel class {kernel_cls!r} must define a non-abstract "
                    f"'name' label to be registered"
                )
            if label in self._kernel_classes:
                raise ValueError(
                    f"kernel {label!r} is already registered in domain "
                    f"{self.name!r}"
                )
            self._kernel_classes[label] = kernel_cls
            if aux:
                self._aux_kernel_names.add(label)
            return kernel_cls

        if cls is not None:
            return decorate(cls)
        return decorate

    @property
    def kernel_classes(self) -> dict:
        """Registered kernel classes keyed by label, in registration order."""
        return dict(self._kernel_classes)

    def kernel_names(self, include_aux: bool = True) -> tuple:
        """Kernel labels in registration (paper) order."""
        return tuple(
            name
            for name in self._kernel_classes
            if include_aux or name not in self._aux_kernel_names
        )

    def make_kernel(self, kernel, device: DeviceSpec = MI100):
        """Instantiate a kernel by label, or pass an instance through.

        Already-instantiated kernels (anything with ``timing`` and ``name``)
        are returned unchanged, so call sites can uniformly accept either.
        Unknown labels raise :class:`KeyError` with close-match suggestions.
        """
        if not isinstance(kernel, str):
            if hasattr(kernel, "timing") and hasattr(kernel, "name"):
                return kernel
            raise TypeError(
                f"expected a kernel label or kernel instance, got {kernel!r}"
            )
        if kernel not in self._kernel_classes:
            raise KeyError(
                f"unknown kernel {kernel!r} in domain {self.name!r}; expected "
                f"one of {sorted(self._kernel_classes)}"
                + suggest_names(kernel, self._kernel_classes)
            )
        return self._kernel_classes[kernel](device)

    def default_kernels(self, device: DeviceSpec = MI100, include_aux: bool = True) -> list:
        """Instantiate the registered kernel set in paper order."""
        return [
            self.make_kernel(name, device)
            for name in self.kernel_names(include_aux)
        ]

    # ------------------------------------------------------------------
    # Feature collection
    # ------------------------------------------------------------------
    def make_collector(self, device: DeviceSpec = MI100):
        """Build the feature collector running the gathered-feature kernels."""
        raise NotImplementedError

    def make_pipeline(self, device: DeviceSpec = MI100):
        """Build the domain's :class:`~repro.pipeline.FeaturePipeline`.

        This is the one featurization path of the reproduction: the
        benchmark sweep, the runtime predictor and the raw-matrix serving
        layer all extract features through the pipeline this factory
        returns, so sweep-time and serve-time feature values can never
        diverge.  The collector is built lazily.
        """
        from repro.pipeline import FeaturePipeline

        return FeaturePipeline(domain=self, device=device)

    #: Workload-option names :meth:`serving_workload` understands; anything
    #: else passed through ``--workload-option`` is rejected loudly.
    serving_option_names: tuple = ()

    def validate_serving_options(self, options: Optional[dict]) -> dict:
        """Check serving options against :attr:`serving_option_names`.

        A misspelled option silently falling back to a default would serve
        a whole corpus with the wrong workload parameters, so unknown keys
        raise :class:`ValueError` with close-match suggestions instead.
        """
        options = dict(options or {})
        for key in options:
            if key not in self.serving_option_names:
                expected = (
                    f"expected one of {sorted(self.serving_option_names)}"
                    if self.serving_option_names
                    else "it accepts none"
                )
                raise ValueError(
                    f"domain {self.name!r} does not understand workload "
                    f"option {key!r}; {expected}"
                    + suggest_names(key, self.serving_option_names)
                )
        return options

    def serving_workload(self, matrix, options: Optional[dict] = None):
        """Wrap a raw CSR matrix into this domain's workload type.

        Used by the ingestion path (``repro serve``), where only a matrix
        file exists: domains whose workloads carry extra parameters (e.g.
        SpMM's ``num_vectors``) read them from ``options`` and declare them
        in :attr:`serving_option_names`.  The default — the matrix *is* the
        workload — fits matrix-only domains like SpMV.
        """
        self.validate_serving_options(options)
        return matrix

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------
    @property
    def profile_names(self) -> tuple:
        """Names of the collection profiles this domain understands."""
        raise NotImplementedError

    def collection_specs(self, profile="small", base_seed: int = 7) -> list:
        """Expand a profile into picklable workload specs (recipes).

        A spec must be a (frozen) dataclass carrying at least ``name`` and
        ``family`` plus whatever the domain needs to rebuild the workload;
        every field participates in the engine's cache keys.
        """
        raise NotImplementedError

    def spec_matrix(self, spec):
        """Build the (cacheable) sparse-matrix part of one spec's workload."""
        return spec.build()

    def matrix_payload(self, spec) -> dict:
        """Recipe-hash payload of the matrix part of a spec.

        Used to key the engine's generated-matrix artifact cache.  The
        workload *name* never affects the built matrix and is excluded, so
        renamed recipes keep hitting the same artifact; domains whose specs
        carry fields that do not influence the matrix (e.g. SpMM's
        ``num_vectors``) drop those too.
        """
        payload = spec_payload(spec)
        payload.pop("name", None)
        return payload

    def workload_from_matrix(self, spec, matrix):
        """Assemble the full workload from a spec and its built matrix."""
        return matrix

    def scaling_workload(self, num_rows: int, seed: int = 0):
        """A representative workload at a given row count.

        Used by the cost-scaling studies (feature-collection cost vs. kernel
        runtime as the problem grows, the paper's Fig. 6) to sweep problem
        sizes without going through a collection profile.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Manifest payload describing this domain's schemas and kernels."""
        return {
            "name": self.name,
            "description": self.description,
            "known_features": list(self.known_feature_names),
            "gathered_features": list(self.gathered_feature_names),
            "kernels": list(self.kernel_names()),
        }
