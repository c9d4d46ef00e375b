"""The feature pipeline: one featurization path for sweep- and serve-time.

The paper's deployed flow (Fig. 3) starts from a *matrix*: the known
features are read straight off the format, the classifier-selection model
decides whether the gathered features are worth their collection cost, and
the chosen kernel runs.  Before this package existed the reproduction had
two divergent copies of that featurization — one inlined in the benchmark
sweep (:mod:`repro.core.benchmarking`), one inlined in the runtime predictor
(:mod:`repro.core.inference`).  :class:`FeaturePipeline` is the single
shared implementation both now consume:

* **source → CSR** — :mod:`repro.pipeline.sources` resolves raw matrix
  files (Matrix Market ``.mtx``/``.mtx.gz``, ``.npz`` CSR archives) and
  synthetic ``recipe:`` specs into :class:`~repro.sparse.csr.CSRMatrix`
  objects;
* **CSR → workload** — the active domain wraps the matrix into its workload
  type (:meth:`~repro.domains.ProblemDomain.serving_workload`);
* **workload → known features** — free at runtime, extracted through the
  domain's declarative schema;
* **workload → gathered features (optional)** — collected by the domain's
  simulated parallel kernels at a measured cost.

Pipelines are cheap to construct and build their collector lazily, so
passing one across call sites costs nothing until features are actually
gathered.  Obtain one via :meth:`repro.domains.ProblemDomain.make_pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.domains import get_domain
from repro.gpu.device import MI100, DeviceSpec
from repro.pipeline.sources import (
    MatrixSource,
    MatrixSourceError,
    discover_sources,
    load_source,
    parse_recipe,
    recipe_builders,
    source_digest,
)

__all__ = [
    "FeatureBundle",
    "FeaturePipeline",
    "MatrixSource",
    "MatrixSourceError",
    "discover_sources",
    "load_source",
    "parse_recipe",
    "recipe_builders",
    "source_digest",
]


@dataclass(frozen=True)
class FeatureBundle:
    """One workload's extracted features.

    ``known`` is always populated; ``gathered`` is either the collected row
    (carrying its measured ``collection_time_ms``) or the domain's all-zero
    placeholder when collection was skipped, exactly as the sweep and the
    runtime predictor represent the two cases.
    """

    known: object
    gathered: object
    collected: bool

    @property
    def collection_time_ms(self) -> float:
        """Cost paid to gather the dynamic features (0 when skipped)."""
        return self.gathered.collection_time_ms if self.collected else 0.0


class FeaturePipeline:
    """Featurization shared by the benchmark sweep and the serving layer.

    Parameters
    ----------
    domain:
        Problem domain (name or instance) whose schemas and collector drive
        the extraction; defaults to ``"spmv"``.
    device:
        Simulated device the feature-collection kernels run on.
    collector:
        Pre-built collector to reuse; by default the domain's collector is
        built lazily on first gather.
    """

    def __init__(self, domain=None, device: DeviceSpec = MI100, collector=None):
        self.domain = get_domain(domain)
        self.device = device
        self._collector = collector

    def __repr__(self) -> str:
        return (
            f"FeaturePipeline(domain={self.domain.name!r}, "
            f"device={self.device.name!r})"
        )

    @property
    def collector(self):
        """The domain's feature collector, built on first use."""
        if self._collector is None:
            self._collector = self.domain.make_collector(self.device)
        return self._collector

    # ------------------------------------------------------------------
    # Featurization
    # ------------------------------------------------------------------
    def known_features(self, workload, iterations: int = 1):
        """Extract the trivially known features of ``workload``."""
        return self.domain.known_features(workload, iterations)

    def gather(self, workload, context=None):
        """Run the collection kernels; the row carries its measured cost.

        ``context`` optionally shares a
        :class:`~repro.kernels.base.LaunchContext` with the timing kernels so
        the row lengths are derived once per workload.  Collectors that
        predate the context protocol are still called without it.
        """
        if context is None:
            return self.collector.collect(workload).features
        return self.collector.collect(workload, context=context).features

    def empty_gathered(self):
        """The all-zero gathered row recorded when collection is skipped."""
        return self.domain.empty_gathered()

    def extract(
        self, workload, iterations: int = 1, gather: bool = True, context=None
    ) -> FeatureBundle:
        """Full featurization of one workload.

        With ``gather`` (the default, what the benchmark sweep needs) the
        collection kernels run and their cost is recorded; without it the
        bundle carries the domain's empty gathered row, as the runtime flow
        does when the selector skips collection.  ``context`` is forwarded
        to :meth:`gather`.
        """
        known = self.known_features(workload, iterations)
        if gather:
            return FeatureBundle(
                known=known, gathered=self.gather(workload, context=context), collected=True
            )
        return FeatureBundle(known=known, gathered=self.empty_gathered(), collected=False)

    # ------------------------------------------------------------------
    # Raw sources
    # ------------------------------------------------------------------
    def load_workload(self, source, options=None):
        """Build a domain workload from a raw source (path, spec or source).

        ``source`` may be a :class:`~repro.pipeline.sources.MatrixSource`, a
        path to a ``.mtx``/``.mtx.gz``/``.npz`` file or a ``recipe:`` spec
        string; ``options`` are domain-specific workload parameters (e.g.
        SpMM's ``num_vectors``).
        """
        matrix = load_source(source)
        return self.domain.serving_workload(matrix, options or {})
