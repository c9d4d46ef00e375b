"""Runtime inference (Fig. 3 of the paper).

At runtime Seer first consults the classifier-selection model using only the
trivially known features.  If it answers "known", the known-feature
classifier picks the kernel immediately and no extra work is done.  If it
answers "gathered", the feature-collection kernels are run (paying their
cost), and the gathered-feature classifier picks the kernel from the full
feature vector.  Decision-tree evaluation itself is a handful of compares —
negligible, but accounted for, exactly as the paper states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.training import USE_GATHERED, USE_KNOWN, SeerModels
from repro.domains import get_domain
from repro.gpu.device import DeviceSpec, MI100

#: Cost of evaluating one decision tree at runtime (milliseconds).  A tree of
#: depth <= 8 is a few compares and branches; the value is deliberately tiny
#: but non-zero so it shows up in the accounting.
TREE_EVALUATION_MS = 0.0005


@dataclass(frozen=True)
class SelectionDecision:
    """Outcome of one runtime kernel selection."""

    matrix_name: str
    iterations: int
    selector_choice: str
    kernel_name: str
    known: object
    gathered: object
    collection_time_ms: float
    inference_time_ms: float

    @property
    def overhead_ms(self) -> float:
        """Total selection overhead: tree evaluations plus collection cost."""
        return self.inference_time_ms + self.collection_time_ms


@dataclass
class ExecutionResult:
    """A selection decision plus the execution of the selected kernel."""

    decision: SelectionDecision
    run: object

    @property
    def total_ms(self) -> float:
        """Selection overhead plus kernel preprocessing and iterations."""
        return self.decision.overhead_ms + self.run.total_ms


class SeerPredictor:
    """Deployable runtime predictor built from the trained models.

    The predictor is bound to the problem domain it was trained on.  All
    featurization — known-feature extraction and paid feature collection —
    runs through the domain's :class:`~repro.pipeline.FeaturePipeline`, the
    same code path the benchmark sweep used to produce the training data, so
    a deployed predictor can never see differently-computed features than
    the trees were trained on.
    """

    def __init__(
        self,
        models: SeerModels,
        device: DeviceSpec = MI100,
        collector=None,
        domain=None,
        pipeline=None,
    ):
        self.models = models
        self.device = device
        self.domain = get_domain(domain)
        if pipeline is None:
            pipeline = self.domain.make_pipeline(device, collector=collector)
        self.pipeline = pipeline

    @property
    def collector(self):
        """The pipeline's feature collector (built lazily)."""
        return self.pipeline.collector

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(
        self, workload, iterations: int = 1, name: str = "matrix"
    ) -> SelectionDecision:
        """Select a kernel for ``workload`` following the Fig. 3 flow."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        known = self.pipeline.known_features(workload, iterations)
        known_vector = known.as_vector()
        selector_choice = self.models.predict_selector(known_vector)
        inference_ms = TREE_EVALUATION_MS  # the selector evaluation
        if selector_choice == USE_GATHERED:
            gathered = self.pipeline.gather(workload)
            collection_ms = gathered.collection_time_ms
            kernel_name = self.models.predict_gathered(
                known_vector, gathered.as_vector()
            )
        else:
            selector_choice = USE_KNOWN
            gathered = self.domain.empty_gathered()
            collection_ms = 0.0
            kernel_name = self.models.predict_known(known_vector)
        inference_ms += TREE_EVALUATION_MS  # the chosen classifier evaluation
        return SelectionDecision(
            matrix_name=name,
            iterations=known.iterations,
            selector_choice=selector_choice,
            kernel_name=kernel_name,
            known=known,
            gathered=gathered,
            collection_time_ms=collection_ms,
            inference_time_ms=inference_ms,
        )

    def serve(self, request, cache=None, execute: bool = False):
        """Serve one unified-API request through this predictor.

        ``request`` is a :class:`~repro.serving.requests.ServeRequest` —
        either a matrix reference (featurized through the predictor's
        pipeline, optionally executing the chosen kernel when ``execute``)
        or inline features.  Returns the matching
        :class:`~repro.serving.requests.ServeResponse`; invalid requests
        raise :class:`~repro.serving.requests.IngestError`.
        """
        from repro.serving.requests import evaluate_requests

        responses, _ = evaluate_requests(
            self.models,
            [request],
            domain=self.domain,
            device=self.device,
            pipeline=self.pipeline,
            cache=cache,
            execute=execute,
            strict=True,
        )
        return responses[0]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        workload,
        x: np.ndarray,
        iterations: int = 1,
        name: str = "matrix",
    ) -> ExecutionResult:
        """Select a kernel and run it on ``workload`` and ``x``."""
        decision = self.predict(workload, iterations, name)
        kernel = self.domain.make_kernel(decision.kernel_name, self.device)
        run = kernel.run(workload, x, iterations)
        return ExecutionResult(decision=decision, run=run)
