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

from repro.core.training import SeerModels
from repro.domains import get_domain
from repro.gpu.device import DeviceSpec, MI100
from repro.kernels.base import LaunchContext

#: Cost of evaluating one decision tree at runtime (milliseconds).  A tree of
#: depth <= 8 is a few compares and branches; the value is deliberately tiny
#: but non-zero so it shows up in the accounting.
TREE_EVALUATION_MS = 0.0005


@dataclass
class ExecutionResult:
    """A selection decision plus the execution of the selected kernel.

    ``decision`` is the :class:`~repro.serving.requests.ServeResponse` of
    :meth:`SeerPredictor.predict`.
    """

    decision: object
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
        domain=None,
        pipeline=None,
    ):
        self.models = models
        self.device = device
        self.domain = get_domain(domain)
        if pipeline is None:
            pipeline = self.domain.make_pipeline(device)
        self.pipeline = pipeline

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, workload, iterations: int = 1, name: str = "matrix"):
        """Select a kernel for ``workload`` following the Fig. 3 flow.

        The decision runs through the serving core
        (:func:`~repro.serving.requests.decide_prepared`) without executing
        the kernel, and comes back as its
        :class:`~repro.serving.requests.ServeResponse`.
        """
        from repro.serving.requests import (
            EvaluationStats,
            PreparedRequest,
            decide_prepared,
        )

        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        item = PreparedRequest(
            name=name,
            known=self.pipeline.known_features(workload, iterations),
            workload=workload,
            context=LaunchContext.of(workload),
        )
        (response,) = decide_prepared(
            self.models,
            [item],
            self.models.predict_batch,
            EvaluationStats(requests=1),
            domain=self.domain,
            device=self.device,
            pipeline=self.pipeline,
            execute=False,
        )
        return response

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
        kernel = self.domain.make_kernel(decision.kernel, self.device)
        run = kernel.run(workload, x, iterations)
        return ExecutionResult(decision=decision, run=run)
