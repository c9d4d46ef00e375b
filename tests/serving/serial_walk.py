"""The serial Fig. 3 walk: the test oracle of the batched decision core.

:func:`serial_decision` decides one workload at a time the way the paper's
Fig. 3 reads: the selector tree on the known features, then either the
known-feature classifier, or paid feature collection followed by the
gathered-feature classifier — each tree evaluated through its per-row
``predict_*`` call.  It serves nothing; the tests compare
:func:`~repro.serving.requests.evaluate_requests` and
:meth:`~repro.core.inference.SeerPredictor.predict`, which both decide
through the batched :func:`~repro.serving.requests.decide_prepared`,
against it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.inference import TREE_EVALUATION_MS
from repro.core.training import USE_GATHERED, USE_KNOWN


@dataclass(frozen=True)
class SerialDecision:
    selector_choice: str
    kernel: str
    known: object
    gathered: object
    collection_time_ms: float
    inference_time_ms: float


def serial_decision(models, pipeline, workload, iterations: int) -> SerialDecision:
    """One workload through the Fig. 3 flow, one tree call at a time."""
    known = pipeline.known_features(workload, iterations)
    known_vector = known.as_vector()
    selector_choice = models.predict_selector(known_vector)
    inference_ms = TREE_EVALUATION_MS  # the selector evaluation
    if selector_choice == USE_GATHERED:
        gathered = pipeline.gather(workload)
        collection_ms = gathered.collection_time_ms
        kernel = models.predict_gathered(known_vector, gathered.as_vector())
    else:
        selector_choice = USE_KNOWN
        gathered = pipeline.empty_gathered()
        collection_ms = 0.0
        kernel = models.predict_known(known_vector)
    inference_ms += TREE_EVALUATION_MS  # the chosen classifier evaluation
    return SerialDecision(
        selector_choice=selector_choice,
        kernel=kernel,
        known=known,
        gathered=gathered,
        collection_time_ms=collection_ms,
        inference_time_ms=inference_ms,
    )
