"""The serving decide call.

The serving core decides kernels through one narrow interface —
``predict_batch(known_matrix, gathered_matrix=None) -> BatchSelection`` —
implemented by :class:`CompiledBackend`: the flattened trees of
:mod:`repro.serving.compiled`, via
:meth:`~repro.core.training.SeerModels.predict_batch`, which walk small
batches row by row and vectorize large ones.

:func:`~repro.serving.requests.evaluate_requests` accepts any object with
the same method (its ``backend=`` argument); the tests pass a recursive
per-row walk there and check that it agrees element-wise with this one.
"""

from __future__ import annotations

from repro.core.training import BatchSelection, SeerModels


class CompiledBackend:
    """The serving decide call: the models' compiled trees."""

    def __init__(self, models: SeerModels):
        self.models = models

    def predict_batch(self, known_matrix, gathered_matrix=None) -> BatchSelection:
        return self.models.predict_batch(known_matrix, gathered_matrix)
