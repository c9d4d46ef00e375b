"""The serving decide call and its recursive test oracle.

The serving core decides kernels through one narrow interface —
``predict_batch(known_matrix, gathered_matrix=None) -> BatchSelection`` —
and this module holds its two implementations:

* :class:`CompiledBackend` — the only serving path: the flattened trees of
  :mod:`repro.serving.compiled`, via
  :meth:`~repro.core.training.SeerModels.predict_batch`, which walk small
  batches row by row and vectorize large ones;
* :class:`RecursiveBackend` — the readable per-row
  :meth:`~repro.ml.decision_tree.DecisionTreeClassifier.predict_one` walk.
  It serves nothing; it is the ground truth the differential tests compare
  :class:`CompiledBackend` against.

Both perform the same ``feature <= threshold`` comparisons on the same
float64 values, so they agree element-wise on every input —
differential-tested in ``tests/serving``.
"""

from __future__ import annotations

import numpy as np

from repro.core.training import BatchSelection, SeerModels


def _check_pair(known_matrix, gathered_matrix):
    """Validated 2-D float64 views of a known/gathered batch pair."""
    known_matrix = np.atleast_2d(np.asarray(known_matrix, dtype=np.float64))
    if gathered_matrix is None:
        return known_matrix, None
    gathered_matrix = np.atleast_2d(np.asarray(gathered_matrix, dtype=np.float64))
    if gathered_matrix.shape[0] != known_matrix.shape[0]:
        raise ValueError(
            f"known and gathered batches disagree on the sample "
            f"count: {known_matrix.shape[0]} vs {gathered_matrix.shape[0]}"
        )
    return known_matrix, gathered_matrix


class CompiledBackend:
    """The serving decide call: the models' compiled trees."""

    def __init__(self, models: SeerModels):
        self.models = models

    def predict_batch(self, known_matrix, gathered_matrix=None) -> BatchSelection:
        return self.models.predict_batch(known_matrix, gathered_matrix)


class RecursiveBackend:
    """The per-row recursive tree walks — the test-only parity reference."""

    def __init__(self, models: SeerModels):
        self.models = models

    def predict_batch(self, known_matrix, gathered_matrix=None) -> BatchSelection:
        known_matrix, gathered_matrix = _check_pair(known_matrix, gathered_matrix)
        models = self.models
        selector_choices = tuple(
            models.selector_model.predict_one(row) for row in known_matrix
        )
        known_kernels = tuple(
            models.known_model.predict_one(row) for row in known_matrix
        )
        gathered_kernels = None
        if gathered_matrix is not None:
            full = np.hstack([known_matrix, gathered_matrix])
            gathered_kernels = tuple(
                models.gathered_model.predict_one(row) for row in full
            )
        return BatchSelection(
            selector_choices=selector_choices,
            known_kernels=known_kernels,
            gathered_kernels=gathered_kernels,
        )
