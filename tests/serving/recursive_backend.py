"""The recursive per-row tree walk: the serving decide call's test oracle.

:class:`RecursiveBackend` has the same ``predict_batch(known_matrix,
gathered_matrix=None) -> BatchSelection`` interface as
:class:`~repro.serving.backends.CompiledBackend`, but decides every row
through the readable
:meth:`~repro.ml.decision_tree.DecisionTreeClassifier.predict_one` walk.
It serves nothing; the differential tests compare the compiled trees
against it element-wise.
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
