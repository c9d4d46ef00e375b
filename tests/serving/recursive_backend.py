"""The recursive per-row tree walk: the test oracle of the compiled trees.

:func:`leaf_for` descends a fitted tree's linked nodes from
``tree.root_`` — the readable if/else evaluation the paper describes —
independently of the flattened
:class:`~repro.serving.compiled.CompiledTree` every prediction in ``src``
goes through.  :class:`RecursiveBackend` has the same
``predict_batch(known_matrix, gathered_matrix=None) -> BatchSelection``
interface as :class:`~repro.serving.backends.CompiledBackend` but decides
every row through that walk.  It serves nothing; the differential tests
compare the compiled trees against it element-wise.
"""

from __future__ import annotations

import numpy as np

from repro.core.training import BatchSelection, SeerModels


def leaf_for(tree, sample):
    """The leaf ``sample`` reaches (``<=`` goes left; NaN goes right)."""
    node = tree.root_
    while not node.is_leaf:
        if sample[node.feature] <= node.threshold:
            node = node.left
        else:
            node = node.right
    return node


def walk_predict(tree, X) -> list:
    """The class label of every row of ``X``, one recursive walk per row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return [tree.classes_[leaf_for(tree, sample).prediction] for sample in X]


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
        selector_choices = tuple(walk_predict(models.selector_model, known_matrix))
        known_kernels = tuple(walk_predict(models.known_model, known_matrix))
        gathered_kernels = None
        if gathered_matrix is not None:
            full = np.hstack([known_matrix, gathered_matrix])
            gathered_kernels = tuple(walk_predict(models.gathered_model, full))
        return BatchSelection(
            selector_choices=selector_choices,
            known_kernels=known_kernels,
            gathered_kernels=gathered_kernels,
        )
