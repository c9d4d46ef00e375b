"""Flattened decision trees: the one serving evaluation of a fitted tree.

The paper's pitch for decision trees is that they are "effectively nested
if/else statements" — cheap to evaluate and auditable.  The recursive
:meth:`~repro.ml.decision_tree.DecisionTreeClassifier.predict` walk is the
readable reference implementation of that evaluation, but it pays Python
call overhead per sample per level.  For serving, each fitted tree is
*compiled* once into five parallel node arrays — feature index, threshold,
left/right child and leaf class code per node — and evaluated one of two
ways, picked by batch size alone:

* up to :data:`WALK_MAX_ROWS` rows (the daemon's admission windows of 1–16
  rows), each row walks the tree in plain Python over list copies of the
  arrays — no per-level NumPy call overhead;
* above that (sweep evaluation, CSV scoring, ``repro predict --batch``),
  all rows advance through the tree together: one vectorized
  compare-and-gather per tree level instead of N walks.

Both are exact, not approximate: they perform the same
``feature <= threshold`` comparisons on the same float64 values as the
recursive walk (NaN compares false and goes right), so every path agrees
element-wise on every input (differential-tested in ``tests/serving``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Child index/leaf code meaning "none" in the serialized node arrays.
NO_NODE = -1

#: Largest batch walked row by row; larger batches take the vectorized level
#: loop.  On the ``small``-profile trees (depths 6–8, 2 vCPUs) the walk costs
#: about half a microsecond per row and the level loop a fixed 20–45 µs per
#: tree, so the two cost the same at about 64 rows.
WALK_MAX_ROWS = 64


@dataclass(frozen=True)
class CompiledTree:
    """One fitted tree flattened into parallel arrays (pre-order).

    Leaves are encoded as self-loops: their ``feature`` is 0, their
    ``threshold`` is ``+inf`` and both children point back at the leaf
    itself, so ``X[:, 0] <= +inf`` keeps every row parked on its leaf while
    other rows are still descending.  (NaN features compare false and take
    the right child — exactly like the recursive walk.)  ``leaf_code`` holds
    the predicted class code at leaves and ``-1`` at internal nodes.
    ``nodes`` holds the same five arrays as Python lists, built once, for
    the row-by-row walk.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_code: np.ndarray
    depth: int
    num_features: int
    nodes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = (self.feature, self.threshold, self.left, self.right, self.leaf_code)
        object.__setattr__(self, "nodes", tuple(array.tolist() for array in arrays))

    def predict_codes(self, X) -> np.ndarray:
        """Class codes of every row of ``X``.

        Batches of at most :data:`WALK_MAX_ROWS` rows are walked row by
        row; larger ones advance all rows one level at a time.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {X.shape[1]}"
            )
        if X.shape[0] <= WALK_MAX_ROWS:
            return np.array(self._walk(X.tolist()), dtype=np.int64)
        indices = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        for _ in range(self.depth):
            go_left = X[rows, self.feature[indices]] <= self.threshold[indices]
            indices = np.where(go_left, self.left[indices], self.right[indices])
        return self.leaf_code[indices]

    def _walk(self, rows: list) -> list:
        """Leaf codes of ``rows`` (lists of floats), one descent per row."""
        feature, threshold, left, right, leaf_code = self.nodes
        codes = []
        for row in rows:
            index = 0
            while leaf_code[index] == NO_NODE:
                if row[feature[index]] <= threshold[index]:
                    index = left[index]
                else:
                    index = right[index]
            codes.append(leaf_code[index])
        return codes


def compile_tree(model) -> CompiledTree:
    """Flatten a fitted :class:`DecisionTreeClassifier` into arrays.

    Nodes are laid out in pre-order (the order ``model.nodes()`` yields
    them), children referenced by array index.
    """
    if model.root_ is None:
        raise RuntimeError("cannot compile an unfitted tree")
    feature, threshold, left, right, leaf_code = [], [], [], [], []

    def add(node) -> int:
        index = len(feature)
        if node.is_leaf:
            feature.append(0)
            threshold.append(np.inf)
            left.append(index)
            right.append(index)
            leaf_code.append(node.prediction)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(NO_NODE)
            right.append(NO_NODE)
            leaf_code.append(NO_NODE)
            left[index] = add(node.left)
            right[index] = add(node.right)
        return index

    add(model.root_)
    return CompiledTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        leaf_code=np.asarray(leaf_code, dtype=np.int64),
        depth=model.depth(),
        num_features=model.num_features_,
    )
