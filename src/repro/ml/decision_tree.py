"""CART decision-tree classifier with Gini impurity.

This is the model family the paper builds everything on (Section III-C):
decision trees are effectively nested if/else statements, they are cheap to
evaluate at runtime, and their weights can be printed and audited.  The
implementation follows the classic CART recipe:

* at every node, evaluate every (feature, threshold) split where the sorted
  feature value changes, scoring splits by the weighted Gini impurity of the
  two children;
* stop when the node is pure, the depth limit is reached, or a minimum
  sample count would be violated;
* ties are broken deterministically (lower feature index, then lower
  threshold) so the same training data always produces the same tree — the
  reproducibility property the paper calls out for production libraries.

Samples may carry weights.  The classifier-selection model uses this to make
its training cost-aware: a sample whose misrouting would waste hundreds of
milliseconds weighs correspondingly more than one where the two paths are
nearly equivalent (Section III-A / IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.encoders import LabelEncoder


@dataclass
class TreeNode:
    """One node of a fitted decision tree."""

    node_id: int
    depth: int
    num_samples: int
    total_weight: float
    impurity: float
    class_counts: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None

    @property
    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return self.left is None

    @property
    def prediction(self) -> int:
        """Index of the heaviest class at this node (ties -> lowest index)."""
        return int(np.argmax(self.class_counts))


@dataclass
class _Split:
    """Best split found for a node."""

    feature: int
    threshold: float
    gain: float
    left_mask: np.ndarray = field(repr=False, default=None)


def gini_impurity(class_counts: np.ndarray) -> float:
    """Gini impurity of a node with the given per-class (weighted) counts."""
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.square(proportions).sum())


class DecisionTreeClassifier:
    """CART classifier (Gini impurity, bounded depth).

    Parameters
    ----------
    max_depth:
        Maximum tree depth; the paper's only regularizer (Section III-C).
        ``None`` grows until leaves are pure.
    min_samples_split:
        Smallest node (by sample count) that may still be split.
    min_samples_leaf:
        Smallest allowed child node (by sample count).
    """

    def __init__(
        self,
        max_depth: int = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.root_ = None
        self.num_features_ = 0
        self.feature_names_ = None
        self._encoder = LabelEncoder()
        self._num_nodes = 0
        self._compiled = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X, y, feature_names=None, sample_weight=None) -> "DecisionTreeClassifier":
        """Fit the tree on feature matrix ``X`` and labels ``y``.

        ``sample_weight`` (optional, positive) scales each sample's
        contribution to the impurity criterion and to leaf majorities.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array of shape (samples, features)")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        codes = self._encoder.fit_transform(list(y))
        if codes.shape[0] != X.shape[0]:
            raise ValueError("X and y must have the same number of samples")
        if np.any(~np.isfinite(X)):
            raise ValueError("X contains NaN or infinite values")
        if sample_weight is None:
            weights = np.ones(X.shape[0], dtype=np.float64)
        else:
            weights = np.asarray(sample_weight, dtype=np.float64)
            if weights.shape != (X.shape[0],):
                raise ValueError("sample_weight must have one entry per sample")
            if np.any(~np.isfinite(weights)) or np.any(weights <= 0):
                raise ValueError("sample weights must be positive and finite")
        self.num_features_ = X.shape[1]
        if feature_names is not None:
            if len(feature_names) != self.num_features_:
                raise ValueError("feature_names must match the number of features")
            self.feature_names_ = list(feature_names)
        else:
            self.feature_names_ = [f"f{i}" for i in range(self.num_features_)]
        self._num_nodes = 0
        self._compiled = None
        self.root_ = self._build(X, codes, weights, depth=0)
        return self

    @property
    def classes_(self) -> list:
        """The original class labels, in encoding order."""
        return list(self._encoder.classes_) if self._encoder.classes_ else []

    @property
    def num_nodes_(self) -> int:
        """Total number of nodes in the fitted tree."""
        return self._num_nodes

    def _new_node(self, codes: np.ndarray, weights: np.ndarray, depth: int) -> TreeNode:
        counts = np.bincount(
            codes, weights=weights, minlength=len(self._encoder.classes_)
        )
        node = TreeNode(
            node_id=self._num_nodes,
            depth=depth,
            num_samples=int(codes.shape[0]),
            total_weight=float(weights.sum()),
            impurity=gini_impurity(counts),
            class_counts=counts,
        )
        self._num_nodes += 1
        return node

    def _build(
        self, X: np.ndarray, codes: np.ndarray, weights: np.ndarray, depth: int
    ) -> TreeNode:
        node = self._new_node(codes, weights, depth)
        if self._should_stop(node, depth):
            return node
        split = self._best_split(X, codes, weights)
        if split is None:
            return node
        node.feature = split.feature
        node.threshold = split.threshold
        left_mask = split.left_mask
        node.left = self._build(X[left_mask], codes[left_mask], weights[left_mask], depth + 1)
        node.right = self._build(
            X[~left_mask], codes[~left_mask], weights[~left_mask], depth + 1
        )
        return node

    def _should_stop(self, node: TreeNode, depth: int) -> bool:
        if node.impurity == 0.0:
            return True
        if node.num_samples < self.min_samples_split:
            return True
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        return False

    def _best_split(self, X: np.ndarray, codes: np.ndarray, weights: np.ndarray):
        num_samples = codes.shape[0]
        num_classes = len(self._encoder.classes_)
        parent_counts = np.bincount(codes, weights=weights, minlength=num_classes)
        parent_weight = float(weights.sum())
        parent_gini = gini_impurity(parent_counts)
        best = None
        weighted_one_hot = np.zeros((num_samples, num_classes), dtype=np.float64)
        weighted_one_hot[np.arange(num_samples), codes] = weights
        for feature in range(self.num_features_):
            column = X[:, feature]
            order = np.argsort(column, kind="mergesort")
            sorted_values = column[order]
            sorted_weights = weights[order]
            # Cumulative weighted class counts of the left child for every
            # split point "after position i" (left = first i+1 sorted samples).
            left_counts = np.cumsum(weighted_one_hot[order], axis=0)
            left_weights = np.cumsum(sorted_weights)
            left_sizes = np.arange(1, num_samples + 1, dtype=np.float64)
            right_counts = parent_counts[None, :] - left_counts
            right_weights = parent_weight - left_weights
            right_sizes = num_samples - left_sizes
            # Valid split positions: the value changes and both children
            # respect min_samples_leaf (by sample count).
            value_changes = sorted_values[:-1] < sorted_values[1:]
            sizes_ok = (
                (left_sizes[:-1] >= self.min_samples_leaf)
                & (right_sizes[:-1] >= self.min_samples_leaf)
            )
            valid = value_changes & sizes_ok
            if not np.any(valid):
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                left_gini = 1.0 - np.square(
                    left_counts[:-1] / np.maximum(left_weights[:-1, None], 1e-300)
                ).sum(axis=1)
                right_gini = 1.0 - np.square(
                    right_counts[:-1] / np.maximum(right_weights[:-1, None], 1e-300)
                ).sum(axis=1)
            weighted = (
                left_weights[:-1] * left_gini + right_weights[:-1] * right_gini
            ) / parent_weight
            weighted = np.where(valid, weighted, np.inf)
            position = int(np.argmin(weighted))
            gain = parent_gini - weighted[position]
            if gain <= 1e-12:
                continue
            threshold = 0.5 * (sorted_values[position] + sorted_values[position + 1])
            if best is None or gain > best.gain + 1e-12:
                left_mask = column <= threshold
                best = _Split(
                    feature=feature,
                    threshold=float(threshold),
                    gain=float(gain),
                    left_mask=left_mask,
                )
        return best

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.root_ is None:
            raise RuntimeError("DecisionTreeClassifier used before fit()")

    def compiled(self):
        """The flattened tree (built on first use, reset by :meth:`fit`).

        Every prediction goes through this one evaluation
        (:class:`~repro.serving.compiled.CompiledTree`): small batches walk
        flat node lists, larger ones advance one tree level at a time in
        NumPy.
        """
        self._require_fitted()
        if self._compiled is None:
            from repro.serving.compiled import compile_tree

            self._compiled = compile_tree(self)
        return self._compiled

    def predict(self, X) -> list:
        """Predict the class label of every row of ``X``."""
        return self._encoder.inverse_transform(self.compiled().predict_codes(X))

    def predict_one(self, sample):
        """Predict the class label of a single feature vector."""
        return self.predict(np.asarray(sample, dtype=np.float64).reshape(1, -1))[0]

    def predict_proba(self, X) -> np.ndarray:
        """Per-class empirical (weighted) probabilities of the reached leaves.

        A leaf's row is its ``class_counts`` over their sum (zeros when the
        sum is 0), tabulated per node in the compiled layout's pre-order.
        """
        leaves = self.compiled().predict_leaves(X)
        nodes = self.nodes()
        table = np.zeros((len(nodes), len(self._encoder.classes_)))
        for index, node in enumerate(nodes):
            total = node.class_counts.sum()
            if node.is_leaf and total:
                table[index] = node.class_counts / total
        return table[leaves]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Depth of the fitted tree (a root-only tree has depth 0)."""
        self._require_fitted()

        def _depth(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self.root_)

    def nodes(self) -> list:
        """All nodes in depth-first (pre-order) order."""
        self._require_fitted()
        out = []

        def _walk(node: TreeNode) -> None:
            out.append(node)
            if not node.is_leaf:
                _walk(node.left)
                _walk(node.right)

        _walk(self.root_)
        return out

    def export_text(self) -> str:
        """Human-readable if/else rendering of the tree (explainability)."""
        self._require_fitted()
        lines = []

        def _walk(node: TreeNode, indent: str) -> None:
            if node.is_leaf:
                label = self._encoder.classes_[node.prediction]
                lines.append(f"{indent}predict {label!r}  (n={node.num_samples})")
                return
            name = self.feature_names_[node.feature]
            lines.append(f"{indent}if {name} <= {node.threshold:.6g}:")
            _walk(node.left, indent + "    ")
            lines.append(f"{indent}else:  # {name} > {node.threshold:.6g}")
            _walk(node.right, indent + "    ")

        _walk(self.root_, "")
        return "\n".join(lines)
