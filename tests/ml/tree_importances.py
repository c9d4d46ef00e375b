"""Impurity-based feature importances of a fitted tree, for the ML tests."""

import numpy as np


def feature_importances(tree) -> np.ndarray:
    """Weighted impurity decrease per feature, normalized to sum to one."""
    importances = np.zeros(tree.num_features_, dtype=np.float64)
    total_weight = tree.root_.total_weight
    for node in tree.nodes():
        if node.is_leaf:
            continue
        weighted_child_impurity = (
            node.left.total_weight * node.left.impurity
            + node.right.total_weight * node.right.impurity
        ) / node.total_weight
        decrease = node.impurity - weighted_child_impurity
        importances[node.feature] += node.total_weight / total_weight * decrease
    total = importances.sum()
    return importances / total if total > 0 else importances
