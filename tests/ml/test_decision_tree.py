"""Tests for the from-scratch CART decision tree."""

import numpy as np
import pytest

from repro.ml.decision_tree import DecisionTreeClassifier, gini_impurity
from tree_importances import feature_importances


def test_gini_impurity_values():
    assert gini_impurity([10, 0]) == pytest.approx(0.0)
    assert gini_impurity([5, 5]) == pytest.approx(0.5)
    assert gini_impurity([1, 1, 1, 1]) == pytest.approx(0.75)
    assert gini_impurity([0, 0]) == pytest.approx(0.0)


def test_fits_a_simple_threshold():
    X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    y = ["low", "low", "low", "high", "high", "high"]
    tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
    assert tree.predict([[0.0]]) == ["low"]
    assert tree.predict([[20.0]]) == ["high"]
    assert tree.depth() == 1
    root = tree.root_
    assert 3.0 < root.threshold < 10.0


def test_perfectly_fits_training_data_without_depth_limit():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(80, 3))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.predict(X) == list(y)
    for node in tree.nodes():
        if node.is_leaf:
            assert node.impurity == pytest.approx(0.0)


def test_max_depth_limits_tree():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(200, 4))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
    shallow = DecisionTreeClassifier(max_depth=2).fit(X, y)
    deep = DecisionTreeClassifier(max_depth=8).fit(X, y)
    assert shallow.depth() <= 2
    assert deep.depth() <= 8
    shallow_acc = np.mean(np.array(shallow.predict(X)) == y)
    deep_acc = np.mean(np.array(deep.predict(X)) == y)
    assert deep_acc >= shallow_acc


def test_min_samples_leaf_is_respected():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(60, 2))
    y = (X[:, 0] > 0.5).astype(int)
    tree = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)
    for node in tree.nodes():
        if node.is_leaf:
            assert node.num_samples >= 10


def test_string_labels_round_trip():
    X = [[0.0], [1.0], [2.0], [3.0]]
    y = ["CSR,TM", "CSR,TM", "ELL,TM", "ELL,TM"]
    tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
    assert tree.classes_ == ["CSR,TM", "ELL,TM"]
    assert tree.predict_one([3.0]) == "ELL,TM"


def test_predict_proba_sums_to_one():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(50, 2))
    y = rng.integers(0, 3, size=50)
    tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
    probabilities = tree.predict_proba(X)
    np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(50))


def test_sample_weights_shift_the_majority():
    # All feature values identical, so no split is possible and the root leaf
    # predicts the (weighted) majority class.
    X = np.zeros((4, 1))
    y = ["a", "a", "a", "b"]
    unweighted = DecisionTreeClassifier(max_depth=1).fit(X, y)
    weighted = DecisionTreeClassifier(max_depth=1).fit(
        X, y, sample_weight=[1.0, 1.0, 1.0, 100.0]
    )
    assert unweighted.predict_one([0.0]) == "a"
    assert weighted.predict_one([0.0]) == "b"


def test_sample_weights_steer_split_choice():
    # Feature 0 separates the heavy samples, feature 1 separates the many
    # light ones; with strong weights the tree must prefer feature 0.
    X = np.array(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]]
    )
    y = ["a", "a", "b", "b", "a", "a"]
    weights = [1.0, 1.0, 50.0, 50.0, 1.0, 1.0]
    tree = DecisionTreeClassifier(max_depth=1).fit(X, y, sample_weight=weights)
    assert tree.root_.feature == 0


def test_sample_weight_validation():
    X = [[0.0], [1.0]]
    y = [0, 1]
    with pytest.raises(ValueError):
        DecisionTreeClassifier().fit(X, y, sample_weight=[1.0])
    with pytest.raises(ValueError):
        DecisionTreeClassifier().fit(X, y, sample_weight=[1.0, -1.0])


def test_feature_importances_sum_to_one_and_identify_signal():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(300, 3))
    y = (X[:, 1] > 0.5).astype(int)  # only feature 1 matters
    tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
    importances = feature_importances(tree)
    assert importances.sum() == pytest.approx(1.0)
    assert int(np.argmax(importances)) == 1


def test_export_text_contains_feature_names():
    X = [[0.0, 5.0], [1.0, 4.0], [2.0, 3.0], [3.0, 2.0]]
    y = [0, 0, 1, 1]
    tree = DecisionTreeClassifier(max_depth=2).fit(X, y, feature_names=["rows", "nnz"])
    text = tree.export_text()
    assert "rows" in text or "nnz" in text
    assert "predict" in text


def test_deterministic_given_identical_data():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(120, 4))
    y = rng.integers(0, 4, size=120)
    first = DecisionTreeClassifier(max_depth=5).fit(X, y)
    second = DecisionTreeClassifier(max_depth=5).fit(X, y)
    assert first.export_text() == second.export_text()


def test_input_validation():
    with pytest.raises(ValueError):
        DecisionTreeClassifier(max_depth=0)
    with pytest.raises(ValueError):
        DecisionTreeClassifier(min_samples_split=1)
    with pytest.raises(ValueError):
        DecisionTreeClassifier(min_samples_leaf=0)
    tree = DecisionTreeClassifier()
    with pytest.raises(RuntimeError, match="used before fit"):
        tree.predict([[1.0]])
    with pytest.raises(RuntimeError, match="used before fit"):
        tree.predict_proba([[1.0]])
    with pytest.raises(ValueError):
        tree.fit(np.ones((2, 2)), [0])
    with pytest.raises(ValueError):
        tree.fit(np.array([[np.nan], [1.0]]), [0, 1])
    fitted = DecisionTreeClassifier().fit([[0.0], [1.0]], [0, 1])
    with pytest.raises(ValueError, match="expected 1 features, got 2"):
        fitted.predict([[1.0, 2.0]])
    with pytest.raises(ValueError, match="expected 1 features, got 2"):
        fitted.predict_proba([[1.0, 2.0]])


def test_constant_features_produce_single_leaf():
    X = np.ones((10, 2))
    y = [0, 1] * 5
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.depth() == 0
    assert tree.num_nodes_ == 1
