"""Property-based tests for the ML substrate (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.kendall import kendall_tau
from repro.ml.metrics import geometric_mean
from repro.ml.split import train_test_split
from tree_importances import feature_importances


@st.composite
def labelled_datasets(draw):
    """Random small classification datasets."""
    num_samples = draw(st.integers(min_value=4, max_value=60))
    num_features = draw(st.integers(min_value=1, max_value=4))
    num_classes = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(num_samples, num_features))
    y = rng.integers(0, num_classes, size=num_samples)
    return X, y


@given(labelled_datasets())
@settings(max_examples=40, deadline=None)
def test_unbounded_tree_memorizes_consistent_data(dataset):
    X, y = dataset
    # Make labels a deterministic function of the features so memorization
    # is achievable even with duplicate rows.
    y = (X[:, 0] > np.median(X[:, 0])).astype(int)
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.predict(X) == list(y)


@given(labelled_datasets(), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_depth_limit_is_always_respected(dataset, max_depth):
    X, y = dataset
    tree = DecisionTreeClassifier(max_depth=max_depth).fit(X, y)
    assert tree.depth() <= max_depth
    importances = feature_importances(tree)
    assert importances.shape == (X.shape[1],)
    assert math.isclose(importances.sum(), 1.0, abs_tol=1e-9) or importances.sum() == 0.0
    assert np.all(importances >= 0.0)


@given(labelled_datasets())
@settings(max_examples=40, deadline=None)
def test_leaf_class_counts_partition_the_dataset(dataset):
    X, y = dataset
    tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
    leaf_total = sum(
        node.num_samples for node in tree.nodes() if node.is_leaf
    )
    assert leaf_total == X.shape[0]


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=120),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_kendall_matches_scipy_on_arbitrary_integer_data(values, seed):
    x = np.array(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    y = rng.integers(-5, 5, size=len(values)).astype(np.float64)
    ours = kendall_tau(x, y)
    expected = stats.kendalltau(x, y).statistic
    if math.isnan(expected):
        assert math.isnan(ours)
    else:
        assert math.isclose(ours, expected, abs_tol=1e-9)


@given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_geometric_mean_is_between_min_and_max(values):
    result = geometric_mean(values)
    assert min(values) * (1 - 1e-9) <= result <= max(values) * (1 + 1e-9)


@given(
    st.integers(min_value=2, max_value=500),
    st.floats(min_value=0.05, max_value=0.9),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_split_partitions_all_indices(num_samples, fraction, seed):
    train, test = train_test_split(num_samples, fraction, seed=seed)
    assert len(train) + len(test) == num_samples
    assert set(train).isdisjoint(test)
    assert len(test) >= 1
    assert len(train) >= 1
