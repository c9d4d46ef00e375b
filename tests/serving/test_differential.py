"""Differential tests: the compiled trees vs. the recursive walk.

Every prediction in ``src`` goes through the flattened tree, so it must be
*exact*: for any fitted tree and any feature batch, ``predict`` and
``predict_proba`` agree with the recursive walk over ``tree.root_``
(``recursive_backend.leaf_for``), on both sides of the walk/vectorize
crossover, and a serialize/deserialize round trip changes no prediction.
Hypothesis drives random trees and random batches through both.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.training import USE_GATHERED, USE_KNOWN, SeerModels
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.encoders import LabelEncoder
from recursive_backend import RecursiveBackend, leaf_for, walk_predict
from repro.serving.artifacts import (
    models_from_payload,
    models_to_payload,
    tree_from_payload,
    tree_to_payload,
)
from repro.serving.compiled import WALK_MAX_ROWS

KERNEL_POOL = ("CSR,A", "CSR,TM", "COO,WM", "ELL,TM", "rocSPARSE")


@st.composite
def fitted_trees(draw):
    """A randomly fitted tree plus a feature batch it was not fitted on.

    Training features are rounded to one decimal so duplicate values (and
    therefore shared thresholds) are common; the probe batch mixes training
    rows (which sit exactly on threshold boundaries) with fresh draws and
    NaN features (which go right), and is longer than ``WALK_MAX_ROWS`` so
    :func:`_both_branches` can cut it into a row-walked and a vectorized
    batch.
    """
    num_samples = draw(st.integers(min_value=4, max_value=50))
    num_features = draw(st.integers(min_value=1, max_value=4))
    num_classes = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    max_depth = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
    min_samples_leaf = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(num_samples, num_features)) * 3, 1)
    y = [KERNEL_POOL[code] for code in rng.integers(0, num_classes, num_samples)]
    weights = rng.uniform(0.1, 5.0, size=num_samples)
    tree = DecisionTreeClassifier(
        max_depth=max_depth, min_samples_leaf=min_samples_leaf
    ).fit(X, y, sample_weight=weights)
    num_probes = draw(
        st.integers(min_value=WALK_MAX_ROWS + 1, max_value=2 * WALK_MAX_ROWS)
    )
    probes = np.vstack(
        [X, np.round(rng.normal(size=(num_probes - len(X), num_features)) * 3, 1)]
    )
    probes[rng.random(probes.shape) < 0.05] = np.nan
    probes[0, 0] = probes[-1, -1] = np.nan
    return tree, probes


def _both_branches(probes):
    """The probe batch's walked prefix and the whole, vectorized batch."""
    return probes[:WALK_MAX_ROWS], probes


@given(fitted_trees())
@settings(max_examples=60, deadline=None)
def test_predict_agrees_with_recursive_walk(case):
    tree, probes = case
    for batch in _both_branches(probes):
        assert tree.predict(batch) == walk_predict(tree, batch)


@given(fitted_trees())
@settings(max_examples=40, deadline=None)
def test_payload_roundtrip_preserves_every_prediction(case):
    tree, probes = case
    payload = tree_to_payload(tree)
    rebuilt = tree_from_payload(payload)
    assert rebuilt.classes_ == tree.classes_
    assert rebuilt.num_nodes_ == tree.num_nodes_
    assert rebuilt.depth() == tree.depth()
    for batch in _both_branches(probes):
        assert rebuilt.predict(batch) == walk_predict(tree, batch)
    assert tree_to_payload(rebuilt) == payload


@given(fitted_trees())
@settings(max_examples=30, deadline=None)
def test_compiled_probabilities_reach_the_same_leaves(case):
    tree, probes = case
    for batch in _both_branches(probes):
        codes = tree.compiled().predict_codes(batch)
        for sample, code in zip(batch, codes):
            assert leaf_for(tree, sample).prediction == code


def _walked_proba(tree, X) -> np.ndarray:
    """Each row's leaf ``class_counts / total`` (zeros for a zero-weight leaf)."""
    rows = np.zeros((len(X), len(tree.classes_)))
    for i, sample in enumerate(X):
        counts = leaf_for(tree, sample).class_counts
        total = counts.sum()
        if total:
            rows[i] = counts / total
    return rows


@given(fitted_trees(), st.data())
@settings(max_examples=40, deadline=None)
def test_predict_proba_is_the_walked_leaf_distribution_bit_for_bit(case, data):
    tree, probes = case
    # A zero-weight leaf: its probability row must come out all zeros.
    for node in tree.nodes():
        if node.is_leaf:
            node.class_counts = np.zeros_like(node.class_counts)
            break
    for size in (1, WALK_MAX_ROWS, WALK_MAX_ROWS + 1, len(probes)):
        start = data.draw(st.integers(min_value=0, max_value=len(probes) - size))
        batch = probes[start : start + size]
        expected = _walked_proba(tree, batch)
        assert tree.predict_proba(batch).tobytes() == expected.tobytes()


@st.composite
def seer_model_bundles(draw):
    """A randomly fitted three-tree bundle plus matching feature batches."""
    num_samples = draw(st.integers(min_value=6, max_value=40))
    num_known = draw(st.integers(min_value=2, max_value=4))
    num_gathered = draw(st.integers(min_value=1, max_value=3))
    num_kernels = draw(st.integers(min_value=2, max_value=len(KERNEL_POOL)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    known_X = np.round(rng.normal(size=(num_samples, num_known)) * 3, 1)
    gathered_X = np.round(rng.normal(size=(num_samples, num_gathered)) * 3, 1)
    labels = [KERNEL_POOL[code] for code in rng.integers(0, num_kernels, num_samples)]
    selector_labels = [
        (USE_GATHERED, USE_KNOWN)[code] for code in rng.integers(0, 2, num_samples)
    ]
    known_names = tuple(f"k{i}" for i in range(num_known))
    gathered_names = tuple(f"g{i}" for i in range(num_gathered))
    models = SeerModels(
        known_model=DecisionTreeClassifier(max_depth=4).fit(known_X, labels),
        gathered_model=DecisionTreeClassifier(max_depth=5).fit(
            np.hstack([known_X, gathered_X]), labels
        ),
        selector_model=DecisionTreeClassifier(max_depth=3).fit(
            known_X, selector_labels
        ),
        kernel_names=sorted(set(labels)),
        known_feature_names=known_names,
        gathered_feature_names=gathered_names,
        training_size=num_samples,
    )
    return models, known_X, gathered_X


@given(seer_model_bundles())
@settings(max_examples=40, deadline=None)
def test_models_predict_batch_agrees_with_scalar_predicts(bundle):
    models, known_X, gathered_X = bundle
    batch = models.predict_batch(known_X, gathered_X)
    assert batch == RecursiveBackend(models).predict_batch(known_X, gathered_X)
    assert list(batch.selector_choices) == [
        models.predict_selector(row) for row in known_X
    ]
    assert list(batch.known_kernels) == [
        models.predict_known(row) for row in known_X
    ]
    assert list(batch.gathered_kernels) == [
        models.predict_gathered(known, gathered)
        for known, gathered in zip(known_X, gathered_X)
    ]
    # The deployed choice follows the selector row by row.
    for choice, known, gathered, kernel in zip(
        batch.selector_choices,
        batch.known_kernels,
        batch.gathered_kernels,
        batch.kernels,
    ):
        assert kernel == (gathered if choice == USE_GATHERED else known)


@given(seer_model_bundles())
@settings(max_examples=25, deadline=None)
def test_models_payload_roundtrip_preserves_batch_predictions(bundle):
    models, known_X, gathered_X = bundle
    payload = models_to_payload(models)
    rebuilt = models_from_payload(payload)
    assert rebuilt.predict_batch(known_X, gathered_X) == models.predict_batch(
        known_X, gathered_X
    )
    assert models_to_payload(rebuilt) == payload


@given(st.lists(st.sampled_from(KERNEL_POOL), min_size=1, max_size=5, unique=True))
def test_encoder_from_classes_preserves_order(classes):
    encoder = LabelEncoder.from_classes(classes)
    assert encoder.classes_ == list(classes)
    assert encoder.inverse_transform(encoder.transform(classes)) == list(classes)
