"""Tests for Seer model training and runtime inference."""

import numpy as np
import pytest

from repro.core.training import (
    USE_GATHERED,
    USE_KNOWN,
    TrainingConfig,
    train_seer_models,
)
from repro.sparse.collection import archetype


def test_models_are_trained_and_shaped(tiny_sweep):
    models = tiny_sweep.models
    assert set(models.known_model.classes_) <= set(models.kernel_names)
    assert set(models.gathered_model.classes_) <= set(models.kernel_names)
    assert set(models.selector_model.classes_) <= {USE_KNOWN, USE_GATHERED}
    assert models.known_model.num_features_ == 4
    assert models.gathered_model.num_features_ == 8
    assert models.selector_model.num_features_ == 4
    assert models.training_size == len(tiny_sweep.train_set)


def test_depth_limits_respected(tiny_sweep):
    config = TrainingConfig(known_depth=3, gathered_depth=4, selector_depth=2)
    models = train_seer_models(tiny_sweep.train_set, config)
    assert models.known_model.depth() <= 3
    assert models.gathered_model.depth() <= 4
    assert models.selector_model.depth() <= 2


def test_training_rejects_empty_dataset(tiny_sweep):
    empty = tiny_sweep.dataset.subset([])
    with pytest.raises(ValueError):
        train_seer_models(empty)


def test_model_predictions_are_valid_kernels(tiny_sweep):
    models = tiny_sweep.models
    for sample in tiny_sweep.test_set:
        known_pick = models.predict_known(sample.known_vector)
        gathered_pick = models.predict_gathered(
            sample.known_vector, sample.gathered_vector
        )
        choice = models.predict_selector(sample.known_vector)
        assert known_pick in models.kernel_names
        assert gathered_pick in models.kernel_names
        assert choice in (USE_KNOWN, USE_GATHERED)


def test_gathered_model_fits_training_labels_better_than_known(small_sweep):
    """More features => at least as good a fit on the training corpus."""
    models = small_sweep.models
    train = small_sweep.train_set
    labels = train.labels()
    known_hits = sum(
        1
        for sample, label in zip(train, labels)
        if models.predict_known(sample.known_vector) == label
    )
    gathered_hits = sum(
        1
        for sample, label in zip(train, labels)
        if models.predict_gathered(sample.known_vector, sample.gathered_vector) == label
    )
    assert gathered_hits >= known_hits


def test_predictor_decision_structure(tiny_sweep):
    predictor = tiny_sweep.predictor
    record = archetype("G3_Circuit_like", scale=64)
    decision = predictor.predict(record.matrix, iterations=1, name=record.name)
    assert decision.kernel in tiny_sweep.models.kernel_names
    assert decision.selector_choice in (USE_KNOWN, USE_GATHERED)
    assert decision.inference_time_ms > 0.0
    if decision.selector_choice == USE_GATHERED:
        assert decision.collection_time_ms > 0.0
        assert decision.gathered.max_row_density > 0.0
    else:
        assert decision.collection_time_ms == 0.0
    assert decision.overhead_ms == pytest.approx(
        decision.inference_time_ms + decision.collection_time_ms
    )


def test_predictor_execute_runs_selected_kernel(tiny_sweep, rng):
    predictor = tiny_sweep.predictor
    record = archetype("matrix_new_3_like", scale=128)
    x = rng.uniform(-1, 1, record.matrix.num_cols)
    result = predictor.execute(record.matrix, x, iterations=2, name=record.name)
    expected = record.matrix.spmv(record.matrix.spmv(x))
    np.testing.assert_allclose(result.run.y, expected, rtol=1e-9)
    assert result.run.kernel == result.decision.kernel
    assert result.total_ms >= result.run.total_ms


def test_predictor_rejects_bad_iterations(tiny_sweep):
    record = archetype("G3_Circuit_like", scale=64)
    with pytest.raises(ValueError):
        tiny_sweep.predictor.predict(record.matrix, iterations=0)


def test_cost_aware_selector_avoids_collection_on_tiny_inputs(small_sweep):
    """For launch-bound matrices the selector should skip feature collection."""
    predictor = small_sweep.predictor
    from repro.sparse.generators import regular_matrix

    tiny = regular_matrix(128, 128, 4, rng=0)
    decision = predictor.predict(tiny, iterations=1)
    assert decision.selector_choice == USE_KNOWN


def test_non_cost_aware_selector_differs_in_config(tiny_sweep):
    config = TrainingConfig(cost_aware_selector=False)
    models = train_seer_models(tiny_sweep.train_set, config)
    # Without cost-awareness the selector optimizes pure path time with unit
    # weights; it must still produce valid routing decisions.
    for sample in tiny_sweep.test_set:
        assert models.predict_selector(sample.known_vector) in (USE_KNOWN, USE_GATHERED)
