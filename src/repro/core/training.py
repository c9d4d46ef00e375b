"""Training of the three Seer models (Fig. 2 of the paper).

Three decision trees are trained:

1. the **known-feature classifier**, trained on the trivially known features
   to predict the fastest kernel;
2. the **gathered-feature classifier**, trained on known + gathered features
   to predict the fastest kernel;
3. the **classifier-selection model**, trained on the known features only, to
   predict which of the two classifiers should be consulted at runtime.

The selector's training label is *cost-aware* (Sections III-A and IV-D): a
sample is labelled "gathered" only when the end-to-end time through the
gathered path — feature collection plus the gathered model's pick — beats the
end-to-end time through the known path.  This is what lets the deployed
predictor skip feature collection whenever a misprediction would be cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.dataset import TrainingDataset
from repro.ml.decision_tree import DecisionTreeClassifier

#: Selector class meaning "use the known-feature classifier".
USE_KNOWN = "known"

#: Selector class meaning "collect features and use the gathered classifier".
USE_GATHERED = "gathered"

#: Default tree depths; fixed up front, never tuned on the test set
#: (Section III-C).  Moderate depths are deliberately chosen: deep trees give
#: the known model pure leaves and high apparent confidence, which erases the
#: uncertainty signal the cost-aware selector relies on to route risky inputs
#: through feature collection.
DEFAULT_KNOWN_DEPTH = 6
DEFAULT_GATHERED_DEPTH = 8
DEFAULT_SELECTOR_DEPTH = 8


@dataclass(frozen=True)
class BatchSelection:
    """Vectorized selection decisions for a batch of feature rows.

    One entry per input row, in input order.  ``gathered_kernels`` is
    ``None`` when the batch was predicted from known features only (no
    gathered feature matrix was supplied).
    """

    selector_choices: tuple
    known_kernels: tuple
    gathered_kernels: tuple = None

    def __len__(self) -> int:
        return len(self.selector_choices)

    @property
    def kernels(self) -> tuple:
        """The deployed per-row kernel choice (the Fig. 3 selector flow).

        Rows the selector routes through the gathered classifier take that
        classifier's pick; the rest take the known classifier's.  Raises
        when a row needs the gathered pick but the batch carried no
        gathered features — serving such a row would require collecting
        features, which a pure feature-matrix batch cannot do.
        """
        if self.gathered_kernels is None:
            routed = sum(
                1 for choice in self.selector_choices if choice == USE_GATHERED
            )
            if routed:
                raise ValueError(
                    f"{routed} row(s) are routed to the gathered classifier "
                    f"but the batch has no gathered features; supply the "
                    f"gathered feature matrix to serve them"
                )
            return self.known_kernels
        return tuple(
            gathered if choice == USE_GATHERED else known
            for choice, known, gathered in zip(
                self.selector_choices, self.known_kernels, self.gathered_kernels
            )
        )


@dataclass
class SeerModels:
    """The three fitted decision trees plus the metadata needed to use them."""

    known_model: DecisionTreeClassifier
    gathered_model: DecisionTreeClassifier
    selector_model: DecisionTreeClassifier
    kernel_names: list
    known_feature_names: tuple
    gathered_feature_names: tuple
    training_size: int = 0

    def predict_known(self, known_vector) -> str:
        """Kernel predicted from the known features alone."""
        return self.known_model.predict_one(known_vector)

    def predict_gathered(self, known_vector, gathered_vector) -> str:
        """Kernel predicted from known + gathered features."""
        full = np.concatenate(
            [np.asarray(known_vector, dtype=np.float64),
             np.asarray(gathered_vector, dtype=np.float64)]
        )
        return self.gathered_model.predict_one(full)

    def predict_selector(self, known_vector) -> str:
        """Which classifier the selector chooses (``"known"``/``"gathered"``)."""
        return self.selector_model.predict_one(known_vector)

    def predict_batch(self, known_matrix, gathered_matrix=None) -> BatchSelection:
        """Run all three trees over N feature rows in one batched call.

        ``known_matrix`` has one known-feature row per sample;
        ``gathered_matrix`` (optional) the matching gathered-feature rows.
        Each tree evaluates the whole batch in one call
        (:mod:`repro.serving.compiled`: flat-list walks for small batches,
        a few NumPy passes for large ones), so the result is element-wise
        that of :meth:`predict_known` / :meth:`predict_gathered` /
        :meth:`predict_selector` per row.
        """
        known_matrix = np.atleast_2d(np.asarray(known_matrix, dtype=np.float64))
        selector_choices = tuple(self.selector_model.predict(known_matrix))
        known_kernels = tuple(self.known_model.predict(known_matrix))
        gathered_kernels = None
        if gathered_matrix is not None:
            gathered_matrix = np.atleast_2d(
                np.asarray(gathered_matrix, dtype=np.float64)
            )
            if gathered_matrix.shape[0] != known_matrix.shape[0]:
                raise ValueError(
                    f"known and gathered batches disagree on the sample "
                    f"count: {known_matrix.shape[0]} vs {gathered_matrix.shape[0]}"
                )
            full = np.concatenate((known_matrix, gathered_matrix), axis=1)
            gathered_kernels = tuple(self.gathered_model.predict(full))
        return BatchSelection(
            selector_choices=selector_choices,
            known_kernels=known_kernels,
            gathered_kernels=gathered_kernels,
        )


@dataclass
class TrainingConfig:
    """Depth and label-construction configuration of the three trees."""

    known_depth: int = DEFAULT_KNOWN_DEPTH
    gathered_depth: int = DEFAULT_GATHERED_DEPTH
    selector_depth: int = DEFAULT_SELECTOR_DEPTH
    min_samples_leaf: int = 1
    #: Weigh selector samples by the cost of routing them wrongly and add the
    #: feature-collection cost to the gathered path (the paper's key idea).
    cost_aware_selector: bool = True
    #: Number of folds used to produce out-of-sample submodel predictions
    #: when building the selector labels; 0 or 1 uses in-sample predictions.
    selector_cross_fit: int = 5


def _path_time(sample, kernel: str) -> float:
    """End-to-end time of running ``kernel``, falling back when unsupported.

    A predicted kernel may be unable to process the matrix at all (recorded
    as infinity by the benchmarking stage); running it would in practice mean
    failing over to whatever the library ships as its default, so the worst
    finite kernel time stands in for that cost.
    """
    time_ms = sample.total_ms(kernel)
    if math.isfinite(time_ms):
        return time_ms
    return max(t for t in sample.kernel_total_ms.values() if math.isfinite(t))


def _cross_fit_predictions(dataset: TrainingDataset, config: "TrainingConfig") -> tuple:
    """Out-of-fold fastest-kernel predictions of the known and gathered models.

    The selector must judge how the submodels behave on data they were *not*
    fitted on — in-sample predictions overstate the known model's reliability
    and bias the selector towards skipping feature collection.  Each fold's
    samples are predicted by submodels trained on the remaining folds.
    """
    folds = max(int(config.selector_cross_fit), 1)
    num_samples = len(dataset)
    known_X = dataset.known_matrix()
    full_X = dataset.full_matrix()
    labels = dataset.labels()
    known_predictions = [None] * num_samples
    gathered_predictions = [None] * num_samples
    fold_of = np.arange(num_samples) % folds
    for fold in range(folds):
        held_out = np.flatnonzero(fold_of == fold)
        fitted_on = np.flatnonzero(fold_of != fold)
        if fitted_on.size == 0 or held_out.size == 0:
            fitted_on = np.arange(num_samples)
            held_out = np.arange(num_samples)
        fold_labels = [labels[i] for i in fitted_on]
        known_fold = DecisionTreeClassifier(
            max_depth=config.known_depth, min_samples_leaf=config.min_samples_leaf
        ).fit(known_X[fitted_on], fold_labels)
        gathered_fold = DecisionTreeClassifier(
            max_depth=config.gathered_depth, min_samples_leaf=config.min_samples_leaf
        ).fit(full_X[fitted_on], fold_labels)
        for index, known_pick, gathered_pick in zip(
            held_out,
            known_fold.predict(known_X[held_out]),
            gathered_fold.predict(full_X[held_out]),
        ):
            known_predictions[index] = known_pick
            gathered_predictions[index] = gathered_pick
    return known_predictions, gathered_predictions


def _selector_labels(
    dataset: TrainingDataset,
    known_model: DecisionTreeClassifier,
    gathered_model: DecisionTreeClassifier,
    config: "TrainingConfig",
) -> tuple:
    """Selector training labels and cost-based sample weights.

    The label says which path (known or gathered) ends up faster for the
    sample; the weight is the absolute time difference between the two
    paths, so the selector tree concentrates on the samples where routing
    wrongly is expensive — a misprediction between two near-equivalent paths
    barely matters, one that sends a huge skewed matrix to a padded-format
    kernel matters enormously (Section IV-D).
    """
    cost_aware = config.cost_aware_selector
    labels = []
    weights = []
    # The selector must judge both "how likely is the known model to be
    # wrong here" and "how much would that cost" (Section III-A).  Point
    # predictions alone understate the risk, so each path is charged its
    # *expected* cost under the classifier's leaf distribution: a sample
    # sitting in a leaf whose plausible picks include a catastrophic kernel
    # gets a high known-path cost even if the argmax pick happens to be
    # fine.  The cross-fit point predictions add a second, out-of-sample
    # view; the pessimistic (max) combination of the two decides the label.
    expected_known = _expected_path_costs(
        dataset, known_model, dataset.known_matrix()
    )
    expected_gathered = _expected_path_costs(
        dataset, gathered_model, dataset.full_matrix()
    )
    if config.selector_cross_fit and config.selector_cross_fit > 1 and len(dataset) > 4:
        cross_known, cross_gathered = _cross_fit_predictions(dataset, config)
    else:
        cross_known = known_model.predict(dataset.known_matrix())
        cross_gathered = gathered_model.predict(dataset.full_matrix())
    for index, sample in enumerate(dataset.samples):
        known_path_ms = max(
            expected_known[index], _path_time(sample, cross_known[index])
        )
        gathered_path_ms = max(
            expected_gathered[index], _path_time(sample, cross_gathered[index])
        )
        if cost_aware:
            gathered_path_ms += sample.collection_time_ms
        labels.append(
            USE_GATHERED if gathered_path_ms < known_path_ms else USE_KNOWN
        )
        if cost_aware:
            weights.append(abs(known_path_ms - gathered_path_ms) + 1e-6)
        else:
            weights.append(1.0)
    return labels, np.asarray(weights, dtype=np.float64)


#: Leaf probabilities below this threshold are treated as noise when charging
#: a path its expected cost — only kernels the classifier considers genuinely
#: plausible contribute to the risk estimate.  Zero keeps every class the
#: leaf has ever seen, which is the conservative default: a kernel that was
#: best for even one training matrix in the leaf is a plausible (and possibly
#: catastrophic) pick for unseen matrices landing there.
PLAUSIBLE_CLASS_THRESHOLD = 0.0


def _expected_path_costs(
    dataset: TrainingDataset, model: DecisionTreeClassifier, features: np.ndarray
) -> np.ndarray:
    """Expected end-to-end cost of following ``model`` for every sample.

    The cost of a path is the probability-weighted average, over the kernels
    the model's leaf considers plausible (probability above
    :data:`PLAUSIBLE_CLASS_THRESHOLD`), of running each kernel on the sample.
    """
    probabilities = model.predict_proba(features)
    classes = model.classes_
    costs = np.zeros(len(dataset), dtype=np.float64)
    for index, sample in enumerate(dataset.samples):
        cost = 0.0
        mass = 0.0
        for probability, kernel in zip(probabilities[index], classes):
            if probability > PLAUSIBLE_CLASS_THRESHOLD:
                cost += probability * _path_time(sample, kernel)
                mass += probability
        if mass <= 0.0:
            # Degenerate leaf: fall back to the point prediction.
            pick = classes[int(np.argmax(probabilities[index]))]
            costs[index] = _path_time(sample, pick)
        else:
            costs[index] = cost / mass
    return costs


def train_seer_models(
    dataset: TrainingDataset, config: Optional[TrainingConfig] = None
) -> SeerModels:
    """Fit the known, gathered and classifier-selection decision trees."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    config = config or TrainingConfig()

    known_model = DecisionTreeClassifier(
        max_depth=config.known_depth, min_samples_leaf=config.min_samples_leaf
    )
    known_model.fit(
        dataset.known_matrix(),
        dataset.labels(),
        feature_names=list(dataset.known_feature_names),
    )

    gathered_model = DecisionTreeClassifier(
        max_depth=config.gathered_depth, min_samples_leaf=config.min_samples_leaf
    )
    gathered_model.fit(
        dataset.full_matrix(),
        dataset.labels(),
        feature_names=list(dataset.full_feature_names),
    )

    selector_labels, selector_weights = _selector_labels(
        dataset, known_model, gathered_model, config
    )
    selector_model = DecisionTreeClassifier(
        max_depth=config.selector_depth, min_samples_leaf=config.min_samples_leaf
    )
    selector_model.fit(
        dataset.known_matrix(),
        selector_labels,
        feature_names=list(dataset.known_feature_names),
        sample_weight=selector_weights,
    )

    return SeerModels(
        known_model=known_model,
        gathered_model=gathered_model,
        selector_model=selector_model,
        kernel_names=list(dataset.kernel_names),
        known_feature_names=dataset.known_feature_names,
        gathered_feature_names=dataset.gathered_feature_names,
        training_size=len(dataset),
    )
