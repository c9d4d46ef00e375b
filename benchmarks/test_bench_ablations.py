"""Ablation benchmarks for the design decisions called out in DESIGN.md.

These are not paper figures; they quantify the contribution of the pieces
the paper argues for: the classifier-selection model itself (vs always-known
/ always-gathered), the cost-aware selector labels, the decision-tree depth
bound, and the variance feature of the gathered set.
"""

import numpy as np

from benchmarks.conftest import record
from repro.bench.evaluation import evaluate_dataset
from repro.core.training import TrainingConfig, train_seer_models
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.metrics import accuracy_score


def test_ablation_selector_vs_fixed_strategies(benchmark, paper_sweep):
    """The classifier-selection model vs always-known and always-gathered."""

    def run():
        return evaluate_dataset(paper_sweep.test_set, paper_sweep.models)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    table = {
        approach: round(report.aggregate_ms(approach), 3)
        for approach in ("Oracle", "Selector", "Gathered", "Known")
    }
    print("\nablation (aggregate ms):", table)
    record(benchmark, aggregate_ms=table)
    assert report.aggregate_ms("Selector") <= 1.05 * report.aggregate_ms("Gathered")
    assert report.aggregate_ms("Selector") <= 1.05 * report.aggregate_ms("Known")


def test_ablation_cost_aware_selector_labels(benchmark, paper_sweep):
    """Cost-aware selector labels vs plain accuracy-driven labels."""

    def run():
        cost_aware = paper_sweep.models
        plain = train_seer_models(
            paper_sweep.train_set, TrainingConfig(cost_aware_selector=False)
        )
        results = {}
        for name, models in (("cost_aware", cost_aware), ("plain", plain)):
            report = evaluate_dataset(paper_sweep.test_set, models)
            results[name] = report.aggregate_ms("Selector")
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nselector aggregate ms:", {k: round(v, 3) for k, v in results.items()})
    record(benchmark, **{k: round(v, 4) for k, v in results.items()})
    # The cost-aware labels must never be substantially worse; they exist to
    # protect against expensive mispredictions.
    assert results["cost_aware"] <= results["plain"] * 1.10


def test_ablation_tree_depth(benchmark, paper_sweep):
    """Effect of the max-depth regularizer on test accuracy (Section III-C)."""

    def run():
        accuracies = {}
        train = paper_sweep.train_set
        test = paper_sweep.test_set
        test_labels = test.labels()
        for depth in (2, 4, 8, 12):
            model = DecisionTreeClassifier(max_depth=depth)
            model.fit(train.full_matrix(), train.labels())
            predictions = model.predict(test.full_matrix())
            accuracies[depth] = accuracy_score(test_labels, predictions)
        return accuracies

    accuracies = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\ngathered-model test accuracy by depth:", accuracies)
    record(benchmark, **{f"depth_{d}": round(a, 3) for d, a in accuracies.items()})
    assert accuracies[8] >= accuracies[2]


def test_ablation_variance_feature(benchmark, paper_sweep):
    """Dropping the row-density variance from the gathered feature set."""

    def run():
        train = paper_sweep.train_set
        test = paper_sweep.test_set
        full_train, full_test = train.full_matrix(), test.full_matrix()
        labels_train, labels_test = train.labels(), test.labels()
        variance_column = list(train.full_feature_names).index("var_row_density")
        keep = [i for i in range(full_train.shape[1]) if i != variance_column]
        with_variance = DecisionTreeClassifier(max_depth=8).fit(full_train, labels_train)
        without_variance = DecisionTreeClassifier(max_depth=8).fit(
            full_train[:, keep], labels_train
        )
        return {
            "with_variance": accuracy_score(
                labels_test, with_variance.predict(full_test)
            ),
            "without_variance": accuracy_score(
                labels_test, without_variance.predict(full_test[:, keep])
            ),
        }

    accuracies = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\ngathered-model accuracy:", {k: round(v, 3) for k, v in accuracies.items()})
    record(benchmark, **{k: round(v, 4) for k, v in accuracies.items()})
    assert accuracies["with_variance"] >= accuracies["without_variance"] - 0.05


def test_ablation_inference_overhead(benchmark, paper_sweep):
    """Wall-clock cost of one decision-tree selection (the 'negligible
    inference cost' claim) measured on this host."""
    sample = paper_sweep.test_set.samples[0]
    models = paper_sweep.models
    vector = np.asarray(sample.known_vector, dtype=np.float64)

    def select_once():
        choice = models.predict_selector(vector)
        if choice == "gathered":
            return models.predict_gathered(vector, sample.gathered_vector)
        return models.predict_known(vector)

    benchmark(select_once)
    record(benchmark, note="one selector + classifier evaluation on the host CPU")
