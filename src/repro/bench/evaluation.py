"""Evaluation of the Seer predictors against the Oracle and single kernels.

For every sample of an evaluation set, four selection approaches are timed
end to end (kernel preprocessing + iterations, plus any selection overhead):

* **Oracle** — the fastest kernel, no overhead (unachievable at runtime);
* **Selector** — the deployed Seer flow: classifier-selection model first,
  then either the known path (no overhead) or the gathered path (feature
  collection paid);
* **Gathered** — always collect features, always use the gathered model;
* **Known** — never collect features, always use the known model;

plus every individual kernel.  These are exactly the bars of Fig. 5/7 and
the aggregates behind the 2x / 6.5x headline numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bench.oracle import OraclePredictor
from repro.core.dataset import TrainingDataset, TrainingSample
from repro.core.inference import TREE_EVALUATION_MS
from repro.core.training import USE_GATHERED, USE_KNOWN, SeerModels
from repro.ml.metrics import accuracy_score, geometric_mean

#: Display names of the predictor approaches, in the order of Fig. 5.
PREDICTOR_ORDER = ("Oracle", "Selector", "Gathered", "Known")


@dataclass(frozen=True)
class ApproachTimes:
    """Per-sample end-to-end times and decisions for every approach."""

    name: str
    iterations: int
    oracle_kernel: str
    oracle_ms: float
    selector_choice: str
    selector_kernel: str
    selector_ms: float
    selector_overhead_ms: float
    gathered_kernel: str
    gathered_ms: float
    gathered_overhead_ms: float
    known_kernel: str
    known_ms: float
    kernel_totals_ms: dict

    def approach_time(self, approach: str) -> float:
        """Time of one of the four predictor approaches or a kernel name."""
        mapping = {
            "Oracle": self.oracle_ms,
            "Selector": self.selector_ms,
            "Gathered": self.gathered_ms,
            "Known": self.known_ms,
        }
        if approach in mapping:
            return mapping[approach]
        return self.kernel_totals_ms[approach]


@dataclass
class EvaluationReport:
    """Aggregated evaluation over a dataset."""

    kernel_names: list
    rows: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def aggregate_ms(self, approach: str) -> float:
        """Sum of end-to-end times of an approach across the dataset.

        Kernels that cannot process a matrix contribute the worst finite
        time observed for that matrix (running *something* is always
        possible), so aggregate comparisons remain finite.
        """
        total = 0.0
        for row in self.rows:
            value = row.approach_time(approach)
            if not math.isfinite(value):
                value = max(
                    v for v in row.kernel_totals_ms.values() if math.isfinite(v)
                )
            total += value
        return total

    def aggregate_table(self) -> dict:
        """Aggregate runtime of every approach and every kernel (Fig. 5d)."""
        table = {}
        for approach in PREDICTOR_ORDER:
            table[approach] = self.aggregate_ms(approach)
        for kernel in self.kernel_names:
            table[kernel] = self.aggregate_ms(kernel)
        return table

    def accuracy(self, approach: str) -> float:
        """Fraction of samples where the approach picked the Oracle's kernel."""
        predicted = []
        actual = []
        for row in self.rows:
            actual.append(row.oracle_kernel)
            if approach == "Selector":
                predicted.append(row.selector_kernel)
            elif approach == "Gathered":
                predicted.append(row.gathered_kernel)
            elif approach == "Known":
                predicted.append(row.known_kernel)
            else:
                raise ValueError(f"accuracy undefined for approach {approach!r}")
        return accuracy_score(actual, predicted)

    def selector_choice_accuracy(self) -> float:
        """How often the selector chose the cheaper of its two paths."""
        correct = 0
        for row in self.rows:
            better = (
                USE_GATHERED if row.gathered_ms < row.known_ms else USE_KNOWN
            )
            close = math.isclose(
                row.gathered_ms, row.known_ms, rel_tol=1e-9, abs_tol=1e-12
            )
            if close or row.selector_choice == better:
                correct += 1
        return correct / len(self.rows) if self.rows else float("nan")

    def speedup_vs_best_single_kernel(self, approach: str = "Selector") -> float:
        """Aggregate speedup of an approach over the best single kernel."""
        best_kernel_total = min(
            self.aggregate_ms(kernel) for kernel in self.kernel_names
        )
        return best_kernel_total / self.aggregate_ms(approach)

    def geomean_speedup_vs_kernels(self, approach: str = "Selector") -> float:
        """Geometric-mean per-sample speedup over every individual kernel."""
        ratios = []
        for row in self.rows:
            approach_ms = row.approach_time(approach)
            for kernel in self.kernel_names:
                kernel_ms = row.kernel_totals_ms[kernel]
                if not math.isfinite(kernel_ms):
                    continue
                ratios.append(kernel_ms / approach_ms)
        return geometric_mean(ratios)

    def slowdown_vs_oracle(self, approach: str = "Selector") -> float:
        """Aggregate time of an approach divided by the Oracle's."""
        return self.aggregate_ms(approach) / self.aggregate_ms("Oracle")

    def summary(self) -> dict:
        """Headline metrics of the report, as one JSON-able dict.

        These are the numbers Section IV quotes (accuracies, speedup over
        the best single kernel, geometric-mean speedup over all kernels,
        slowdown against the Oracle); experiment manifests and the accuracy
        table reuse this instead of re-deriving each metric.
        """
        return {
            "samples": len(self.rows),
            "known_accuracy": self.accuracy("Known"),
            "gathered_accuracy": self.accuracy("Gathered"),
            "selector_kernel_accuracy": self.accuracy("Selector"),
            "selector_choice_accuracy": self.selector_choice_accuracy(),
            "selector_speedup_vs_best_kernel": self.speedup_vs_best_single_kernel(),
            "selector_geomean_speedup_vs_kernels": self.geomean_speedup_vs_kernels(),
            "selector_slowdown_vs_oracle": self.slowdown_vs_oracle(),
        }


def predictor_path_time_ms(
    sample: TrainingSample, kernel: str, overhead_ms: float = 0.0
) -> float:
    """End-to-end time of running ``kernel`` on ``sample`` plus overhead.

    If the predicted kernel cannot process the matrix (benchmarked as
    infinity), the library would fail over to some default kernel; the worst
    finite kernel time stands in for that cost so aggregates stay finite and
    mispredictions of this kind are still penalized.
    """
    kernel_ms = sample.kernel_total_ms[kernel]
    if not math.isfinite(kernel_ms):
        kernel_ms = max(
            t for t in sample.kernel_total_ms.values() if math.isfinite(t)
        )
    return kernel_ms + overhead_ms


def _assemble_row(
    sample: TrainingSample,
    oracle: OraclePredictor,
    known_kernel: str,
    gathered_kernel: str,
    selector_choice: str,
) -> ApproachTimes:
    """Turn one sample's three model picks into its evaluation row."""
    oracle_kernel = oracle.select(sample)
    oracle_ms = sample.kernel_total_ms[oracle_kernel]

    known_ms = predictor_path_time_ms(sample, known_kernel, TREE_EVALUATION_MS)

    gathered_overhead = sample.collection_time_ms + TREE_EVALUATION_MS
    gathered_ms = predictor_path_time_ms(sample, gathered_kernel, gathered_overhead)

    if selector_choice == USE_GATHERED:
        selector_kernel = gathered_kernel
        selector_overhead = gathered_overhead + TREE_EVALUATION_MS
    else:
        selector_choice = USE_KNOWN
        selector_kernel = known_kernel
        selector_overhead = 2 * TREE_EVALUATION_MS
    selector_ms = predictor_path_time_ms(sample, selector_kernel, selector_overhead)

    return ApproachTimes(
        name=sample.name,
        iterations=sample.iterations,
        oracle_kernel=oracle_kernel,
        oracle_ms=oracle_ms,
        selector_choice=selector_choice,
        selector_kernel=selector_kernel,
        selector_ms=selector_ms,
        selector_overhead_ms=selector_overhead,
        gathered_kernel=gathered_kernel,
        gathered_ms=gathered_ms,
        gathered_overhead_ms=gathered_overhead,
        known_kernel=known_kernel,
        known_ms=known_ms,
        kernel_totals_ms=dict(sample.kernel_total_ms),
    )


def evaluate_dataset(dataset: TrainingDataset, models: SeerModels) -> EvaluationReport:
    """Evaluate the three predictors and every kernel over ``dataset``.

    The three decision trees are evaluated over the whole dataset in one
    compiled batch pass (:meth:`SeerModels.predict_batch`); the paths are
    replayed from the sweep's measurements, never re-collected.
    """
    kernel_names = list(dataset.kernel_names)
    if len(dataset) == 0:
        return EvaluationReport(kernel_names=kernel_names, rows=[])
    oracle = OraclePredictor()
    batch = models.predict_batch(dataset.known_matrix(), dataset.gathered_matrix())
    rows = [
        _assemble_row(
            sample,
            oracle,
            known_kernel=batch.known_kernels[index],
            gathered_kernel=batch.gathered_kernels[index],
            selector_choice=batch.selector_choices[index],
        )
        for index, sample in enumerate(dataset)
    ]
    return EvaluationReport(kernel_names=kernel_names, rows=rows)
