"""Assembly of the classifier training set.

The benchmarking stage measures each matrix once; the training set expands
those measurements across the iteration counts of interest (the paper trains
"a predictor on data which had various numbers of iterations", Section IV-E)
and derives, per sample:

* the known-feature vector (rows, cols, nnz, iterations),
* the gathered-feature vector (row-density statistics),
* the feature-collection cost,
* the end-to-end time of every kernel (preprocessing + iterations x runtime),
* and the resulting fastest-kernel label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.benchmarking import BenchmarkSuite, MatrixMeasurement
from repro.sparse.features import GATHERED_FEATURE_NAMES, KNOWN_FEATURE_NAMES

#: Iteration counts used to build the default training corpus; 1 and 19 are
#: the two points the paper's multi-iteration study examines (Fig. 7).
DEFAULT_ITERATION_COUNTS = (1, 4, 19)


@dataclass
class TrainingSample:
    """One row of the classifier training set."""

    name: str
    iterations: int
    known_vector: np.ndarray
    gathered_vector: np.ndarray
    collection_time_ms: float
    kernel_total_ms: dict
    best_kernel: str

    @property
    def full_vector(self) -> np.ndarray:
        """Known followed by gathered features (the gathered model's input)."""
        return np.concatenate([self.known_vector, self.gathered_vector])

    def total_ms(self, kernel: str) -> float:
        """End-to-end time of ``kernel`` for this sample's iteration count."""
        return self.kernel_total_ms[kernel]

    @property
    def oracle_ms(self) -> float:
        """End-to-end time of the fastest kernel."""
        return self.kernel_total_ms[self.best_kernel]


@dataclass
class TrainingDataset:
    """The full training corpus plus convenience matrix views."""

    kernel_names: list
    samples: list = field(default_factory=list)
    known_feature_names: tuple = KNOWN_FEATURE_NAMES
    gathered_feature_names: tuple = GATHERED_FEATURE_NAMES

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def full_feature_names(self) -> tuple:
        """Feature layout of the gathered classifier (known then gathered)."""
        return tuple(self.known_feature_names) + tuple(self.gathered_feature_names)

    def known_matrix(self) -> np.ndarray:
        """Known-feature matrix, one row per sample."""
        return np.stack([sample.known_vector for sample in self.samples])

    def full_matrix(self) -> np.ndarray:
        """Known+gathered feature matrix, one row per sample."""
        return np.stack([sample.full_vector for sample in self.samples])

    def gathered_matrix(self) -> np.ndarray:
        """Gathered-feature matrix, one row per sample."""
        return np.stack([sample.gathered_vector for sample in self.samples])

    def labels(self) -> list:
        """Fastest-kernel label of every sample."""
        return [sample.best_kernel for sample in self.samples]

    def subset(self, indices) -> "TrainingDataset":
        """A new dataset containing only the given sample indices."""
        return TrainingDataset(
            kernel_names=list(self.kernel_names),
            samples=[self.samples[int(i)] for i in indices],
            known_feature_names=self.known_feature_names,
            gathered_feature_names=self.gathered_feature_names,
        )


def sample_from_measurement(
    measurement: MatrixMeasurement, iterations: int, kernel_names
) -> TrainingSample:
    """Expand one benchmark measurement into a sample at ``iterations``."""
    totals = {}
    for kernel in kernel_names:
        total = measurement.kernel_total_ms(kernel, iterations)
        totals[kernel] = total if math.isfinite(total) else math.inf
    finite = {k: v for k, v in totals.items() if math.isfinite(v)}
    if not finite:
        raise ValueError(
            f"no kernel can process matrix {measurement.name!r}"
        )
    best = min(finite, key=lambda kernel: (finite[kernel], kernel))
    known = measurement.known.with_iterations(iterations)
    return TrainingSample(
        name=measurement.name,
        iterations=iterations,
        known_vector=known.as_vector(),
        gathered_vector=measurement.gathered.as_vector(),
        collection_time_ms=measurement.collection_time_ms,
        kernel_total_ms=totals,
        best_kernel=best,
    )


def build_training_dataset(
    suite: BenchmarkSuite, iteration_counts=DEFAULT_ITERATION_COUNTS
) -> TrainingDataset:
    """Expand a benchmark suite into the classifier training corpus."""
    iteration_counts = tuple(iteration_counts)
    if not iteration_counts:
        raise ValueError("iteration_counts must not be empty")
    if any(count < 1 for count in iteration_counts):
        raise ValueError("iteration counts must be >= 1")
    samples = [
        sample_from_measurement(measurement, iterations, suite.kernel_names)
        for measurement in suite.measurements
        for iterations in iteration_counts
    ]
    domain = suite.domain
    return TrainingDataset(
        kernel_names=list(suite.kernel_names),
        samples=samples,
        known_feature_names=domain.known_feature_names,
        gathered_feature_names=domain.gathered_feature_names,
    )
