"""Table III: Kendall correlation between kernel runtimes and features.

For every kernel, the paper reports the Kendall rank-correlation coefficient
between the kernel's per-matrix runtime and each feature (rows, nnz, max /
min / mean / variance of row density) across the dataset.  Row-mapped
schedules correlate most with the number of rows, work-oriented schedules
with the number of nonzeros — the monotonic relationships the predictor
exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.domains.base import ITERATIONS_FIELD
from repro.experiments.common import format_table
from repro.experiments.registry import ExperimentArtifact, register_experiment
from repro.ml.kendall import kendall_tau

#: Feature columns of Table III for the SpMV case study, in paper order.
TABLE3_FEATURES = ("rows", "nnz", "most", "least", "avg", "var")


def table3_feature_names(sweep) -> tuple:
    """Feature columns of the table for a sweep's domain.

    The SpMV case study keeps the paper's six columns (with its shorthand
    ``most``/``least``/``avg``/``var`` names); every other domain reports
    its declared known features (minus the iteration count, which is not a
    workload property) followed by its gathered features.
    """
    if sweep.domain_name == "spmv":
        return TABLE3_FEATURES
    domain = sweep.suite.domain
    known = tuple(
        name for name in domain.known_feature_names if name != ITERATIONS_FIELD
    )
    return known + tuple(domain.gathered_feature_names)


def _feature_value(measurement, feature: str) -> float:
    if feature == "rows":
        return float(measurement.known.rows)
    if feature == "nnz":
        return float(measurement.known.nnz)
    if feature == "most":
        return measurement.gathered.max_row_density
    if feature == "least":
        return measurement.gathered.min_row_density
    if feature == "avg":
        return measurement.gathered.mean_row_density
    if feature == "var":
        return measurement.gathered.var_row_density
    known = measurement.known.as_dict()
    if feature in known:
        return float(known[feature])
    gathered = measurement.gathered.as_dict()
    if feature in gathered:
        return float(gathered[feature])
    raise KeyError(feature)


@dataclass
class Table3Result:
    """Kendall correlation of every kernel's runtime with every feature."""

    correlations: dict = field(default_factory=dict)
    feature_names: tuple = TABLE3_FEATURES

    def to_rows(self) -> list:
        """Rows (kernel, tau per feature) in kernel order."""
        rows = []
        for kernel, values in self.correlations.items():
            rows.append(
                (kernel, *(round(values[feature], 2) for feature in self.feature_names))
            )
        return rows

    def render(self) -> str:
        """Printable Table III."""
        return "Table III — Kendall correlation (|tau|)\n" + format_table(
            ["Load-Balancing Alg.", *self.feature_names], self.to_rows()
        )

    def to_artifact(self) -> ExperimentArtifact:
        """Structured output: one row per kernel, full-precision |tau|."""
        return ExperimentArtifact(
            columns=("kernel", *self.feature_names),
            rows=[
                (kernel, *(values[feature] for feature in self.feature_names))
                for kernel, values in self.correlations.items()
            ],
            summary={"features": list(self.feature_names)},
        )


def run_table3(sweep) -> Table3Result:
    """Compute the Table III correlations over a sweep's benchmark suite.

    As in the paper, the statistic relates single-iteration kernel runtimes
    to the matrix features; the absolute value of tau is reported (the sign
    only encodes whether runtime grows or shrinks with the feature).
    """
    measurements = list(sweep.suite)
    feature_names = table3_feature_names(sweep)
    result = Table3Result(feature_names=feature_names)
    for kernel in sweep.kernel_names:
        runtimes = np.array(
            [m.kernel_total_ms(kernel, 1) for m in measurements], dtype=np.float64
        )
        finite = np.isfinite(runtimes)
        row = {}
        for feature in feature_names:
            values = np.array(
                [_feature_value(m, feature) for m in measurements], dtype=np.float64
            )
            tau = kendall_tau(values[finite], runtimes[finite])
            row[feature] = abs(tau) if not math.isnan(tau) else float("nan")
        result.correlations[kernel] = row
    return result


@register_experiment(
    "table3",
    title="Kendall correlations (Table III)",
    description="rank correlation between every kernel's runtime and the "
    "domain's known/gathered features",
)
def _table3_experiment(context) -> Table3Result:
    return run_table3(context.sweep())
