"""Figure 5: single-iteration runtime of predictors vs. individual kernels.

Fig. 5a-c of the paper show, for three representative SuiteSparse matrices,
the end-to-end single-iteration runtime of the Oracle, the classifier
selection predictor, the gathered- and known-feature predictors, and every
individual kernel; lighter stacked bars show the overhead (feature
collection or preprocessing) of each approach.  Fig. 5d shows the same bars
aggregated over the dataset, which is where the headline "2x over the best
single kernel" and "6.5x geometric-mean speedup" numbers come from.

The per-matrix studies use named archetypes that mimic the structure of the
paper's matrices (nlpkkt200, matrix-new_3, Ga41As41H72); the aggregate uses
the synthetic collection's held-out test split at one iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.evaluation import EvaluationReport
from repro.domains.spmv import SPMV
from repro.experiments.common import format_table, matrix_picks, measure_kernels
from repro.experiments.registry import ExperimentArtifact, register_experiment
from repro.sparse.collection import archetype

#: Archetypes of the three matrices examined in Fig. 5a-c and the scales at
#: which they are generated (large enough to be outside the launch-overhead
#: regime, small enough to build quickly).
FIG5_MATRICES = {
    "nlpkkt200_like": 24576,
    "matrix_new_3_like": 8192,
    "Ga41As41H72_like": 16384,
}


@dataclass
class ApproachBar:
    """One bar of a Fig. 5 plot: runtime plus overhead split."""

    label: str
    total_ms: float
    overhead_ms: float = 0.0

    @property
    def kernel_ms(self) -> float:
        """Portion of the bar spent in the SpMV kernel itself."""
        return self.total_ms - self.overhead_ms


@dataclass
class Fig5MatrixStudy:
    """All bars of one per-matrix plot (Fig. 5a, 5b or 5c)."""

    name: str
    rows: int
    nnz: int
    bars: list = field(default_factory=list)

    def bar(self, label: str) -> ApproachBar:
        """Look up one bar by its label."""
        for bar in self.bars:
            if bar.label == label:
                return bar
        raise KeyError(label)

    def to_rows(self) -> list:
        """Rows (label, total_ms, overhead_ms)."""
        return [
            (bar.label, round(bar.total_ms, 4), round(bar.overhead_ms, 4))
            for bar in self.bars
        ]


@dataclass
class Fig5Result:
    """The three per-matrix studies plus the aggregate (Fig. 5d) numbers."""

    studies: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    speedup_vs_best_kernel: float = float("nan")
    geomean_speedup_vs_kernels: float = float("nan")
    slowdown_vs_oracle: float = float("nan")

    def render(self) -> str:
        """Printable summary of every panel of Fig. 5."""
        sections = []
        for study in self.studies:
            sections.append(
                f"Fig. 5 ({study.name}, rows={study.rows}, nnz={study.nnz})\n"
                + format_table(["approach", "total ms", "overhead ms"], study.to_rows())
            )
        aggregate_rows = [
            (label, round(value, 3)) for label, value in self.aggregate.items()
        ]
        sections.append(
            "Fig. 5d (aggregate single-iteration runtime)\n"
            + format_table(["approach", "total ms"], aggregate_rows)
            + f"\nselector speedup vs best single kernel: {self.speedup_vs_best_kernel:.2f}x"
            + f"\nselector geomean speedup vs all kernels: {self.geomean_speedup_vs_kernels:.2f}x"
            + f"\nselector slowdown vs Oracle: {self.slowdown_vs_oracle:.3f}x"
        )
        return "\n\n".join(sections)

    def to_artifact(self) -> ExperimentArtifact:
        """Structured output: per-matrix study bars plus the aggregate bars."""
        rows = []
        for study in self.studies:
            for bar in study.bars:
                rows.append((study.name, bar.label, bar.total_ms, bar.overhead_ms))
        for label, value in self.aggregate.items():
            rows.append(("aggregate", label, value, ""))
        return ExperimentArtifact(
            columns=("section", "label", "total_ms", "overhead_ms"),
            rows=rows,
            summary={
                "speedup_vs_best_kernel": self.speedup_vs_best_kernel,
                "geomean_speedup_vs_kernels": self.geomean_speedup_vs_kernels,
                "slowdown_vs_oracle": self.slowdown_vs_oracle,
            },
        )


def _study_for_matrix(record, sweep) -> Fig5MatrixStudy:
    """Build the per-matrix bars (predictors first, then every kernel)."""
    kernels = SPMV.default_kernels(sweep.predictor.device, include_aux=False)
    picks = matrix_picks(sweep, record, 1, measure_kernels(sweep, record, kernels))
    matrix = record.matrix
    study = Fig5MatrixStudy(name=record.name, rows=matrix.num_rows, nnz=matrix.nnz)
    study.bars.append(ApproachBar("Oracle", picks.oracle_ms))
    # The deployed Seer flow (selector -> known or gathered path), then the
    # always-gathered and always-known paths.
    study.bars.append(
        ApproachBar("Selector", picks.selector_ms, picks.selector.overhead_ms)
    )
    study.bars.append(ApproachBar("Gathered", picks.gathered_ms, picks.collection_ms))
    study.bars.append(ApproachBar("Known", picks.known_ms))
    for name, timing in picks.timings.items():
        study.bars.append(
            ApproachBar(
                name,
                picks.totals_ms[name],
                0.0 if timing is None else timing.preprocessing_ms,
            )
        )
    return study


def _single_iteration_report(report: EvaluationReport) -> EvaluationReport:
    """Restrict an evaluation report to its single-iteration samples."""
    return EvaluationReport(
        kernel_names=list(report.kernel_names),
        rows=[row for row in report.rows if row.iterations == 1],
    )


def run_fig5(sweep, include_studies: bool = True) -> Fig5Result:
    """Regenerate Fig. 5: three per-matrix studies plus the aggregate."""
    result = Fig5Result()
    if include_studies:
        for name, scale in FIG5_MATRICES.items():
            record = archetype(name, scale=scale)
            result.studies.append(_study_for_matrix(record, sweep))

    report = _single_iteration_report(sweep.test_report)
    result.aggregate = {
        label: report.aggregate_ms(label)
        for label in ("Oracle", "Selector", "Gathered", "Known", *report.kernel_names)
    }
    result.speedup_vs_best_kernel = report.speedup_vs_best_single_kernel("Selector")
    result.geomean_speedup_vs_kernels = report.geomean_speedup_vs_kernels("Selector")
    result.slowdown_vs_oracle = report.slowdown_vs_oracle("Selector")
    return result


@register_experiment(
    "fig5",
    title="Single-iteration predictor comparison (Fig. 5)",
    description="predictors vs. individual kernels; per-matrix archetype "
    "studies (SpMV only) plus the aggregate bars",
)
def _fig5_experiment(context) -> Fig5Result:
    # The three per-matrix studies are built from named SpMV archetypes; for
    # every other domain the aggregate panel (Fig. 5d) is what generalizes.
    return run_fig5(
        context.sweep(), include_studies=context.domain.name == "spmv"
    )
