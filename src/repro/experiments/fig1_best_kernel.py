"""Figure 1: the fastest kernel varies widely across the dataset.

The paper's opening figure plots, for every SuiteSparse matrix, the runtime
of whichever kernel is fastest on it, coloured by kernel.  The message is
that no single kernel dominates: matrices with similar amounts of work are
won by different kernels.  This driver regenerates the underlying series:
one point per matrix with its nonzero count, the winning kernel and the
winning runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import format_table
from repro.experiments.registry import ExperimentArtifact, register_experiment


@dataclass(frozen=True)
class Fig1Point:
    """One point of the Fig. 1 scatter."""

    name: str
    nnz: int
    fastest_kernel: str
    fastest_runtime_ms: float


@dataclass
class Fig1Result:
    """The full Fig. 1 series plus summary statistics."""

    points: list = field(default_factory=list)
    winner_counts: dict = field(default_factory=dict)

    @property
    def distinct_winners(self) -> int:
        """How many different kernels win at least one matrix."""
        return len(self.winner_counts)

    def to_rows(self) -> list:
        """Rows (name, nnz, kernel, runtime_ms) sorted by nonzero count."""
        return [
            (p.name, p.nnz, p.fastest_kernel, round(p.fastest_runtime_ms, 6))
            for p in sorted(self.points, key=lambda p: p.nnz)
        ]

    def render(self) -> str:
        """Printable summary of the figure's data."""
        header = (
            f"Fig. 1 — fastest kernel per matrix ({len(self.points)} matrices, "
            f"{self.distinct_winners} distinct winning kernels)\n"
        )
        summary = format_table(
            ["kernel", "matrices won"],
            sorted(self.winner_counts.items(), key=lambda kv: -kv[1]),
        )
        return header + summary

    def to_artifact(self) -> ExperimentArtifact:
        """Structured output: one row per matrix, full precision."""
        return ExperimentArtifact(
            columns=("name", "nnz", "fastest_kernel", "fastest_runtime_ms"),
            rows=[
                (p.name, p.nnz, p.fastest_kernel, p.fastest_runtime_ms)
                for p in sorted(self.points, key=lambda p: p.nnz)
            ],
            summary={
                "matrices": len(self.points),
                "distinct_winners": self.distinct_winners,
                "winner_counts": dict(self.winner_counts),
            },
        )


def run_fig1(sweep) -> Fig1Result:
    """Regenerate the Fig. 1 series from a sweep's benchmark suite."""
    result = Fig1Result()
    for measurement in sweep.suite:
        winner = measurement.fastest_kernel(iterations=1)
        result.points.append(
            Fig1Point(
                name=measurement.name,
                nnz=measurement.known.nnz,
                fastest_kernel=winner,
                fastest_runtime_ms=measurement.kernel_total_ms(winner, 1),
            )
        )
        result.winner_counts[winner] = result.winner_counts.get(winner, 0) + 1
    return result


@register_experiment(
    "fig1",
    title="Fastest kernel per matrix (Fig. 1)",
    description="one point per workload: nonzeros, winning kernel, winning runtime",
)
def _fig1_experiment(context) -> Fig1Result:
    return run_fig1(context.sweep())
