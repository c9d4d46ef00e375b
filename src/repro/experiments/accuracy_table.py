"""Model accuracies on the held-out test split (Section IV-C).

The paper reports that, on an 80/20 train-test split, the known, gathered
and classifier-selection predictors reach 77%, 83% and 95% accuracy.  This
driver computes the same three numbers on the synthetic collection:

* known / gathered accuracy — how often the model names the Oracle's kernel;
* selector accuracy — how often the classifier-selection model routes a
  sample to the cheaper of its two paths (the decision it is trained for).

The paper also stresses the difference between *accuracy* and *error*
(mispredictions between near-equivalent kernels barely cost anything), so
the result carries the runtime error against the Oracle as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table
from repro.experiments.registry import ExperimentArtifact, register_experiment


@dataclass(frozen=True)
class AccuracyResult:
    """Accuracies and Oracle-relative errors of the three predictors."""

    known_accuracy: float
    gathered_accuracy: float
    selector_accuracy: float
    selector_kernel_accuracy: float
    known_error_vs_oracle: float
    gathered_error_vs_oracle: float
    selector_error_vs_oracle: float
    test_samples: int

    def to_rows(self) -> list:
        """Rows (model, accuracy, runtime error vs Oracle)."""
        return [
            ("Known", round(self.known_accuracy, 3), round(self.known_error_vs_oracle, 3)),
            (
                "Gathered",
                round(self.gathered_accuracy, 3),
                round(self.gathered_error_vs_oracle, 3),
            ),
            (
                "Classifier selection",
                round(self.selector_accuracy, 3),
                round(self.selector_error_vs_oracle, 3),
            ),
        ]

    def render(self) -> str:
        """Printable accuracy table."""
        header = (
            f"Model accuracy on the {self.test_samples}-sample test split "
            "(paper: known 77%, gathered 83%, selector 95%)\n"
        )
        return header + format_table(
            ["model", "accuracy", "aggregate slowdown vs Oracle - 1"], self.to_rows()
        )

    def to_artifact(self) -> ExperimentArtifact:
        """Structured output: one row per predictor, full precision."""
        return ExperimentArtifact(
            columns=("model", "accuracy", "error_vs_oracle"),
            rows=[
                ("Known", self.known_accuracy, self.known_error_vs_oracle),
                ("Gathered", self.gathered_accuracy, self.gathered_error_vs_oracle),
                (
                    "Classifier selection",
                    self.selector_accuracy,
                    self.selector_error_vs_oracle,
                ),
            ],
            summary={
                "test_samples": self.test_samples,
                "selector_kernel_accuracy": self.selector_kernel_accuracy,
            },
        )


def run_accuracy_table(sweep) -> AccuracyResult:
    """Compute the three predictor accuracies on the held-out split."""
    report = sweep.test_report
    return AccuracyResult(
        known_accuracy=report.accuracy("Known"),
        gathered_accuracy=report.accuracy("Gathered"),
        selector_accuracy=report.selector_choice_accuracy(),
        selector_kernel_accuracy=report.accuracy("Selector"),
        known_error_vs_oracle=report.slowdown_vs_oracle("Known") - 1.0,
        gathered_error_vs_oracle=report.slowdown_vs_oracle("Gathered") - 1.0,
        selector_error_vs_oracle=report.slowdown_vs_oracle("Selector") - 1.0,
        test_samples=len(report.rows),
    )


@register_experiment(
    "accuracy",
    title="Model accuracies (Section IV-C)",
    description="known/gathered/selector accuracy and Oracle-relative error "
    "on the held-out test split",
)
def _accuracy_experiment(context) -> AccuracyResult:
    return run_accuracy_table(context.sweep())
