"""Measured serving feedback: score deployed decisions against the oracle.

``repro serve`` routes a corpus through the trained selector, but nothing
checks how good those decisions actually were — the serving loop was open.
This module closes it: the ingested corpus is *re-benchmarked on every
kernel* through the existing engine/ingest caches (so the oracle choice is
known), each served decision is scored against that oracle, and the
outcomes land in a deterministic ``feedback.csv`` + ``manifest.json``
artifact in the experiment-artifact format.

Three consumers build on the artifact:

* the **drift monitor** (:class:`DriftMonitor`, surfaced by the daemon's
  ``/metrics`` and ``summary.json``) compares the rolling feedback metrics
  against the model manifest's training-time evaluation summary;
* the **promotion workflow** (:mod:`repro.serving.promotion`) appends
  feedback rows to the training set and shadow-scores a retrained
  candidate on a held-out feedback slice;
* :func:`load_feedback_dataset` turns the CSV back into a
  :class:`~repro.core.dataset.TrainingDataset`, byte-exactly (cells are
  ``repr`` floats, so every value round-trips).

The scoring itself reuses :func:`~repro.bench.evaluation.evaluate_dataset`
wholesale — serving decisions are element-wise identical to the evaluation
report's Selector approach, so "what the daemon served" and "what the
feedback stage scores" can never disagree.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.bench.evaluation import EvaluationReport, evaluate_dataset
from repro.core.benchmarking import BenchmarkSuite, run_benchmark_suite
from repro.core.dataset import TrainingDataset, TrainingSample, build_training_dataset
from repro.domains import get_domain
from repro.domains.base import jsonable
from repro.experiments.registry import ARTIFACT_FORMAT_VERSION, ExperimentArtifact
from repro.gpu.device import MI100, DeviceSpec
from repro.ml.metrics import relative_error_to_oracle
from repro.serving.ingest import ingest_records

#: File names of one feedback run's artifact pair.
FEEDBACK_FILE_NAME = "feedback.csv"
FEEDBACK_MANIFEST_FILE_NAME = "manifest.json"

#: Prefix of the per-kernel end-to-end-time columns in ``feedback.csv``.
KERNEL_COLUMN_PREFIX = "total_ms:"

#: Summary keys the drift monitor compares against the training baseline.
DRIFT_METRIC_KEYS = ("selector_kernel_accuracy", "selector_slowdown_vs_oracle")


@dataclass
class FeedbackResult:
    """One measured-feedback pass over a served corpus.

    ``dataset`` holds the re-benchmarked corpus as training samples (all
    kernels measured, oracle label derived); ``report`` the evaluation of
    the serving model over exactly those samples.  Row ``i`` of both refers
    to the same workload.
    """

    domain_name: str
    device_name: str
    iterations: int
    dataset: TrainingDataset
    report: EvaluationReport

    def __len__(self) -> int:
        return len(self.dataset)

    @property
    def domain(self):
        return get_domain(self.domain_name)

    def regret(self) -> float:
        """Aggregate time lost vs the oracle (0 = matched it exactly)."""
        return relative_error_to_oracle(
            [row.oracle_ms for row in self.report.rows],
            [row.selector_ms for row in self.report.rows],
        )

    def kernel_record(self) -> dict:
        """Per-kernel win/loss counts of the served (Selector) decisions.

        A *win* is a sample where the selector picked this kernel and the
        oracle agreed; a *loss* is a pick the oracle disagreed with.
        """
        wins = {kernel: 0 for kernel in self.report.kernel_names}
        losses = {kernel: 0 for kernel in self.report.kernel_names}
        for row in self.report.rows:
            if row.selector_kernel == row.oracle_kernel:
                wins[row.selector_kernel] += 1
            else:
                losses[row.selector_kernel] += 1
        return {"wins": wins, "losses": losses}

    def summary(self) -> dict:
        """Headline feedback metrics (manifest ``summary`` block).

        A superset of :meth:`EvaluationReport.summary` — the shared keys
        are what :class:`DriftMonitor` compares against the model
        manifest's training-time evaluation.
        """
        summary = self.report.summary()
        summary["iterations"] = self.iterations
        summary["regret"] = self.regret()
        summary["kernel_record"] = self.kernel_record()
        return summary

    def to_artifact(self) -> ExperimentArtifact:
        """The per-workload outcomes as one flat experiment-format table."""
        domain = self.domain
        columns = (
            ("name",)
            + tuple(domain.known_feature_names)
            + tuple(domain.gathered_feature_names)
            + ("collection_time_ms",)
            + tuple(
                f"{KERNEL_COLUMN_PREFIX}{kernel}"
                for kernel in self.dataset.kernel_names
            )
            + (
                "oracle_kernel",
                "oracle_ms",
                "selector_choice",
                "served_kernel",
                "served_ms",
                "regret",
                "win",
            )
        )
        rows = []
        for sample, row in zip(self.dataset.samples, self.report.rows):
            per_sample_regret = (
                (row.selector_ms - row.oracle_ms) / row.oracle_ms
                if row.oracle_ms > 0
                else math.inf
            )
            rows.append(
                (sample.name,)
                + tuple(float(v) for v in sample.known_vector)
                + tuple(float(v) for v in sample.gathered_vector)
                + (sample.collection_time_ms,)
                + tuple(
                    sample.kernel_total_ms[kernel]
                    for kernel in self.dataset.kernel_names
                )
                + (
                    row.oracle_kernel,
                    row.oracle_ms,
                    row.selector_choice,
                    row.selector_kernel,
                    row.selector_ms,
                    per_sample_regret,
                    row.selector_kernel == row.oracle_kernel,
                )
            )
        return ExperimentArtifact(columns=columns, rows=rows, summary=self.summary())

    def render(self) -> str:
        """Human-readable per-workload outcome table for the console."""
        lines = [
            f"measured {len(self.dataset)} workloads against the oracle "
            f"(domain {self.domain_name}, {self.iterations} iteration(s))"
        ]
        for row in self.report.rows:
            verdict = "==" if row.selector_kernel == row.oracle_kernel else "!="
            lines.append(
                f"  {row.name:<28} served {row.selector_kernel:<10} "
                f"{verdict} oracle {row.oracle_kernel:<10} "
                f"({row.selector_ms:.4f} vs {row.oracle_ms:.4f} ms)"
            )
        summary = self.summary()
        lines.append(
            f"accuracy {summary['selector_kernel_accuracy']:.2f}, "
            f"regret {summary['regret']:.4f}, "
            f"slowdown vs oracle {summary['selector_slowdown_vs_oracle']:.2f}x"
        )
        return "\n".join(lines)


def measure_feedback(
    models, suite: BenchmarkSuite, iterations: int = 1
) -> FeedbackResult:
    """Score the serving models against the oracle over a measured corpus.

    ``suite`` is the re-benchmarked corpus (every kernel measured, e.g. by
    :func:`feedback_from_corpus`); decisions are replayed through the same
    vectorized batch pass the daemon uses, at the given iteration count.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if len(suite) == 0:
        raise ValueError("cannot measure feedback over an empty corpus")
    dataset = build_training_dataset(suite, (iterations,))
    report = evaluate_dataset(dataset, models)
    return FeedbackResult(
        domain_name=suite.domain_name,
        device_name=suite.device_name,
        iterations=iterations,
        dataset=dataset,
        report=report,
    )


def feedback_from_corpus(
    models,
    target,
    domain=None,
    device: DeviceSpec = MI100,
    iterations: int = 1,
    cache_dir=None,
    options=None,
) -> FeedbackResult:
    """Ingest a corpus, re-benchmark it on every kernel, score the models.

    ``target`` is anything ``repro serve`` accepts (directory, manifest,
    file, ``recipe:`` spec or a pre-discovered source list); parsed
    matrices come out of the content-addressed ingest cache when
    ``cache_dir`` is set, so measuring right after serving re-reads no
    Matrix-Market bytes.
    """
    domain = get_domain(domain)
    records = ingest_records(
        target, domain=domain, cache_dir=cache_dir, options=options
    )
    suite = run_benchmark_suite(records, device=device, domain=domain)
    return measure_feedback(models, suite, iterations=iterations)


def write_feedback_artifact(result: FeedbackResult, out_dir, model_info=None) -> dict:
    """Persist a feedback run as ``feedback.csv`` + ``manifest.json``.

    Follows the experiment-artifact contract (repr-precision cells,
    sorted-key manifest, no timestamps), so repeated measurement of an
    unchanged corpus with an unchanged model writes byte-identical files —
    golden-testable, and safe for the promotion workflow to hash.
    """
    artifact = result.to_artifact()
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    data_path = directory / FEEDBACK_FILE_NAME
    data_path.write_text(artifact.to_csv(), encoding="utf-8")
    manifest = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "experiment": "feedback",
        "title": "Measured serving feedback vs the oracle",
        "description": (
            "Served corpus re-benchmarked on every kernel; each decision "
            "scored against the oracle selection"
        ),
        "domain": result.domain.describe(),
        "device": result.device_name,
        "iterations": result.iterations,
        "columns": list(artifact.columns),
        "row_count": len(artifact.rows),
        "summary": jsonable(artifact.summary),
        "model": jsonable(model_info) if model_info else None,
    }
    manifest_path = directory / FEEDBACK_MANIFEST_FILE_NAME
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return {"dir": directory, "data": data_path, "manifest": manifest_path}


def load_feedback_dataset(path, domain=None) -> TrainingDataset:
    """Reconstruct a :class:`TrainingDataset` from a ``feedback.csv``.

    ``path`` is the CSV or the directory holding it.  The domain resolves
    from the sibling manifest when not given.  Cells were written with
    ``repr`` precision, so every float (including ``inf`` for unsupported
    kernels) round-trips exactly — retraining on loaded feedback is
    bit-identical to retraining on the in-memory result.
    """
    path = Path(path)
    if path.is_dir():
        path = path / FEEDBACK_FILE_NAME
    if domain is None:
        manifest_path = path.parent / FEEDBACK_MANIFEST_FILE_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            raise ValueError(
                f"cannot resolve the feedback domain: no readable manifest at "
                f"{manifest_path}; pass domain= explicitly"
            ) from None
        described = manifest.get("domain")
        domain = described.get("name") if isinstance(described, dict) else described
    domain = get_domain(domain)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ValueError(f"cannot read feedback artifact {path}: {error}") from None
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValueError(f"feedback artifact {path} is empty (no CSV header)")
    kernel_names = [
        column[len(KERNEL_COLUMN_PREFIX):]
        for column in reader.fieldnames
        if column.startswith(KERNEL_COLUMN_PREFIX)
    ]
    required = (
        {"name", "collection_time_ms", "oracle_kernel"}
        | set(domain.known_feature_names)
        | set(domain.gathered_feature_names)
    )
    missing = sorted(required - set(reader.fieldnames))
    if missing or not kernel_names:
        problem = (
            f"missing column(s) {missing}"
            if missing
            else f"no {KERNEL_COLUMN_PREFIX}<kernel> columns"
        )
        raise ValueError(
            f"feedback artifact {path} is not a {domain.name} feedback table: "
            f"{problem}"
        )
    import numpy as np

    samples = []
    for index, row in enumerate(reader, 2):
        try:
            known_vector = np.array(
                [float(row[name]) for name in domain.known_feature_names],
                dtype=np.float64,
            )
            gathered_vector = np.array(
                [float(row[name]) for name in domain.gathered_feature_names],
                dtype=np.float64,
            )
            totals = {
                kernel: float(row[f"{KERNEL_COLUMN_PREFIX}{kernel}"])
                for kernel in kernel_names
            }
            iterations = int(float(row["iterations"]))
            collection_time = float(row["collection_time_ms"])
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"{path}:{index}: malformed feedback row: {error}"
            ) from None
        best = row["oracle_kernel"]
        if best not in totals:
            raise ValueError(
                f"{path}:{index}: oracle kernel {best!r} is not one of the "
                f"measured kernels {kernel_names}"
            )
        samples.append(
            TrainingSample(
                name=row["name"],
                iterations=iterations,
                known_vector=known_vector,
                gathered_vector=gathered_vector,
                collection_time_ms=collection_time,
                kernel_total_ms=totals,
                best_kernel=best,
            )
        )
    if not samples:
        raise ValueError(f"feedback artifact {path} has no data rows")
    return TrainingDataset(
        kernel_names=kernel_names,
        samples=samples,
        known_feature_names=domain.known_feature_names,
        gathered_feature_names=domain.gathered_feature_names,
    )


# ----------------------------------------------------------------------
# Drift monitoring
# ----------------------------------------------------------------------
@dataclass
class DriftMonitor:
    """Rolling comparison of live feedback metrics against a baseline.

    ``baseline`` is the model manifest's training-time evaluation summary
    (``registry.save(evaluation=...)``); each :meth:`observe` call feeds
    one feedback-run summary.  Only the last ``window`` observations
    count, so recovered traffic clears an old alarm.  Degradation beyond
    ``threshold`` — accuracy *dropping* by more than the threshold, or the
    slowdown-vs-oracle *growing* by more than the threshold fraction —
    marks the status as drifted.
    """

    baseline: Optional[dict] = None
    threshold: float = 0.1
    window: int = 8
    _observations: list = field(default_factory=list, repr=False)

    def observe(self, summary: dict) -> None:
        """Feed one feedback-run summary into the rolling window."""
        self._observations.append(dict(summary))
        if len(self._observations) > self.window:
            del self._observations[: -self.window]

    def _rolling_mean(self, key: str) -> Optional[float]:
        values = [
            float(observation[key])
            for observation in self._observations
            if isinstance(observation.get(key), (int, float))
            and math.isfinite(float(observation[key]))
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def status(self) -> dict:
        """The drift verdict plus the numbers behind it (JSON-able)."""
        status = {
            "threshold": self.threshold,
            "window": self.window,
            "observations": len(self._observations),
            "baseline_available": self.baseline is not None,
            "drifted": False,
            "reasons": [],
        }
        if self.baseline is None or not self._observations:
            return status
        baseline_accuracy = self.baseline.get(DRIFT_METRIC_KEYS[0])
        observed_accuracy = self._rolling_mean(DRIFT_METRIC_KEYS[0])
        if baseline_accuracy is not None and observed_accuracy is not None:
            drop = float(baseline_accuracy) - observed_accuracy
            status["baseline_accuracy"] = float(baseline_accuracy)
            status["observed_accuracy"] = observed_accuracy
            status["accuracy_drop"] = drop
            if drop > self.threshold:
                status["drifted"] = True
                status["reasons"].append(
                    f"selector accuracy dropped {drop:.3f} below the "
                    f"training baseline (threshold {self.threshold})"
                )
        baseline_slowdown = self.baseline.get(DRIFT_METRIC_KEYS[1])
        observed_slowdown = self._rolling_mean(DRIFT_METRIC_KEYS[1])
        if (
            baseline_slowdown is not None
            and float(baseline_slowdown) > 0
            and observed_slowdown is not None
        ):
            increase = observed_slowdown / float(baseline_slowdown) - 1.0
            status["baseline_slowdown_vs_oracle"] = float(baseline_slowdown)
            status["observed_slowdown_vs_oracle"] = observed_slowdown
            status["slowdown_increase"] = increase
            if increase > self.threshold:
                status["drifted"] = True
                status["reasons"].append(
                    f"slowdown vs oracle grew {increase:.3f} over the "
                    f"training baseline (threshold {self.threshold})"
                )
        return status
