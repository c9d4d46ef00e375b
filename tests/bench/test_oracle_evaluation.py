"""Tests for the Oracle predictor and the evaluation harness."""

import math

import numpy as np
import pytest

from repro.bench.evaluation import (
    PREDICTOR_ORDER,
    ApproachTimes,
    EvaluationReport,
    evaluate_dataset,
    predictor_path_time_ms,
)
from repro.bench.oracle import OraclePredictor
from repro.core.dataset import TrainingSample


def test_oracle_selects_minimum_total(tiny_sweep):
    oracle = OraclePredictor()
    for sample in tiny_sweep.dataset:
        pick = oracle.select(sample)
        time_ms = oracle.time_ms(sample)
        finite = [t for t in sample.kernel_total_ms.values() if math.isfinite(t)]
        assert time_ms == min(finite)
        assert sample.kernel_total_ms[pick] == time_ms


def test_predictor_path_time_adds_overhead(tiny_sweep):
    sample = tiny_sweep.dataset.samples[0]
    kernel = sample.best_kernel
    base = predictor_path_time_ms(sample, kernel)
    assert predictor_path_time_ms(sample, kernel, overhead_ms=0.5) == pytest.approx(
        base + 0.5
    )


def test_predictor_path_time_falls_back_for_unsupported_kernel(tiny_sweep):
    sample = tiny_sweep.dataset.samples[0]
    kernel = sample.best_kernel
    saved = sample.kernel_total_ms[kernel]
    sample.kernel_total_ms[kernel] = math.inf
    try:
        fallback = predictor_path_time_ms(sample, kernel)
        assert math.isfinite(fallback)
        assert fallback == max(
            t for t in sample.kernel_total_ms.values() if math.isfinite(t)
        )
    finally:
        sample.kernel_total_ms[kernel] = saved


def test_evaluation_report_structure(tiny_sweep):
    report = tiny_sweep.test_report
    assert len(report.rows) == len(tiny_sweep.test_set)
    table = report.aggregate_table()
    for approach in PREDICTOR_ORDER:
        assert approach in table
        assert math.isfinite(table[approach])
    for kernel in report.kernel_names:
        assert kernel in table


def test_oracle_is_a_lower_bound(tiny_sweep):
    report = tiny_sweep.test_report
    oracle_total = report.aggregate_ms("Oracle")
    for approach in ("Selector", "Gathered", "Known", *report.kernel_names):
        assert report.aggregate_ms(approach) >= oracle_total * (1 - 1e-9)
    assert report.slowdown_vs_oracle("Selector") >= 1.0
    assert report.slowdown_vs_oracle("Oracle") == pytest.approx(1.0)


def test_per_row_consistency(tiny_sweep):
    for row in tiny_sweep.test_report.rows:
        assert row.oracle_ms <= row.selector_ms + 1e-12
        assert row.oracle_ms <= row.known_ms + 1e-12
        assert row.oracle_ms <= row.gathered_ms + 1e-12
        assert row.selector_kernel in tiny_sweep.suite.kernel_names
        assert row.approach_time("Oracle") == row.oracle_ms
        assert row.approach_time(row.oracle_kernel) >= row.oracle_ms * (1 - 1e-12)


def test_accuracy_and_speedup_metrics_are_consistent(tiny_sweep):
    report = tiny_sweep.test_report
    for approach in ("Known", "Gathered", "Selector"):
        accuracy = report.accuracy(approach)
        assert 0.0 <= accuracy <= 1.0
    assert 0.0 <= report.selector_choice_accuracy() <= 1.0
    assert report.geomean_speedup_vs_kernels("Oracle") >= 1.0
    assert report.speedup_vs_best_single_kernel("Oracle") > 0.0
    with pytest.raises(ValueError):
        report.accuracy("Oracle")


def test_evaluate_dataset_on_training_split_matches_report(tiny_sweep):
    rebuilt = evaluate_dataset(tiny_sweep.train_set, tiny_sweep.models)
    assert len(rebuilt.rows) == len(tiny_sweep.train_set)
    assert rebuilt.kernel_names == tiny_sweep.train_report.kernel_names
    assert rebuilt.aggregate_ms("Selector") == pytest.approx(
        tiny_sweep.train_report.aggregate_ms("Selector")
    )


def test_evaluate_dataset_on_an_empty_split_returns_an_empty_report(tiny_sweep):
    report = evaluate_dataset(tiny_sweep.dataset.subset([]), tiny_sweep.models)
    assert report.rows == []
    assert report.kernel_names == list(tiny_sweep.dataset.kernel_names)


def test_report_summary_matches_individual_metrics(tiny_sweep):
    report = tiny_sweep.test_report
    summary = report.summary()
    assert summary["samples"] == len(report.rows)
    assert summary["known_accuracy"] == report.accuracy("Known")
    assert summary["gathered_accuracy"] == report.accuracy("Gathered")
    assert summary["selector_choice_accuracy"] == report.selector_choice_accuracy()
    assert summary["selector_slowdown_vs_oracle"] == report.slowdown_vs_oracle()
    assert summary["selector_geomean_speedup_vs_kernels"] == (
        report.geomean_speedup_vs_kernels()
    )


# ----------------------------------------------------------------------
# Edge cases: ties, unsupported kernels, empty selections
# ----------------------------------------------------------------------
def _sample(totals, name="edge", iterations=1, collection_time_ms=0.1, best=None):
    """Hand-built training sample with explicit per-kernel totals."""
    if best is None:
        finite = {k: v for k, v in totals.items() if math.isfinite(v)}
        best = min(finite, key=lambda kernel: (finite[kernel], kernel))
    return TrainingSample(
        name=name,
        iterations=iterations,
        known_vector=np.zeros(4),
        gathered_vector=np.zeros(4),
        collection_time_ms=collection_time_ms,
        kernel_total_ms=dict(totals),
        best_kernel=best,
    )


def _row(
    gathered_ms,
    known_ms,
    selector_choice,
    kernel_totals,
    oracle_kernel=None,
    name="edge-row",
):
    """Hand-built evaluation row exercising selector/aggregate edge cases."""
    finite = {k: v for k, v in kernel_totals.items() if math.isfinite(v)}
    if oracle_kernel is None:
        oracle_kernel = min(finite, key=lambda kernel: (finite[kernel], kernel))
    return ApproachTimes(
        name=name,
        iterations=1,
        oracle_kernel=oracle_kernel,
        oracle_ms=finite[oracle_kernel],
        selector_choice=selector_choice,
        selector_kernel=oracle_kernel,
        selector_ms=finite[oracle_kernel],
        selector_overhead_ms=0.0,
        gathered_kernel=oracle_kernel,
        gathered_ms=gathered_ms,
        gathered_overhead_ms=0.0,
        known_kernel=oracle_kernel,
        known_ms=known_ms,
        kernel_totals_ms=dict(kernel_totals),
    )


def test_oracle_breaks_exact_ties_by_kernel_name():
    sample = _sample({"B": 1.0, "A": 1.0, "C": 2.0})
    oracle = OraclePredictor()
    assert oracle.select(sample) == "A"
    assert oracle.time_ms(sample) == 1.0


def test_oracle_ignores_unsupported_kernels_in_ties():
    sample = _sample({"A": math.inf, "B": 3.0, "C": 3.0})
    assert OraclePredictor().select(sample) == "B"


def test_oracle_raises_when_no_kernel_is_runnable():
    sample = _sample({"A": math.inf, "B": math.inf}, best="A")
    with pytest.raises(ValueError, match="no runnable kernel"):
        OraclePredictor().select(sample)


def test_aggregate_ms_substitutes_worst_finite_for_missing_kernel():
    # Kernel "B" cannot process the first matrix: its aggregate charges the
    # worst finite time of that matrix instead of going infinite.
    rows = [
        _row(1.0, 1.0, "known", {"A": 2.0, "B": math.inf, "C": 5.0}),
        _row(1.0, 1.0, "known", {"A": 2.0, "B": 3.0, "C": 4.0}),
    ]
    report = EvaluationReport(kernel_names=["A", "B", "C"], rows=rows)
    assert report.aggregate_ms("B") == 5.0 + 3.0
    assert report.aggregate_ms("A") == 4.0
    assert math.isfinite(report.speedup_vs_best_single_kernel("Oracle"))


def test_geomean_skips_unsupported_kernels():
    rows = [_row(1.0, 1.0, "known", {"A": 2.0, "B": math.inf})]
    report = EvaluationReport(kernel_names=["A", "B"], rows=rows)
    # Only the finite kernel contributes a ratio.
    assert report.geomean_speedup_vs_kernels("Oracle") == pytest.approx(1.0)


def test_selector_choice_tie_counts_either_path_as_correct():
    tie = _row(2.5, 2.5, "gathered", {"A": 1.0, "B": 2.0})
    report = EvaluationReport(kernel_names=["A", "B"], rows=[tie])
    assert report.selector_choice_accuracy() == 1.0
    tie_known = _row(2.5, 2.5, "known", {"A": 1.0, "B": 2.0})
    report = EvaluationReport(kernel_names=["A", "B"], rows=[tie_known])
    assert report.selector_choice_accuracy() == 1.0


def test_empty_report_edge_behaviour():
    report = EvaluationReport(kernel_names=["A"])
    assert math.isnan(report.selector_choice_accuracy())
    assert report.aggregate_ms("Oracle") == 0.0
    with pytest.raises(ValueError):
        report.accuracy("Known")
    with pytest.raises(ValueError):
        report.geomean_speedup_vs_kernels("Selector")


def test_predictor_path_time_raises_for_unknown_kernel():
    sample = _sample({"A": 1.0})
    with pytest.raises(KeyError):
        predictor_path_time_ms(sample, "definitely-not-a-kernel")
