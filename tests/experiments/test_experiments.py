"""Tests for the per-figure/table experiment drivers.

The heavy profiles are exercised by the benchmark harness; these tests run
the drivers on the small/tiny sweeps and assert the *structural* properties
each figure is meant to demonstrate.
"""

import math
from collections import Counter

import pytest

from repro.core.training import USE_GATHERED
from repro.experiments.accuracy_table import run_accuracy_table
from repro.experiments.fig1_best_kernel import run_fig1
from repro.experiments.fig5_single_iteration import run_fig5
from repro.experiments.fig6_feature_cost import run_fig6
from repro.experiments.fig7_multi_iteration import (
    FIG7_ITERATIONS,
    FIG7_MATRICES,
    run_fig7,
)
from repro.experiments.table1_features import PRIOR_WORK_COLUMNS, run_table1
from repro.experiments.table3_kendall import TABLE3_FEATURES, run_table3
from repro.pipeline import FeaturePipeline
from repro.sparse.collection import archetype


# ----------------------------------------------------------------------
# Fig. 1
# ----------------------------------------------------------------------
def test_fig1_multiple_winners(small_sweep):
    result = run_fig1(sweep=small_sweep)
    assert len(result.points) == len(small_sweep.suite)
    assert result.distinct_winners >= 3
    assert sum(result.winner_counts.values()) == len(result.points)
    rows = result.to_rows()
    assert rows == sorted(rows, key=lambda row: row[1])
    assert "Fig. 1" in result.render()


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def test_table1_capabilities_are_implemented():
    result = run_table1()
    assert result.seer_supports_all()
    rows = result.to_rows()
    assert len(rows) == 7
    for row in rows:
        assert len(row) == 2 + len(PRIOR_WORK_COLUMNS)
        assert row[1] == "yes"
    rendered = result.render()
    assert "Explainability" in rendered


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------
def test_table3_correlations(small_sweep):
    result = run_table3(sweep=small_sweep)
    assert set(result.correlations) == set(small_sweep.kernel_names)
    for row in result.correlations.values():
        for feature in TABLE3_FEATURES:
            value = row[feature]
            assert math.isnan(value) or 0.0 <= value <= 1.0
    # Work-oriented kernels track total work (nnz) at least as strongly as
    # the padded ELL kernel does.
    correlations = result.correlations
    assert correlations["CSR,WO"]["nnz"] >= correlations["ELL,TM"]["nnz"] - 1e-9
    assert "Kendall" in result.render()


# ----------------------------------------------------------------------
# Accuracy (Section IV-C)
# ----------------------------------------------------------------------
def test_accuracy_table(small_sweep):
    result = run_accuracy_table(sweep=small_sweep)
    for value in (
        result.known_accuracy,
        result.gathered_accuracy,
        result.selector_accuracy,
        result.selector_kernel_accuracy,
    ):
        assert 0.0 <= value <= 1.0
    assert result.gathered_accuracy >= result.known_accuracy - 0.05
    assert result.test_samples == len(small_sweep.test_set)
    assert "paper" in result.render()


# ----------------------------------------------------------------------
# Fig. 5
# ----------------------------------------------------------------------
def test_fig5_aggregate_without_studies(small_sweep):
    result = run_fig5(sweep=small_sweep, include_studies=False)
    assert result.studies == []
    assert result.aggregate["Oracle"] <= result.aggregate["Selector"]
    assert result.aggregate["Oracle"] <= result.aggregate["Known"]
    assert result.geomean_speedup_vs_kernels >= 1.0
    assert result.slowdown_vs_oracle >= 1.0
    assert "Fig. 5d" in result.render()


def test_fig5_per_matrix_studies(small_sweep):
    result = run_fig5(sweep=small_sweep, include_studies=True)
    assert len(result.studies) == 3
    for study in result.studies:
        labels = [bar.label for bar in study.bars]
        assert labels[:4] == ["Oracle", "Selector", "Gathered", "Known"]
        assert len(labels) == 4 + 8  # predictors + the Fig. 5 kernel set
        oracle = study.bar("Oracle").total_ms
        for bar in study.bars:
            if math.isfinite(bar.total_ms):
                assert bar.total_ms >= oracle * (1 - 1e-9)
                assert bar.overhead_ms <= bar.total_ms + 1e-12
        # the gathered path always pays a collection overhead
        assert study.bar("Gathered").overhead_ms > 0.0


# ----------------------------------------------------------------------
# Fig. 6
# ----------------------------------------------------------------------
def test_fig6_crossover_behaviour():
    result = run_fig6(row_counts=(100, 1_000, 10_000, 100_000, 1_000_000))
    assert len(result.points) == 5
    small = result.points[0]
    large = result.points[-1]
    assert small.collection_dominates
    assert not large.collection_dominates
    crossover = result.crossover_rows()
    assert 1_000 < crossover <= 1_000_000
    assert "crossover" in result.render()


# ----------------------------------------------------------------------
# Fig. 7
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig7_result(small_sweep):
    scales = {
        "CurlCurl_3_like": 8192,
        "G3_Circuit_like": 8192,
        "PWTK_like": 8192,
    }
    return run_fig7(sweep=small_sweep, scales=scales)


def test_fig7_panels_cover_both_iteration_counts(fig7_result):
    assert len(fig7_result.cases) == 6
    assert {case.iterations for case in fig7_result.cases} == set(FIG7_ITERATIONS)
    for case in fig7_result.cases:
        assert case.oracle_ms <= case.selector_ms + 1e-9
        assert case.oracle_kernel in case.kernel_totals_ms


def test_fig7_adaptive_never_wins_single_iteration(fig7_result):
    for case in fig7_result.cases:
        if case.iterations == 1:
            assert not case.oracle_uses_preprocessing_kernel


def test_fig7_collects_each_matrix_once_beside_the_selector(tiny_sweep, monkeypatch):
    """Gathered features do not depend on the iteration count: one
    collection per matrix prices every count, and only the Selector's own
    gathered route (its paid cost) collects again."""
    gathers = Counter()
    real_gather = FeaturePipeline.gather

    def gather(self, workload, context=None):
        gathers[(workload.num_rows, workload.nnz)] += 1
        return real_gather(self, workload, context=context)

    monkeypatch.setattr(FeaturePipeline, "gather", gather)
    result = run_fig7(sweep=tiny_sweep)
    sizes = {}
    for name, scale in FIG7_MATRICES.items():
        matrix = archetype(name, scale=scale).matrix
        sizes[name] = (matrix.num_rows, matrix.nnz)
    expected = Counter(sizes.values())
    for case in result.cases:
        if case.selector_choice == USE_GATHERED:
            expected[sizes[case.name]] += 1
    assert len(result.cases) == len(FIG7_MATRICES) * len(FIG7_ITERATIONS)
    assert gathers == expected


def test_fig7_amortization_flips_for_some_matrix(fig7_result):
    flips = fig7_result.amortization_flips()
    assert "G3_Circuit_like" not in flips
    assert len(flips) >= 1
    assert "Fig. 7" in fig7_result.render()
