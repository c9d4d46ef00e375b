"""Tests for the end-to-end sweep runner."""

import pytest

from repro.bench.runner import TEST_FRACTION, run_sweep


def test_sweep_result_structure(tiny_sweep):
    sweep = tiny_sweep
    assert len(sweep.dataset) == len(sweep.train_set) + len(sweep.test_set)
    expected_test = round(TEST_FRACTION * len(sweep.dataset))
    # stratification may shift the boundary by a few samples
    assert abs(len(sweep.test_set) - expected_test) <= 0.1 * len(sweep.dataset) + 2
    assert sweep.kernel_names == sweep.suite.kernel_names
    assert len(sweep.train_report.rows) == len(sweep.train_set)
    assert len(sweep.test_report.rows) == len(sweep.test_set)


def test_sweep_without_rocsparse_kernel():
    sweep = run_sweep(profile="tiny", include_rocsparse=False, iteration_counts=(1,))
    assert "rocSPARSE" not in sweep.kernel_names
    assert len(sweep.kernel_names) == 8


def test_sweep_split_changes_with_seed():
    first = run_sweep(profile="tiny", iteration_counts=(1,), split_seed=1)
    second = run_sweep(profile="tiny", iteration_counts=(1,), split_seed=2)
    first_names = {(row.name, row.iterations) for row in first.test_report.rows}
    second_names = {(row.name, row.iterations) for row in second.test_report.rows}
    assert first_names != second_names


def test_sweep_is_reproducible():
    first = run_sweep(profile="tiny", iteration_counts=(1,))
    second = run_sweep(profile="tiny", iteration_counts=(1,))
    assert first.test_report.aggregate_table() == pytest.approx(
        second.test_report.aggregate_table()
    )
