"""Tests for the CSV schemas of Section III-D."""

import csv

import pytest

from repro.core import csv_schemas


def _read_kernel_benchmark_csv(path) -> list:
    """A per-kernel benchmarking CSV as ``(name, runtime_ms, preprocessing_ms)``."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != csv_schemas.BENCHMARK_COLUMNS:
            raise ValueError(f"unexpected benchmark CSV header {header!r}")
        return [(name, float(runtime), float(prep)) for name, runtime, prep in reader]


def test_kernel_benchmark_csv_round_trip(tmp_path):
    path = tmp_path / "kernel_CSR_TM.csv"
    rows = [("matrix_a", 0.5, 0.0), ("matrix_b", 1.25, 0.75)]
    csv_schemas.write_kernel_benchmark_csv(path, "CSR,TM", rows)
    loaded = _read_kernel_benchmark_csv(path)
    assert loaded == [("matrix_a", 0.5, 0.0), ("matrix_b", 1.25, 0.75)]
    header = path.read_text().splitlines()[0]
    assert header == "name,runtime_ms,preprocessing_ms"


def test_kernel_benchmark_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError):
        _read_kernel_benchmark_csv(path)


def test_aggregate_csv_round_trip(tmp_path):
    path = tmp_path / "runtime.csv"
    table = {
        "m1": {"CSR,TM": 1.0, "ELL,TM": 2.0},
        "m2": {"CSR,TM": 3.0, "ELL,TM": 4.0},
    }
    csv_schemas.write_aggregate_csv(path, ["CSR,TM", "ELL,TM"], table)
    kernels, loaded = csv_schemas.read_aggregate_csv(path)
    assert kernels == ["CSR,TM", "ELL,TM"]
    assert loaded == table
    # one column per kernel plus the name column, as the paper describes
    import csv

    with path.open(newline="") as handle:
        header = next(csv.reader(handle))
    assert len(header) == 3 and header[0] == "name"


def test_aggregate_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("name,CSR,TM\nm1,1.0\n")
    with pytest.raises(ValueError):
        csv_schemas.read_aggregate_csv(path)


def test_feature_csv_round_trip(tmp_path):
    path = tmp_path / "features.csv"
    rows = {
        "m1": ({"max_row_density": 0.5, "var_row_density": 0.1}, 0.02),
        "m2": ({"max_row_density": 0.25, "var_row_density": 0.0}, 0.03),
    }
    csv_schemas.write_feature_csv(path, ["max_row_density", "var_row_density"], rows)
    names, loaded = csv_schemas.read_feature_csv(path)
    assert names == ["max_row_density", "var_row_density"]
    assert loaded == rows
    header = path.read_text().splitlines()[0]
    assert header.endswith(csv_schemas.COLLECTION_TIME_COLUMN)


def test_feature_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad_features.csv"
    path.write_text("name,foo\nm1,1.0\n")
    with pytest.raises(ValueError):
        csv_schemas.read_feature_csv(path)
