"""CSV artifacts of the Seer pipeline (Section III-D of the paper).

The paper's tooling communicates between stages through CSV files:

* **per-kernel benchmarking CSV** — three columns: dataset name, kernel
  runtime, preprocessing time; one file per kernel;
* **aggregated runtime / preprocessing CSVs** — one ``name`` column plus one
  column per kernel, produced by merging the per-kernel files;
* **feature CSV** — dataset name, one column per gathered feature, and a
  final column with the feature-collection time.

These helpers read and write exactly those layouts so the reproduction's
pipeline stages can also be driven from files on disk, as the original
tooling is.  The layouts are domain-agnostic — the feature columns are
whatever the active :class:`~repro.domains.ProblemDomain` declares — and a
``manifest.json`` sidecar records which domain produced a directory of
artifacts so it can be loaded back without guessing.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

#: Column names of the per-kernel GPU-benchmarking CSV.
BENCHMARK_COLUMNS = ("name", "runtime_ms", "preprocessing_ms")

#: Name of the identifier column shared by every aggregate file.
NAME_COLUMN = "name"

#: Name of the trailing column of the feature CSV.
COLLECTION_TIME_COLUMN = "collection_time_ms"

#: Schema version of the ``manifest.json`` sidecar.
MANIFEST_VERSION = 1


def write_manifest(path, domain, kernel_names, device_name: str) -> None:
    """Write the ``manifest.json`` sidecar describing a CSV artifact set."""
    path = Path(path)
    payload = {
        "version": MANIFEST_VERSION,
        "domain": domain.name,
        "device": device_name,
        "kernels": list(kernel_names),
        "known_features": list(domain.known_feature_names),
        "gathered_features": list(domain.gathered_feature_names),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path):
    """Read a ``manifest.json`` sidecar, or ``None`` when absent/unreadable."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "domain" not in payload:
        return None
    return payload


def write_kernel_benchmark_csv(path, kernel_name: str, rows) -> None:
    """Write one kernel's benchmarking results.

    ``rows`` is an iterable of ``(dataset_name, runtime_ms, preprocessing_ms)``.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(BENCHMARK_COLUMNS)
        for name, runtime_ms, preprocessing_ms in rows:
            writer.writerow([name, f"{runtime_ms:.9g}", f"{preprocessing_ms:.9g}"])


def write_aggregate_csv(path, kernel_names, table: dict) -> None:
    """Write an aggregate (runtime or preprocessing) CSV.

    ``table`` maps dataset name to a dict of ``{kernel_name: value}``.
    """
    path = Path(path)
    kernel_names = list(kernel_names)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([NAME_COLUMN] + kernel_names)
        for name in sorted(table):
            row = [name] + [f"{table[name][kernel]:.9g}" for kernel in kernel_names]
            writer.writerow(row)


def read_aggregate_csv(path) -> tuple:
    """Read an aggregate CSV, returning ``(kernel_names, table)``."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if not header or header[0] != NAME_COLUMN:
            raise ValueError(f"unexpected aggregate CSV header {header!r}")
        kernel_names = header[1:]
        table = {}
        for row in reader:
            name, values = row[0], row[1:]
            if len(values) != len(kernel_names):
                raise ValueError(f"row for {name!r} has {len(values)} values")
            table[name] = {
                kernel: float(value) for kernel, value in zip(kernel_names, values)
            }
    return kernel_names, table


def write_feature_csv(path, feature_names, rows: dict) -> None:
    """Write the gathered-feature CSV.

    ``rows`` maps dataset name to ``(feature_dict, collection_time_ms)``.
    """
    path = Path(path)
    feature_names = list(feature_names)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([NAME_COLUMN] + feature_names + [COLLECTION_TIME_COLUMN])
        for name in sorted(rows):
            features, collection_time_ms = rows[name]
            writer.writerow(
                [name]
                + [f"{features[feature]:.9g}" for feature in feature_names]
                + [f"{collection_time_ms:.9g}"]
            )


def read_feature_csv(path) -> tuple:
    """Read a feature CSV, returning ``(feature_names, rows)``."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if (
            len(header) < 2
            or header[0] != NAME_COLUMN
            or header[-1] != COLLECTION_TIME_COLUMN
        ):
            raise ValueError(f"unexpected feature CSV header {header!r}")
        feature_names = header[1:-1]
        rows = {}
        for row in reader:
            name = row[0]
            values = [float(value) for value in row[1:-1]]
            rows[name] = (dict(zip(feature_names, values)), float(row[-1]))
    return feature_names, rows
