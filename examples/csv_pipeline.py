#!/usr/bin/env python3
"""Driving Seer through its file-based pipeline (the paper's Section III-D API).

The original Seer tooling communicates between stages through CSV files: the
GPU benchmarking stage and the feature-collection kernels write CSVs, the
training script ``seer(runtime, preprocessing_data, features)`` consumes
them, and the trained models are emitted as a C++ header.  This example does
exactly that, including round-tripping everything through files on disk, so
it doubles as a template for plugging in *real* benchmark data collected on
real hardware.

Run with::

    python examples/csv_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.benchmarking import run_benchmark_suite
from repro.core.seer import seer
from repro.sparse.collection import iter_collection


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="seer_pipeline_") as name:
        run_pipeline(Path(name))


def run_pipeline(workdir: Path) -> None:
    """Every stage of the pipeline, its files under ``workdir``."""
    print(f"pipeline working directory: {workdir}")

    # Stage 1+2: GPU benchmarking and feature collection over the
    # representative dataset, written out as the Section III-D CSVs.
    records = list(iter_collection("tiny"))
    suite = run_benchmark_suite(records)
    suite.save(workdir)
    print(f"wrote benchmarking CSVs for {len(suite)} matrices and "
          f"{len(suite.kernel_names)} kernels:")
    for path in sorted(workdir.glob("*.csv"))[:6]:
        print(f"  {path.name}")
    print("  ...")

    # Stage 3: the seer() training call, reading those CSVs back.
    result = seer(
        runtime=workdir / "runtime.csv",
        preprocessing_data=workdir / "preprocessing.csv",
        features=workdir / "features.csv",
        known=workdir / "known.csv",
        header_path=workdir / "seer_models.h",
    )
    print(f"\ntrained models on {result.models.training_size} samples")
    print(f"generated C++ header: {result.header_path}")
    header_lines = result.cpp_header.splitlines()
    print("header preview:")
    for line in header_lines[:12]:
        print(f"  {line}")

    # Stage 4: the returned predictor is immediately deployable.
    record = records[0]
    decision = result.predictor.predict(record.matrix, iterations=19, name=record.name)
    print(f"\nexample selection for {record.name!r} at 19 iterations: "
          f"{decision.selector_choice} path -> {decision.kernel}")


if __name__ == "__main__":
    main()
