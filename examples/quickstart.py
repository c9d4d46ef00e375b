#!/usr/bin/env python3
"""Quickstart: train a Seer predictor and use it to pick SpMV kernels.

This walks the full Seer flow of the paper on a small synthetic collection:

1. benchmark every kernel variant of Table II over a representative dataset
   (the GPU benchmarking stage),
2. run the feature-collection kernels (the feature-collection stage),
3. train the known, gathered and classifier-selection decision trees,
4. deploy the predictor and let it pick kernels for new matrices,
5. export the models as a C++ header, exactly like the paper's tooling.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import run_sweep
from repro.core.codegen import write_cpp_header
from repro.sparse.generators import power_law_matrix, regular_matrix


def main() -> None:
    # Stages 1-3: benchmark the synthetic collection and train the models.
    print("benchmarking the synthetic collection and training Seer models ...")
    sweep = run_sweep(profile="small")
    report = sweep.test_report
    print(f"  matrices benchmarked : {len(sweep.suite)}")
    print(f"  training samples     : {len(sweep.train_set)}")
    print(f"  known / gathered acc : {report.accuracy('Known'):.2f} / "
          f"{report.accuracy('Gathered'):.2f}")
    print(f"  selector vs Oracle   : {report.slowdown_vs_oracle():.2f}x aggregate runtime")

    # Stage 4: deploy the predictor on matrices it has never seen.
    predictor = sweep.predictor
    workloads = {
        "uniform stencil (ELL-friendly)": regular_matrix(16_384, 16_384, 8, rng=1),
        "web graph (heavy-tailed rows)": power_law_matrix(16_384, 16_384, 16.0, rng=2),
    }
    for description, matrix in workloads.items():
        decision = predictor.predict(matrix, iterations=1, name=description)
        x = np.ones(matrix.num_cols)
        result = predictor.execute(matrix, x, iterations=1, name=description)
        print(f"\n  workload: {description}")
        print(f"    selector path     : {decision.selector_choice}"
              f" (collection {decision.collection_time_ms:.3f} ms)")
        print(f"    selected kernel   : {decision.kernel}")
        print(f"    simulated runtime : {result.total_ms:.3f} ms "
              f"(y[0] = {result.run.y[0]:.3f})")

    # Stage 5: export the models for embedding in a C++ library.
    header = write_cpp_header(sweep.models, "seer_models.h")
    print(f"\nwrote generated decision trees to {header}")
    print("\nselector decision tree (explainable, as in Section III-C):")
    print(sweep.models.selector_model.export_text())


if __name__ == "__main__":
    main()
