#!/usr/bin/env python3
"""Iterative solver scenario: preprocessing amortization in practice.

SpMV is the core routine of Krylov solvers, where the same matrix is applied
for tens or hundreds of iterations.  The paper's multi-iteration study
(Fig. 7) shows that kernels with a preprocessing stage (Adaptive-CSR,
rocSPARSE) only pay off once the iteration count amortizes that setup cost —
and that Seer can predict where the crossover lies because the iteration
count is a trivially known feature.

This example runs a Jacobi-style iteration ``x_{k+1} = (b - A x_k) * d`` on
an electromagnetic-style matrix and compares three strategies:

* the kernel Seer selects when told the solve runs for 1 iteration,
* the kernel Seer selects when told the solve runs for many iterations,
* every fixed kernel choice, for reference.

Run with::

    python examples/iterative_solver.py
"""

from __future__ import annotations

import numpy as np

from repro import run_sweep
from repro.domains.spmv import SPMV
from repro.kernels.base import UnsupportedKernelError
from repro.sparse.collection import archetype

#: Iteration counts compared by the example.
ITERATION_COUNTS = (1, 19, 100)


def make_diagonally_dominant(matrix):
    """Shift the diagonal so Jacobi iteration on the matrix converges."""
    from repro.sparse.coo import COOMatrix
    from repro.sparse.csr import CSRMatrix

    coo = matrix.to_coo()
    row_sums = np.zeros(matrix.num_rows)
    np.add.at(row_sums, coo.rows, np.abs(coo.values))
    diag = np.arange(matrix.num_rows, dtype=np.int64)
    shifted = COOMatrix(
        num_rows=matrix.num_rows,
        num_cols=matrix.num_cols,
        rows=np.concatenate([coo.rows, diag]),
        cols=np.concatenate([coo.cols, diag]),
        values=np.concatenate([coo.values, 1.1 * row_sums + 1.0]),
    )
    return CSRMatrix.from_coo(shifted.deduplicated())


def jacobi_sweeps(matrix, diagonal, b, iterations, kernel):
    """Run ``iterations`` Jacobi sweeps using ``kernel`` for the SpMV."""
    x = np.zeros(matrix.num_cols)
    for _ in range(iterations):
        y = kernel.run(matrix, x, iterations=1).y
        x = x + (b - y) / diagonal
    return x


def main() -> None:
    print("training the Seer predictor (medium synthetic collection) ...")
    sweep = run_sweep(profile="medium")
    predictor = sweep.predictor

    record = archetype("CurlCurl_3_like", scale=16384)
    matrix = make_diagonally_dominant(record.matrix)
    # Extract the diagonal in one vectorized pass (Jacobi needs it).
    coo = matrix.to_coo()
    diag_mask = coo.rows == coo.cols
    diagonal = np.zeros(matrix.num_rows)
    diagonal[coo.rows[diag_mask]] = coo.values[diag_mask]
    b = np.ones(matrix.num_rows)
    print(f"matrix: {record.name} (diagonally shifted)  "
          f"rows={matrix.num_rows:,}  nnz={matrix.nnz:,}\n")

    kernels = SPMV.default_kernels()
    for iterations in ITERATION_COUNTS:
        decision = predictor.predict(matrix, iterations=iterations, name=record.name)
        selected = SPMV.make_kernel(decision.kernel)
        selected_timing = selected.timing(matrix)
        selected_total = decision.overhead_ms + selected_timing.total_ms(iterations)

        totals = {}
        for kernel in kernels:
            try:
                totals[kernel.name] = kernel.timing(matrix).total_ms(iterations)
            except UnsupportedKernelError:
                continue
        best_kernel = min(totals, key=totals.get)

        print(f"--- planned iterations: {iterations}")
        print(f"    Seer path / kernel : {decision.selector_choice} -> {decision.kernel}")
        print(f"    Seer total (sim)   : {selected_total:.3f} ms")
        print(f"    best fixed kernel  : {best_kernel} ({totals[best_kernel]:.3f} ms)")
        worst_kernel = max(totals, key=totals.get)
        print(f"    worst fixed kernel : {worst_kernel} ({totals[worst_kernel]:.3f} ms)")

    # Demonstrate that the numerics are real: run a short solve with the
    # kernel selected for the multi-iteration case.
    decision = predictor.predict(matrix, iterations=ITERATION_COUNTS[-1], name=record.name)
    kernel = SPMV.make_kernel(decision.kernel)
    x = jacobi_sweeps(matrix, diagonal, b, 25, kernel)
    residual = np.linalg.norm(b - matrix.spmv(x)) / np.linalg.norm(b)
    print(f"\n25 Jacobi sweeps with {decision.kernel}: relative residual {residual:.2e}")


if __name__ == "__main__":
    main()
