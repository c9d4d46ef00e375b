#!/usr/bin/env python3
"""Graph-analytics scenario: PageRank over a scale-free web graph.

Graph analytics is the other irregular workload the paper's introduction
motivates: the adjacency matrices of web/social graphs have power-law degree
distributions, which is exactly where padded formats collapse and
load-balanced schedules shine.  This example builds a synthetic web graph,
lets Seer choose the SpMV kernel for the PageRank power iteration, and
compares the simulated end-to-end time against fixed kernel choices.

Run with::

    python examples/graph_pagerank.py
"""

from __future__ import annotations

import numpy as np

from repro import run_sweep
from repro.domains.spmv import SPMV
from repro.kernels.base import UnsupportedKernelError
from repro.sparse.csr import CSRMatrix
from repro.sparse.generators import power_law_matrix

#: Number of PageRank power iterations (known ahead of time by the caller).
PAGERANK_ITERATIONS = 25

#: Damping factor of the PageRank iteration.
DAMPING = 0.85


def build_web_graph(num_pages: int, seed: int = 11) -> CSRMatrix:
    """Column-stochastic adjacency matrix of a synthetic scale-free web graph."""
    adjacency = power_law_matrix(num_pages, num_pages, 18.0, exponent=1.9, rng=seed)
    # Normalize columns so each page distributes its rank equally over its
    # out-links (values become 1 / out-degree of the source column).
    out_degree = np.bincount(adjacency.col_indices, minlength=num_pages).astype(float)
    out_degree[out_degree == 0.0] = 1.0
    values = 1.0 / out_degree[adjacency.col_indices]
    return CSRMatrix(
        num_rows=adjacency.num_rows,
        num_cols=adjacency.num_cols,
        row_offsets=adjacency.row_offsets,
        col_indices=adjacency.col_indices,
        values=values,
    )


def pagerank(matrix: CSRMatrix, kernel, iterations: int) -> np.ndarray:
    """Power iteration using ``kernel`` for the SpMV."""
    num_pages = matrix.num_rows
    rank = np.full(num_pages, 1.0 / num_pages)
    teleport = (1.0 - DAMPING) / num_pages
    for _ in range(iterations):
        spread = kernel.run(matrix, rank, iterations=1).y
        rank = teleport + DAMPING * spread
    return rank / rank.sum()


def main() -> None:
    print("training the Seer predictor (medium synthetic collection) ...")
    sweep = run_sweep(profile="medium")
    predictor = sweep.predictor

    graph = build_web_graph(60_000)
    print(f"web graph: {graph.num_rows:,} pages, {graph.nnz:,} links")
    degrees = graph.row_lengths()
    print(f"in-degree: mean {degrees.mean():.1f}, max {degrees.max()} "
          "(heavy-tailed, as real web graphs are)\n")

    decision = predictor.predict(graph, iterations=PAGERANK_ITERATIONS, name="web_graph")
    print(f"Seer decision: {decision.selector_choice} path -> {decision.kernel} "
          f"(selection overhead {decision.overhead_ms:.3f} ms)")

    totals = {}
    for kernel in SPMV.default_kernels():
        try:
            totals[kernel.name] = kernel.timing(graph).total_ms(PAGERANK_ITERATIONS)
        except UnsupportedKernelError:
            totals[kernel.name] = float("inf")
    selected_ms = totals[decision.kernel] + decision.overhead_ms
    best = min(totals, key=totals.get)
    worst = max(totals, key=lambda k: totals[k] if np.isfinite(totals[k]) else -1.0)
    print(f"simulated time for {PAGERANK_ITERATIONS} iterations:")
    print(f"  Seer selection : {selected_ms:10.3f} ms ({decision.kernel})")
    print(f"  best fixed     : {totals[best]:10.3f} ms ({best})")
    finite_worst = totals[worst] if np.isfinite(totals[worst]) else max(
        t for t in totals.values() if np.isfinite(t)
    )
    print(f"  worst fixed    : {finite_worst:10.3f} ms ({worst})")

    kernel = SPMV.make_kernel(decision.kernel)
    rank = pagerank(graph, kernel, PAGERANK_ITERATIONS)
    top = np.argsort(rank)[::-1][:5]
    print("\ntop-5 pages by PageRank:")
    for page in top:
        print(f"  page {page:7d}  rank {rank[page]:.6f}  in-degree {degrees[page]}")


if __name__ == "__main__":
    main()
