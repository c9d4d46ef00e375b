"""Benchmarks of the library's own moving parts (not paper figures).

These measure the wall-clock cost of the reproduction's main operations —
simulating a kernel launch, collecting features, training the three trees —
so regressions in the library itself are visible alongside the reproduced
paper numbers.
"""

import numpy as np

from benchmarks.conftest import record
from repro.core.training import train_seer_models
from repro.domains.spmv import SPMV
from repro.kernels.feature_kernels import FeatureCollector
from repro.sparse.generators import power_law_matrix


def test_bench_kernel_timing_simulation(benchmark):
    """Simulated timing of one adaptive-CSR iteration on a 1M-row matrix."""
    matrix = power_law_matrix(1_000_000, 1_000_000, 10.0, rng=1)
    kernel = SPMV.make_kernel("CSR,A")
    result = benchmark(lambda: kernel.timing(matrix))
    record(benchmark, iteration_ms=result.iteration_ms, rows=matrix.num_rows, nnz=matrix.nnz)


def test_bench_feature_collection_simulation(benchmark):
    """Simulated feature collection on a 1M-row matrix."""
    matrix = power_law_matrix(1_000_000, 1_000_000, 10.0, rng=2)
    collector = FeatureCollector()
    result = benchmark(lambda: collector.collect(matrix))
    record(benchmark, collection_ms=result.collection_time_ms)


def test_bench_spmv_reference(benchmark):
    """Numeric CSR SpMV throughput of the reference implementation."""
    matrix = power_law_matrix(200_000, 200_000, 12.0, rng=3)
    x = np.random.default_rng(0).uniform(-1, 1, matrix.num_cols)
    benchmark(lambda: matrix.spmv(x))
    record(benchmark, nnz=matrix.nnz)


def test_bench_model_training(benchmark, paper_sweep):
    """Training the three Seer decision trees on the full training corpus."""
    models = benchmark.pedantic(
        train_seer_models, args=(paper_sweep.train_set,), rounds=1, iterations=1
    )
    record(
        benchmark,
        training_samples=len(paper_sweep.train_set),
        known_tree_nodes=models.known_model.num_nodes_,
        gathered_tree_nodes=models.gathered_model.num_nodes_,
        selector_tree_nodes=models.selector_model.num_nodes_,
    )
