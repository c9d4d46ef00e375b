"""Benchmarks of the sweep hot path: the batched measurement loop.

The measurement loop — per-kernel cycle models, launch simulation and
feature extraction over every matrix of the collection — dominates the
measurement stage of a sweep.  These benchmarks pin its cost and the cost
of emitting the standalone selectors.  The loop holds the whole collection
in memory, so it runs on the engine benchmarks' profile (``small`` unless
``SEER_BENCH_PROFILE`` says otherwise), never on ``full``.
"""

from benchmarks.conftest import engine_bench_profile, record
from repro.core.benchmarking import measure_matrix
from repro.core.codegen import models_to_cpp_header, models_to_python_module
from repro.domains import get_domain
from repro.sparse.collection import iter_collection

import pytest


@pytest.fixture(scope="module")
def measure_setup():
    """The collection plus the kernel/pipeline set the sweep measures with."""
    domain = get_domain("spmv")
    collection = list(iter_collection(profile=engine_bench_profile()))
    return collection, domain.default_kernels(), domain.make_pipeline()


def _measure_all(collection, kernels, pipeline):
    for entry in collection:
        measure_matrix(entry.name, entry.matrix, kernels, pipeline)


def test_bench_measure_loop_vectorized(benchmark, measure_setup):
    """Batched feature+timing loop over the whole collection profile."""
    collection, kernels, pipeline = measure_setup
    benchmark(_measure_all, collection, kernels, pipeline)
    record(
        benchmark,
        matrices=len(collection),
        profile=engine_bench_profile(),
    )


def test_bench_codegen_emit(benchmark, paper_sweep):
    """Emitting both standalone selectors from the trained models."""
    models = paper_sweep.models

    def emit():
        return models_to_python_module(models), models_to_cpp_header(models)

    module_source, header_source = benchmark(emit)
    record(
        benchmark,
        python_bytes=len(module_source),
        cpp_bytes=len(header_source),
    )
