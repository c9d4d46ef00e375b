"""Benchmarks of the ingestion + raw-matrix serving layer.

These pin the cost of the ``repro serve`` hot path: Matrix-Market parsing,
the content-addressed ingest cache (a warm hit must stay far cheaper than a
cold parse) and the end-to-end decision loop over an ingested corpus.
"""

import pytest

from benchmarks.conftest import record
from repro.pipeline.sources import discover_sources
from repro.serving.ingest import IngestCache, ingest_matrix, serve_sources
from repro.sparse.generators import banded_matrix, power_law_matrix, regular_matrix
from repro.sparse.io import write_matrix_market

#: (name, builder) recipes of the benchmark corpus — a small structural mix.
_CORPUS = (
    ("pl_a", lambda: power_law_matrix(2048, 2048, 8.0, rng=1)),
    ("pl_b", lambda: power_law_matrix(1024, 1024, 16.0, rng=2)),
    ("band_a", lambda: banded_matrix(2048, 9, rng=3)),
    ("band_b", lambda: banded_matrix(1024, 17, rng=4)),
    ("reg_a", lambda: regular_matrix(2048, 2048, 8, rng=5)),
    ("reg_b", lambda: regular_matrix(1024, 1024, 16, rng=6)),
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A directory of ``.mtx`` files standing in for a SuiteSparse download."""
    directory = tmp_path_factory.mktemp("ingest-corpus")
    for name, builder in _CORPUS:
        write_matrix_market(builder(), directory / f"{name}.mtx")
    return directory


def _parse_all(sources, cache=None):
    return [ingest_matrix(source, cache)[0] for source in sources]


def test_bench_ingest_cold_parse(benchmark, corpus_dir):
    """Reference: parse every Matrix-Market file with no cache tier."""
    sources = discover_sources(corpus_dir)
    matrices = benchmark(_parse_all, sources)
    record(benchmark, matrices=len(matrices), nnz=sum(m.nnz for m in matrices))


def test_bench_ingest_warm_cache(benchmark, corpus_dir, tmp_path):
    """The content-addressed ``.csr`` container tier serving the same corpus."""
    sources = discover_sources(corpus_dir)
    cache = IngestCache(tmp_path / "cache")
    _parse_all(sources, cache)  # populate outside the timed region
    matrices = benchmark(_parse_all, sources, cache)
    record(benchmark, matrices=len(matrices))


def test_bench_serve_corpus(benchmark, corpus_dir, tmp_path, paper_sweep):
    """End-to-end serving: warm ingest cache, featurize, route, execute."""
    cache_dir = tmp_path / "cache"
    models = paper_sweep.models
    serve_sources(corpus_dir, models, cache_dir=cache_dir)  # warm the cache
    result = benchmark(serve_sources, corpus_dir, models, cache_dir=cache_dir)
    gathered = sum(1 for d in result.decisions if d.selector_choice == "gathered")
    record(benchmark, workloads=len(result.decisions), gathered_routed=gathered)
    assert len(result.decisions) == len(_CORPUS)
