"""Guard: no benchmark materializes the ``full`` collection in memory.

The tier-1 command (``pytest`` from the repository root) also collects
``benchmarks/``, whose profile defaults to ``full``.  ``iter_collection``
streams one matrix at a time, but ``list(iter_collection(...))`` holds every
matrix of a profile at once — about 9.4 GB of CSR arrays at ``full`` — so a
benchmark fixture doing that with ``bench_profile()`` or ``"full"`` gets the
whole suite OOM-killed on an 8 GB machine.  Such fixtures use
``engine_bench_profile()`` (default ``small``) or consume the iterator
without materializing it.
"""

import ast
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _call_name(node) -> str:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_full_profile(node) -> bool:
    """Whether a profile argument is ``"full"`` or a ``bench_profile()`` call."""
    if isinstance(node, ast.Constant):
        return node.value == "full"
    if isinstance(node, ast.Call):
        return _call_name(node) == "bench_profile"
    return False


def full_profile_builds(source: str, filename: str = "<benchmark>") -> list:
    """``file:line`` of every ``list(iter_collection(...))`` on the full profile."""
    hits = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and _call_name(node) == "list" and node.args):
            continue
        inner = node.args[0]
        if not (isinstance(inner, ast.Call) and _call_name(inner) == "iter_collection"):
            continue
        profiles = inner.args[:1] + [
            keyword.value for keyword in inner.keywords if keyword.arg == "profile"
        ]
        if any(_is_full_profile(profile) for profile in profiles):
            hits.append(f"{filename}:{node.lineno}")
    return hits


@pytest.mark.parametrize(
    "source",
    [
        "list(iter_collection(profile=bench_profile()))",
        "list(iter_collection(conftest.bench_profile()))",
        "list(collection.iter_collection('full', base_seed=3))",
    ],
)
def test_guard_flags_full_profile_builds(source):
    assert full_profile_builds(source)


@pytest.mark.parametrize(
    "source",
    [
        "list(iter_collection(profile=engine_bench_profile()))",
        "list(iter_collection('tiny'))",
        "iter_collection(bench_profile())",
    ],
)
def test_guard_allows_bounded_builds(source):
    assert not full_profile_builds(source)


def test_no_benchmark_builds_the_full_collection_in_memory():
    hits = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        hits += full_profile_builds(path.read_text(encoding="utf-8"), path.name)
    assert not hits, f"full collection materialized in memory: {hits}"
