"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The expensive
part — benchmarking the kernel set over the synthetic collection and training
the models — is done once per session on the profile selected by the
``SEER_BENCH_PROFILE`` environment variable (default: ``full``, the largest
synthetic stand-in for SuiteSparse).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.engine import engine_from_env
from repro.bench.runner import run_sweep

#: Environment variable selecting the collection profile for the benchmarks.
PROFILE_ENV_VAR = "SEER_BENCH_PROFILE"


def bench_profile() -> str:
    """Collection profile used by the benchmark harness."""
    return os.environ.get(PROFILE_ENV_VAR, "full")


#: Profiles with enough structural diversity to back the paper-shape
#: quality assertions (model accuracies, selector-vs-Oracle bounds).  The
#: ``tiny``/``small`` profiles exist for quick smoke runs and CI timing
#: guards; models trained on a couple dozen matrices cannot be held to the
#: paper's quality bar.
REPRESENTATIVE_PROFILES = ("medium", "full")


def profile_is_representative() -> bool:
    """Whether model-quality assertions are meaningful on this profile."""
    return bench_profile() in REPRESENTATIVE_PROFILES


def engine_bench_profile() -> str:
    """Profile for the engine's own benchmarks.

    The engine benchmarks run the benchmarking stage several times over
    (serial reference, parallel run, cache population), so they default to
    the cheaper ``small`` profile instead of ``full``; an explicit
    ``SEER_BENCH_PROFILE`` still applies to them too.
    """
    return os.environ.get(PROFILE_ENV_VAR, "small")


@pytest.fixture(scope="session")
def paper_sweep():
    """The end-to-end pipeline run shared by every figure/table benchmark.

    The same ``SEER_JOBS``/``SEER_CACHE_DIR`` variables the CLI honours
    also parallelize/cache this fixture — only the sweep
    *production* is affected, never the quantities being benchmarked.
    """
    return run_sweep(profile=bench_profile(), engine=engine_from_env())


def record(benchmark, **extra_info) -> None:
    """Attach reproduced numbers to the benchmark's ``extra_info``."""
    for key, value in extra_info.items():
        if isinstance(value, float):
            benchmark.extra_info[key] = round(value, 6)
        else:
            benchmark.extra_info[key] = value
