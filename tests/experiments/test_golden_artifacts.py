"""Golden-artifact regression tests for the SpMV experiment suite.

Every SpMV experiment's tiny-profile artifact CSV is checked in under
``goldens/``; these tests assert byte-stable reproduction through the
registry, catching silent numeric or formatting drift the structural smoke
tests cannot see.  They also assert the registry path produces exactly what
a direct call of the driver functions produces — the registry changes the
plumbing, not the numbers.

Regenerate the goldens after an *intentional* change with::

    SEER_UPDATE_GOLDENS=1 python -m pytest tests/experiments/test_golden_artifacts.py
"""

import os
from pathlib import Path

import pytest

from repro.experiments import (
    run_accuracy_table,
    run_fig1,
    run_fig5,
    run_fig6,
    run_fig7,
    run_table1,
    run_table3,
)
from repro.experiments.registry import experiments_for, get_experiment, run_experiment

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Every experiment the SpMV domain supports, i.e. all ported drivers.
SPMV_EXPERIMENTS = ("fig1", "fig5", "fig6", "fig7", "table1", "table3", "accuracy")


def test_every_spmv_experiment_has_a_golden():
    """A new SpMV-capable experiment must check in a golden alongside."""
    registered = {spec.name for spec in experiments_for("spmv")}
    assert registered == set(SPMV_EXPERIMENTS)


def _registry_csv(name: str, context) -> str:
    result = run_experiment(get_experiment(name), context)
    return result.to_artifact().to_csv()


@pytest.mark.parametrize("name", SPMV_EXPERIMENTS)
def test_spmv_artifact_matches_golden(name, spmv_tiny_context):
    csv_text = _registry_csv(name, spmv_tiny_context)
    golden = GOLDEN_DIR / f"{name}.csv"
    if os.environ.get("SEER_UPDATE_GOLDENS"):
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_bytes(csv_text.encode("utf-8"))
        pytest.skip(f"regenerated golden {golden.name}")
    assert golden.exists(), (
        f"missing golden {golden}; regenerate with SEER_UPDATE_GOLDENS=1"
    )
    assert csv_text.encode("utf-8") == golden.read_bytes(), (
        f"artifact of {name!r} drifted from its golden; if the change is "
        "intentional, regenerate with SEER_UPDATE_GOLDENS=1"
    )


def test_registry_is_bit_identical_to_legacy_drivers(spmv_tiny_context):
    """The registry wrappers reproduce direct driver calls on the same sweep."""
    context = spmv_tiny_context
    sweep = context.sweep()

    from repro.experiments.fig6_feature_cost import row_counts_for_profile

    legacy = {
        "fig1": run_fig1(sweep),
        "fig5": run_fig5(sweep),
        "fig7": run_fig7(sweep),
        "table1": run_table1(),
        "table3": run_table3(sweep),
        "accuracy": run_accuracy_table(sweep),
        # The suite scales the fig6 row grid to the profile; the driver
        # itself is unchanged, so the same grid must give the same result.
        "fig6": run_fig6(row_counts=row_counts_for_profile(context.profile)),
    }
    for name, legacy_result in legacy.items():
        registry_result = run_experiment(get_experiment(name), context)
        assert registry_result.render() == legacy_result.render(), name
        assert (
            registry_result.to_artifact().to_csv()
            == legacy_result.to_artifact().to_csv()
        ), name
