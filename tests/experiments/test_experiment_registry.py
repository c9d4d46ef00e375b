"""Tests for the experiment registry, context and artifact machinery."""

import json
import math

import pytest

from repro.domains import get_domain
from repro.experiments import registry as registry_module
from repro.experiments.registry import (
    ExperimentArtifact,
    ExperimentContext,
    experiment_names,
    experiments_for,
    format_cell,
    get_experiment,
    register_experiment,
    run_experiment,
    write_artifact,
)

#: Paper order the suite registers in.
EXPECTED_ORDER = (
    "fig1",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "table3",
    "accuracy",
    "spmm_amortization",
)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def test_registry_knows_every_experiment_in_paper_order():
    assert experiment_names() == EXPECTED_ORDER


def test_spec_metadata():
    fig1 = get_experiment("fig1")
    assert fig1.needs_sweep and fig1.domains is None
    fig6 = get_experiment("fig6")
    assert not fig6.needs_sweep
    fig7 = get_experiment("fig7")
    assert fig7.domains == ("spmv",)
    amortization = get_experiment("spmm_amortization")
    assert amortization.domains == ("spmm",) and not amortization.needs_sweep


def test_unknown_experiment_suggests_close_matches():
    with pytest.raises(KeyError, match="fig1"):
        get_experiment("fig11")


def test_duplicate_registration_is_an_error():
    @register_experiment("registry_test_experiment", title="t", needs_sweep=False)
    def _runner(context):
        return None

    try:
        with pytest.raises(ValueError, match="already registered"):
            register_experiment("registry_test_experiment", title="t")(_runner)
    finally:
        registry_module._EXPERIMENTS.pop("registry_test_experiment", None)
    assert "registry_test_experiment" not in experiment_names()


def test_experiments_for_filters_by_domain():
    spmv_names = [spec.name for spec in experiments_for("spmv")]
    spmm_names = [spec.name for spec in experiments_for("spmm")]
    assert "fig7" in spmv_names and "fig7" not in spmm_names
    assert "spmm_amortization" in spmm_names and "spmm_amortization" not in spmv_names
    for name in ("fig1", "fig5", "fig6", "table1", "table3", "accuracy"):
        assert name in spmv_names and name in spmm_names


def test_run_experiment_rejects_unsupported_domain():
    context = ExperimentContext(domain="spmm", profile="tiny")
    with pytest.raises(ValueError, match="does not support"):
        run_experiment("fig7", context)


def test_capability_predicate_filters_incapable_domains():
    """fig6 is only offered to domains that declare a reference kernel."""
    from repro.domains import ProblemDomain, register_domain, unregister_domain

    class _NoCostKernelDomain(ProblemDomain):
        name = "registry-test-nocost"

    domain = _NoCostKernelDomain()
    register_domain(domain)
    try:
        assert domain.feature_cost_kernel is None
        names = [spec.name for spec in experiments_for(domain)]
        assert "fig6" not in names  # filtered, not crashed mid-suite
        assert "fig1" in names
        with pytest.raises(ValueError, match="does not support"):
            run_experiment("fig6", ExperimentContext(domain=domain))
    finally:
        unregister_domain(domain.name)


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------
def test_context_resolves_domain_and_caches_sweep(spmv_tiny_context):
    assert spmv_tiny_context.domain is get_domain("spmv")
    assert spmv_tiny_context.sweep() is spmv_tiny_context.sweep()
    assert spmv_tiny_context.sweep().domain_name == "spmv"


def test_context_defaults():
    context = ExperimentContext()
    assert context.domain.name == "spmv"
    assert context.engine is None
    assert "spmv" in repr(context)


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def test_artifact_rejects_ragged_rows():
    with pytest.raises(ValueError, match="cells"):
        ExperimentArtifact(columns=("a", "b"), rows=[(1, 2), (3,)])


def test_format_cell_is_deterministic():
    assert format_cell("x") == "x"
    assert format_cell(3) == "3"
    assert format_cell(True) == "yes" and format_cell(False) == "no"
    assert format_cell(1.5) == "1.5"
    assert format_cell(float("inf")) == "inf"
    assert format_cell(float("nan")) == "nan"
    # repr round-trips, so parsing the cell recovers the exact value
    value = 0.1 + 0.2
    assert float(format_cell(value)) == value


def test_artifact_csv_layout():
    artifact = ExperimentArtifact(
        columns=("name", "value"), rows=[("a", 1.25), ("b", math.inf)]
    )
    assert artifact.to_csv() == "name,value\na,1.25\nb,inf\n"
    assert artifact.to_csv() == artifact.to_csv()


def test_write_artifact_emits_csv_and_manifest(tmp_path):
    context = ExperimentContext(domain="spmv", profile="tiny")
    spec = get_experiment("table1")  # no sweep needed: cheap
    result = run_experiment(spec, context)
    paths = write_artifact(spec, context, result, tmp_path)
    assert paths["data"] == tmp_path / "spmv" / "table1" / "data.csv"
    header = paths["data"].read_text().splitlines()[0]
    assert header.split(",")[0] == "feature"
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["experiment"] == "table1"
    assert manifest["domain"]["name"] == "spmv"
    assert manifest["profile"] is None  # table1 never runs a sweep
    assert manifest["row_count"] == 7
    assert manifest["summary"]["seer_supports_all"] is True
    assert manifest["engine"] is None  # context ran without an engine
    assert "sweep_summary" not in manifest


def test_write_artifact_records_engine_config_without_stats(tmp_path):
    from repro.bench.engine import SweepEngine

    engine = SweepEngine(jobs=2, cache_dir=tmp_path / "cache")
    context = ExperimentContext(domain="spmv", profile="tiny", engine=engine)
    spec = get_experiment("table1")
    paths = write_artifact(spec, context, run_experiment(spec, context), tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["engine"]["jobs"] == 2
    assert manifest["engine"]["cache_dir"] == str(tmp_path / "cache")
    # Activity counters vary between cold and warm runs and must stay out.
    assert "stats" not in manifest["engine"]


def test_write_artifact_includes_sweep_summary_for_sweep_experiments(
    tmp_path, spmv_tiny_context
):
    spec = get_experiment("accuracy")
    result = run_experiment(spec, spmv_tiny_context)
    paths = write_artifact(spec, spmv_tiny_context, result, tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["profile"] == "tiny"
    summary = manifest["sweep_summary"]
    assert summary["samples"] == len(spmv_tiny_context.sweep().test_report.rows)
    assert 0.0 <= summary["known_accuracy"] <= 1.0
    assert summary["selector_slowdown_vs_oracle"] >= 1.0


def test_registry_module_exposes_format_version():
    assert isinstance(registry_module.ARTIFACT_FORMAT_VERSION, int)
