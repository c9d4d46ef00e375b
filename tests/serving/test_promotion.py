"""Promotion tests: the pointer, the shadow gate, and the closed loop.

The end-to-end test drives the whole feedback → retrain → shadow-score →
promote cycle twice in one run: a strong candidate must beat a crippled
incumbent and flip the pointer, then a crippled candidate must be refused
against the newly promoted incumbent — and the serving :class:`ModelHub`
must follow the flip without a restart.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.core.dataset import TrainingDataset
from repro.core.training import TrainingConfig, train_seer_models
from repro.serving.artifacts import ModelArtifactError
from repro.serving.feedback import feedback_from_corpus
from repro.serving.promotion import (
    PROMOTION_FILE_NAME,
    candidate_key_for,
    promote_from_feedback,
    split_feedback,
)
from repro.serving.registry import (
    CURRENT_POINTER_FILE_NAME,
    MANIFEST_FILE_NAME,
    ModelRegistry,
)
from repro.serving.service import ModelHub, ServiceConfig
from repro.sparse.generators import (
    banded_matrix,
    diagonal_matrix,
    empty_row_heavy_matrix,
    power_law_matrix,
    regular_matrix,
    road_network_matrix,
    skewed_matrix,
    uniform_random_matrix,
)
from repro.sparse.io import write_matrix_market

#: Deliberately crippled training configuration: depth-1 stumps make a
#: predictably bad selector for the refusal half of the end-to-end test.
WEAK_CONFIG = TrainingConfig(
    known_depth=1,
    gathered_depth=1,
    selector_depth=1,
    selector_cross_fit=0,
)


def _sabotaged_models(dataset: TrainingDataset):
    """Models trained to pick each sample's *worst* kernel — a guaranteed-
    bad incumbent for the acceptance half of the end-to-end test."""
    samples = []
    for sample in dataset.samples:
        finite = {
            kernel: ms
            for kernel, ms in sample.kernel_total_ms.items()
            if math.isfinite(ms)
        }
        samples.append(
            replace(sample, best_kernel=max(finite, key=finite.get))
        )
    sabotaged = TrainingDataset(
        kernel_names=dataset.kernel_names,
        samples=samples,
        known_feature_names=dataset.known_feature_names,
        gathered_feature_names=dataset.gathered_feature_names,
    )
    return train_seer_models(sabotaged, None)


def _registry_manifest(registry, key: str):
    """The ``manifest.json`` of the ``spmv/tiny`` artifact ``key``, or ``None``."""
    path = registry.artifact_dir("spmv", "tiny", key) / MANIFEST_FILE_NAME
    return json.loads(path.read_text()) if path.is_file() else None


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Eight structurally diverse matrices, so the feedback split leaves a
    held-out slice no single-kernel stump can ace."""
    directory = tmp_path_factory.mktemp("promotion-corpus")
    matrices = {
        "band": banded_matrix(128, 7, rng=1),
        "diag": diagonal_matrix(128, rng=9),
        "empty": empty_row_heavy_matrix(192, 192, 0.5, 10, rng=8),
        "pl": power_law_matrix(200, 200, 5.0, rng=3),
        "reg": regular_matrix(96, 96, 4, rng=2),
        "road": road_network_matrix(256, rng=10),
        "skew": skewed_matrix(180, 180, 3, 4, 80, rng=4),
        "unif": uniform_random_matrix(150, 150, 0.03, rng=5),
    }
    for name, matrix in matrices.items():
        write_matrix_market(matrix, directory / f"{name}.mtx")
    return directory


# ----------------------------------------------------------------------
# The current pointer
# ----------------------------------------------------------------------
def test_promote_requires_a_registered_artifact(tmp_path):
    registry = ModelRegistry(tmp_path)
    with pytest.raises(ValueError, match="needs the key"):
        registry.promote("spmv", "tiny", key="")
    with pytest.raises(ModelArtifactError, match="no model.json"):
        registry.promote("spmv", "tiny", key="nonexistent")


def test_promote_resolve_roundtrip(tiny_sweep, tmp_path):
    registry = ModelRegistry(tmp_path)
    path = registry.save(tiny_sweep.models, domain="spmv", profile="tiny")
    key = path.parent.name
    assert registry.resolve_current("spmv", "tiny") is None  # no pointer yet
    pointer = registry.promote("spmv", "tiny", key=key, extra={"parent": "x"})
    assert pointer.name == CURRENT_POINTER_FILE_NAME
    assert registry.resolve_current("spmv", "tiny") == key
    assert registry.current_model_path("spmv", "tiny") == path
    payload = json.loads(pointer.read_text())
    assert payload["key"] == key and payload["parent"] == "x"


def test_corrupt_or_dangling_pointer_resolves_to_none(tiny_sweep, tmp_path):
    registry = ModelRegistry(tmp_path)
    path = registry.save(tiny_sweep.models, domain="spmv", profile="tiny")
    key = path.parent.name
    pointer = registry.promote("spmv", "tiny", key=key)
    pointer.write_text("{ torn json")
    assert registry.resolve_current("spmv", "tiny") is None
    registry.promote("spmv", "tiny", key=key)
    path.unlink()  # now the pointer dangles
    assert registry.resolve_current("spmv", "tiny") is None
    assert registry.current_model_path("spmv", "tiny") is None


# ----------------------------------------------------------------------
# Split and key derivation
# ----------------------------------------------------------------------
def test_split_feedback_interleaves_deterministically(
    tiny_sweep, corpus
):
    feedback = feedback_from_corpus(tiny_sweep.models, corpus, domain="spmv")
    append_rows, holdout = split_feedback(feedback.dataset)
    assert len(append_rows) == 4 and len(holdout) == 4
    names = [s.name for s in feedback.dataset.samples]
    assert [s.name for s in append_rows.samples] == names[0::2]
    assert [s.name for s in holdout.samples] == names[1::2]
    again_a, again_h = split_feedback(feedback.dataset)
    assert [s.name for s in again_a.samples] == [s.name for s in append_rows.samples]
    assert [s.name for s in again_h.samples] == [s.name for s in holdout.samples]


def test_split_feedback_needs_two_rows(tiny_sweep, corpus):
    feedback = feedback_from_corpus(tiny_sweep.models, corpus, domain="spmv")
    with pytest.raises(ValueError, match="at least 2 feedback rows"):
        split_feedback(feedback.dataset.subset([0]))


def test_candidate_key_is_stable_and_config_sensitive(tiny_sweep, corpus):
    feedback = feedback_from_corpus(tiny_sweep.models, corpus, domain="spmv")
    key = candidate_key_for("parent-key", feedback.dataset, None)
    assert key == candidate_key_for("parent-key", feedback.dataset, None)
    assert key != candidate_key_for("other-parent", feedback.dataset, None)
    assert key != candidate_key_for("parent-key", feedback.dataset, WEAK_CONFIG)


# ----------------------------------------------------------------------
# The closed loop, end to end
# ----------------------------------------------------------------------
def test_promotion_accepts_better_and_refuses_worse(tiny_sweep, corpus, tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    weak_models = _sabotaged_models(tiny_sweep.train_set)
    registry.save(
        weak_models,
        domain="spmv",
        profile="tiny",
        key="weak-incumbent",
    )
    registry.promote("spmv", "tiny", key="weak-incumbent")

    # Live traffic served by the weak incumbent, measured against the oracle.
    feedback = feedback_from_corpus(
        weak_models, corpus, domain="spmv", iterations=3
    )

    # A hub resolving through the registry, kept alive across the flip.
    hub = ModelHub(
        ServiceConfig(
            registry=str(tmp_path / "registry"), domain="spmv", profile="tiny"
        )
    )
    _, artifact_before = hub.resolve(None)
    assert "weak-incumbent" in str(artifact_before.path)

    # Round 1: a full-strength candidate must win and flip the pointer.
    accepted = promote_from_feedback(
        registry,
        feedback,
        domain="spmv",
        profile="tiny",
        iteration_counts=(1, 19),
        out_dir=tmp_path / "accepted",
    )
    assert accepted.candidate_wins and accepted.promoted
    assert accepted.candidate.slowdown < accepted.incumbent.slowdown
    assert registry.resolve_current("spmv", "tiny") == accepted.candidate.key
    manifest = json.loads(
        (tmp_path / "accepted" / PROMOTION_FILE_NAME).read_text()
    )
    assert manifest["promoted"] is True
    assert (
        manifest["candidate"]["shadow"]["selector_slowdown_vs_oracle"]
        < manifest["incumbent"]["shadow"]["selector_slowdown_vs_oracle"]
    )
    # The candidate's registry manifest records its provenance and shadow.
    candidate_manifest = _registry_manifest(registry, accepted.candidate.key)
    assert candidate_manifest["parent"] == "weak-incumbent"
    assert candidate_manifest["promotion_candidate"] is True
    assert "evaluation" in candidate_manifest

    # The live hub hot-reloads the promoted model — no restart, no rebuild.
    _, artifact_after = hub.resolve(None)
    assert artifact_after.path != artifact_before.path
    assert accepted.candidate.key in str(artifact_after.path)

    # Round 2: a crippled candidate must be refused; nothing may move.
    refused = promote_from_feedback(
        registry,
        feedback,
        domain="spmv",
        profile="tiny",
        iteration_counts=(1, 19),
        config=WEAK_CONFIG,
        out_dir=tmp_path / "refused",
    )
    assert not refused.candidate_wins and not refused.promoted
    assert "refused" in refused.reason
    assert registry.resolve_current("spmv", "tiny") == accepted.candidate.key
    manifest = json.loads(
        (tmp_path / "refused" / PROMOTION_FILE_NAME).read_text()
    )
    assert manifest["candidate_wins"] is False and manifest["promoted"] is False
    # The refused candidate is still registered for audit, unpromoted.
    assert _registry_manifest(registry, refused.candidate.key)
    _, artifact_still = hub.resolve(None)
    assert artifact_still.path == artifact_after.path


def test_dry_run_writes_nothing_to_the_registry(tiny_sweep, corpus, tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    weak_models = _sabotaged_models(tiny_sweep.train_set)
    registry.save(
        weak_models,
        domain="spmv",
        profile="tiny",
        key="weak-incumbent",
    )
    registry.promote("spmv", "tiny", key="weak-incumbent")
    feedback = feedback_from_corpus(weak_models, corpus, domain="spmv")
    result = promote_from_feedback(
        registry,
        feedback,
        domain="spmv",
        profile="tiny",
        iteration_counts=(1, 19),
        dry_run=True,
        out_dir=tmp_path / "dry",
    )
    assert result.candidate_wins and not result.promoted and result.dry_run
    assert registry.resolve_current("spmv", "tiny") == "weak-incumbent"
    assert _registry_manifest(registry, result.candidate.key) is None
    manifest = json.loads((tmp_path / "dry" / PROMOTION_FILE_NAME).read_text())
    assert manifest["dry_run"] is True and manifest["promoted"] is False


def test_promotion_without_incumbent_points_at_train(tmp_path, tiny_sweep, corpus):
    registry = ModelRegistry(tmp_path / "registry")
    feedback = feedback_from_corpus(tiny_sweep.models, corpus, domain="spmv")
    with pytest.raises(ModelArtifactError, match="repro train"):
        promote_from_feedback(
            registry, feedback, domain="spmv", profile="tiny",
            iteration_counts=(1, 19),
        )


# ----------------------------------------------------------------------
# PROM001: pointer writes must be atomic
# ----------------------------------------------------------------------
def test_prom001_flags_direct_writes_in_the_registry_module():
    from repro.analysis import lint_source

    text = "from pathlib import Path\nPath('current.json').write_text('{}')\n"
    findings = lint_source(text, module="serving/registry.py")
    assert any(f.rule == "PROM001" for f in findings)
    findings = lint_source(
        "handle = open('current.json', 'w')\n", module="serving/registry.py"
    )
    assert any(f.rule == "PROM001" for f in findings)


def test_prom001_allows_reads_and_atomic_writes():
    from repro.analysis import lint_source

    clean = (
        "from repro.bench.engine import atomic_write_bytes\n"
        "from pathlib import Path\n"
        "text = Path('current.json').read_text()\n"
        "handle = open('current.json')\n"
        "atomic_write_bytes(Path('current.json'), b'{}')\n"
    )
    findings = lint_source(clean, module="serving/registry.py")
    assert not [f for f in findings if f.rule == "PROM001"]


def test_prom001_is_scoped_to_the_registry_module():
    from repro.analysis import lint_source

    text = "from pathlib import Path\nPath('x.json').write_text('{}')\n"
    findings = lint_source(text, module="serving/ingest.py")
    assert not [f for f in findings if f.rule == "PROM001"]
