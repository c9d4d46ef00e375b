"""The versioned model registry: trained models as cached artifacts.

The sweep engine already treats measurements, matrices and whole sweeps as
content-addressed artifacts; this module gives trained
:class:`~repro.core.training.SeerModels` the same treatment.  A model is a
pure function of its sweep configuration (profile, seeds, iteration counts,
device, kernel set, training config, package sources), so the registry keys
each artifact by the *same* config hash the engine uses for its sweep tier —
including the source-code digest, which means editing the trainer or the
kernels automatically retires stale models.

Layout::

    <root>/<domain>/<profile>/<config-hash>/
        model.json      # the canonical model document (see .artifacts)
        manifest.json   # how it was produced: config, code digest, key

``repro train --save`` populates the registry, ``repro predict`` serves from
it, and :class:`~repro.experiments.registry.ExperimentContext` can reuse a
registered model instead of retraining inside every suite run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from dataclasses import asdict

from repro.bench.engine import atomic_write_bytes, code_version, sweep_config_key
from repro.bench.runner import DEFAULT_SEED, DEFAULT_SPLIT_SEED
from repro.core.dataset import DEFAULT_ITERATION_COUNTS
from repro.core.training import SeerModels, TrainingConfig
from repro.domains import get_domain
from repro.gpu.device import MI100, DeviceSpec
from repro.serving.artifacts import (
    MODEL_FILE_NAME,
    MODEL_FORMAT_VERSION,
    ModelArtifactError,
    load_artifact,
    save_models,
)

#: File name of the provenance sidecar next to every ``model.json``.
MANIFEST_FILE_NAME = "manifest.json"

#: File name of the per-``<domain>/<profile>`` promotion pointer.  When
#: present it names the key serving should prefer over the default
#: config-hash key; ``repro promote`` flips it atomically after a candidate
#: wins its shadow comparison.
CURRENT_POINTER_FILE_NAME = "current.json"


def _profile_name(profile) -> str:
    """Directory-friendly name of a profile (string or CollectionProfile)."""
    return profile if isinstance(profile, str) else profile.name


class ModelRegistry:
    """Versioned store of trained models under one root directory."""

    def __init__(self, root):
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"ModelRegistry(root={str(self.root)!r})"

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def key_for(
        self,
        domain=None,
        profile: str = "small",
        device: DeviceSpec = MI100,
        iteration_counts=DEFAULT_ITERATION_COUNTS,
        seed: int = DEFAULT_SEED,
        split_seed: int = DEFAULT_SPLIT_SEED,
        config: Optional[TrainingConfig] = None,
        include_aux: bool = True,
    ) -> str:
        """Config hash of the sweep that trains this model.

        Identical to the engine's sweep-tier key for the same
        configuration, source digest included: the registry and the sweep
        cache agree on what "the same training run" means.
        """
        domain = get_domain(domain)
        return sweep_config_key(
            profile,
            seed,
            split_seed,
            iteration_counts,
            device,
            domain.kernel_names(include_aux=include_aux),
            config,
            domain,
        )

    def artifact_dir(self, domain, profile, key: str) -> Path:
        """Directory of one registered model artifact."""
        domain = get_domain(domain)
        return self.root / domain.name / _profile_name(profile) / key

    def pointer_path(self, domain=None, profile: str = "small") -> Path:
        """Location of the ``current`` promotion pointer for a family."""
        domain = get_domain(domain)
        return (
            self.root
            / domain.name
            / _profile_name(profile)
            / CURRENT_POINTER_FILE_NAME
        )

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------
    def save(
        self,
        models: SeerModels,
        domain=None,
        profile: str = "small",
        device: DeviceSpec = MI100,
        iteration_counts=DEFAULT_ITERATION_COUNTS,
        seed: int = DEFAULT_SEED,
        split_seed: int = DEFAULT_SPLIT_SEED,
        config: Optional[TrainingConfig] = None,
        include_aux: bool = True,
        key: Optional[str] = None,
        evaluation: Optional[dict] = None,
        extra: Optional[dict] = None,
    ) -> Path:
        """Persist ``models`` under its config hash; returns the model path.

        Writes ``model.json`` (canonical, golden-testable) plus a
        ``manifest.json`` sidecar recording the configuration and the
        source digest the key embeds.  Saving the same configuration twice
        overwrites in place with identical bytes.

        ``key`` overrides the derived config hash — promotion uses this to
        register retrained candidates side by side with the incumbent.
        ``evaluation`` (typically ``test_report.summary()``) is recorded in
        the manifest and becomes the drift monitor's baseline; ``extra``
        merges additional provenance keys into the manifest.
        """
        domain = get_domain(domain)
        if key is None:
            key = self.key_for(
                domain=domain,
                profile=profile,
                device=device,
                iteration_counts=iteration_counts,
                seed=seed,
                split_seed=split_seed,
                config=config,
                include_aux=include_aux,
            )
        directory = self.artifact_dir(domain, profile, key)
        model_path = save_models(
            models,
            directory / MODEL_FILE_NAME,
            domain=domain,
            training_config=config or TrainingConfig(),
        )
        manifest = {
            "format_version": MODEL_FORMAT_VERSION,
            "key": key,
            "code": code_version(),
            "domain": domain.name,
            "profile": _profile_name(profile),
            "device": device.name,
            "iteration_counts": list(iteration_counts),
            "seed": seed,
            "split_seed": split_seed,
            "include_aux": include_aux,
            "training": asdict(config or TrainingConfig()),
            "kernels": list(models.kernel_names),
            "training_size": int(models.training_size),
        }
        if evaluation is not None:
            manifest["evaluation"] = dict(evaluation)
        if extra:
            manifest.update(extra)
        atomic_write_bytes(
            directory / MANIFEST_FILE_NAME,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        return model_path

    def find(self, domain=None, profile: str = "small", **key_kwargs) -> Optional[Path]:
        """Path of the registered ``model.json`` for a configuration, if any."""
        domain = get_domain(domain)
        key = self.key_for(domain=domain, profile=profile, **key_kwargs)
        path = self.artifact_dir(domain, profile, key) / MODEL_FILE_NAME
        return path if path.is_file() else None

    def load(self, domain=None, profile: str = "small", **key_kwargs) -> SeerModels:
        """Load the registered model for a configuration (validated)."""
        domain = get_domain(domain)
        path = self.find(domain=domain, profile=profile, **key_kwargs)
        if path is None:
            key = self.key_for(domain=domain, profile=profile, **key_kwargs)
            raise ModelArtifactError(
                f"no model registered for domain {domain.name!r}, profile "
                f"{_profile_name(profile)!r}, key {key} under {self.root}"
            )
        return load_artifact(path, domain=domain).models

    def load_or_none(
        self, domain=None, profile: str = "small", **key_kwargs
    ) -> Optional[SeerModels]:
        """Like :meth:`load`, but ``None`` when absent *or* unreadable.

        A corrupt registry entry is treated like a cache miss — the caller
        retrains and overwrites it — mirroring how the sweep engine treats
        its artifact tiers.
        """
        domain = get_domain(domain)
        path = self.find(domain=domain, profile=profile, **key_kwargs)
        if path is None:
            return None
        try:
            return load_artifact(path, domain=domain).models
        except (ModelArtifactError, OSError, ValueError):
            # OSError/ValueError cover failure modes load_artifact cannot
            # normalize itself (e.g. the file vanishing between find() and
            # the read, or a schema mismatch surfacing as a ValueError) —
            # all of them are cache misses here, never crashes.
            return None

    # ------------------------------------------------------------------
    # Promotion: the ``current`` pointer
    # ------------------------------------------------------------------
    def promote(
        self, domain=None, profile: str = "small", key: str = "", extra=None
    ) -> Path:
        """Atomically point ``<domain>/<profile>`` serving at ``key``.

        The target artifact must exist — a pointer at a missing model would
        brick every follower.  The pointer document is canonical JSON
        written through :func:`~repro.bench.engine.atomic_write_bytes`, so
        a reader never observes a torn flip.
        """
        domain = get_domain(domain)
        if not key:
            raise ValueError("promote() needs the key of a registered artifact")
        model_path = self.artifact_dir(domain, profile, key) / MODEL_FILE_NAME
        if not model_path.is_file():
            raise ModelArtifactError(
                f"cannot promote {domain.name}/{_profile_name(profile)} to "
                f"{key}: no model.json at {model_path}"
            )
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "domain": domain.name,
            "profile": _profile_name(profile),
            "key": key,
        }
        if extra:
            payload.update(extra)
        pointer = self.pointer_path(domain, profile)
        atomic_write_bytes(
            pointer,
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        return pointer

    def resolve_current(self, domain=None, profile: str = "small") -> Optional[str]:
        """The promoted key of ``<domain>/<profile>``, or ``None``.

        A missing, corrupt or dangling pointer (its target artifact gone)
        resolves to ``None`` — followers then fall back to the default
        config-hash key instead of failing to serve.
        """
        domain = get_domain(domain)
        pointer = self.pointer_path(domain, profile)
        try:
            payload = json.loads(pointer.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        key = payload.get("key") if isinstance(payload, dict) else None
        if not isinstance(key, str) or not key:
            return None
        model_path = self.artifact_dir(domain, profile, key) / MODEL_FILE_NAME
        return key if model_path.is_file() else None

    def current_model_path(
        self, domain=None, profile: str = "small"
    ) -> Optional[Path]:
        """``model.json`` path of the promoted artifact, or ``None``."""
        domain = get_domain(domain)
        key = self.resolve_current(domain, profile)
        if key is None:
            return None
        return self.artifact_dir(domain, profile, key) / MODEL_FILE_NAME
