"""The experiment suite subsystem: registry, context and artifacts.

The drivers under :mod:`repro.experiments` regenerate the paper's figures
and tables.  Historically each was a free function hard-wired to the SpMV
case study; this module turns them into a *domain-parameterized suite*
mirroring the domain/kernel registries:

* :func:`register_experiment` — decorator registering a runner under a
  stable name, with the set of domains it supports (``None`` = every
  registered domain) and whether it needs a full pipeline sweep;
* :class:`ExperimentContext` — resolves the domain, collection profile and
  optional :class:`~repro.bench.engine.SweepEngine` once, then lazily runs
  (and caches) the one expensive sweep every experiment of a suite shares;
* :class:`ExperimentArtifact` — the structured output contract: every
  experiment result converts to one flat table (``to_artifact()``), which
  :func:`write_artifact` persists as ``<out>/<domain>/<experiment>/data.csv``
  plus a ``manifest.json`` sidecar.

Artifacts are deliberately deterministic — cell formatting is fixed
(``repr`` for floats) and manifests carry no timestamps or machine state —
so golden-file regression tests can assert byte-stable reproduction and a
warm engine cache must reproduce a cold run exactly.

``repro experiments list`` / ``repro experiments run`` expose the registry
from the command line.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.bench.runner import run_sweep
from repro.domains import get_domain
from repro.domains.base import jsonable, suggest_names
from repro.experiments.common import DEFAULT_PROFILE
from repro.gpu.device import MI100, DeviceSpec

#: Bumped whenever the on-disk artifact layout changes.
ARTIFACT_FORMAT_VERSION = 1

#: The manifest every artifact directory holds beside its CSV table.
ARTIFACT_MANIFEST_FILE_NAME = "manifest.json"

_EXPERIMENTS = {}


# ----------------------------------------------------------------------
# Structured artifacts
# ----------------------------------------------------------------------
def format_cell(value) -> str:
    """Deterministic text form of one CSV cell.

    Floats use ``repr`` (shortest round-trippable form, stable across
    platforms), so artifacts are byte-identical run to run; infinities and
    NaNs come out as ``inf``/``nan``.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


@dataclass
class ExperimentArtifact:
    """One experiment's structured output: a flat table plus summary scalars."""

    columns: tuple
    rows: list
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(str(column) for column in self.columns)
        self.rows = [tuple(row) for row in self.rows]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"artifact row {row!r} has {len(row)} cells, expected "
                    f"{len(self.columns)} ({self.columns!r})"
                )

    def to_csv(self) -> str:
        """The table as deterministic CSV text (LF line endings)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([format_cell(cell) for cell in row])
        return buffer.getvalue()

    def write(self, directory, data_name: str, manifest: dict) -> dict:
        """Persist the table as ``data_name`` + ``manifest.json``.

        ``manifest`` holds the caller's own keys; the format version, the
        columns, the row count and the summary are added here, and the
        document is written with sorted keys and no timestamps, so the same
        result always writes the same bytes.  Returns ``{"dir": ...,
        "data": ..., "manifest": ...}`` paths.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        data_path = directory / data_name
        data_path.write_text(self.to_csv(), encoding="utf-8")
        manifest = dict(
            manifest,
            format_version=ARTIFACT_FORMAT_VERSION,
            columns=list(self.columns),
            row_count=len(self.rows),
            summary=jsonable(self.summary),
        )
        manifest_path = directory / ARTIFACT_MANIFEST_FILE_NAME
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return {"dir": directory, "data": data_path, "manifest": manifest_path}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: metadata plus its runner."""

    name: str
    title: str
    runner: Callable
    domains: Optional[tuple] = None
    needs_sweep: bool = True
    description: str = ""
    predicate: Optional[Callable] = None

    def supports(self, domain) -> bool:
        """Whether the experiment is defined for ``domain``.

        An experiment is supported when the domain's name is in ``domains``
        (or ``domains`` is ``None``) *and* the optional capability
        ``predicate`` accepts the domain — so e.g. the feature-cost study is
        filtered out for domains that declare no reference kernel instead of
        crashing mid-suite.
        """
        domain = get_domain(domain)
        if self.domains is not None and domain.name not in self.domains:
            return False
        if self.predicate is not None and not self.predicate(domain):
            return False
        return True


def register_experiment(
    name: str,
    *,
    title: str,
    domains=None,
    needs_sweep: bool = True,
    description: str = "",
    predicate=None,
):
    """Register an experiment runner under ``name``.

    ``domains`` restricts the experiment to specific domain names (``None``
    means every registered domain) and ``predicate`` optionally narrows
    support further by inspecting the domain's capabilities; ``needs_sweep``
    marks experiments that read the shared pipeline sweep (so tooling knows
    whether ``--profile`` and the engine matter).  The runner receives an
    :class:`ExperimentContext` and returns a result object exposing
    ``render()`` and ``to_artifact()``.
    """

    def decorate(runner):
        if name in _EXPERIMENTS:
            raise ValueError(f"experiment {name!r} is already registered")
        _EXPERIMENTS[name] = ExperimentSpec(
            name=name,
            title=title,
            runner=runner,
            domains=tuple(domains) if domains is not None else None,
            needs_sweep=needs_sweep,
            description=description,
            predicate=predicate,
        )
        return runner

    return decorate


def experiment_names() -> tuple:
    """Registered experiment names, in registration (paper) order."""
    return tuple(_EXPERIMENTS)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up one experiment; unknown names suggest close matches."""
    if name not in _EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; expected one of "
            f"{sorted(_EXPERIMENTS)}" + suggest_names(name, _EXPERIMENTS)
        )
    return _EXPERIMENTS[name]


def experiments_for(domain=None) -> tuple:
    """The specs applicable to ``domain``, in registration order."""
    domain = get_domain(domain)
    return tuple(spec for spec in _EXPERIMENTS.values() if spec.supports(domain))


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------
class ExperimentContext:
    """Shared configuration and artifacts of one experiment-suite run.

    Resolves the domain once and lazily runs the one end-to-end sweep all
    experiments of the suite share — through the given engine when one is
    configured, so repeated suite runs are served from the three-tier disk
    cache instead of re-benchmarking.
    """

    def __init__(
        self,
        domain=None,
        profile: str = DEFAULT_PROFILE,
        engine=None,
        device: DeviceSpec = MI100,
        model_registry=None,
    ):
        self.domain = get_domain(domain)
        self.profile = profile
        self.engine = engine
        self.device = device
        if model_registry is not None:
            from repro.serving.registry import ModelRegistry

            if not isinstance(model_registry, ModelRegistry):
                model_registry = ModelRegistry(model_registry)
        self.model_registry = model_registry
        self._sweep = None
        self._models = None

    def __repr__(self) -> str:
        return (
            f"ExperimentContext(domain={self.domain.name!r}, "
            f"profile={self.profile!r}, engine={self.engine!r})"
        )

    def sweep(self):
        """The context's pipeline sweep, run once and cached.

        With a ``model_registry``, the freshly trained models are also
        published to the registry, so one suite run leaves behind a
        servable model artifact for ``repro predict`` and later runs.
        """
        if self._sweep is None:
            self._sweep = run_sweep(
                profile=self.profile,
                device=self.device,
                engine=self.engine,
                domain=self.domain,
            )
            if self.model_registry is not None:
                self.model_registry.save(
                    self._sweep.models,
                    domain=self.domain,
                    profile=self.profile,
                    device=self.device,
                    evaluation=self._sweep.test_report.summary(),
                )
        return self._sweep

    def models(self):
        """Trained models for this configuration, registry-first.

        With a ``model_registry`` holding an artifact for this exact
        configuration (same config hash as the sweep tier), the models are
        served from disk without running any sweep; otherwise the shared
        sweep runs (training once) and its models are published to the
        registry for the next caller.
        """
        if self._models is not None:
            return self._models
        if self._sweep is None and self.model_registry is not None:
            loaded = self.model_registry.load_or_none(
                domain=self.domain, profile=self.profile, device=self.device
            )
            if loaded is not None:
                self._models = loaded
                return self._models
        self._models = self.sweep().models
        return self._models


def run_experiment(experiment, context: ExperimentContext):
    """Run one experiment (name or spec) under ``context``."""
    spec = experiment if isinstance(experiment, ExperimentSpec) else get_experiment(experiment)
    if not spec.supports(context.domain):
        supported = "restricted" if spec.domains is None else ", ".join(spec.domains)
        raise ValueError(
            f"experiment {spec.name!r} does not support domain "
            f"{context.domain.name!r} (supported: {supported})"
        )
    return spec.runner(context)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def artifact_dir(out_dir, spec: ExperimentSpec, context: ExperimentContext) -> Path:
    """Directory one experiment's artifacts land in."""
    return Path(out_dir) / context.domain.name / spec.name


def write_artifact(
    spec: ExperimentSpec, context: ExperimentContext, result, out_dir
) -> dict:
    """Persist one experiment result as ``data.csv`` + ``manifest.json``.

    Returns ``{"dir": ..., "data": ..., "manifest": ...}`` paths.  Output is
    fully deterministic for a given configuration (no timestamps, fixed cell
    formatting), which is what the golden-artifact and warm/cold-parity
    regression tests assert.
    """
    # The engine's configuration documents how the artifact was produced;
    # its activity counters are excluded so a warm-cache rerun writes a
    # byte-identical manifest.
    engine_config = None
    if context.engine is not None:
        engine_config = {
            key: value
            for key, value in context.engine.describe().items()
            if key != "stats"
        }
    manifest = {
        "experiment": spec.name,
        "title": spec.title,
        "description": spec.description,
        "domain": context.domain.describe(),
        "device": context.device.name,
        "profile": context.profile if spec.needs_sweep else None,
        "engine": engine_config,
    }
    if spec.needs_sweep:
        manifest["sweep_summary"] = jsonable(context.sweep().test_report.summary())
    return result.to_artifact().write(
        artifact_dir(out_dir, spec, context), "data.csv", manifest
    )
