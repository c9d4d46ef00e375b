"""End-to-end sweep runner.

``run_sweep`` drives the full Seer pipeline on a synthetic collection —
benchmarking, feature collection, training-set assembly, the 80/20 split,
model training and evaluation — and returns everything the experiment
drivers need.  All experiment modules share one sweep per configuration so
the expensive benchmarking work is done once.

The benchmarking stage always runs through a
:class:`repro.bench.engine.SweepEngine`: the default one measures in-process
without a disk cache, and a configured one fans the per-matrix work out over
worker processes and caches artifacts on disk.  Every worker count and
cache state produces bit-identical sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bench.evaluation import EvaluationReport, evaluate_dataset
from repro.core.benchmarking import BenchmarkSuite
from repro.core.dataset import (
    DEFAULT_ITERATION_COUNTS,
    TrainingDataset,
    build_training_dataset,
)
from repro.core.inference import SeerPredictor
from repro.core.training import SeerModels, TrainingConfig, train_seer_models
from repro.gpu.device import MI100
from repro.ml.split import train_test_split

#: Train/test split used throughout the paper (Section IV-C).
TEST_FRACTION = 0.2

#: Default seed of the synthetic collection; shared by the sweep engine's
#: cache keys and the model registry so "the default sweep" hashes the same
#: everywhere.
DEFAULT_SEED = 7

#: Default seed of the stratified 80/20 train-test split.
DEFAULT_SPLIT_SEED = 13


@dataclass
class SweepResult:
    """All artifacts of one end-to-end pipeline run."""

    suite: BenchmarkSuite
    dataset: TrainingDataset
    train_set: TrainingDataset
    test_set: TrainingDataset
    models: SeerModels
    predictor: SeerPredictor
    train_report: EvaluationReport
    test_report: EvaluationReport

    @property
    def kernel_names(self) -> list:
        """Kernel labels of the sweep, in paper order."""
        return list(self.suite.kernel_names)

    @property
    def domain_name(self) -> str:
        """Name of the problem domain the sweep ran on."""
        return self.suite.domain_name


def assemble_sweep(
    suite: BenchmarkSuite,
    iteration_counts=DEFAULT_ITERATION_COUNTS,
    device=MI100,
    split_seed: int = DEFAULT_SPLIT_SEED,
    config: Optional[TrainingConfig] = None,
) -> SweepResult:
    """Turn a benchmark suite into a full :class:`SweepResult`.

    This is the deterministic back half of the pipeline — dataset assembly,
    the stratified 80/20 split, model training and evaluation — that
    :meth:`~repro.bench.engine.SweepEngine.run_sweep` runs after the
    benchmarking stage.
    """
    dataset = build_training_dataset(suite, iteration_counts)

    labels = dataset.labels()
    train_idx, test_idx = train_test_split(
        len(dataset), TEST_FRACTION, seed=split_seed, stratify=labels
    )
    train_set = dataset.subset(train_idx)
    test_set = dataset.subset(test_idx)

    models = train_seer_models(train_set, config)
    predictor = SeerPredictor(models, device=device, domain=suite.domain)
    train_report = evaluate_dataset(train_set, models)
    test_report = evaluate_dataset(test_set, models)
    return SweepResult(
        suite=suite,
        dataset=dataset,
        train_set=train_set,
        test_set=test_set,
        models=models,
        predictor=predictor,
        train_report=train_report,
        test_report=test_report,
    )


def run_sweep(
    profile: str = "small",
    iteration_counts=DEFAULT_ITERATION_COUNTS,
    device=MI100,
    seed: int = DEFAULT_SEED,
    split_seed: int = DEFAULT_SPLIT_SEED,
    config: Optional[TrainingConfig] = None,
    include_rocsparse: bool = True,
    engine=None,
    domain=None,
) -> SweepResult:
    """Run the full pipeline and return models plus evaluation reports.

    Parameters
    ----------
    profile:
        Synthetic-collection profile (``tiny``/``small``/``medium``/``full``/
        ``wide``/``banded``).
    iteration_counts:
        Iteration counts the training corpus covers.
    device:
        Simulated device.
    seed:
        Seed of the synthetic collection.
    split_seed:
        Seed of the 80/20 train-test split.
    config:
        Tree-depth configuration.
    include_rocsparse:
        Whether the vendor/aux kernels join the kernel set (for the SpMV
        case study: the rocSPARSE adaptive kernel).
    engine:
        The :class:`repro.bench.engine.SweepEngine` that runs the sweep:
        it may parallelize the benchmarking stage and serve repeated
        configurations from its on-disk cache.  ``None`` runs a default
        engine (in-process, no disk cache).
    domain:
        Problem domain to sweep (name or instance); defaults to ``"spmv"``.
        ``run_sweep(profile="tiny", domain="spmm")`` runs the SpMM domain
        end to end through exactly the same pipeline.
    """
    from repro.bench.engine import SweepEngine  # the engine imports this module

    return (engine or SweepEngine()).run_sweep(
        profile=profile,
        iteration_counts=iteration_counts,
        device=device,
        seed=seed,
        split_seed=split_seed,
        config=config,
        include_rocsparse=include_rocsparse,
        domain=domain,
    )
