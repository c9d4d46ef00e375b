"""Seer: predictive runtime kernel selection for irregular problems.

A full reproduction of the CGO 2024 paper "Seer: Predictive Runtime Kernel
Selection for Irregular Problems" (Swann, Osama, Sangaiah, Mahmud, AMD
Research) as a self-contained Python library: the Seer training and
inference abstraction, a from-scratch CART decision tree, the eight SpMV
kernel variants of the case study on top of an analytical GPU execution
model, a synthetic SuiteSparse-like matrix collection, and the benchmark
harness that regenerates every table and figure of the evaluation.

Quickstart::

    from repro import run_sweep

    sweep = run_sweep(profile="tiny")
    print(sweep.test_report.aggregate_table())
"""

from repro.bench import (
    EngineStats,
    EvaluationReport,
    OraclePredictor,
    SweepEngine,
    SweepResult,
    evaluate_dataset,
    run_sweep,
)
from repro.core import (
    BenchmarkSuite,
    SeerModels,
    SeerPredictor,
    SeerResult,
    TrainingConfig,
    TrainingDataset,
    build_training_dataset,
    run_benchmark_suite,
    seer,
    train_seer_models,
)
from repro.domains import (
    FeatureField,
    ProblemDomain,
    domain_names,
    get_domain,
    register_domain,
)
from repro.gpu import MI100, DeviceSpec, get_device
from repro.ml import DecisionTreeClassifier, kendall_tau
from repro.pipeline import (
    FeatureBundle,
    FeaturePipeline,
    MatrixSource,
    discover_sources,
)
from repro.serving import (
    ModelArtifactError,
    ModelRegistry,
    load_models,
    save_models,
    serve_sources,
)
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    ELLMatrix,
    gathered_features,
    known_features,
)

__version__ = "1.2.0"

__all__ = [
    "FeatureField",
    "ProblemDomain",
    "domain_names",
    "get_domain",
    "register_domain",
    "EngineStats",
    "EvaluationReport",
    "OraclePredictor",
    "SweepEngine",
    "SweepResult",
    "evaluate_dataset",
    "run_sweep",
    "BenchmarkSuite",
    "SeerModels",
    "SeerPredictor",
    "SeerResult",
    "TrainingConfig",
    "TrainingDataset",
    "build_training_dataset",
    "run_benchmark_suite",
    "seer",
    "train_seer_models",
    "MI100",
    "DeviceSpec",
    "get_device",
    "DecisionTreeClassifier",
    "kendall_tau",
    "FeatureBundle",
    "FeaturePipeline",
    "MatrixSource",
    "discover_sources",
    "ModelArtifactError",
    "ModelRegistry",
    "load_models",
    "save_models",
    "serve_sources",
    "COOMatrix",
    "CSRMatrix",
    "ELLMatrix",
    "gathered_features",
    "known_features",
    "__version__",
]
