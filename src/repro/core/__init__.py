"""Seer core: the training abstraction and runtime inference engine."""

from repro.core.benchmarking import (
    BenchmarkSuite,
    MatrixMeasurement,
    measure_matrix,
    run_benchmark_suite,
)
from repro.core.codegen import (
    models_to_cpp_header,
    models_to_python_module,
    tree_to_cpp,
    tree_to_python,
    write_cpp_header,
    write_python_module,
)
from repro.core.dataset import (
    DEFAULT_ITERATION_COUNTS,
    TrainingDataset,
    TrainingSample,
    build_training_dataset,
)
from repro.core.inference import ExecutionResult, SeerPredictor
from repro.core.seer import SeerResult, seer, suite_from_tables
from repro.core.training import (
    USE_GATHERED,
    USE_KNOWN,
    SeerModels,
    TrainingConfig,
    train_seer_models,
)

__all__ = [
    "BenchmarkSuite",
    "MatrixMeasurement",
    "measure_matrix",
    "run_benchmark_suite",
    "models_to_cpp_header",
    "models_to_python_module",
    "tree_to_cpp",
    "tree_to_python",
    "write_cpp_header",
    "write_python_module",
    "DEFAULT_ITERATION_COUNTS",
    "TrainingDataset",
    "TrainingSample",
    "build_training_dataset",
    "ExecutionResult",
    "SeerPredictor",
    "SeerResult",
    "seer",
    "suite_from_tables",
    "USE_GATHERED",
    "USE_KNOWN",
    "SeerModels",
    "TrainingConfig",
    "train_seer_models",
]
