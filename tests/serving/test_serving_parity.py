"""Serving-path parity: batch evaluation, reloaded artifacts, fresh processes.

The acceptance bar of the serving layer is bit-identity: the vectorized
evaluation path must reproduce the scalar reference row for row, and a
model artifact reloaded from disk — in this process or a fresh one — must
reproduce the original predictions and evaluation report exactly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro.bench.evaluation import EvaluationReport, _assemble_row, evaluate_dataset
from repro.bench.oracle import OraclePredictor
from repro.core.inference import SeerPredictor
from repro.experiments.registry import ExperimentContext
from repro.serving.artifacts import load_models, save_models
from repro.serving.registry import ModelRegistry


def _report_fingerprint(report):
    """Everything an EvaluationReport contains, as comparable values."""
    return (
        report.kernel_names,
        [
            (
                row.name,
                row.iterations,
                row.oracle_kernel,
                row.oracle_ms,
                row.selector_choice,
                row.selector_kernel,
                row.selector_ms,
                row.selector_overhead_ms,
                row.gathered_kernel,
                row.gathered_ms,
                row.gathered_overhead_ms,
                row.known_kernel,
                row.known_ms,
                row.kernel_totals_ms,
            )
            for row in report.rows
        ],
    )


def _scalar_evaluation(dataset, models):
    """Reference oracle: each sample through the three recursive tree walks."""
    oracle = OraclePredictor()
    rows = [
        _assemble_row(
            sample,
            oracle,
            known_kernel=models.predict_known(sample.known_vector),
            gathered_kernel=models.predict_gathered(
                sample.known_vector, sample.gathered_vector
            ),
            selector_choice=models.predict_selector(sample.known_vector),
        )
        for sample in dataset
    ]
    return EvaluationReport(kernel_names=list(dataset.kernel_names), rows=rows)


def test_vectorized_evaluation_is_bit_identical_to_scalar(tiny_sweep):
    scalar = _scalar_evaluation(tiny_sweep.dataset, tiny_sweep.models)
    vectorized = evaluate_dataset(tiny_sweep.dataset, tiny_sweep.models)
    assert _report_fingerprint(vectorized) == _report_fingerprint(scalar)
    assert vectorized.summary() == scalar.summary()


def test_sweep_reports_use_the_vectorized_path_unchanged(tiny_sweep):
    # The reports assembled by run_sweep must equal a scalar re-evaluation:
    # switching the default to the batch path changed no numbers.
    for split, report in (
        (tiny_sweep.train_set, tiny_sweep.train_report),
        (tiny_sweep.test_set, tiny_sweep.test_report),
    ):
        scalar = _scalar_evaluation(split, tiny_sweep.models)
        assert _report_fingerprint(report) == _report_fingerprint(scalar)


def test_reloaded_artifact_reproduces_the_evaluation_report(tiny_sweep, tmp_path):
    path = save_models(tiny_sweep.models, tmp_path / "model.json", domain="spmv")
    reloaded = load_models(path, domain="spmv")
    original = evaluate_dataset(tiny_sweep.test_set, tiny_sweep.models)
    served = evaluate_dataset(tiny_sweep.test_set, reloaded)
    assert _report_fingerprint(served) == _report_fingerprint(original)
    assert served.summary() == original.summary()


def test_reloaded_models_back_a_working_predictor(tiny_sweep, tmp_path, small_matrices):
    path = save_models(tiny_sweep.models, tmp_path / "model.json", domain="spmv")
    predictor = SeerPredictor(load_models(path, domain="spmv"), domain="spmv")
    for matrix in small_matrices.values():
        fresh = predictor.predict(matrix, iterations=3)
        original = tiny_sweep.predictor.predict(matrix, iterations=3)
        assert fresh.kernel == original.kernel
        assert fresh.selector_choice == original.selector_choice


def test_fresh_process_serves_identical_choices(tiny_sweep, tmp_path):
    """Save, reload in a *fresh interpreter*, and compare every choice."""
    model_path = save_models(
        tiny_sweep.models, tmp_path / "model.json", domain="spmv"
    )
    known = tiny_sweep.dataset.known_matrix()
    gathered = tiny_sweep.dataset.gathered_matrix()
    np.savez(tmp_path / "features.npz", known=known, gathered=gathered)
    expected = tiny_sweep.models.predict_batch(known, gathered)

    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.serving.artifacts import load_models\n"
        "models = load_models(sys.argv[1], domain='spmv')\n"
        "data = np.load(sys.argv[2])\n"
        "batch = models.predict_batch(data['known'], data['gathered'])\n"
        "print(json.dumps({'selector': list(batch.selector_choices),\n"
        "                  'known': list(batch.known_kernels),\n"
        "                  'gathered': list(batch.gathered_kernels),\n"
        "                  'kernels': list(batch.kernels)}))\n"
    )
    src_dir = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script, str(model_path), str(tmp_path / "features.npz")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    served = json.loads(result.stdout)
    assert served["selector"] == list(expected.selector_choices)
    assert served["known"] == list(expected.known_kernels)
    assert served["gathered"] == list(expected.gathered_kernels)
    assert served["kernels"] == list(expected.kernels)


def test_experiment_context_publishes_and_reuses_registry_models(tmp_path):
    registry_root = tmp_path / "models"
    first = ExperimentContext(
        domain="spmv", profile="tiny", model_registry=registry_root
    )
    trained = first.models()  # trains via the shared sweep and publishes
    registry = ModelRegistry(registry_root)
    assert registry.find(domain="spmv", profile="tiny") is not None

    second = ExperimentContext(
        domain="spmv", profile="tiny", model_registry=registry_root
    )
    served = second.models()
    assert second._sweep is None, "registry hit must not trigger a sweep"
    known = first.sweep().test_set.known_matrix()
    gathered = first.sweep().test_set.gathered_matrix()
    assert served.predict_batch(known, gathered) == trained.predict_batch(
        known, gathered
    )


def test_experiment_context_without_registry_trains_in_process(tiny_sweep):
    context = ExperimentContext(domain="spmv", profile="tiny")
    assert context.model_registry is None
    models = context.models()
    assert models is context.sweep().models
