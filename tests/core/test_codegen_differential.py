"""Differential tests for the selector emitters.

Three implementations of the same fitted trees must agree on every input:
the flattened :class:`CompiledTree` every ``predict`` goes through, the
generated Python module (exec'd) and — when a C++ compiler is available —
the generated C++ header (compiled and run).  The compiled tree itself is
checked against a recursive walk in ``tests/serving/test_differential.py``.
The emitters must also use one shared threshold literal, so the compiled
and interpreted selectors branch on bit-identical constants.
"""

import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.core.codegen import (
    _float_literal,
    models_to_cpp_header,
    models_to_python_module,
    tree_to_cpp,
    tree_to_python,
)
from repro.ml.decision_tree import DecisionTreeClassifier

THRESHOLD_PATTERN = re.compile(r"features\[\d+\] <= ([^)\s:]+)")


@pytest.fixture(scope="module")
def fitted_tree():
    rng = np.random.default_rng(42)
    X = rng.uniform(size=(300, 4))
    # Thresholds land on arbitrary float midpoints, exercising literals with
    # long decimal expansions.
    y = np.where(
        X[:, 0] * 0.1 + X[:, 3] > 0.47,
        "CSR,AD",
        np.where(X[:, 1] < 0.333, "ELL,TM", "CSR,VR"),
    )
    return DecisionTreeClassifier(max_depth=6).fit(
        X, y, feature_names=["rows", "cols", "nnz", "iterations"]
    )


def _thresholds(code: str) -> list:
    return THRESHOLD_PATTERN.findall(code)


def test_float_literal_round_trips():
    for value in (0.1, 1 / 3, 1e-300, 2**-1074, 123456789.123456789, 0.0):
        assert float(_float_literal(value)) == value


def test_emitters_share_threshold_literals(fitted_tree):
    cpp = _thresholds(tree_to_cpp(fitted_tree, "f"))
    py = _thresholds(tree_to_python(fitted_tree, "f"))
    assert cpp == py
    assert len(cpp) > 0
    node_thresholds = [
        node.threshold for node in fitted_tree.nodes() if not node.is_leaf
    ]
    assert [float(text) for text in cpp] == node_thresholds


def test_generated_python_matches_reference_and_compiled(fitted_tree):
    namespace = {}
    exec(tree_to_python(fitted_tree, "select"), namespace)  # noqa: S102
    generated = namespace["select"]
    compiled = fitted_tree.compiled()
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(500, 4))
    codes = compiled.predict_codes(X)
    for sample, compiled_code in zip(X, codes):
        expected = fitted_tree.predict_one(sample)
        assert fitted_tree.classes_[generated(sample)] == expected
        assert fitted_tree.classes_[compiled_code] == expected


def test_all_three_model_emitters_agree(tiny_sweep):
    models = tiny_sweep.models
    namespace = {}
    exec(models_to_python_module(models), namespace)  # noqa: S102
    cases = (
        ("known_classifier", "KERNEL_CLASSES", models.known_model),
        ("gathered_classifier", "GATHERED_CLASSES", models.gathered_model),
        ("classifier_selector", "SELECTOR_CLASSES", models.selector_model),
    )
    rng = np.random.default_rng(3)
    for function_name, classes_name, model in cases:
        generated = namespace[function_name]
        classes = namespace[classes_name]
        X = rng.uniform(0.0, 1e5, size=(200, model.num_features_))
        for sample in X:
            assert classes[generated(sample)] == model.predict_one(sample)


@pytest.mark.skipif(shutil.which("g++") is None, reason="no C++ compiler")
def test_generated_cpp_matches_python(tiny_sweep, tmp_path):
    models = tiny_sweep.models
    (tmp_path / "seer_models.h").write_text(models_to_cpp_header(models))
    harness = """
#include <cstdio>
#include <cstdlib>
#include "seer_models.h"

int main(int argc, char** argv) {
    int n = argc - 1;
    double* features = (double*)malloc(sizeof(double) * n);
    for (int i = 0; i < n; ++i) features[i] = strtod(argv[i + 1], nullptr);
    printf("%d\\n", seer_known_classifier(features));
    printf("%d\\n", seer_classifier_selector(features));
    free(features);
    return 0;
}
"""
    (tmp_path / "main.cpp").write_text(harness)
    binary = tmp_path / "selector"
    subprocess.run(
        ["g++", "-O2", "-o", str(binary), str(tmp_path / "main.cpp")],
        check=True,
        cwd=tmp_path,
    )
    namespace = {}
    exec(models_to_python_module(models), namespace)  # noqa: S102
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 1e6, size=(50, models.known_model.num_features_))
    for sample in X:
        # The shortest round-trip literal reconstructs the double exactly on
        # the C++ side, so both binaries take identical branches.
        argv = [str(binary)] + [_float_literal(v) for v in sample]
        out = subprocess.run(argv, check=True, capture_output=True, text=True)
        known_code, selector_code = (int(line) for line in out.stdout.split())
        assert known_code == namespace["known_classifier"](sample)
        assert selector_code == namespace["classifier_selector"](sample)


def test_codegen_cli_emits_importable_module(tiny_sweep, tmp_path, capsys):
    from repro.cli import main
    from repro.serving.registry import ModelRegistry

    registry_root = tmp_path / "registry"
    model_path = ModelRegistry(registry_root).save(
        tiny_sweep.models, domain="spmv", profile="tiny"
    )
    output = tmp_path / "generated" / "seer_selector.py"
    assert main(
        ["codegen", "--model", str(model_path), "--output", str(output)]
    ) == 0
    namespace = {}
    exec(output.read_text(), namespace)  # noqa: S102
    sample = np.array([100.0, 100.0, 500.0, 1.0])
    expected = tiny_sweep.models.predict_known(sample)
    assert namespace["KERNEL_CLASSES"][namespace["known_classifier"](sample)] == expected

    assert main(["codegen", "--model", str(model_path), "--language", "cpp"]) == 0
    header = capsys.readouterr().out
    assert "#ifndef SEER_MODELS_H" in header
    assert "seer_known_classifier" in header


def test_codegen_cli_rejects_missing_artifact(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="repro: error"):
        main(["codegen", "--model", str(tmp_path / "nope")])
