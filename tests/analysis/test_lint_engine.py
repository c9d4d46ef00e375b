"""Engine-level tests for ``repro.analysis``: selection and suppression.

Rule-specific behaviour lives in ``test_lint_rules.py``; this file covers the
machinery every rule rides on, plus a hypothesis fuzzer asserting the engine
never crashes on arbitrary (grammar-generated) valid Python.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnalysisError,
    lint_paths,
    lint_source,
    rule_ids,
    select_rules,
)
from repro.analysis.engine import register_rule

UNSORTED_JSON = "import json\n\ndef f(obj):\n    return json.dumps(obj)\n"


def found_rules(text: str, module: str = "snippet.py") -> set:
    return {finding.rule for finding in lint_source(text, module=module)}


# ----------------------------------------------------------------------
# Rule selection
# ----------------------------------------------------------------------
def test_rule_ids_are_stable_and_sorted():
    ids = rule_ids()
    assert len(ids) >= 8
    assert list(ids) == sorted(ids)
    assert {"DET001", "DET002", "DET003", "DET004", "CONC001", "CONC002",
            "CONC003", "DOM001", "ENV001", "PROM001"} <= set(ids)
    assert "API001" not in ids


def test_select_by_exact_id_and_prefix():
    assert {spec.id for spec in select_rules(select=["DET004"])} == {"DET004"}
    det = {spec.id for spec in select_rules(select=["DET"])}
    assert det == {"DET001", "DET002", "DET003", "DET004"}


def test_ignore_removes_rules():
    remaining = {spec.id for spec in select_rules(ignore=["CONC", "DOM001"])}
    assert "CONC001" not in remaining
    assert "DOM001" not in remaining
    assert "DET001" in remaining


def test_unknown_select_raises_instead_of_passing_silently():
    with pytest.raises(AnalysisError, match="matches no registered rule"):
        select_rules(select=["NOPE999"])
    with pytest.raises(AnalysisError, match="--ignore"):
        select_rules(ignore=["XX001"])


def test_register_rule_rejects_malformed_and_duplicate_ids():
    with pytest.raises(AnalysisError, match="must look like"):
        register_rule("det-1", "bad id")
    with pytest.raises(AnalysisError, match="already registered"):
        @register_rule("DET001", "duplicate")
        def _dup(module):  # pragma: no cover - never invoked
            return iter(())


# ----------------------------------------------------------------------
# Findings and suppression
# ----------------------------------------------------------------------
def test_findings_carry_location_and_rule():
    findings = lint_source(UNSORTED_JSON, module="pkg/mod.py")
    assert [f.rule for f in findings] == ["DET004"]
    finding = findings[0]
    assert finding.module == "pkg/mod.py"
    assert finding.line == 4
    assert finding.location == f"pkg/mod.py:{finding.line}:{finding.col}"
    assert "DET004" in finding.render()


def test_inline_suppression_silences_matching_rule():
    text = UNSORTED_JSON.replace(
        "json.dumps(obj)", "json.dumps(obj)  # repro-lint: disable=DET004"
    )
    assert found_rules(text) == set()


def test_inline_suppression_disable_all():
    text = UNSORTED_JSON.replace(
        "json.dumps(obj)", "json.dumps(obj)  # repro-lint: disable=all"
    )
    assert found_rules(text) == set()


def test_suppression_for_other_rule_does_not_apply():
    text = UNSORTED_JSON.replace(
        "json.dumps(obj)", "json.dumps(obj)  # repro-lint: disable=DET001"
    )
    assert found_rules(text) == {"DET004"}


def test_suppression_is_per_line():
    text = (
        "import json\n"
        "a = json.dumps({})  # repro-lint: disable=DET004\n"
        "b = json.dumps({})\n"
    )
    findings = lint_source(text)
    assert [(f.rule, f.line) for f in findings] == [("DET004", 3)]


def test_lint_paths_reports_file_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(UNSORTED_JSON, encoding="utf-8")
    report = lint_paths([bad])
    assert [f.rule for f in report.findings] == ["DET004"]
    assert not report.clean
    assert report.files_scanned == 1


def test_lint_paths_rejects_missing_target(tmp_path):
    with pytest.raises(AnalysisError, match="no such file"):
        lint_paths([tmp_path / "nope.py"])


# ----------------------------------------------------------------------
# Fuzz: the engine must never crash on valid Python
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(["x", "data", "rows", "self", "payload", "items"])
_EXPRS = st.sampled_from(
    [
        "{0}",
        "{0}.read_text()",
        "json.dumps({0})",
        "sorted({0})",
        "set({0})",
        "{{1, 2, 3}}",
        "os.listdir({0})",
        "time.time()",
        "{0}.get('name')",
        "{0}['family']",
        "self._cond.wait()",
        "self._decide({0})",
        "[v for v in {{'a', 'b'}}]",
    ]
)


@st.composite
def _statements(draw):
    name = draw(_NAMES)
    expr = draw(_EXPRS).format(name)
    shape = draw(
        st.sampled_from(
            [
                "{expr}",
                "{name} = {expr}",
                "for item in {expr}:\n        pass",
                "with self._lock:\n        {name} = {expr}",
                "while not {name}:\n        {expr}",
                "if {name}:\n        return {expr}",
            ]
        )
    )
    return shape.format(name=name, expr=expr)


@st.composite
def _modules(draw):
    body = draw(st.lists(_statements(), min_size=1, max_size=6))
    lines = ["import json, os, time", "", "def fn(self, x, data, rows, payload, items):"]
    lines.extend("    " + stmt for stmt in body)
    lines.append("    return x")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=_modules(), module=st.sampled_from(
    ["snippet.py", "bench/engine.py", "domains/spmv.py", "serving/service.py"]
))
def test_lint_source_never_crashes_on_valid_python(text, module):
    compile(text, "<fuzz>", "exec")  # the grammar must emit valid Python
    for finding in lint_source(text, module=module):
        assert finding.rule
        assert finding.line >= 1
