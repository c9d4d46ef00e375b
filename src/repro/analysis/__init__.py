"""Static invariant analysis for the reproduction (``repro lint``).

A custom AST-based checker that turns the codebase's standing invariants —
deterministic artifacts, canonical JSON, cache-key purity, daemon locking
discipline, domain-schema conformance — into named, testable rules.  See
:mod:`repro.analysis.engine` for the rule engine and the per-category rule
modules (:mod:`~repro.analysis.determinism`,
:mod:`~repro.analysis.concurrency`, :mod:`~repro.analysis.conformance`,
:mod:`~repro.analysis.environment`, :mod:`~repro.analysis.promotion`).
"""

from repro.analysis.engine import (
    AnalysisError,
    Finding,
    LintReport,
    ModuleSource,
    RuleSpec,
    all_rules,
    lint_module,
    lint_package,
    lint_paths,
    lint_source,
    package_dir,
    register_rule,
    render_json,
    render_text,
    rule_ids,
    select_rules,
)

__all__ = [
    "AnalysisError",
    "Finding",
    "LintReport",
    "ModuleSource",
    "RuleSpec",
    "all_rules",
    "lint_module",
    "lint_package",
    "lint_paths",
    "lint_source",
    "package_dir",
    "register_rule",
    "render_json",
    "render_text",
    "rule_ids",
    "select_rules",
]
