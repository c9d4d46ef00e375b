"""The invariant-lint rule engine behind ``repro lint``.

The reproduction's correctness rests on invariants the test suite can only
spot-check dynamically: bit-identical parallel==serial sweeps, caches keyed
by canonical JSON digests, byte-stable artifacts, and a lock-guarded
threaded daemon.  This module is the static side of that contract: a small
AST-walking rule engine that names each invariant as a checkable rule and
reports violations before any test has to flake on them.

The shape mirrors the repository's other registries (domains, experiments):

* rules are plain functions registered through :func:`register_rule` with a
  stable ID (``DET001``, ``CONC002``, ...), a one-line summary and a
  *scope* — fnmatch globs over package-relative module paths, so e.g. the
  wall-clock rule only fires inside cache-keyed modules;
* each rule receives a parsed :class:`ModuleSource` and yields
  :class:`Finding` records with ``file:line:col`` locations;
* inline ``# repro-lint: disable=RULE[,RULE...]`` comments suppress
  findings on their line (``disable=all`` suppresses every rule) — the
  one way to silence a finding; there is no grandfathering file.

:func:`lint_paths` drives files and directories through every selected
rule; :func:`lint_source` runs the same machinery over an in-memory
snippet, which is what the unit tests (and the hypothesis fuzzer) use.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: Inline suppression syntax: ``# repro-lint: disable=DET001,CONC002``.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_*,\s]+)")

#: Rule-ID shape enforced at registration time.
_RULE_ID_RE = re.compile(r"^[A-Z]{2,8}\d{3}$")


class AnalysisError(ValueError):
    """A lint invocation is invalid (unknown rule, missing path...)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    module: str
    line: int
    col: int
    message: str
    symbol: str = ""

    @property
    def location(self) -> str:
        """``file:line:col`` (clickable in most terminals/editors)."""
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        suffix = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.location}: {self.rule} {self.message}{suffix}"

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.symbol:
            payload["symbol"] = self.symbol
        return payload

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.module, self.line, self.col, self.rule)


class ModuleSource:
    """One parsed module plus the lookup structures rules need.

    Carries the AST with a parent map (``ast`` has no uplinks), the
    package-relative module path used for rule scoping, and the parsed
    inline suppressions.  Rules create findings through :meth:`finding`;
    the engine stamps the rule ID afterwards, so rule bodies never repeat
    their own name.
    """

    def __init__(self, text: str, path: str, module: str) -> None:
        self.text = text
        self.path = path
        self.module = module
        self.tree = ast.parse(text)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._suppressions = _parse_suppressions(text)

    @classmethod
    def from_file(cls, path: Path, root: Optional[Path] = None) -> "ModuleSource":
        """Parse one file; ``module`` becomes its path relative to ``root``."""
        text = path.read_text(encoding="utf-8")
        if root is not None:
            module = path.relative_to(root).as_posix()
        else:
            module = path.name
        return cls(text, path=str(path), module=module)

    # ------------------------------------------------------------------
    # Structure lookups
    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain of enclosing nodes, innermost first."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing(self, node: ast.AST, *types: type) -> Optional[ast.AST]:
        """The nearest ancestor of one of the given node types, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, types):
                return ancestor
        return None

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self._suppressions.get(line)
        return rules is not None and ("all" in rules or rule in rules)

    # ------------------------------------------------------------------
    # Finding factory
    # ------------------------------------------------------------------
    def finding(self, node: ast.AST, message: str, symbol: str = "") -> Finding:
        """A finding at ``node`` (rule ID is stamped by the engine)."""
        return Finding(
            rule="",
            path=self.path,
            module=self.module,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            symbol=symbol,
        )


def _parse_suppressions(text: str) -> Dict[int, frozenset]:
    """Per-line suppressed rule IDs from ``# repro-lint: disable=...``."""
    suppressions: Dict[int, frozenset] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = frozenset(
            code.strip().lower() if code.strip().lower() == "all" else code.strip()
            for code in match.group(1).split(",")
            if code.strip()
        )
        if codes:
            suppressions[lineno] = codes
    return suppressions


# ----------------------------------------------------------------------
# AST helpers shared by the rule modules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """The dotted form of a Name/Attribute chain (``json.dumps``), or None.

    Call nodes resolve through their ``func``; chains rooted in anything
    other than a plain name (subscripts, calls) keep the resolvable suffix
    prefixed with ``*`` (``*.read_text`` for ``Path(x).read_text``), so
    rules can still match on method names.
    """
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return f"*.{node.attr}"
        return f"{base}.{node.attr}"
    return None


def call_keywords(call: ast.Call) -> Dict[str, ast.expr]:
    """Keyword arguments of a call by name (``**kwargs`` entries skipped)."""
    return {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}


def is_wrapped_in(module: ModuleSource, node: ast.AST, func_name: str) -> bool:
    """Whether ``node`` sits (at any depth) inside a ``func_name(...)`` call.

    Walks ancestors only up to the enclosing statement, so a ``sorted``
    call elsewhere in the function never masks an unsorted iteration.
    """
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.stmt):
            return False
        if isinstance(ancestor, ast.Call) and isinstance(ancestor.func, ast.Name):
            if ancestor.func.id == func_name:
                return True
    return False


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
RuleCheck = Callable[[ModuleSource], Iterator[Finding]]


@dataclass(frozen=True)
class RuleSpec:
    """One registered rule: stable ID, summary, scope and check function."""

    id: str
    summary: str
    check: RuleCheck
    scope: Tuple[str, ...] = ("*",)

    def applies_to(self, module: str) -> bool:
        return any(fnmatch.fnmatch(module, pattern) for pattern in self.scope)


_RULES: Dict[str, RuleSpec] = {}


def register_rule(
    rule_id: str,
    summary: str,
    scope: Sequence[str] = ("*",),
) -> Callable[[RuleCheck], RuleCheck]:
    """Register a rule check under a stable ID (decorator).

    ``scope`` is a sequence of fnmatch globs matched against the
    package-relative module path (``serving/service.py``); the default
    applies the rule everywhere.  Re-registering an ID is an error — rule
    IDs are part of the inline-suppression contract.
    """
    if not _RULE_ID_RE.match(rule_id):
        raise AnalysisError(
            f"rule id {rule_id!r} must look like 'ABC123' (letters then digits)"
        )

    def decorate(check: RuleCheck) -> RuleCheck:
        if rule_id in _RULES:
            raise AnalysisError(f"rule {rule_id!r} is already registered")
        _RULES[rule_id] = RuleSpec(
            id=rule_id, summary=summary, check=check, scope=tuple(scope)
        )
        return check

    return decorate


def _ensure_rules_loaded() -> None:
    """Import the rule modules (registration happens at import time)."""
    from repro.analysis import (  # noqa: F401
        concurrency,
        conformance,
        determinism,
        environment,
        promotion,
    )


def all_rules() -> Tuple[RuleSpec, ...]:
    """Every registered rule, sorted by ID."""
    _ensure_rules_loaded()
    return tuple(_RULES[rule_id] for rule_id in sorted(_RULES))


def rule_ids() -> Tuple[str, ...]:
    return tuple(spec.id for spec in all_rules())


def select_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[RuleSpec, ...]:
    """The rule set after ``--select``/``--ignore`` filtering.

    Entries may be exact IDs or prefixes (``DET`` selects every
    determinism rule).  Unknown entries raise :class:`AnalysisError` —
    a typo silently selecting nothing would report a falsely clean tree.
    """
    rules = all_rules()
    known = {spec.id for spec in rules}

    def expand(entries: Sequence[str], flag: str) -> frozenset:
        chosen = set()
        for entry in entries:
            matches = {rid for rid in known if rid == entry or rid.startswith(entry)}
            if not matches:
                raise AnalysisError(
                    f"{flag} {entry!r} matches no registered rule; known rules: "
                    f"{', '.join(sorted(known))}"
                )
            chosen |= matches
        return frozenset(chosen)

    if select:
        selected = expand(select, "--select")
        rules = tuple(spec for spec in rules if spec.id in selected)
    if ignore:
        ignored = expand(ignore, "--ignore")
        rules = tuple(spec for spec in rules if spec.id not in ignored)
    return rules


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint run: findings and coverage."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.findings


def lint_module(
    module: ModuleSource,
    rules: Optional[Sequence[RuleSpec]] = None,
) -> List[Finding]:
    """Run every applicable rule over one parsed module."""
    if rules is None:
        rules = all_rules()
    findings: List[Finding] = []
    for spec in rules:
        if not spec.applies_to(module.module):
            continue
        for found in spec.check(module):
            found = replace(found, rule=spec.id)
            if module.suppressed(found.rule, found.line):
                continue
            findings.append(found)
    findings.sort(key=Finding.sort_key)
    return findings


def lint_source(
    text: str,
    module: str = "snippet.py",
    rules: Optional[Sequence[RuleSpec]] = None,
) -> List[Finding]:
    """Lint an in-memory snippet (unit tests, the hypothesis fuzzer)."""
    return lint_module(ModuleSource(text, path=module, module=module), rules)


def iter_python_files(target: Path) -> List[Path]:
    """Python files under a path, deterministically sorted."""
    if target.is_file():
        return [target]
    return sorted(path for path in target.rglob("*.py") if path.is_file())


def _module_root(target: Path) -> Optional[Path]:
    """The directory module paths are relative to, for scope matching.

    For a package directory this is the directory itself (so modules read
    ``serving/service.py``); for a file inside a package it is the topmost
    ancestor that still contains an ``__init__.py``.
    """
    if target.is_dir():
        return target
    root = target.parent
    while (root / "__init__.py").is_file() and root.parent != root:
        root = root.parent
    return root


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint files and directories; directories are walked recursively.

    Module paths for scope matching are taken relative to each directory
    argument (or the enclosing package for file arguments), so rule scopes
    like ``serving/*.py`` work however the tree is addressed.
    """
    rules = select_rules(select, ignore)
    report = LintReport(rules=tuple(spec.id for spec in rules))
    for target in paths:
        target = Path(target)
        if not target.exists():
            raise AnalysisError(f"{target}: no such file or directory")
        root = _module_root(target)
        for path in iter_python_files(target):
            module = ModuleSource.from_file(path, root=root)
            report.files_scanned += 1
            report.findings.extend(lint_module(module, rules))
    report.findings.sort(key=Finding.sort_key)
    return report


def package_dir() -> Path:
    """The installed ``repro`` package directory (the default lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_package(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint the ``repro`` package itself (what CI and tier-1 tests run)."""
    return lint_paths([package_dir()], select=select, ignore=ignore)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_text(report: LintReport) -> str:
    """Human-readable report: one ``file:line:col: RULE message`` per line."""
    lines = [finding.render() for finding in report.findings]
    summary = (
        f"{len(report.findings)} finding(s), "
        f"{report.files_scanned} file(s) scanned, {len(report.rules)} rule(s)"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (canonical: sorted keys, stable ordering)."""
    payload = {
        "findings": [finding.to_payload() for finding in report.findings],
        "files_scanned": report.files_scanned,
        "rules": list(report.rules),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
