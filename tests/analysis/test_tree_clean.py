"""Tier-1 guard: the shipped tree must satisfy its own invariants.

This is the test the whole subsystem exists for — every determinism,
concurrency and conformance rule runs over ``src/repro`` itself, and any
finding fails the suite with the same ``file:line`` output
``repro lint`` prints.
"""

from __future__ import annotations

from repro.analysis import lint_package, package_dir, render_text


def test_package_tree_is_lint_clean():
    report = lint_package()
    assert report.clean, "\n" + render_text(report)


def test_lint_run_covers_the_whole_package():
    report = lint_package()
    python_files = len(list(package_dir().rglob("*.py")))
    assert report.files_scanned == python_files
    assert report.files_scanned > 50
    assert len(report.rules) >= 8
