"""Shared infrastructure for the experiment drivers.

Every sweep-based driver takes the :class:`~repro.bench.runner.SweepResult`
it reports on; :class:`repro.experiments.registry.ExperimentContext` runs
that sweep once per suite and shares it across every experiment of a run.
"""

from __future__ import annotations

#: Default collection profile of an experiment suite run.  ``medium`` is
#: large enough to leave the launch-overhead-dominated regime; the benchmark
#: harness upgrades the headline experiments to ``full``.
DEFAULT_PROFILE = "medium"


def format_table(headers, rows) -> str:
    """Render a small left-aligned text table (no external dependencies)."""
    headers = [str(h) for h in headers]
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[col]), max((len(r[col]) for r in rendered), default=0))
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
