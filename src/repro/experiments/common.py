"""Shared infrastructure for the experiment drivers.

Every sweep-based driver takes the :class:`~repro.bench.runner.SweepResult`
it reports on; :class:`repro.experiments.registry.ExperimentContext` runs
that sweep once per suite and shares it across every experiment of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.kernels.base import LaunchContext, UnsupportedKernelError

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


@dataclass(frozen=True)
class MatrixPicks:
    """One matrix at one iteration count: every kernel and every predictor.

    The per-matrix panels of Figs. 5 and 7 read their bars from here.  An
    unsupported kernel has no timing and an infinite total; a predictor
    that picks one pays the worst finite kernel instead.
    """

    timings: dict
    totals_ms: dict
    oracle: str
    worst_ms: float
    selector: object
    known_kernel: str
    gathered_kernel: str
    collection_ms: float

    def total_ms(self, kernel: str, overhead_ms: float = 0.0) -> float:
        """``kernel``'s total plus ``overhead_ms``, worst-finite if unsupported."""
        base = self.totals_ms.get(kernel, math.inf)
        if not math.isfinite(base):
            base = self.worst_ms
        return base + overhead_ms

    @property
    def oracle_ms(self) -> float:
        return self.totals_ms[self.oracle]

    @property
    def selector_ms(self) -> float:
        """The deployed flow pays its whole selection overhead."""
        return self.total_ms(self.selector.kernel, self.selector.overhead_ms)

    @property
    def gathered_ms(self) -> float:
        """Always-gathered pays feature collection only."""
        return self.total_ms(self.gathered_kernel, self.collection_ms)

    @property
    def known_ms(self) -> float:
        """Always-known pays no overhead."""
        return self.total_ms(self.known_kernel)


@dataclass(frozen=True)
class MatrixMeasurement:
    """One matrix measured once: every kernel's timing and its gathered row.

    Neither depends on the iteration count, so :func:`matrix_picks` prices
    any number of counts from one measurement.  An unsupported kernel's
    timing is ``None``.
    """

    timings: dict
    gathered: object


def measure_kernels(sweep, record, kernels) -> MatrixMeasurement:
    """Time every kernel on ``record`` and collect its gathered features.

    The timings and the collection share one launch context, so the row
    lengths are derived once per matrix.
    """
    matrix = record.matrix
    context = LaunchContext.of(matrix)
    timings = {}
    for kernel in kernels:
        try:
            timings[kernel.name] = kernel.timing(matrix, context=context)
        except UnsupportedKernelError:
            timings[kernel.name] = None
    return MatrixMeasurement(
        timings=timings,
        gathered=sweep.predictor.pipeline.gather(matrix, context=context),
    )


def matrix_picks(sweep, record, iterations: int, measured: MatrixMeasurement) -> MatrixPicks:
    """Price ``measured`` at ``iterations`` and ask each predictor for its pick.

    The oracle is the fastest supported kernel (ties broken by name); the
    Selector pick is :meth:`~repro.core.inference.SeerPredictor.predict`,
    which pays its own collection on the gathered route, the Known and
    Gathered picks the sweep's classifiers on the always-known and
    always-collected features.
    """
    matrix = record.matrix
    predictor = sweep.predictor
    totals = {
        name: math.inf if timing is None else timing.total_ms(iterations)
        for name, timing in measured.timings.items()
    }
    finite = {name: value for name, value in totals.items() if math.isfinite(value)}
    known = predictor.pipeline.known_features(matrix, iterations).as_vector()
    gathered = measured.gathered
    return MatrixPicks(
        timings=measured.timings,
        totals_ms=totals,
        oracle=min(finite, key=lambda name: (finite[name], name)),
        worst_ms=max(finite.values()),
        selector=predictor.predict(matrix, iterations=iterations, name=record.name),
        known_kernel=predictor.models.predict_known(known),
        gathered_kernel=predictor.models.predict_gathered(known, gathered.as_vector()),
        collection_ms=gathered.collection_time_ms,
    )
