"""Figure 7: multi-iteration runs and preprocessing amortization.

Fig. 7 examines three matrices at 1 and 19 iterations.  Kernels with a
preprocessing stage (Adaptive-CSR, rocSPARSE) are not worth their setup cost
for a single iteration, but over 19 iterations the cost can amortize — on
some matrices but not others — and the predictors must anticipate that from
the iteration count.  19 iterations is singled out in the paper precisely
because it is the crossover point for some matrices and not for others.

The archetypes used here mirror the paper's three examples:

* ``CurlCurl_3_like`` — amortization happens by 19 iterations, so a
  preprocessing kernel should be selected there but not at 1 iteration;
* ``G3_Circuit_like`` — ELL,TM wins at both 1 and 19 iterations because the
  preprocessing never amortizes on this very uniform matrix;
* ``PWTK_like`` — amortization again favours the preprocessing kernel at 19
  iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.domains.spmv import SPMV
from repro.experiments.common import format_table, matrix_picks, measure_kernels
from repro.experiments.registry import ExperimentArtifact, register_experiment
from repro.sparse.collection import archetype

#: Archetypes of the Fig. 7 matrices and their generation scales.
FIG7_MATRICES = {
    "CurlCurl_3_like": 32768,
    "G3_Circuit_like": 32768,
    "PWTK_like": 24576,
}

#: Iteration counts examined by the figure.
FIG7_ITERATIONS = (1, 19)


@dataclass
class Fig7Case:
    """One panel of Fig. 7: one matrix at one iteration count."""

    name: str
    iterations: int
    oracle_kernel: str
    oracle_ms: float
    selector_choice: str
    selector_kernel: str
    selector_ms: float
    known_kernel: str
    known_ms: float
    gathered_kernel: str
    gathered_ms: float
    kernel_totals_ms: dict = field(default_factory=dict)

    @property
    def oracle_uses_preprocessing_kernel(self) -> bool:
        """Whether the fastest kernel at this iteration count has preprocessing."""
        return self.oracle_kernel in ("CSR,A", "rocSPARSE")

    def to_rows(self) -> list:
        """Rows (approach/kernel, total ms) for this panel."""
        rows = [
            ("Oracle", round(self.oracle_ms, 4)),
            ("Selector", round(self.selector_ms, 4)),
            ("Gathered", round(self.gathered_ms, 4)),
            ("Known", round(self.known_ms, 4)),
        ]
        for kernel, total in self.kernel_totals_ms.items():
            rows.append((kernel, round(total, 4) if math.isfinite(total) else "n/a"))
        return rows


@dataclass
class Fig7Result:
    """All panels of Fig. 7."""

    cases: list = field(default_factory=list)

    def case(self, name: str, iterations: int) -> Fig7Case:
        """Look up one panel."""
        for case in self.cases:
            if case.name == name and case.iterations == iterations:
                return case
        raise KeyError((name, iterations))

    def amortization_flips(self) -> list:
        """Matrices whose best kernel gains preprocessing between 1 and 19 iters."""
        flips = []
        for name in sorted({case.name for case in self.cases}):
            single = self.case(name, 1)
            multi = self.case(name, 19)
            if (
                not single.oracle_uses_preprocessing_kernel
                and multi.oracle_uses_preprocessing_kernel
            ):
                flips.append(name)
        return flips

    def render(self) -> str:
        """Printable summary of every panel."""
        sections = []
        for case in self.cases:
            header = (
                f"Fig. 7 — {case.name}, {case.iterations} iteration(s): "
                f"oracle={case.oracle_kernel}, selector={case.selector_kernel} "
                f"(via {case.selector_choice} path)"
            )
            sections.append(header + "\n" + format_table(["approach", "total ms"], case.to_rows()))
        sections.append(
            "matrices where preprocessing amortizes by 19 iterations: "
            + ", ".join(self.amortization_flips() or ["none"])
        )
        return "\n\n".join(sections)

    def to_artifact(self) -> ExperimentArtifact:
        """Structured output: one row per (matrix, iterations, approach/kernel)."""
        rows = []
        for case in self.cases:
            rows.append((case.name, case.iterations, "Oracle", case.oracle_kernel, case.oracle_ms))
            rows.append(
                (case.name, case.iterations, "Selector", case.selector_kernel, case.selector_ms)
            )
            rows.append(
                (case.name, case.iterations, "Gathered", case.gathered_kernel, case.gathered_ms)
            )
            rows.append((case.name, case.iterations, "Known", case.known_kernel, case.known_ms))
            for kernel, total in case.kernel_totals_ms.items():
                rows.append((case.name, case.iterations, kernel, kernel, total))
        return ExperimentArtifact(
            columns=("name", "iterations", "approach", "kernel", "total_ms"),
            rows=rows,
            summary={"amortization_flips": self.amortization_flips()},
        )


def _case_for(record, iterations: int, sweep, measured) -> Fig7Case:
    picks = matrix_picks(sweep, record, iterations, measured)
    return Fig7Case(
        name=record.name,
        iterations=iterations,
        oracle_kernel=picks.oracle,
        oracle_ms=picks.oracle_ms,
        selector_choice=picks.selector.selector_choice,
        selector_kernel=picks.selector.kernel,
        selector_ms=picks.selector_ms,
        known_kernel=picks.known_kernel,
        known_ms=picks.known_ms,
        gathered_kernel=picks.gathered_kernel,
        gathered_ms=picks.gathered_ms,
        kernel_totals_ms=picks.totals_ms,
    )


def run_fig7(sweep, scales=None) -> Fig7Result:
    """Regenerate the Fig. 7 multi-iteration amortization study."""
    scales = scales or FIG7_MATRICES
    result = Fig7Result()
    kernels = SPMV.default_kernels(sweep.predictor.device)
    for name, scale in scales.items():
        record = archetype(name, scale=scale)
        measured = measure_kernels(sweep, record, kernels)
        for iterations in FIG7_ITERATIONS:
            result.cases.append(_case_for(record, iterations, sweep, measured))
    return result


@register_experiment(
    "fig7",
    title="Multi-iteration amortization study (Fig. 7)",
    domains=("spmv",),
    description="named SpMV archetypes at 1 and 19 iterations; which "
    "matrices amortize a preprocessing stage",
)
def _fig7_experiment(context) -> Fig7Result:
    return run_fig7(context.sweep())
