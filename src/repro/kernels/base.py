"""Kernel abstraction shared by every SpMV variant.

Each kernel variant of Table II is a class with three responsibilities:

* **numeric correctness** — ``run`` produces the SpMV result ``y = A @ x``
  (computed with the format the kernel operates on where that is feasible);
* **per-iteration timing** — an analytical translation of the matrix
  structure into per-wavefront cycle counts and bytes moved, handed to the
  GPU simulator;
* **preprocessing timing** — the one-time cost (row binning, analysis
  passes) that the multi-iteration study amortizes.

The cost-model constants below are shared so kernels differ only where the
paper says they differ: how work is mapped to lanes, what metadata the
format carries, and what preprocessing they require.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.gpu.device import DeviceSpec, MI100
from repro.gpu.host import HostModel
from repro.gpu.memory import INDEX_BYTES, VALUE_BYTES, gather_bytes_per_access
from repro.gpu.simulator import (
    LaunchResult,
    LaunchSpec,
    as_wavefront_cycles,
    exact_weighted_sum,
    group_reduce_max,
    simulate_spec,
)
from repro.sparse.csr import CSRMatrix

#: Cycles a lane spends per nonzero (multiply-add plus address arithmetic).
CYCLES_PER_NONZERO = 4.0

#: Per-row bookkeeping cycles (offset reads, output write) for row-mapped kernels.
ROW_OVERHEAD_CYCLES = 8.0

#: Cycles of a wavefront-wide (64-lane) reduction.
WAVE_REDUCTION_CYCLES = 12.0

#: Cycles of a workgroup-wide (LDS) reduction.
BLOCK_REDUCTION_CYCLES = 40.0

#: Cycles of one merge-path binary search (work-oriented kernels).
MERGE_SEARCH_CYCLES = 24.0

#: Cycles of one global atomic update (COO segmented reduction carry-out).
ATOMIC_CYCLES = 16.0

#: Bytes of CSR metadata per nonzero (value + column index).
CSR_NNZ_BYTES = VALUE_BYTES + INDEX_BYTES

#: Bytes of COO metadata per nonzero (value + column index + row index).
COO_NNZ_BYTES = VALUE_BYTES + 2 * INDEX_BYTES


class UnsupportedKernelError(RuntimeError):
    """Raised when a kernel cannot process a matrix (e.g. pathological ELL padding)."""


class LaunchContext:
    """Per-workload cache of the row-structure arrays kernel cost models share.

    Every kernel's cycle model starts from the same derived arrays — the row
    lengths, their float64 view, their sorted order and run-length
    histogram, grouped maxima.  Computing them once per measurement instead
    of once per kernel is where most of the batched path's speedup comes
    from.  All consumers are read-only and a matrix's structure is
    immutable, so sharing is safe; a context is cheap to construct and
    fills lazily.
    """

    def __init__(self, matrix: CSRMatrix):
        self.matrix = matrix
        self._row_lengths_f64 = None
        self._sorted_f64 = None
        self._histogram = None
        self._shared: dict = {}
        self._occupied_rows = None

    @classmethod
    def of(
        cls, workload, context: "Optional[LaunchContext]" = None
    ) -> "LaunchContext":
        """The given context, or a fresh one for the workload's matrix.

        ``workload`` is either a :class:`~repro.sparse.csr.CSRMatrix` or a
        domain workload wrapping one in a ``matrix`` attribute.
        """
        if context is not None:
            return context
        return cls(getattr(workload, "matrix", workload))

    @property
    def row_lengths(self) -> np.ndarray:
        """Integer nonzero count per row (the matrix's read-only array)."""
        return self.matrix.row_lengths()

    @property
    def row_lengths_f64(self) -> np.ndarray:
        """Row lengths as float64, the input of every cycle model."""
        if self._row_lengths_f64 is None:
            self._row_lengths_f64 = self.row_lengths.astype(np.float64)
        return self._row_lengths_f64

    @property
    def sorted_row_lengths_f64(self) -> np.ndarray:
        """Ascending row lengths (float64), shared by the adaptive kernels."""
        if self._sorted_f64 is None:
            self._sorted_f64 = np.sort(self.row_lengths_f64)
        return self._sorted_f64

    @property
    def length_histogram(self) -> tuple:
        """``(lengths, counts)``: the distinct row lengths and their rows.

        ``lengths`` is ascending float64 and ``counts`` int64, both taken
        from the run boundaries of :attr:`sorted_row_lengths_f64`.  Cost
        models that do not depend on row order evaluate their per-row
        transform once per distinct length.  (``np.bincount`` would size
        its output by the longest row, up to ``num_cols``, not by the
        number of rows.)
        """
        if self._histogram is None:
            ordered = self.sorted_row_lengths_f64
            if ordered.shape[0] == 0:
                self._histogram = (ordered, np.zeros(0, dtype=np.int64))
            else:
                edges = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
                bounds = np.concatenate(([0], edges, [ordered.shape[0]]))
                self._histogram = (ordered[bounds[:-1]], bounds[1:] - bounds[:-1])
        return self._histogram

    def shared(self, key, build):
        """``build()``, computed once per context and cached under ``key``.

        Lets kernels that derive the same array from the row structure
        (the two adaptive variants, every kernel of one group size) share
        it without the context knowing their cost models.
        """
        cached = self._shared.get(key)
        if cached is None:
            cached = self._shared[key] = build()
        return cached

    def grouped_max(self, group_size: int) -> np.ndarray:
        """Grouped maximum of the row lengths (zero-padded tail).

        Row-mapped kernels apply monotone per-lane cycle transforms, which
        commute with ``max``; taking the grouped maximum over the raw row
        lengths lets every kernel with the same group size share it and run
        its transform on the ``group_size``-times-smaller array.
        """
        return self.shared(
            ("grouped_max", group_size),
            lambda: group_reduce_max(self.row_lengths_f64, group_size),
        )

    def clamped_stream_bytes(self, bytes_per_nonzero: float, floor: float) -> float:
        """``sum(max(row_length * bytes_per_nonzero, floor))`` over all rows.

        The per-row DRAM traffic with a minimum-transaction floor; the
        warp- and block-mapped kernels use identical expressions, so the
        reduction is cached per (bytes, floor) pair.  It is evaluated once
        per distinct length and weighted by the histogram counts, which is
        exact (and so equal to the per-row sum) while the byte counts are
        integers whose total stays below 2**53; anything else raises.
        """

        def build():
            lengths, counts = self.length_histogram
            per_length = np.maximum(lengths * bytes_per_nonzero, floor)
            return exact_weighted_sum(per_length, counts, "clamped stream bytes")

        return self.shared(("clamped_stream", bytes_per_nonzero, floor), build)

    @property
    def occupied_rows(self) -> int:
        """Number of rows with at least one nonzero."""
        if self._occupied_rows is None:
            self._occupied_rows = int(np.count_nonzero(self.row_lengths))
        return self._occupied_rows


@dataclass(frozen=True)
class KernelTiming:
    """Simulated timing of one kernel on one matrix (milliseconds)."""

    kernel: str
    preprocessing_ms: float
    iteration_ms: float
    iteration_detail: Optional[LaunchResult] = field(compare=False, default=None)

    def total_ms(self, iterations: int = 1) -> float:
        """End-to-end time for ``iterations`` SpMV iterations."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        return self.preprocessing_ms + iterations * self.iteration_ms


@dataclass
class SpmvRunResult:
    """Numeric result plus timing of one kernel execution."""

    kernel: str
    y: np.ndarray
    timing: KernelTiming
    iterations: int = 1

    @property
    def total_ms(self) -> float:
        """End-to-end simulated time of this run."""
        return self.timing.total_ms(self.iterations)


class SpmvKernel(abc.ABC):
    """Base class of every SpMV kernel variant.

    Subclasses define ``name`` (the label used throughout the paper, e.g.
    ``"CSR,TM"``), ``sparse_format`` and ``schedule``, and implement the
    structural cost model in :meth:`_launch_spec`.
    """

    #: Paper label of the kernel, e.g. ``"CSR,WM"``.
    name: str = "abstract"
    #: Compressed format the kernel consumes ("CSR", "COO", "ELL").
    sparse_format: str = "CSR"
    #: Load-balancing schedule label (Table II).
    schedule: str = "abstract"
    #: Whether the kernel requires a preprocessing stage (Table II / Fig. 7).
    has_preprocessing: bool = False
    #: Fraction of peak DRAM bandwidth this kernel's access pattern sustains.
    bandwidth_utilization: float = 1.0

    def __init__(self, device: DeviceSpec = MI100):
        self.device = device
        self.host = HostModel(device)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, device={self.device.name!r})"

    # ------------------------------------------------------------------
    # Capability checks
    # ------------------------------------------------------------------
    def supports(self, matrix: CSRMatrix) -> bool:
        """Whether the kernel can process this matrix at all."""
        return True

    def _require_supported(self, matrix: CSRMatrix) -> None:
        if not self.supports(matrix):
            raise UnsupportedKernelError(f"{self.name} cannot process this matrix")

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def preprocessing_time_ms(self, matrix: CSRMatrix) -> float:
        """One-time preprocessing cost for this matrix (0 when none)."""
        return 0.0

    @abc.abstractmethod
    def _launch_spec(self, matrix: CSRMatrix, context: LaunchContext) -> LaunchSpec:
        """Translate the matrix structure into this kernel's launch spec.

        The spec is the single source of truth for the kernel's cycle model:
        :meth:`timing` and :func:`batch_timings` both simulate exactly this
        spec, which is what makes them bit-identical by construction.
        """

    def _supported_timing(self, matrix: CSRMatrix, context: LaunchContext) -> KernelTiming:
        """Timing of a workload the caller has checked :meth:`supports` for."""
        launch = simulate_spec(self.device, self._launch_spec(matrix, context))
        return KernelTiming(
            kernel=self.name,
            preprocessing_ms=self.preprocessing_time_ms(matrix),
            iteration_ms=launch.total_ms,
            iteration_detail=launch,
        )

    def timing(self, matrix: CSRMatrix, context=None) -> KernelTiming:
        """Preprocessing plus per-iteration timing for ``matrix``.

        ``context`` optionally shares a :class:`LaunchContext` across kernels
        measuring the same workload.
        """
        self._require_supported(matrix)
        return self._supported_timing(matrix, LaunchContext.of(matrix, context))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _numeric_result(self, matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x``; subclasses may override to use their own format."""
        return matrix.spmv(x)

    def run(self, matrix: CSRMatrix, x: np.ndarray, iterations: int = 1) -> SpmvRunResult:
        """Execute ``iterations`` SpMV iterations and return result + timing.

        Iterating SpMV repeatedly with the same ``x`` would be pointless
        numerically, so — as in iterative solvers — the output of one
        iteration feeds the next when the matrix is square; otherwise the
        same ``x`` is reused and only the timing reflects the iteration
        count.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        timing = self.timing(matrix)
        y = self._numeric_result(matrix, np.asarray(x, dtype=np.float64))
        if matrix.num_rows == matrix.num_cols:
            for _ in range(iterations - 1):
                y = self._numeric_result(matrix, y)
        return SpmvRunResult(kernel=self.name, y=y, timing=timing, iterations=iterations)

    # ------------------------------------------------------------------
    # Shared cost-model helpers
    # ------------------------------------------------------------------
    def _gather_bytes(self, matrix: CSRMatrix, accesses: float) -> float:
        """Bytes moved by gathering ``accesses`` elements of the x vector."""
        vector_bytes = matrix.num_cols * VALUE_BYTES
        return accesses * gather_bytes_per_access(self.device, vector_bytes)

    def _csr_stream_bytes(self, matrix: CSRMatrix) -> float:
        """Bytes of the CSR arrays plus the output vector for one iteration."""
        return (
            matrix.nnz * CSR_NNZ_BYTES
            + (matrix.num_rows + 1) * INDEX_BYTES
            + matrix.num_rows * VALUE_BYTES
        )

    def _spec(
        self,
        wavefront_cycles,
        bytes_moved: float,
        occupancy_factor: float = 1.0,
        extra_launches: int = 0,
        serial_cycles: float = 0.0,
        wave_counts=None,
    ) -> LaunchSpec:
        """Build a launch spec labelled and bandwidth-scaled for this kernel."""
        return LaunchSpec(
            wavefront_cycles=as_wavefront_cycles(wavefront_cycles),
            bytes_moved=float(bytes_moved),
            label=self.name,
            occupancy_factor=occupancy_factor,
            extra_launches=extra_launches,
            bandwidth_utilization=self.bandwidth_utilization,
            serial_cycles=serial_cycles,
            wave_counts=wave_counts,
        )


def batch_timings(kernels, workload, context=None) -> dict:
    """Timings of many kernels over one workload, sharing one context.

    Builds one :class:`LaunchContext` and times every supported kernel
    through it.  Returns ``{kernel name: KernelTiming}``; kernels that
    cannot process the workload are absent (callers record those as
    unsupported).  Equal to calling :meth:`SpmvKernel.timing` per kernel:
    both simulate the same :class:`~repro.gpu.simulator.LaunchSpec`, each on
    its kernel's own device.
    """
    context = LaunchContext.of(workload, context)
    return {
        kernel.name: kernel._supported_timing(workload, context)
        for kernel in kernels
        if kernel.supports(workload)
    }
