"""The ``"spmm"`` domain: sparse matrix x dense multi-vector (SpMM).

SpMM (``C = A @ B`` with ``B`` a dense ``cols x num_vectors`` block of
right-hand sides) is the second irregular workload shipped through the
domain plugin API, proving the Seer pipeline is not SpMV-specific.  It runs
on the same analytical GPU model as the case study and mirrors its
structure:

* **known features** — rows, cols, nnz plus the number of dense vectors
  (``num_vectors``) and the iteration count;
* **gathered features** — *column-block occupancy* statistics: the columns
  are split into cache-line-sized blocks and each row's footprint over those
  blocks is reduced to max/mean occupancy, alongside the row-density mean
  and variance.  Occupancy is what decides how much of each fetched ``B``
  line a kernel actually uses, so it is the SpMM analog of the paper's
  row-density statistics;
* **kernels** — four schedules with genuinely different failure modes:
  thread-mapped (imbalance- and coalescing-sensitive), row-per-wavefront
  (per-row overhead heavy), work-oriented nnz-splitting (balanced but paying
  search/atomic overheads) and a padded ELL schedule with a device-side
  conversion stage (regular but padding-hostile).

Workload recipes reuse the synthetic collection's matrix grid, crossed with
a ``num_vectors`` grid, so every collection profile (``tiny`` ... ``full``)
works unchanged: ``run_sweep(profile="tiny", domain="spmm")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.domains.base import FeatureField, GatheredFeatureRow, ProblemDomain
from repro.domains.registry import register_domain
from repro.gpu.device import MI100, DeviceSpec
from repro.gpu.memory import INDEX_BYTES, VALUE_BYTES
from repro.gpu.simulator import LaunchResult, LaunchSpec, simulate_launch
from repro.kernels.base import (
    ATOMIC_CYCLES,
    CSR_NNZ_BYTES,
    CYCLES_PER_NONZERO,
    MERGE_SEARCH_CYCLES,
    ROW_OVERHEAD_CYCLES,
    WAVE_REDUCTION_CYCLES,
    LaunchContext,
    SpmvKernel,
)
from repro.sparse import collection as sparse_collection
from repro.sparse.csr import CSRMatrix

#: Width (in columns) of one occupancy block — one 512-byte fetch of B rows.
COLUMN_BLOCK = 64

#: Gathered-feature names of the SpMM domain, in classifier input order.
SPMM_GATHERED_NAMES = (
    "max_block_occupancy",
    "mean_block_occupancy",
    "mean_row_density",
    "var_row_density",
)

#: Matrix families of the synthetic collection the SpMM corpus draws from.
SPMM_FAMILIES = (
    "regular",
    "banded",
    "power_law",
    "heavy_tail",
    "skewed",
    "uniform",
    "block",
    "empty_heavy",
)

#: Dense right-hand-side widths each matrix recipe is crossed with.
NUM_VECTORS_GRID = (4, 32)

#: Denser ``num_vectors`` grid swept by the SpMM amortization study
#: (feature-collection cost vs. dense block width).
AMORTIZATION_VECTOR_GRID = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class SpmmWorkload:
    """One SpMM problem instance: a sparse matrix and its dense block width."""

    matrix: CSRMatrix
    num_vectors: int

    def __post_init__(self):
        if self.num_vectors < 1:
            raise ValueError("num_vectors must be >= 1")

    @property
    def num_rows(self) -> int:
        return self.matrix.num_rows

    @property
    def num_cols(self) -> int:
        return self.matrix.num_cols

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def spmm(self, b: np.ndarray) -> np.ndarray:
        """Reference dense result ``C = A @ B`` (column by column)."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.num_cols, self.num_vectors):
            raise ValueError(
                f"B has shape {b.shape}, expected "
                f"({self.num_cols}, {self.num_vectors})"
            )
        return np.stack(
            [self.matrix.spmv(b[:, j]) for j in range(self.num_vectors)], axis=1
        )


@dataclass(frozen=True)
class SpmmSpec:
    """Recipe for one SpMM workload (picklable, cache-keyable)."""

    name: str
    family: str
    builder: str
    params: tuple
    seed: int
    num_vectors: int

    def build(self) -> CSRMatrix:
        """Construct the sparse-matrix part of the workload."""
        builder = getattr(sparse_collection.gen, self.builder)
        return builder(rng=np.random.default_rng(self.seed), **dict(self.params))


# ----------------------------------------------------------------------
# Gathered features: column-block occupancy
# ----------------------------------------------------------------------
def spmm_gathered_features(
    workload: SpmmWorkload, context: LaunchContext = None
) -> GatheredFeatureRow:
    """Column-block occupancy and row-density statistics of a workload.

    A row's *block occupancy* is the number of distinct ``COLUMN_BLOCK``-wide
    column blocks its nonzeros touch, divided by the number of blocks the
    matrix has.  High occupancy means a kernel streaming B block-by-block
    reuses every fetched line; low occupancy means most of each fetched B
    line is wasted — the quantity the gathered classifier needs to price B
    traffic.

    ``context`` optionally shares the row-length arrays the timing kernels
    already derived for the same matrix.
    """
    matrix = workload.matrix
    if matrix.num_rows == 0 or matrix.num_cols == 0:
        return GatheredFeatureRow(names=SPMM_GATHERED_NAMES, values=(0.0,) * 4)
    context = LaunchContext.of(workload, context)
    lengths = context.row_lengths
    num_blocks = -(-matrix.num_cols // COLUMN_BLOCK)
    if matrix.nnz == 0:
        occupancy = np.zeros(matrix.num_rows, dtype=np.float64)
    else:
        # Column indices are sorted within each row, so distinct blocks per
        # row are transitions in the block id sequence (+1 per non-empty row).
        blocks = matrix.col_indices // COLUMN_BLOCK
        new_block = np.ones(matrix.nnz, dtype=np.int64)
        new_block[1:] = (blocks[1:] != blocks[:-1]).astype(np.int64)
        nonempty_starts = matrix.row_offsets[:-1][lengths > 0]
        new_block[nonempty_starts] = 1
        distinct = np.zeros(matrix.num_rows, dtype=np.float64)
        distinct[lengths > 0] = np.add.reduceat(
            new_block, nonempty_starts.astype(np.int64)
        )
        occupancy = distinct / float(num_blocks)
    densities = context.row_lengths_f64 / float(matrix.num_cols)
    max_occupancy = float(occupancy.max())
    # Clamped so the mean <= max invariant holds exactly even if summation
    # error nudges the mean past the extreme (as the SpMV features do).
    mean_occupancy = min(float(occupancy.mean()), max_occupancy)
    return GatheredFeatureRow(
        names=SPMM_GATHERED_NAMES,
        values=(
            max_occupancy,
            mean_occupancy,
            float(densities.mean()),
            float(densities.var()),
        ),
    )


@dataclass(frozen=True)
class SpmmCollectionResult:
    """Gathered SpMM features plus the simulated cost of collecting them."""

    features: GatheredFeatureRow
    collection_time_ms: float
    launch: LaunchResult


class SpmmFeatureCollector:
    """Simulated parallel collection of the column-block occupancy features.

    Unlike the SpMV collector (which only touches the row offsets), the
    occupancy scan must stream the column-index array itself — collection is
    therefore proportionally more expensive, which sharpens the selector's
    collect-or-not trade-off on this domain.
    """

    name = "spmm-feature-collection"

    #: Cycles each lane spends per nonzero (block id, transition test).
    CYCLES_PER_NONZERO = 3.0

    #: Cycles of the final reduction combining per-wavefront partials.
    REDUCTION_CYCLES = 64.0

    #: Scalars copied back to the host (two occupancy and two density stats).
    RESULT_SCALARS = 4

    def __init__(self, device: DeviceSpec = MI100):
        from repro.gpu.host import HostModel

        self.device = device
        self.host = HostModel(device)

    def collection_time_ms(self, workload: SpmmWorkload) -> float:
        """Cost of gathering the occupancy features for ``workload``."""
        return self._simulate(workload)[0]

    def collect(self, workload: SpmmWorkload, context=None) -> SpmmCollectionResult:
        """Compute the gathered features and their collection cost.

        ``context`` optionally shares a
        :class:`~repro.kernels.base.LaunchContext` with the timing kernels.
        """
        time_ms, launch = self._simulate(workload)
        features = spmm_gathered_features(
            workload, context=context
        ).with_collection_time(time_ms)
        return SpmmCollectionResult(
            features=features, collection_time_ms=time_ms, launch=launch
        )

    def _simulate(self, workload: SpmmWorkload) -> tuple:
        matrix = workload.matrix
        simd = self.device.simd_width
        elements = max(matrix.nnz, 1)
        num_waves = max(1, int(np.ceil(elements / simd)))
        wave_cycles = np.full(
            num_waves,
            self.CYCLES_PER_NONZERO + self.REDUCTION_CYCLES / simd,
            dtype=np.float64,
        )
        bytes_moved = (
            matrix.nnz * INDEX_BYTES
            + (matrix.num_rows + 1) * INDEX_BYTES
            + num_waves * self.RESULT_SCALARS * VALUE_BYTES
        )
        launch = simulate_launch(
            self.device,
            wave_cycles,
            bytes_moved,
            label=self.name,
            extra_launches=1,
        )
        transfer_ms = self.host.transfer_time_ms(self.RESULT_SCALARS * VALUE_BYTES)
        return launch.total_ms + transfer_ms, launch


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
class SpmmKernel(SpmvKernel):
    """Base of the SpMM kernel variants (operates on :class:`SpmmWorkload`)."""

    sparse_format = "CSR"

    def _b_stream_bytes(self, workload: SpmmWorkload) -> float:
        """DRAM traffic for the dense B block over one iteration.

        When B fits in the last-level cache every row of B is fetched about
        once; otherwise each nonzero re-fetches its ``num_vectors``-wide B
        row from DRAM.
        """
        b_total = workload.num_cols * workload.num_vectors * VALUE_BYTES
        if b_total <= self.device.l2_cache_bytes:
            return float(b_total)
        return float(workload.nnz * workload.num_vectors * VALUE_BYTES)

    def _c_stream_bytes(self, workload: SpmmWorkload) -> float:
        """DRAM traffic for writing the dense result C."""
        return float(workload.num_rows * workload.num_vectors * VALUE_BYTES)

    def _a_stream_bytes(self, workload: SpmmWorkload) -> float:
        """DRAM traffic for streaming the CSR arrays once."""
        return float(
            workload.nnz * CSR_NNZ_BYTES
            + (workload.num_rows + 1) * INDEX_BYTES
        )

    def run(self, workload: SpmmWorkload, b: np.ndarray, iterations: int = 1):
        """Execute ``iterations`` SpMM products and return result + timing."""
        from repro.kernels.base import SpmvRunResult

        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        timing = self.timing(workload)
        c = workload.spmm(np.asarray(b, dtype=np.float64))
        if workload.num_rows == workload.num_cols:
            for _ in range(iterations - 1):
                c = workload.spmm(c)
        return SpmvRunResult(kernel=self.name, y=c, timing=timing, iterations=iterations)


class SpmmThreadMapped(SpmmKernel):
    """One *(row, vector)* pair per thread: each lane owns one output
    element and walks its row once.  A row's CSR data is broadcast across
    the lanes sharing it, so accesses stay coalesced and short regular rows
    are ideal; a single long row still stalls every wavefront it lands in,
    and ``num_vectors`` beyond the SIMD width re-streams A."""

    name = "CSR,TM"
    schedule = "Thread Mapped"
    has_preprocessing = False
    bandwidth_utilization = 0.90

    def _launch_spec(self, workload: SpmmWorkload, context: LaunchContext) -> LaunchSpec:
        n = workload.num_vectors
        simd = self.device.simd_width
        if n >= simd:
            # Every row spans whole wavefronts; A is re-streamed per pass.
            lane_cycles = (
                context.row_lengths_f64 * CYCLES_PER_NONZERO + ROW_OVERHEAD_CYCLES
            )
            passes = int(np.ceil(n / simd))
            wavefront_cycles = np.repeat(lane_cycles, passes)
            a_passes = passes
        else:
            # A wavefront covers simd // n consecutive rows and is as slow
            # as the heaviest of them; the per-lane transform is monotone in
            # the row length, so it runs on the shared grouped maxima
            # (bit-identical to group-reducing the transformed lanes).
            rows_per_wave = max(1, simd // n)
            wavefront_cycles = (
                context.grouped_max(rows_per_wave) * CYCLES_PER_NONZERO
                + ROW_OVERHEAD_CYCLES
            )
            a_passes = 1
        bytes_moved = (
            a_passes * self._a_stream_bytes(workload)
            + self._b_stream_bytes(workload)
            + self._c_stream_bytes(workload)
        )
        return self._spec(wavefront_cycles, bytes_moved)


class SpmmRowWaveMapped(SpmmKernel):
    """One row per wavefront; the lanes stride across the row's nonzeros and
    the ``num_vectors`` accumulators are reduced per vector.  Long rows are
    handled gracefully, but every row pays ``num_vectors`` reductions — the
    schedule collapses on matrices made of millions of tiny rows."""

    name = "CSR,WM"
    schedule = "Warp Mapped"
    has_preprocessing = False
    bandwidth_utilization = 0.80

    #: Per-row bookkeeping: offset loads, predication, dispatch.
    PER_ROW_BOOKKEEPING_CYCLES = 36.0

    def _launch_spec(self, workload: SpmmWorkload, context: LaunchContext) -> LaunchSpec:
        n = workload.num_vectors
        # In place on the strip count; summands are integer-valued doubles,
        # so folding the constants matches the chained adds bit for bit.
        wavefront_cycles = np.ceil(context.row_lengths_f64 / self.device.simd_width)
        wavefront_cycles *= CYCLES_PER_NONZERO * n
        wavefront_cycles += (
            WAVE_REDUCTION_CYCLES * n
            + ROW_OVERHEAD_CYCLES
            + self.PER_ROW_BOOKKEEPING_CYCLES
        )
        bytes_moved = (
            self._a_stream_bytes(workload)
            + self._b_stream_bytes(workload)
            + self._c_stream_bytes(workload)
        )
        return self._spec(wavefront_cycles, bytes_moved)


class SpmmWorkOriented(SpmmKernel):
    """Work-oriented nnz splitting: every wavefront owns an equal chunk of
    nonzeros regardless of row boundaries, locating its range with a binary
    search and carrying partial rows out through global atomics.  Perfectly
    balanced on any structure, at a fixed per-wavefront overhead."""

    name = "CSR,WO"
    schedule = "Work Oriented"
    has_preprocessing = False
    bandwidth_utilization = 0.95

    #: Nonzeros each wavefront owns.
    CHUNK_NNZ = 512

    def _launch_spec(self, workload: SpmmWorkload, context: LaunchContext) -> LaunchSpec:
        matrix = workload.matrix
        n = workload.num_vectors
        num_chunks = max(1, -(-matrix.nnz // self.CHUNK_NNZ))
        full_cycles = (
            self.CHUNK_NNZ / self.device.simd_width * CYCLES_PER_NONZERO * n
            + MERGE_SEARCH_CYCLES
            + WAVE_REDUCTION_CYCLES
        )
        # Each chunk's carry-out row crosses the global atomic unit once;
        # the num_vectors partials of that row leave as one wide transaction.
        serial_cycles = num_chunks * ATOMIC_CYCLES
        bytes_moved = (
            self._a_stream_bytes(workload)
            + self._b_stream_bytes(workload)
            + self._c_stream_bytes(workload)
        )
        wavefront_cycles = np.full(num_chunks, full_cycles, dtype=np.float64)
        return self._spec(
            wavefront_cycles, bytes_moved, serial_cycles=serial_cycles
        )


class SpmmEllBlockMapped(SpmmKernel):
    """Padded ELL schedule: rows are padded to the longest row, giving a
    perfectly regular *(row, vector)*-per-thread loop with unit-stride,
    full-bandwidth accesses.  The conversion is fused into the prologue of
    the first product (a streaming repack, no extra launch), so the format
    pays for itself after a few iterations on near-uniform matrices — while
    a single hub row multiplies the whole matrix's work and B traffic."""

    name = "ELL,BM"
    sparse_format = "ELL"
    schedule = "Block Mapped"
    has_preprocessing = True
    bandwidth_utilization = 1.0

    #: Padding ratios beyond this are refused (the padded arrays and the
    #: padded B traffic would be astronomically wasteful for SpMM).
    MAX_SUPPORTED_PADDING = 32.0

    #: Cycles per padded element: the column-major layout enables unrolled,
    #: gather-free inner loops, cheaper than the CSR kernels' per-nonzero.
    CYCLES_PER_PADDED_ELEMENT = 2.0

    def supports(self, workload: SpmmWorkload) -> bool:
        matrix = workload.matrix
        padded = matrix.num_rows * float(matrix.max_row_length)
        return padded <= self.MAX_SUPPORTED_PADDING * matrix.nnz

    def preprocessing_time_ms(self, workload: SpmmWorkload) -> float:
        """Streaming CSR-to-ELL repack fused into the first product.

        Bandwidth-bound (read the CSR arrays, write the padded arrays) with
        no launch overhead of its own — the scatter rides the first
        iteration's launch.
        """
        from repro.gpu.memory import memory_time_ms

        matrix = workload.matrix
        padded_slots = matrix.num_rows * max(matrix.max_row_length, 1)
        bytes_moved = (
            matrix.nnz * CSR_NNZ_BYTES + padded_slots * (VALUE_BYTES + INDEX_BYTES)
        )
        return memory_time_ms(self.device, bytes_moved, self.bandwidth_utilization)

    def _launch_spec(self, workload: SpmmWorkload, context: LaunchContext) -> LaunchSpec:
        matrix = workload.matrix
        n = workload.num_vectors
        simd = self.device.simd_width
        width = matrix.max_row_length
        lanes = matrix.num_rows * n
        num_waves = max(1, int(np.ceil(lanes / simd)))
        uniform_cycles = width * self.CYCLES_PER_PADDED_ELEMENT + ROW_OVERHEAD_CYCLES
        padded_slots = matrix.num_rows * width
        b_total = workload.num_cols * n * VALUE_BYTES
        if b_total <= self.device.l2_cache_bytes:
            b_bytes = float(b_total)
        else:
            # Padded slots fetch B lines too: padding is real traffic here.
            b_bytes = float(padded_slots * n * VALUE_BYTES)
        bytes_moved = (
            padded_slots * (VALUE_BYTES + INDEX_BYTES)
            + b_bytes
            + self._c_stream_bytes(workload)
        )
        wave_cycles = np.full(num_waves, uniform_cycles, dtype=np.float64)
        return self._spec(wave_cycles, bytes_moved)


# ----------------------------------------------------------------------
# The domain
# ----------------------------------------------------------------------
class SpmmDomain(ProblemDomain):
    """Sparse matrix x dense multi-vector: ``C = A @ B``."""

    name = "spmm"
    description = "sparse matrix x dense multi-vector (SpMM)"
    known_fields = (
        FeatureField("rows", lambda w: w.num_rows, "matrix rows"),
        FeatureField("cols", lambda w: w.num_cols, "matrix columns"),
        FeatureField("nnz", lambda w: w.nnz, "stored nonzeros"),
        FeatureField("num_vectors", lambda w: w.num_vectors, "dense B width"),
        FeatureField("iterations", None, "SpMM iterations the caller will run"),
    )
    gathered_fields = tuple(
        FeatureField(name) for name in SPMM_GATHERED_NAMES
    )
    default_iteration_counts = (1, 4, 19)
    #: Reference kernel of the feature-cost scaling study: the work-oriented
    #: schedule runs on any structure, so the comparison is always defined.
    feature_cost_kernel = "CSR,WO"
    #: Dense block width of the default cost-scaling workloads.
    scaling_num_vectors = 8

    def __init__(self):
        super().__init__()
        for kernel_cls in (
            SpmmThreadMapped,
            SpmmRowWaveMapped,
            SpmmWorkOriented,
            SpmmEllBlockMapped,
        ):
            self.register_kernel(kernel_cls)

    def make_collector(self, device: DeviceSpec = MI100) -> SpmmFeatureCollector:
        return SpmmFeatureCollector(device)

    @property
    def profile_names(self) -> tuple:
        return sparse_collection.PROFILE_NAMES

    def collection_specs(self, profile="small", base_seed: int = 7) -> list:
        specs = []
        for base in sparse_collection.collection_specs(profile, base_seed):
            if base.family not in SPMM_FAMILIES:
                continue
            for num_vectors in NUM_VECTORS_GRID:
                specs.append(
                    SpmmSpec(
                        name=f"{base.name}_v{num_vectors}",
                        family=base.family,
                        builder=base.builder,
                        params=base.params,
                        seed=base.seed,
                        num_vectors=num_vectors,
                    )
                )
        return specs

    def matrix_payload(self, spec) -> dict:
        # The built matrix does not depend on the workload name or on
        # num_vectors, so all B widths share one cached matrix artifact.
        payload = super().matrix_payload(spec)
        payload.pop("num_vectors", None)
        return payload

    def workload_from_matrix(self, spec, matrix) -> SpmmWorkload:
        return SpmmWorkload(matrix=matrix, num_vectors=spec.num_vectors)

    serving_option_names = ("num_vectors",)

    def serving_workload(self, matrix, options=None) -> SpmmWorkload:
        """An ingested matrix serves with ``options["num_vectors"]`` B columns.

        Raw matrix files carry no dense-block width, so the serve layer
        supplies it (``repro serve --workload-option num_vectors=8``); the
        scaling default keeps matrix-only corpora servable out of the box.
        """
        options = self.validate_serving_options(options)
        raw = options.get("num_vectors", self.scaling_num_vectors)
        num_vectors = int(raw)
        if num_vectors != raw:
            raise ValueError(
                f"workload option num_vectors must be a whole number, got {raw!r}"
            )
        return SpmmWorkload(matrix=matrix, num_vectors=num_vectors)

    def scaling_workload(self, num_rows: int, seed: int = 0) -> SpmmWorkload:
        from repro.domains.base import SCALING_AVG_ROW_LENGTH, SCALING_EXPONENT
        from repro.sparse.generators import power_law_matrix

        matrix = power_law_matrix(
            num_rows=num_rows,
            num_cols=num_rows,
            avg_row_length=SCALING_AVG_ROW_LENGTH,
            exponent=SCALING_EXPONENT,
            rng=seed,
        )
        return SpmmWorkload(matrix=matrix, num_vectors=self.scaling_num_vectors)


#: The registered ``"spmm"`` domain singleton.
SPMM = SpmmDomain()
register_domain(SPMM)
