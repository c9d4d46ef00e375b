"""The SpMV case-study domain (Table II of the paper), as a plugin.

This registers the original reproduction — the eight SpMV kernel variants
plus rocSPARSE, the row-density gathered features and the synthetic
SuiteSparse-like collection — as the default ``"spmv"`` domain.  The feature
objects are the :class:`~repro.sparse.features.KnownFeatures` /
:class:`~repro.sparse.features.GatheredFeatures` dataclasses and the kernel
registration order is the paper order.  Kernels are looked up through the
domain: ``SPMV.make_kernel``, ``SPMV.default_kernels`` and
``SPMV.kernel_names``.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.domains.base import (
    SCALING_AVG_ROW_LENGTH,
    SCALING_EXPONENT,
    FeatureField,
    ProblemDomain,
)
from repro.domains.registry import register_domain
from repro.gpu.device import MI100, DeviceSpec
from repro.kernels.coo_warp import CooWarpMapped
from repro.kernels.csr_adaptive import CsrAdaptive, RocSparseAdaptive
from repro.kernels.csr_block import CsrBlockMapped
from repro.kernels.csr_merge import CsrMergePath, CsrWorkOriented
from repro.kernels.csr_scalar import CsrThreadMapped
from repro.kernels.csr_vector import CsrWarpMapped
from repro.kernels.ell_thread import EllThreadMapped
from repro.kernels.feature_kernels import FeatureCollector
from repro.sparse import collection as sparse_collection
from repro.sparse.features import GatheredFeatures, KnownFeatures, known_features


class SpmvDomain(ProblemDomain):
    """Sparse matrix-vector multiplication: ``y = A @ x``."""

    name = "spmv"
    description = "sparse matrix x vector (the paper's case study)"
    known_fields = (
        FeatureField("rows", lambda m: m.num_rows, "matrix rows"),
        FeatureField("cols", lambda m: m.num_cols, "matrix columns"),
        FeatureField("nnz", lambda m: m.nnz, "stored nonzeros"),
        FeatureField("iterations", None, "SpMV iterations the caller will run"),
    )
    gathered_fields = (
        FeatureField("max_row_density", description="max of row nnz / cols"),
        FeatureField("min_row_density", description="min of row nnz / cols"),
        FeatureField("mean_row_density", description="mean of row nnz / cols"),
        FeatureField("var_row_density", description="variance of row nnz / cols"),
    )
    default_iteration_counts = (1, 4, 19)
    #: The paper's Fig. 6 compares collection cost against CSR,BM.
    feature_cost_kernel = "CSR,BM"

    def __init__(self):
        super().__init__()
        # Paper order of Table II / Fig. 5; rocSPARSE is the vendor reference.
        for kernel_cls in (
            CsrAdaptive,
            CsrBlockMapped,
            CsrMergePath,
            CsrWarpMapped,
            CsrWorkOriented,
            CsrThreadMapped,
            CooWarpMapped,
            EllThreadMapped,
        ):
            self.register_kernel(kernel_cls)
        self.register_kernel(RocSparseAdaptive, aux=True)

    # ------------------------------------------------------------------
    # Features — the legacy dataclasses, so every artifact (measurement
    # JSON, CSVs, pickled sweeps) keeps its exact pre-domain shape.
    # ------------------------------------------------------------------
    def known_features(self, workload, iterations: int = 1) -> KnownFeatures:
        return known_features(workload, iterations)

    def empty_gathered(self) -> GatheredFeatures:
        return GatheredFeatures(0.0, 0.0, 0.0, 0.0)

    def known_from_row(self, row: dict) -> KnownFeatures:
        return KnownFeatures(
            rows=int(row["rows"]),
            cols=int(row["cols"]),
            nnz=int(row["nnz"]),
            iterations=int(row.get("iterations", 1)),
        )

    def gathered_from_row(
        self, row: dict, collection_time_ms: float = 0.0
    ) -> GatheredFeatures:
        return GatheredFeatures(
            max_row_density=row["max_row_density"],
            min_row_density=row["min_row_density"],
            mean_row_density=row["mean_row_density"],
            var_row_density=row["var_row_density"],
            collection_time_ms=collection_time_ms,
        )

    def known_to_payload(self, known) -> dict:
        return asdict(known)

    def known_from_payload(self, payload: dict) -> KnownFeatures:
        return KnownFeatures(**payload)

    def gathered_to_payload(self, gathered) -> dict:
        return asdict(gathered)

    def gathered_from_payload(self, payload: dict) -> GatheredFeatures:
        return GatheredFeatures(**payload)

    def make_collector(self, device: DeviceSpec = MI100):
        return FeatureCollector(device)

    # ------------------------------------------------------------------
    # Workloads — the synthetic SuiteSparse-like collection.
    # ------------------------------------------------------------------
    @property
    def profile_names(self) -> tuple:
        return sparse_collection.PROFILE_NAMES

    def collection_specs(self, profile="small", base_seed: int = 7) -> list:
        return sparse_collection.collection_specs(profile, base_seed)

    def scaling_workload(self, num_rows: int, seed: int = 0):
        from repro.sparse.generators import power_law_matrix

        return power_law_matrix(
            num_rows=num_rows,
            num_cols=num_rows,
            avg_row_length=SCALING_AVG_ROW_LENGTH,
            exponent=SCALING_EXPONENT,
            rng=seed,
        )


#: The registered ``"spmv"`` domain singleton.
SPMV = SpmvDomain()
register_domain(SPMV)
