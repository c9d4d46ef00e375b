"""SpMV kernel variants of the Seer case study (Table II).

Every kernel couples a compressed sparse format with a load-balancing
schedule and exposes numeric execution, per-iteration timing on the
simulated GPU, and (where applicable) a preprocessing stage.  The
:mod:`repro.kernels.feature_kernels` module provides the parallel
feature-collection kernels whose cost the classifier-selection model weighs.

The kernels are registered with the ``"spmv"`` problem domain; look them up
through it (``SPMV.make_kernel``, ``SPMV.default_kernels``,
``SPMV.kernel_names``) from :mod:`repro.domains.spmv`.
"""

from repro.kernels.base import (
    KernelTiming,
    SpmvKernel,
    SpmvRunResult,
    UnsupportedKernelError,
)
from repro.kernels.coo_warp import CooWarpMapped
from repro.kernels.csr_adaptive import CsrAdaptive, RocSparseAdaptive
from repro.kernels.csr_block import CsrBlockMapped
from repro.kernels.csr_merge import CsrMergePath, CsrWorkOriented
from repro.kernels.csr_scalar import CsrThreadMapped
from repro.kernels.csr_vector import CsrWarpMapped
from repro.kernels.ell_thread import EllThreadMapped
from repro.kernels.feature_kernels import FeatureCollectionResult, FeatureCollector

__all__ = [
    "KernelTiming",
    "SpmvKernel",
    "SpmvRunResult",
    "UnsupportedKernelError",
    "CooWarpMapped",
    "CsrAdaptive",
    "RocSparseAdaptive",
    "CsrBlockMapped",
    "CsrMergePath",
    "CsrWorkOriented",
    "CsrThreadMapped",
    "CsrWarpMapped",
    "EllThreadMapped",
    "FeatureCollectionResult",
    "FeatureCollector",
]
