"""Sparse-matrix substrate for the Seer reproduction.

This package provides the compressed sparse formats used by the SpMV case
study (COO, CSR, ELL), structural feature computation (the "known" and
"gathered" features of the paper), Matrix-Market I/O, and a synthetic
SuiteSparse-like matrix collection used in place of the real collection.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import ELLMatrix
from repro.sparse.features import (
    GATHERED_FEATURE_NAMES,
    KNOWN_FEATURE_NAMES,
    GatheredFeatures,
    KnownFeatures,
    gathered_features,
    known_features,
)
from repro.sparse.generators import (
    banded_matrix,
    block_diagonal_matrix,
    diagonal_matrix,
    empty_row_heavy_matrix,
    matrix_from_row_lengths,
    power_law_matrix,
    regular_matrix,
    road_network_matrix,
    skewed_matrix,
    uniform_random_matrix,
    variable_block_matrix,
)
from repro.sparse.collection import (
    CollectionProfile,
    MatrixRecord,
    MatrixSpec,
    archetype,
    collection_specs,
    iter_collection,
)
from repro.sparse.io import read_matrix_market, write_matrix_market

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "ELLMatrix",
    "KnownFeatures",
    "GatheredFeatures",
    "KNOWN_FEATURE_NAMES",
    "GATHERED_FEATURE_NAMES",
    "known_features",
    "gathered_features",
    "banded_matrix",
    "block_diagonal_matrix",
    "diagonal_matrix",
    "empty_row_heavy_matrix",
    "matrix_from_row_lengths",
    "power_law_matrix",
    "regular_matrix",
    "road_network_matrix",
    "skewed_matrix",
    "uniform_random_matrix",
    "variable_block_matrix",
    "CollectionProfile",
    "MatrixRecord",
    "MatrixSpec",
    "archetype",
    "collection_specs",
    "iter_collection",
    "read_matrix_market",
    "write_matrix_market",
]
