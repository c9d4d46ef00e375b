"""Synthetic SuiteSparse-like matrix collection.

The paper evaluates on the entire SuiteSparse Matrix Collection.  The
collection itself cannot be shipped offline, so this module builds a
reproducible synthetic stand-in with the structural diversity the predictor
needs: several matrix *families* (regular, banded, power-law, skewed,
block-diagonal, variable-block, empty-row-heavy, random, diagonal) crossed
with a geometric grid of sizes.  Families deliberately overlap in the
(rows, nnz) plane so that the trivially known features alone cannot always
identify the structure — the ambiguity that makes gathered features (and the
classifier-selection model) worth their cost.

Every matrix has a stable name of the form ``family_rows_<variant>`` so
benchmark CSVs and trained models can refer to it.  Named *archetypes* mimic
the individual SuiteSparse matrices discussed in Figures 5 and 7 of the
paper (nlpkkt200, matrix-new_3, Ga41As41H72, CurlCurl_3, G3_Circuit, PWTK)
at a configurable scale.

:func:`iter_collection` builds the matrices one at a time, so the peak
memory stays at a single matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse import generators as gen

#: Supported collection profiles and the per-family size grids they use.
_PROFILE_SIZES = {
    "tiny": (256, 1024),
    "small": (1024, 4096, 16384),
    "medium": (4096, 16384, 65536, 262144),
    "full": (4096, 16384, 65536, 262144, 1048576),
    "wide": (1024, 4096, 16384),
    "banded": (1024, 4096, 16384),
}

#: Number of seeds (variants) generated per (family, size) combination.
_PROFILE_VARIANTS = {
    "tiny": 1,
    "small": 2,
    "medium": 3,
    "full": 3,
    "wide": 2,
    "banded": 2,
}

#: The family mix of the original size-graded profiles.
_CLASSIC_FAMILIES = (
    "regular",
    "banded",
    "power_law",
    "heavy_tail",
    "skewed",
    "uniform",
    "block",
    "variable_block",
    "empty_heavy",
    "diagonal",
    "road_network",
)

#: Family mixes of the scenario-focused profiles.  ``wide`` concentrates on
#: heavy-tailed / hub-dominated structure (web and social graphs, including
#: rectangular hub matrices much wider than tall); ``banded`` concentrates on
#: stencil and near-regular mesh structure where padded and thread-mapped
#: schedules fight it out.
_PROFILE_FAMILIES = {
    "wide": ("power_law", "heavy_tail", "skewed", "uniform", "road_network", "wide_hub"),
    "banded": ("banded", "regular", "stencil", "block", "variable_block", "diagonal"),
}

#: Every profile name accepted by :func:`CollectionProfile.from_name`,
#: in declaration order (useful for CLI choices).
PROFILE_NAMES = tuple(_PROFILE_SIZES)


@dataclass(frozen=True)
class CollectionProfile:
    """Size/variant/family configuration of a synthetic collection."""

    name: str
    sizes: tuple
    variants: int
    families: tuple = _CLASSIC_FAMILIES

    @classmethod
    def from_name(cls, name: str) -> "CollectionProfile":
        """Look up one of the built-in profiles (see :data:`PROFILE_NAMES`)."""
        if name not in _PROFILE_SIZES:
            raise ValueError(
                f"unknown profile {name!r}; expected one of {sorted(_PROFILE_SIZES)}"
            )
        return cls(
            name=name,
            sizes=_PROFILE_SIZES[name],
            variants=_PROFILE_VARIANTS[name],
            families=_PROFILE_FAMILIES.get(name, _CLASSIC_FAMILIES),
        )


@dataclass(frozen=True)
class MatrixSpec:
    """Recipe for one matrix in the collection."""

    name: str
    family: str
    builder: str
    params: tuple
    seed: int

    def build(self) -> CSRMatrix:
        """Construct the matrix described by this spec."""
        builder = getattr(gen, self.builder)
        kwargs = dict(self.params)
        return builder(rng=np.random.default_rng(self.seed), **kwargs)


@dataclass
class MatrixRecord:
    """A named matrix plus its family label."""

    name: str
    family: str
    matrix: CSRMatrix


def _family_specs(size: int, variant: int, seed: int) -> list:
    """Specs for every family at one size/variant point.

    Average row lengths are similar — but not identical — across families at
    a given size: the trivially known features (rows, nnz) therefore carry a
    useful signal, as they do on SuiteSparse, while structurally different
    families still overlap enough that some decisions genuinely require the
    gathered row-density statistics.
    """
    cols = size
    base_degree = 8 + 4 * variant
    specs = [
        ("regular", "regular_matrix",
         (("num_rows", size), ("num_cols", cols), ("row_length", base_degree))),
        ("banded", "banded_matrix",
         (("num_rows", size), ("bandwidth", base_degree + 1))),
        ("power_law", "power_law_matrix",
         (("num_rows", size), ("num_cols", cols),
          ("avg_row_length", float(base_degree)), ("exponent", 1.9 + 0.2 * variant))),
        # A denser heavy-tailed family whose nonzero count overlaps the block
        # and variable-block families: the known features cannot separate
        # them, but the right kernels differ drastically (padded formats are
        # catastrophic here) — the case that forces feature gathering.
        ("heavy_tail", "power_law_matrix",
         (("num_rows", size), ("num_cols", cols),
          ("avg_row_length", 2.0 * base_degree), ("exponent", 1.8),
          ("max_row_length", 64 * base_degree))),
        ("skewed", "skewed_matrix",
         (("num_rows", size), ("num_cols", cols),
          ("base_row_length", max(2, base_degree // 2)),
          ("heavy_rows", max(1, size // 4096)),
          ("heavy_row_length", min(cols, max(512, size // 64))))),
        ("uniform", "uniform_random_matrix",
         (("num_rows", size), ("num_cols", cols),
          ("density", (base_degree + 2) / cols))),
        ("block", "block_diagonal_matrix",
         (("num_blocks", max(1, size // (2 * base_degree))),
          ("block_size", 2 * base_degree))),
        ("variable_block", "variable_block_matrix",
         (("num_rows", size), ("min_block", 4), ("max_block", 4 * base_degree))),
        # Half the rows are empty, so the average degree lands close to the
        # regular family while the structure (and best kernel) differ — one
        # of the ambiguities that justifies gathering features.
        ("empty_heavy", "empty_row_heavy_matrix",
         (("num_rows", size), ("num_cols", cols), ("empty_fraction", 0.5),
          ("row_length", 2 * base_degree))),
        ("diagonal", "diagonal_matrix", (("num_rows", size),)),
        # Road networks have far more rows than the other families at the
        # same grid point — exactly as the row-count outliers of SuiteSparse
        # (osm/circuit matrices) relate to the rest of the collection.
        ("road_network", "road_network_matrix", (("num_rows", 4 * size),)),
        # Rectangular hub matrix, four times wider than tall, with an
        # aggressive tail: the hub rows of web graphs whose adjacency lists
        # reference a much larger universe of columns.
        ("wide_hub", "power_law_matrix",
         (("num_rows", size), ("num_cols", 4 * size),
          ("avg_row_length", float(base_degree)), ("exponent", 1.6 + 0.1 * variant),
          ("max_row_length", 2 * size))),
        # Finite-difference stencils on a 2D grid: perfectly banded away from
        # the boundary, ELL-friendly, the classic mesh workload.
        ("stencil", "stencil_matrix",
         (("num_rows", size), ("points", 5 if variant % 2 else 9))),
    ]
    out = []
    for family, builder, params in specs:
        out.append(
            MatrixSpec(
                name=f"{family}_{size}_{variant}",
                family=family,
                builder=builder,
                params=params,
                seed=seed,
            )
        )
    return out


def collection_specs(profile="small", base_seed: int = 7) -> list:
    """Enumerate the :class:`MatrixSpec` recipes for a profile."""
    if isinstance(profile, str):
        profile = CollectionProfile.from_name(profile)
    wanted = set(profile.families)
    specs = []
    seed = base_seed
    for size in profile.sizes:
        for variant in range(profile.variants):
            specs.extend(
                spec
                for spec in _family_specs(size, variant, seed)
                if spec.family in wanted
            )
            seed += 1
    return specs


def iter_collection(profile="small", base_seed: int = 7):
    """Yield :class:`MatrixRecord` objects one at a time (low peak memory)."""
    for spec in collection_specs(profile, base_seed):
        yield MatrixRecord(name=spec.name, family=spec.family, matrix=spec.build())


# ----------------------------------------------------------------------
# Archetypes of the individual matrices discussed in Figures 5 and 7
# ----------------------------------------------------------------------
def _nlpkkt200_like(scale: int, seed: int) -> CSRMatrix:
    """Large optimization matrix: huge, near-regular banded rows (Fig. 5a)."""
    return gen.banded_matrix(num_rows=16 * scale, bandwidth=25, rng=seed)


def _matrix_new_3_like(scale: int, seed: int) -> CSRMatrix:
    """Small, highly irregular device-simulation matrix (Fig. 5b)."""
    return gen.skewed_matrix(
        num_rows=2 * scale,
        num_cols=2 * scale,
        base_row_length=3,
        heavy_rows=max(2, scale // 64),
        heavy_row_length=max(64, scale // 2),
        rng=seed,
    )


def _ga41as41h72_like(scale: int, seed: int) -> CSRMatrix:
    """Quantum-chemistry matrix: moderate size, heavy-tailed rows (Fig. 5c)."""
    return gen.power_law_matrix(
        num_rows=4 * scale,
        num_cols=4 * scale,
        avg_row_length=40.0,
        exponent=2.0,
        rng=seed,
        max_row_length=2048,
    )


def _curlcurl3_like(scale: int, seed: int) -> CSRMatrix:
    """Electromagnetics matrix: large, mildly irregular rows (Fig. 7a/b)."""
    return gen.power_law_matrix(
        num_rows=12 * scale,
        num_cols=12 * scale,
        avg_row_length=12.0,
        exponent=2.6,
        rng=seed,
    )


def _g3_circuit_like(scale: int, seed: int) -> CSRMatrix:
    """Circuit matrix: very uniform short rows, ELL-friendly (Fig. 7c/d)."""
    return gen.regular_matrix(
        num_rows=16 * scale, num_cols=16 * scale, row_length=4, rng=seed
    )


def _pwtk_like(scale: int, seed: int) -> CSRMatrix:
    """Wind-tunnel stiffness matrix: variable dense blocks (Fig. 7e/f)."""
    return gen.variable_block_matrix(
        num_rows=10 * scale, min_block=6, max_block=48, rng=seed
    )


ARCHETYPE_BUILDERS = {
    "nlpkkt200_like": _nlpkkt200_like,
    "matrix_new_3_like": _matrix_new_3_like,
    "Ga41As41H72_like": _ga41as41h72_like,
    "CurlCurl_3_like": _curlcurl3_like,
    "G3_Circuit_like": _g3_circuit_like,
    "PWTK_like": _pwtk_like,
}


def archetype(name: str, scale: int = 1024, seed: int = 99) -> MatrixRecord:
    """Build one of the named archetype matrices used by Figures 5 and 7.

    ``scale`` multiplies the base dimensions; the experiment drivers use
    scales large enough to leave the launch-overhead-dominated regime while
    staying laptop-friendly.
    """
    if name not in ARCHETYPE_BUILDERS:
        raise KeyError(
            f"unknown archetype {name!r}; expected one of {sorted(ARCHETYPE_BUILDERS)}"
        )
    matrix = ARCHETYPE_BUILDERS[name](scale, seed)
    return MatrixRecord(name=name, family="archetype", matrix=matrix)
