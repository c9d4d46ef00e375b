"""Tests for the synthetic SuiteSparse-like collection."""

import numpy as np
import pytest

from repro.sparse.collection import (
    ARCHETYPE_BUILDERS,
    CollectionProfile,
    archetype,
    collection_specs,
    iter_collection,
)


def test_profile_lookup_and_validation():
    profile = CollectionProfile.from_name("tiny")
    assert profile.sizes
    with pytest.raises(ValueError):
        CollectionProfile.from_name("enormous")


def test_collection_specs_have_unique_names():
    specs = collection_specs("small")
    names = [spec.name for spec in specs]
    assert len(names) == len(set(names))


def test_iter_collection_tiny_profile():
    records = list(iter_collection("tiny"))
    assert [record.name for record in records] == [
        spec.name for spec in collection_specs("tiny")
    ]
    assert len({record.family for record in records}) >= 8


def test_collection_is_reproducible():
    first = list(iter_collection("tiny", base_seed=3))
    second = list(iter_collection("tiny", base_seed=3))
    for a, b in zip(first, second):
        assert a.name == b.name
        np.testing.assert_array_equal(a.matrix.row_offsets, b.matrix.row_offsets)
        np.testing.assert_allclose(a.matrix.values, b.matrix.values)


def test_collection_changes_with_seed():
    first = list(iter_collection("tiny", base_seed=3))
    second = list(iter_collection("tiny", base_seed=4))
    different = any(
        a.matrix.nnz != b.matrix.nnz
        or not np.array_equal(a.matrix.col_indices, b.matrix.col_indices)
        for a, b in zip(first, second)
    )
    assert different


def test_collection_covers_diverse_structures():
    variances = {}
    for record in iter_collection("tiny"):
        lengths = record.matrix.row_lengths()
        variances[record.family] = float(lengths.var())
    # at least one essentially uniform family and one strongly irregular one
    assert min(variances.values()) == pytest.approx(0.0)
    assert max(variances.values()) > 10.0


@pytest.mark.parametrize("name", sorted(ARCHETYPE_BUILDERS))
def test_archetypes_build_at_small_scale(name):
    record = archetype(name, scale=64)
    assert record.matrix.nnz > 0
    assert record.name == name


def test_archetype_unknown_name():
    with pytest.raises(KeyError):
        archetype("not_a_matrix")


def test_archetype_structures_match_their_stories():
    uniform = archetype("G3_Circuit_like", scale=64).matrix
    assert uniform.row_lengths().var() == pytest.approx(0.0)
    skewed = archetype("matrix_new_3_like", scale=256).matrix
    assert skewed.row_lengths().max() > 10 * skewed.row_lengths().mean()


def test_classic_profiles_exclude_scenario_families():
    for profile in ("tiny", "small", "medium", "full"):
        families = {spec.family for spec in collection_specs(profile)}
        assert "wide_hub" not in families
        assert "stencil" not in families


def test_wide_profile_is_power_law_heavy():
    profile = CollectionProfile.from_name("wide")
    specs = collection_specs("wide")
    assert {spec.family for spec in specs} == set(profile.families)
    assert "wide_hub" in profile.families
    assert "banded" not in profile.families
    # every (size, variant) point yields one spec per family
    assert len(specs) == len(profile.sizes) * profile.variants * len(profile.families)


def test_banded_profile_is_stencil_heavy():
    profile = CollectionProfile.from_name("banded")
    specs = collection_specs("banded")
    assert "stencil" in profile.families
    assert "power_law" not in profile.families
    names = [spec.name for spec in specs]
    assert len(names) == len(set(names))


def test_wide_hub_matrices_are_wider_than_tall():
    spec = next(
        spec for spec in collection_specs("wide") if spec.family == "wide_hub"
    )
    matrix = spec.build()
    assert matrix.num_cols == 4 * matrix.num_rows


def test_scenario_profiles_build_and_stay_reproducible():
    for profile in ("wide", "banded"):
        specs = [s for s in collection_specs(profile) if s.params[0][1] <= 1024]
        assert specs, "expected small grid points in the profile"
        for spec in specs:
            first = spec.build()
            second = spec.build()
            assert first.nnz > 0
            np.testing.assert_array_equal(first.col_indices, second.col_indices)
