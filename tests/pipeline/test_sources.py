"""Tests for raw matrix sources: files, recipes, discovery and digests."""

import numpy as np
import pytest

from repro.pipeline.sources import (
    DIGEST_CHUNK_BYTES,
    MatrixSource,
    MatrixSourceError,
    build_recipe,
    discover_sources,
    load_source,
    parse_recipe,
    recipe_builders,
    source_digest,
    source_from_path,
)
from repro.sparse.generators import banded_matrix, power_law_matrix
from repro.sparse.io import save_npz, write_matrix_market


# ----------------------------------------------------------------------
# Recipes
# ----------------------------------------------------------------------
def test_parse_recipe_splits_reserved_keys():
    builder, params, seed, name = parse_recipe(
        "recipe:power_law_matrix?num_rows=64&num_cols=32&avg_row_length=3.5"
        "&seed=9&name=web"
    )
    assert builder == "power_law_matrix"
    assert params == {"num_rows": 64, "num_cols": 32, "avg_row_length": 3.5}
    assert seed == 9 and name == "web"


def test_recipe_builders_cover_the_generator_module():
    builders = recipe_builders()
    assert "power_law_matrix" in builders
    assert "stencil_matrix" in builders
    assert all(name.endswith("_matrix") for name in builders)


def test_build_recipe_matches_direct_generator_call():
    spec = "recipe:banded_matrix?num_rows=50&bandwidth=5&seed=3"
    expected = banded_matrix(num_rows=50, bandwidth=5, rng=np.random.default_rng(3))
    np.testing.assert_allclose(build_recipe(spec).to_dense(), expected.to_dense())


@pytest.mark.parametrize(
    "spec",
    [
        "recipe:not_a_builder?num_rows=4",
        "recipe:power_law_matrix?num_rows",
        "recipe:power_law_matrix?num_rows=abc",
        "not-a-recipe",
    ],
)
def test_bad_recipes_rejected(spec):
    with pytest.raises(MatrixSourceError):
        parse_recipe(spec)


def test_build_recipe_rejects_unknown_builder_kwargs():
    with pytest.raises(MatrixSourceError, match="recipe"):
        build_recipe("recipe:diagonal_matrix?bogus_param=3")


def test_recipe_digest_is_order_insensitive():
    a = source_digest("recipe:regular_matrix?num_rows=8&num_cols=8&row_length=2")
    b = source_digest("recipe:regular_matrix?row_length=2&num_cols=8&num_rows=8")
    assert a == b


# ----------------------------------------------------------------------
# File sources
# ----------------------------------------------------------------------
def test_load_source_round_trips_all_file_kinds(tmp_path):
    matrix = power_law_matrix(40, 30, 4.0, rng=2)
    write_matrix_market(matrix, tmp_path / "m.mtx")
    save_npz(matrix, tmp_path / "m.npz")

    import gzip

    raw = (tmp_path / "m.mtx").read_bytes()
    (tmp_path / "mgz.mtx.gz").write_bytes(gzip.compress(raw))

    for name in ("m.mtx", "m.npz", "mgz.mtx.gz"):
        loaded = load_source(tmp_path / name)
        np.testing.assert_allclose(loaded.to_dense(), matrix.to_dense())


def test_source_names_strip_matrix_suffixes(tmp_path):
    assert source_from_path(tmp_path / "a.mtx").name == "a"
    assert source_from_path(tmp_path / "b.mtx.gz").name == "b"
    assert source_from_path(tmp_path / "c.npz").name == "c"


def test_file_digest_tracks_content(tmp_path):
    matrix = power_law_matrix(10, 10, 2.0, rng=1)
    write_matrix_market(matrix, tmp_path / "a.mtx")
    write_matrix_market(matrix, tmp_path / "b.mtx")
    assert source_digest(tmp_path / "a.mtx") == source_digest(tmp_path / "b.mtx")
    write_matrix_market(power_law_matrix(10, 10, 2.0, rng=2), tmp_path / "b.mtx")
    assert source_digest(tmp_path / "a.mtx") != source_digest(tmp_path / "b.mtx")


@pytest.mark.parametrize("size", [0, 1, DIGEST_CHUNK_BYTES, DIGEST_CHUNK_BYTES + 1])
def test_streamed_file_digest_matches_whole_file_hash(tmp_path, size):
    """Chunked hashing is byte-identical to hashing the file in one piece."""
    import hashlib

    path = tmp_path / "blob.mtx"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    expected = hashlib.sha256(path.read_bytes()).hexdigest()[:24]
    assert source_digest(path) == expected


def test_missing_file_raises_source_error(tmp_path):
    with pytest.raises(MatrixSourceError, match="no such matrix file"):
        load_source(tmp_path / "absent.mtx")


def test_unrecognised_suffix_rejected(tmp_path):
    with pytest.raises(MatrixSourceError, match="unrecognised"):
        source_from_path(tmp_path / "matrix.csv")


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def test_discover_directory_sorts_by_name(tmp_path):
    matrix = power_law_matrix(12, 12, 2.0, rng=4)
    for name in ("zeta.mtx", "alpha.npz", "mid.mtx"):
        if name.endswith(".npz"):
            save_npz(matrix, tmp_path / name)
        else:
            write_matrix_market(matrix, tmp_path / name)
    (tmp_path / "notes.txt").write_text("ignored\n")
    sources = discover_sources(tmp_path)
    assert [s.name for s in sources] == ["alpha", "mid", "zeta"]
    assert all(isinstance(s, MatrixSource) for s in sources)


def test_discover_manifest_preserves_order_and_resolves_relative(tmp_path):
    matrix = power_law_matrix(12, 12, 2.0, rng=4)
    (tmp_path / "sub").mkdir()
    write_matrix_market(matrix, tmp_path / "sub" / "real.mtx")
    manifest = tmp_path / "corpus.txt"
    manifest.write_text(
        "# comment\n"
        "\n"
        "recipe:diagonal_matrix?num_rows=16&name=diag\n"
        "sub/real.mtx\n"
    )
    sources = discover_sources(manifest)
    assert [s.name for s in sources] == ["diag", "real"]
    assert [s.kind for s in sources] == ["recipe", "mtx"]
    np.testing.assert_allclose(sources[1].load().to_dense(), matrix.to_dense())


def test_discover_single_file_and_recipe(tmp_path):
    write_matrix_market(power_law_matrix(8, 8, 2.0, rng=0), tmp_path / "one.mtx")
    assert [s.name for s in discover_sources(tmp_path / "one.mtx")] == ["one"]
    [recipe] = discover_sources("recipe:diagonal_matrix?num_rows=4&name=d")
    assert recipe.kind == "recipe" and recipe.name == "d"


def test_discover_empty_directory_rejected(tmp_path):
    with pytest.raises(MatrixSourceError, match="no matrix files"):
        discover_sources(tmp_path)


def test_discover_missing_target_rejected(tmp_path):
    with pytest.raises(MatrixSourceError, match="no such file or directory"):
        discover_sources(tmp_path / "nope")


def test_duplicate_names_rejected(tmp_path):
    manifest = tmp_path / "corpus.txt"
    manifest.write_text(
        "recipe:diagonal_matrix?num_rows=4&name=dup\n"
        "recipe:diagonal_matrix?num_rows=8&name=dup\n"
    )
    with pytest.raises(MatrixSourceError, match="duplicate source name"):
        discover_sources(manifest)


def test_manifest_errors_name_the_line(tmp_path):
    manifest = tmp_path / "corpus.txt"
    manifest.write_text("recipe:bogus_builder?x=1\n")
    with pytest.raises(MatrixSourceError, match="corpus.txt:1"):
        discover_sources(manifest)
