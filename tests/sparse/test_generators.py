"""Tests for the synthetic matrix generators."""

import numpy as np
import pytest

from repro.sparse import generators as gen


def test_regular_matrix_has_uniform_rows():
    matrix = gen.regular_matrix(100, 120, 6, rng=1)
    assert matrix.shape == (100, 120)
    assert set(matrix.row_lengths().tolist()) == {6}


def test_diagonal_matrix_structure():
    matrix = gen.diagonal_matrix(50, rng=2)
    assert matrix.nnz == 50
    np.testing.assert_array_equal(matrix.col_indices, np.arange(50))


def test_banded_matrix_band_structure():
    matrix = gen.banded_matrix(100, 7, rng=3)
    rows = np.repeat(np.arange(100), matrix.row_lengths())
    assert np.all(np.abs(matrix.col_indices - rows) <= 3)
    # interior rows have the full bandwidth
    assert matrix.row_lengths()[50] == 7


def test_power_law_matrix_has_heavy_tail():
    matrix = gen.power_law_matrix(2000, 2000, 8.0, exponent=1.9, rng=4)
    lengths = matrix.row_lengths()
    assert lengths.max() > 4 * lengths.mean()
    assert abs(lengths.mean() - 8.0) / 8.0 < 0.5


def test_power_law_matrix_respects_row_cap():
    matrix = gen.power_law_matrix(2000, 2000, 8.0, exponent=1.8, rng=5, max_row_length=32)
    assert matrix.row_lengths().max() <= 32


def test_skewed_matrix_has_requested_heavy_rows():
    matrix = gen.skewed_matrix(500, 500, 3, heavy_rows=5, heavy_row_length=200, rng=6)
    lengths = matrix.row_lengths()
    assert np.count_nonzero(lengths == 200) == 5
    assert np.count_nonzero(lengths == 3) == 495


def test_uniform_random_matrix_density():
    matrix = gen.uniform_random_matrix(500, 400, 0.02, rng=7)
    expected = 500 * 400 * 0.02
    assert abs(matrix.nnz - expected) / expected < 0.25


def test_block_diagonal_matrix_blocks():
    matrix = gen.block_diagonal_matrix(4, 8, rng=8)
    assert matrix.shape == (32, 32)
    assert set(matrix.row_lengths().tolist()) == {8}
    # every entry stays within its block
    rows = np.repeat(np.arange(32), matrix.row_lengths())
    assert np.all((matrix.col_indices // 8) == (rows // 8))


def test_variable_block_matrix_covers_all_rows():
    matrix = gen.variable_block_matrix(301, 4, 24, rng=9)
    assert matrix.num_rows == 301
    lengths = matrix.row_lengths()
    assert lengths.min() >= 1
    assert lengths.max() <= 24
    assert len(set(lengths.tolist())) > 1


def test_variable_block_matrix_rejects_bad_bounds():
    with pytest.raises(ValueError):
        gen.variable_block_matrix(10, 5, 2, rng=0)


def test_empty_row_heavy_matrix_fraction():
    matrix = gen.empty_row_heavy_matrix(400, 400, 0.5, 10, rng=10)
    lengths = matrix.row_lengths()
    assert np.count_nonzero(lengths == 0) == 200
    assert np.count_nonzero(lengths == 10) == 200


def test_road_network_matrix_degree_range():
    matrix = gen.road_network_matrix(1000, rng=11)
    lengths = matrix.row_lengths()
    assert lengths.min() >= 1
    assert lengths.max() <= 4
    assert matrix.num_cols == 1000


def test_matrix_from_row_lengths_clamps_to_columns():
    matrix = gen.matrix_from_row_lengths(np.array([10, 2]), num_cols=4, rng=12)
    assert matrix.row_lengths().tolist() == [4, 2]


def test_generators_are_deterministic_given_seed():
    a = gen.power_law_matrix(200, 200, 5.0, rng=42)
    b = gen.power_law_matrix(200, 200, 5.0, rng=42)
    np.testing.assert_array_equal(a.col_indices, b.col_indices)
    np.testing.assert_allclose(a.values, b.values)


def test_columns_unique_within_rows(small_matrices):
    for name, matrix in small_matrices.items():
        rows = np.split(matrix.col_indices, matrix.row_offsets[1:-1])
        for row, cols in enumerate(rows):
            assert len(set(cols.tolist())) == len(cols), f"family {name}, row {row}"


def test_stencil_matrix_interior_rows_have_full_neighbourhood():
    width = 32  # round(sqrt(1024))
    centre = (width // 2) * width + width // 2
    for points in (5, 9):
        matrix = gen.stencil_matrix(1024, points=points, rng=11)
        assert matrix.shape == (1024, 1024)
        lengths = matrix.row_lengths()
        assert lengths[centre] == points
        assert lengths.max() == points
        # boundary rows lose the neighbours that fall off the grid
        assert lengths[0] < points
        # a left-edge point has no left neighbour: the neighbourhood must
        # not wrap around to the previous grid row's right edge
        left_edge = (width // 2) * width
        assert lengths[left_edge] < points


def test_stencil_matrix_neighbours_stay_within_the_grid_neighbourhood():
    width = 32
    matrix = gen.stencil_matrix(1024, points=9, rng=14)
    for row in (0, 31, 32, 495, 496, 527, 1023):
        start, stop = matrix.row_offsets[row], matrix.row_offsets[row + 1]
        for col in matrix.col_indices[start:stop]:
            assert abs(col // width - row // width) <= 1
            assert abs(col % width - row % width) <= 1


def test_stencil_matrix_columns_sorted_and_unique_per_row():
    matrix = gen.stencil_matrix(400, points=9, rng=12)
    for row in range(matrix.num_rows):
        start, stop = matrix.row_offsets[row], matrix.row_offsets[row + 1]
        cols = matrix.col_indices[start:stop]
        assert np.all(np.diff(cols) > 0)


def test_stencil_matrix_rejects_unknown_neighbourhood():
    with pytest.raises(ValueError):
        gen.stencil_matrix(100, points=7)


def test_stencil_matrix_tiny_grid_stays_valid():
    matrix = gen.stencil_matrix(4, points=9, rng=13)
    for row in range(matrix.num_rows):
        start, stop = matrix.row_offsets[row], matrix.row_offsets[row + 1]
        cols = matrix.col_indices[start:stop]
        assert np.all(np.diff(cols) > 0)
        assert np.all((cols >= 0) & (cols < 4))
