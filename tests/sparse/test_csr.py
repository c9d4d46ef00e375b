"""Tests for the CSR format."""

import numpy as np
import pytest

from repro.sparse.coo import SparseFormatError
from repro.sparse.csr import CSRMatrix, RowRuns


def _dense_example():
    return np.array(
        [
            [0.0, 1.0, 0.0, 2.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 0.0, 4.0, 0.0],
            [0.0, 5.0, 6.0, 7.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


def test_dense_round_trip():
    dense = _dense_example()
    csr = CSRMatrix.from_dense(dense)
    assert csr.shape == dense.shape
    assert csr.nnz == 7
    np.testing.assert_allclose(csr.to_dense(), dense)


def test_coo_round_trip_preserves_values():
    dense = _dense_example()
    csr = CSRMatrix.from_dense(dense)
    back = CSRMatrix.from_coo(csr.to_coo())
    np.testing.assert_allclose(back.to_dense(), dense)


def test_spmv_matches_dense_product():
    dense = _dense_example()
    csr = CSRMatrix.from_dense(dense)
    x = np.array([1.0, -1.0, 2.0, 0.5])
    np.testing.assert_allclose(csr.spmv(x), dense @ x)


def test_spmv_handles_empty_rows_and_trailing_empty_rows():
    dense = np.zeros((4, 3))
    dense[1, 2] = 5.0
    csr = CSRMatrix.from_dense(dense)
    result = csr.spmv(np.array([1.0, 1.0, 2.0]))
    np.testing.assert_allclose(result, [0.0, 10.0, 0.0, 0.0])


def test_spmv_empty_matrix():
    csr = CSRMatrix(
        num_rows=3,
        num_cols=3,
        row_offsets=np.zeros(4, dtype=np.int64),
        col_indices=np.array([], dtype=np.int64),
        values=np.array([]),
    )
    np.testing.assert_allclose(csr.spmv(np.ones(3)), np.zeros(3))


def test_row_lengths_and_row_slice():
    csr = CSRMatrix.from_dense(_dense_example())
    np.testing.assert_array_equal(csr.row_lengths(), [2, 0, 2, 3, 0])
    start, stop = csr.row_offsets[3], csr.row_offsets[4]
    np.testing.assert_array_equal(csr.col_indices[start:stop], [1, 2, 3])
    np.testing.assert_allclose(csr.values[start:stop], [5.0, 6.0, 7.0])


def test_row_lengths_are_read_only_and_derived_once(monkeypatch):
    from repro.core.benchmarking import measure_matrix
    from repro.domains import get_domain
    from repro.kernels.base import LaunchContext
    from repro.kernels.ell_thread import EllThreadMapped

    lengths = np.array([3, 0, 7, 7, 1, 0, 12], dtype=np.int64)
    row_offsets = np.concatenate(([0], np.cumsum(lengths)))
    runs = RowRuns(starts=np.zeros(7, dtype=np.int64), strides=np.ones(7, dtype=np.int64))
    real_diff = np.diff
    calls = []

    def counting_diff(*args, **kwargs):
        calls.append(args)
        return real_diff(*args, **kwargs)

    monkeypatch.setattr(np, "diff", counting_diff)
    matrix = CSRMatrix(7, 12, row_offsets, runs, np.ones(int(lengths.sum())))
    assert len(calls) == 1  # validation, with the recipe checked against it
    row_lengths = matrix.row_lengths()
    np.testing.assert_array_equal(row_lengths, lengths)
    assert matrix.row_lengths() is row_lengths
    assert not row_lengths.flags.writeable
    with pytest.raises(ValueError):
        row_lengths[0] = 5
    assert LaunchContext(matrix).row_lengths is row_lengths
    ell = EllThreadMapped()
    assert ell.supports(matrix) and matrix.max_row_length == 12
    domain = get_domain("spmv")
    measure_matrix("m", matrix, domain.default_kernels(), domain.make_pipeline())
    assert len(calls) == 1


def test_max_row_length_is_zero_without_rows_or_nonzeros():
    empty = CSRMatrix(0, 5, np.zeros(1, dtype=np.int64), [], [])
    hollow = CSRMatrix(4, 5, np.zeros(5, dtype=np.int64), [], [])
    assert empty.max_row_length == 0
    assert hollow.max_row_length == 0
    dense = CSRMatrix.from_dense(_dense_example())
    assert dense.max_row_length == int(dense.row_lengths().max())
    assert type(dense.max_row_length) is int


def test_transpose_matches_dense_transpose():
    dense = _dense_example()
    csr = CSRMatrix.from_dense(dense)
    np.testing.assert_allclose(csr.transpose().to_dense(), dense.T)


def test_from_row_lengths_produces_requested_structure():
    rng = np.random.default_rng(3)
    lengths = np.array([0, 3, 1, 5, 2])
    csr = CSRMatrix.from_row_lengths(lengths, num_cols=16, rng=rng)
    np.testing.assert_array_equal(csr.row_lengths(), lengths)
    # Columns within each row are unique.
    for cols in np.split(csr.col_indices, csr.row_offsets[1:-1]):
        assert len(set(cols.tolist())) == len(cols)


def test_validation_rejects_bad_offsets():
    with pytest.raises(SparseFormatError):
        CSRMatrix(
            num_rows=2,
            num_cols=2,
            row_offsets=np.array([0, 2]),  # wrong length
            col_indices=np.array([0, 1]),
            values=np.array([1.0, 2.0]),
        )
    with pytest.raises(SparseFormatError):
        CSRMatrix(
            num_rows=2,
            num_cols=2,
            row_offsets=np.array([0, 2, 1]),  # decreasing
            col_indices=np.array([0, 1]),
            values=np.array([1.0, 2.0]),
        )


def test_validation_rejects_out_of_range_columns():
    with pytest.raises(SparseFormatError):
        CSRMatrix(
            num_rows=1,
            num_cols=2,
            row_offsets=np.array([0, 1]),
            col_indices=np.array([5]),
            values=np.array([1.0]),
        )


def test_csr_and_coo_spmv_agree(small_matrices):
    for name, matrix in small_matrices.items():
        x = np.random.default_rng(7).uniform(-1, 1, matrix.num_cols)
        np.testing.assert_allclose(
            matrix.spmv(x), matrix.to_coo().spmv(x), rtol=1e-10, atol=1e-12,
            err_msg=f"family {name}"
        )
