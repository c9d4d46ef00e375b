"""Tests for the ELL format."""

import numpy as np
import pytest

from repro.sparse.coo import SparseFormatError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import PADDING_COLUMN, ELLMatrix
from repro.sparse.generators import regular_matrix, skewed_matrix


def test_from_csr_round_trip():
    dense = np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [4.0, 5.0, 6.0, 0.0],
        ]
    )
    csr = CSRMatrix.from_dense(dense)
    ell = ELLMatrix.from_csr(csr)
    assert ell.max_row_length == 3
    assert ell.nnz == csr.nnz
    np.testing.assert_allclose(ell.to_dense(), dense)
    np.testing.assert_allclose(ell.to_csr().to_dense(), dense)


def test_spmv_matches_csr():
    csr = regular_matrix(64, 64, 5, rng=1)
    ell = ELLMatrix.from_csr(csr)
    x = np.random.default_rng(0).uniform(-1, 1, 64)
    np.testing.assert_allclose(ell.spmv(x), csr.spmv(x), rtol=1e-12)


def test_padding_slots_marked():
    dense = np.array([[1.0, 2.0], [3.0, 0.0]])
    ell = ELLMatrix.from_csr(CSRMatrix.from_dense(dense))
    assert ell.col_indices[1, 1] == PADDING_COLUMN
    assert ell.values[1, 1] == 0.0


def test_padding_ratio_uniform_matrix_is_one():
    csr = regular_matrix(32, 32, 4, rng=2)
    ell = ELLMatrix.from_csr(csr)
    assert ell.padded_size / ell.nnz == pytest.approx(1.0)


def test_padding_ratio_skewed_matrix_is_large():
    csr = skewed_matrix(200, 200, 2, 2, 150, rng=3)
    ell = ELLMatrix.from_csr(csr, max_padding_ratio=float("inf"))
    assert ell.padded_size / ell.nnz > 10.0


def test_conversion_refused_when_padding_excessive():
    csr = skewed_matrix(400, 400, 1, 1, 400, rng=4)
    with pytest.raises(SparseFormatError):
        ELLMatrix.from_csr(csr, max_padding_ratio=2.0)


def test_empty_matrix_conversion():
    csr = CSRMatrix(
        num_rows=3,
        num_cols=3,
        row_offsets=np.zeros(4, dtype=np.int64),
        col_indices=np.array([], dtype=np.int64),
        values=np.array([]),
    )
    ell = ELLMatrix.from_csr(csr)
    assert ell.max_row_length == 0
    np.testing.assert_allclose(ell.spmv(np.ones(3)), np.zeros(3))
