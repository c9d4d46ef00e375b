"""Numeric correctness of every SpMV kernel variant."""

import numpy as np
import pytest

from repro.domains.spmv import SPMV


@pytest.fixture(scope="module")
def kernels():
    return SPMV.default_kernels()


@pytest.mark.parametrize("kernel_name", SPMV.kernel_names())
def test_kernel_matches_reference_spmv(kernel_name, small_matrices, rng):
    kernel = SPMV.make_kernel(kernel_name)
    for family, matrix in small_matrices.items():
        x = rng.uniform(-1.0, 1.0, matrix.num_cols)
        result = kernel.run(matrix, x)
        np.testing.assert_allclose(
            result.y, matrix.spmv(x), rtol=1e-9, atol=1e-12,
            err_msg=f"{kernel_name} on {family}",
        )
        assert result.kernel == kernel_name
        assert result.total_ms > 0.0


@pytest.mark.parametrize("kernel_name", SPMV.kernel_names())
def test_multi_iteration_run_chains_spmv(kernel_name, small_matrices, rng):
    matrix = small_matrices["banded"]
    x = rng.uniform(-1.0, 1.0, matrix.num_cols)
    kernel = SPMV.make_kernel(kernel_name)
    result = kernel.run(matrix, x, iterations=3)
    expected = matrix.spmv(matrix.spmv(matrix.spmv(x)))
    np.testing.assert_allclose(result.y, expected, rtol=1e-9)
    assert result.iterations == 3
    assert result.total_ms == pytest.approx(
        result.timing.preprocessing_ms + 3 * result.timing.iteration_ms
    )


def test_run_rejects_zero_iterations(small_matrices):
    kernel = SPMV.make_kernel("CSR,TM")
    with pytest.raises(ValueError):
        kernel.run(small_matrices["regular"], np.ones(256), iterations=0)


def test_rectangular_matrix_multi_iteration_reuses_input(rng):
    from repro.sparse.generators import uniform_random_matrix

    matrix = uniform_random_matrix(60, 40, 0.05, rng=3)
    x = rng.uniform(-1.0, 1.0, 40)
    kernel = SPMV.make_kernel("CSR,WM")
    result = kernel.run(matrix, x, iterations=4)
    # Non-square: iterations only affect timing, the result is one product.
    np.testing.assert_allclose(result.y, matrix.spmv(x))
