"""Tests for the SpMV kernel set registered with the ``"spmv"`` domain."""

import pytest

from repro.domains.spmv import SPMV
from repro.gpu.device import SMALL_GPU


def test_registry_contains_the_table_ii_variants():
    assert set(SPMV.kernel_names(include_aux=False)) == {
        "CSR,A",
        "CSR,BM",
        "CSR,MP",
        "CSR,WM",
        "CSR,WO",
        "CSR,TM",
        "COO,WM",
        "ELL,TM",
    }
    assert "rocSPARSE" in SPMV.kernel_names()
    assert set(SPMV.kernel_names()) == set(SPMV.kernel_classes)


def test_formats_cover_csr_coo_ell():
    formats = {cls.sparse_format for cls in SPMV.kernel_classes.values()}
    assert formats == {"CSR", "COO", "ELL"}


def test_make_kernel_and_device_propagation():
    kernel = SPMV.make_kernel("CSR,WM", SMALL_GPU)
    assert kernel.device is SMALL_GPU
    with pytest.raises(KeyError):
        SPMV.make_kernel("CSR,XYZ")


def test_default_kernels_order_and_rocsparse_toggle():
    with_vendor = SPMV.default_kernels()
    without_vendor = SPMV.default_kernels(include_aux=False)
    assert [k.name for k in with_vendor] == list(SPMV.kernel_names())
    assert [k.name for k in without_vendor] == list(SPMV.kernel_names(include_aux=False))
    # Paper order (Table II / Fig. 5), the vendor reference last.
    assert SPMV.kernel_names() == (
        "CSR,A", "CSR,BM", "CSR,MP", "CSR,WM", "CSR,WO", "CSR,TM", "COO,WM", "ELL,TM",
        "rocSPARSE",
    )


def test_kernel_names_are_unique_labels():
    names = [cls.name for cls in SPMV.kernel_classes.values()]
    assert len(names) == len(set(names))
