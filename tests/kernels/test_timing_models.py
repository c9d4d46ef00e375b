"""Qualitative behaviour of the kernel cost models.

These tests encode the performance folklore the paper builds on: which
schedule wins on which matrix structure, and why.  They are the guard rails
that keep the simulator producing the paper's dynamics.
"""

import math

import pytest

from repro.domains.spmv import SPMV
from repro.sparse import generators as gen


def _timings(matrix, include_rocsparse=True):
    out = {}
    for kernel in SPMV.default_kernels(include_aux=include_rocsparse):
        if kernel.supports(matrix):
            out[kernel.name] = kernel.timing(matrix)
    return out


@pytest.fixture(scope="module")
def large_regular():
    return gen.regular_matrix(200_000, 200_000, 8, rng=1)


@pytest.fixture(scope="module")
def large_skewed():
    return gen.skewed_matrix(100_000, 100_000, 4, 200, 20_000, rng=2)


@pytest.fixture(scope="module")
def road_network():
    return gen.road_network_matrix(500_000, rng=3)


def test_ell_wins_on_uniform_rows(large_regular):
    timings = _timings(large_regular)
    ell = timings["ELL,TM"].iteration_ms
    assert ell <= min(t.iteration_ms for t in timings.values()) * 1.001


def test_ell_collapses_on_skewed_rows(large_skewed):
    timings = _timings(large_skewed)
    best = min(t.iteration_ms for t in timings.values())
    assert timings["ELL,TM"].iteration_ms > 10.0 * best


def test_thread_mapped_suffers_from_uncoalesced_long_rows(large_regular):
    timings = _timings(large_regular)
    assert timings["CSR,TM"].iteration_ms > 1.5 * timings["ELL,TM"].iteration_ms


def test_thread_mapped_is_competitive_on_tiny_rows(road_network):
    timings = _timings(road_network)
    best = min(t.iteration_ms for t in timings.values())
    assert timings["CSR,TM"].iteration_ms <= 1.3 * best


def test_row_per_wavefront_schedules_pay_on_short_rows(road_network):
    timings = _timings(road_network)
    ell = timings["ELL,TM"].iteration_ms
    assert timings["CSR,WM"].iteration_ms > 2.0 * ell
    assert timings["CSR,BM"].iteration_ms > 2.0 * ell


def test_coo_atomics_penalize_many_row_matrices(road_network):
    timings = _timings(road_network)
    assert timings["COO,WM"].iteration_ms > 2.0 * timings["ELL,TM"].iteration_ms


def test_work_oriented_is_balanced_on_skewed_input(large_skewed):
    timings = _timings(large_skewed)
    best = min(t.iteration_ms for t in timings.values())
    assert timings["CSR,WO"].iteration_ms <= 2.5 * best
    assert timings["CSR,MP"].iteration_ms <= 2.5 * best
    # ...and both beat the thread-mapped kernel, which serializes the heavy rows.
    assert timings["CSR,WO"].iteration_ms < timings["CSR,TM"].iteration_ms


def test_only_adaptive_kernels_have_preprocessing(large_regular):
    for kernel in SPMV.default_kernels():
        timing = kernel.timing(large_regular)
        if kernel.name in ("CSR,A", "rocSPARSE"):
            assert kernel.has_preprocessing
            assert timing.preprocessing_ms > 0.0
        else:
            assert not kernel.has_preprocessing
            assert timing.preprocessing_ms == 0.0


def test_adaptive_preprocessing_scales_with_rows():
    small = gen.power_law_matrix(10_000, 10_000, 8.0, rng=4)
    large = gen.power_law_matrix(200_000, 200_000, 8.0, rng=5)
    kernel = SPMV.make_kernel("CSR,A")
    assert kernel.preprocessing_time_ms(large) > 5.0 * kernel.preprocessing_time_ms(small)


def test_adaptive_amortizes_on_irregular_matrix_over_many_iterations():
    matrix = gen.power_law_matrix(400_000, 400_000, 12.0, exponent=2.6, rng=6)
    adaptive = SPMV.make_kernel("CSR,A").timing(matrix)
    others = {
        kernel.name: kernel.timing(matrix)
        for kernel in SPMV.default_kernels(include_aux=False)
        if kernel.name != "CSR,A" and kernel.supports(matrix)
    }
    best_other_1 = min(t.total_ms(1) for t in others.values())
    best_other_100 = min(t.total_ms(100) for t in others.values())
    # Not worth it for one iteration...
    assert adaptive.total_ms(1) > best_other_1
    # ...but the preprocessing amortizes over a long solver run.
    assert adaptive.total_ms(100) < best_other_100


def test_adaptive_iteration_time_beats_row_mapped_on_irregular_input(large_skewed):
    timings = _timings(large_skewed)
    assert timings["CSR,A"].iteration_ms <= timings["CSR,WM"].iteration_ms
    assert timings["CSR,A"].iteration_ms <= timings["CSR,TM"].iteration_ms


def test_rocsparse_has_heavier_analysis_but_fast_iterations(large_skewed):
    adaptive = SPMV.make_kernel("CSR,A").timing(large_skewed)
    vendor = SPMV.make_kernel("rocSPARSE").timing(large_skewed)
    assert vendor.preprocessing_ms > adaptive.preprocessing_ms
    assert vendor.iteration_ms <= adaptive.iteration_ms * 1.001


def test_ell_refuses_pathological_padding():
    matrix = gen.skewed_matrix(500_000, 500_000, 1, 1, 500_000, rng=7)
    ell = SPMV.make_kernel("ELL,TM")
    assert not ell.supports(matrix)
    from repro.kernels.base import UnsupportedKernelError

    with pytest.raises(UnsupportedKernelError):
        ell.timing(matrix)


def test_launch_overhead_floors_small_matrices():
    matrix = gen.regular_matrix(64, 64, 4, rng=8)
    for name, timing in _timings(matrix).items():
        assert timing.iteration_ms >= SPMV.make_kernel(name).device.launch_overhead_ms


def test_timing_total_accounts_iterations(large_regular):
    timing = SPMV.make_kernel("CSR,A").timing(large_regular)
    assert timing.total_ms(5) == pytest.approx(
        timing.preprocessing_ms + 5 * timing.iteration_ms
    )
    with pytest.raises(ValueError):
        timing.total_ms(-1)


def test_all_timings_finite_and_positive(small_matrices):
    for family, matrix in small_matrices.items():
        for name, timing in _timings(matrix).items():
            assert math.isfinite(timing.iteration_ms), (family, name)
            assert timing.iteration_ms > 0.0
            assert timing.preprocessing_ms >= 0.0
