"""Tests for device descriptions."""

import pytest

from repro.gpu.device import MI100, SMALL_GPU, get_device


def test_builtin_devices_lookup():
    assert get_device("mi100") is MI100
    assert get_device("MI100") is MI100
    assert get_device("small") is SMALL_GPU
    with pytest.raises(KeyError):
        get_device("h100")


def test_derived_quantities():
    assert MI100.cycle_time_ns == pytest.approx(1.0 / MI100.clock_ghz)
    assert MI100.launch_overhead_ms == pytest.approx(MI100.launch_overhead_us * 1e-3)
    assert MI100.host_transfer_ms == pytest.approx(MI100.host_transfer_us * 1e-3)


def test_mi100_resembles_the_real_part():
    # Sanity bounds: the model only needs plausible ratios, but the headline
    # characteristics should be in the right ballpark for an MI100.
    assert 100 <= MI100.num_cus <= 128
    assert MI100.simd_width == 64
    assert 800.0 <= MI100.mem_bandwidth_gb_s <= 1300.0
