"""Tests for the kernel-launch timing model."""

import numpy as np
import pytest

from repro.gpu.device import MI100, SMALL_GPU
from repro.gpu.memory import memory_time_ms
from repro.gpu.occupancy import wavefront_slots
from repro.gpu.simulator import (
    group_reduce_max,
    group_reduce_sum,
    simulate_launch,
)


def test_launch_overhead_floor():
    result = simulate_launch(MI100, [1.0], bytes_moved=64.0)
    assert result.total_ms == pytest.approx(MI100.launch_overhead_ms, rel=1e-3)
    assert result.bound == "overhead"


def test_memory_bound_launch():
    gigabyte = 1e9
    result = simulate_launch(MI100, np.ones(1000), bytes_moved=gigabyte)
    assert result.bound == "memory"
    assert result.total_ms == pytest.approx(
        MI100.launch_overhead_ms + memory_time_ms(MI100, gigabyte), rel=1e-6
    )


def test_compute_bound_launch_uses_makespan():
    slots = wavefront_slots(MI100)
    cycles = np.full(10 * slots, 1e6)
    result = simulate_launch(MI100, cycles, bytes_moved=0.0)
    expected_cycles = cycles.sum() / slots
    assert result.compute_ms == pytest.approx(
        expected_cycles * MI100.cycle_time_ns * 1e-6, rel=1e-6
    )
    assert result.bound == "compute"


def test_single_huge_wavefront_dominates():
    cycles = np.ones(1000)
    cycles[0] = 1e9
    result = simulate_launch(MI100, cycles, bytes_moved=0.0)
    assert result.compute_ms == pytest.approx(1e9 * MI100.cycle_time_ns * 1e-6, rel=1e-6)


def test_bandwidth_utilization_scales_memory_time():
    full = simulate_launch(MI100, [1.0], bytes_moved=1e9, bandwidth_utilization=1.0)
    half = simulate_launch(MI100, [1.0], bytes_moved=1e9, bandwidth_utilization=0.5)
    assert half.memory_ms == pytest.approx(2.0 * full.memory_ms, rel=1e-9)


def test_serial_cycles_are_an_independent_roofline():
    result = simulate_launch(MI100, [1.0], bytes_moved=0.0, serial_cycles=1e9)
    assert result.total_ms == pytest.approx(
        MI100.launch_overhead_ms + 1e9 * MI100.cycle_time_ns * 1e-6, rel=1e-6
    )


def test_extra_launches_add_overhead():
    one = simulate_launch(MI100, [1.0], bytes_moved=0.0)
    two = simulate_launch(MI100, [1.0], bytes_moved=0.0, extra_launches=1)
    assert two.total_ms == pytest.approx(one.total_ms + MI100.launch_overhead_ms)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        simulate_launch(MI100, [-1.0], bytes_moved=0.0)
    with pytest.raises(ValueError):
        simulate_launch(MI100, [1.0], bytes_moved=-5.0)
    with pytest.raises(ValueError):
        simulate_launch(MI100, [1.0], bytes_moved=0.0, serial_cycles=-1.0)


def test_empty_launch_costs_only_overhead():
    result = simulate_launch(MI100, np.array([]), bytes_moved=0.0)
    assert result.total_ms == pytest.approx(MI100.launch_overhead_ms)
    assert result.num_wavefronts == 0


def test_more_parallelism_is_never_slower():
    cycles = np.full(100_000, 200.0)
    small = simulate_launch(SMALL_GPU, cycles, bytes_moved=0.0)
    large = simulate_launch(MI100, cycles, bytes_moved=0.0)
    assert large.compute_ms < small.compute_ms


def test_launches_are_independent_and_labelled():
    first = simulate_launch(MI100, [10.0], bytes_moved=100.0, label="a")
    second = simulate_launch(MI100, [10.0], bytes_moved=100.0, label="b")
    assert (first.label, second.label) == ("a", "b")
    assert first.total_ms == second.total_ms
    assert first == simulate_launch(MI100, [10.0], bytes_moved=100.0, label="a")


def test_group_reduce_helpers():
    values = np.array([1.0, 5.0, 2.0, 7.0, 3.0])
    np.testing.assert_allclose(group_reduce_max(values, 2), [5.0, 7.0, 3.0])
    np.testing.assert_allclose(group_reduce_sum(values, 2), [6.0, 9.0, 3.0])
    assert group_reduce_max(np.array([]), 4).size == 0
    with pytest.raises(ValueError):
        group_reduce_max(values, 0)


# ----------------------------------------------------------------------
# Serial (atomic-throughput) attribution and empty launches
# ----------------------------------------------------------------------
def test_serial_bound_launch_reports_serial():
    # COO-style segmented reduction over millions of short rows: cheap
    # wavefronts, little traffic, but every row's carry-out funnels through
    # the global atomic unit.  The roofline must attribute the time to that
    # serial term, not mislabel it compute- or memory-bound.
    result = simulate_launch(
        MI100,
        np.full(64, 50.0),
        bytes_moved=1e5,
        serial_cycles=5e9,
        label="COO,WM",
    )
    assert result.serial_ms == pytest.approx(5e9 * MI100.cycle_time_ns * 1e-6)
    assert result.serial_ms > max(result.compute_ms, result.memory_ms)
    assert result.bound == "serial"
    assert result.total_ms == pytest.approx(
        MI100.launch_overhead_ms + result.serial_ms
    )


def test_serial_ms_recorded_even_when_not_dominant():
    result = simulate_launch(
        MI100, np.full(1000, 1e6), bytes_moved=0.0, serial_cycles=100.0
    )
    assert result.serial_ms == pytest.approx(100.0 * MI100.cycle_time_ns * 1e-6)
    assert result.bound == "compute"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_cycles_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        simulate_launch(MI100, [1.0, bad, 2.0], bytes_moved=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_bytes_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        simulate_launch(MI100, [1.0], bytes_moved=bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_serial_cycles_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        simulate_launch(MI100, [1.0], bytes_moved=0.0, serial_cycles=bad)


def test_empty_spec_costs_only_overhead():
    from repro.gpu.simulator import LaunchSpec, simulate_spec

    spec = LaunchSpec(wavefront_cycles=np.array([]), bytes_moved=0.0)
    launch = simulate_spec(MI100, spec)
    assert launch.total_ms == pytest.approx(MI100.launch_overhead_ms)
    assert launch.num_wavefronts == 0


def test_group_reduce_divisible_fast_path():
    values = np.array([1.0, 5.0, 2.0, 7.0, 3.0, 4.0])
    np.testing.assert_array_equal(group_reduce_max(values, 3), [5.0, 7.0])
    np.testing.assert_array_equal(group_reduce_sum(values, 3), [8.0, 14.0])


# ----------------------------------------------------------------------
# Weighted launch specs (wave_counts) and the kernel-naming messages
# ----------------------------------------------------------------------
def _weighted_spec(cycles, counts, label="CSR,XX"):
    from repro.gpu.simulator import LaunchSpec

    return LaunchSpec(
        wavefront_cycles=np.asarray(cycles, dtype=np.float64),
        bytes_moved=1e5,
        label=label,
        wave_counts=np.asarray(counts),
    )


def test_weighted_spec_matches_its_expansion():
    from repro.gpu.simulator import LaunchSpec, simulate_spec

    cycles = np.array([3.0, 10.0, 64.0, 1e6])
    counts = np.array([5, 1, 130, 7], dtype=np.int64)
    weighted = _weighted_spec(cycles, counts)
    expanded = LaunchSpec(
        wavefront_cycles=np.repeat(cycles, counts), bytes_moved=1e5, label="CSR,XX"
    )
    result = simulate_spec(MI100, weighted)
    assert result == simulate_spec(MI100, expanded)
    assert result.num_wavefronts == int(counts.sum())


def test_empty_weighted_spec_costs_only_overhead():
    from repro.gpu.simulator import simulate_spec

    result = simulate_spec(MI100, _weighted_spec([], np.zeros(0, dtype=np.int64)))
    assert result.num_wavefronts == 0
    assert result.compute_ms == 0.0


@pytest.mark.parametrize(
    "cycles, counts, message",
    [
        ([1.0, 2.0], [1], "integer array shaped like the values"),
        ([1.0, 2.0], [1.0, 2.0], "integer array shaped like the values"),
        ([1.0, 2.0], [1, 0], "weights must be >= 1"),
        ([1.0, 2.0], [-3, 1], "weights must be >= 1"),
        ([1.5, 2.0], [1, 1], "weighted values must be integer-valued"),
        ([2.0**40, 1.0], [2**13, 1], r"reaches 2\*\*53"),
    ],
)
def test_invalid_wave_counts_rejected_naming_the_kernel(cycles, counts, message):
    from repro.gpu.simulator import simulate_spec

    spec = _weighted_spec(cycles, counts)
    with pytest.raises(ValueError, match=rf"^CSR,XX: .*{message}"):
        simulate_spec(MI100, spec)


def test_weighted_sum_bound_is_exclusive_at_2_pow_53():
    from repro.gpu.simulator import simulate_spec

    below = simulate_spec(MI100, _weighted_spec([2.0**40], [2**13 - 1]))
    assert below.num_wavefronts == 2**13 - 1
    with pytest.raises(ValueError, match=r"reaches 2\*\*53"):
        simulate_spec(MI100, _weighted_spec([2.0**40], [2**13]))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"wavefront_cycles": [-1.0]}, "wavefront cycle counts"),
        ({"bytes_moved": -5.0}, "bytes_moved"),
        ({"serial_cycles": -1.0}, "serial_cycles"),
    ],
)
def test_negative_inputs_name_the_kernel(kwargs, field):
    arguments = {"wavefront_cycles": [1.0], "bytes_moved": 0.0, **kwargs}
    with pytest.raises(ValueError, match=rf"^CSR,WM: {field} must be non-negative$"):
        simulate_launch(MI100, label="CSR,WM", **arguments)
