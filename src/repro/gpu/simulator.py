"""Kernel-launch timing model.

A kernel launch is described by the per-wavefront cycle counts the kernel
derived from the input structure (each count already folds SIMD lockstep in:
it is the *maximum* lane cost within that wavefront) plus the total number of
bytes the launch moves through the memory system.

The launch time is a roofline combined with list-scheduling of wavefronts
onto the finite number of concurrent hardware slots:

``compute_ms  = max(sum(cycles) / slots, max(cycles)) * cycle_time``
``memory_ms   = bytes / (bandwidth * utilization)``
``serial_ms   = serial_cycles * cycle_time``
``total_ms    = launch_overhead + max(compute_ms, memory_ms, serial_ms)``

The ``max(cycles)`` term is what makes a single enormous row visible at the
launch level; the ``sum/slots`` term is what rewards kernels that create
enough balanced wavefronts to fill the machine.  ``utilization`` models how
well a kernel's access pattern exploits the DRAM bandwidth (row-per-wavefront
kernels issue many small transactions and do not reach peak), and
``serial_cycles`` models device-wide serialized resources such as the global
atomic unit that COO segmented reductions funnel through.

Kernels describe a launch as a :class:`LaunchSpec` and time it with
:func:`simulate_spec`; :func:`simulate_launch` takes the same fields as
arguments.  Each launch runs exactly three reductions over its own cycle
array (min for validation, max, and the sum or weighted sum), through
``ndarray`` methods: NumPy's pairwise summation and a fused segment sum over
many launches round differently, so launches are never reduced together.

A spec may be *weighted*: entry ``i`` of ``wavefront_cycles`` then stands for
``wave_counts[i]`` identical wavefronts, so a kernel whose cost depends only
on a row's length (not its position) describes a launch over the distinct
row lengths instead of every row.  ``sum(cycles)`` becomes
``cycles @ counts``; that equals the expanded array's pairwise sum bit for
bit only when every partial sum is exact, so weighted specs must hold
integer-valued cycles with ``max(cycles) * sum(counts) < 2**53``
(:func:`check_exact_weights`), and validation rejects any that do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.memory import memory_time_ms
from repro.gpu.occupancy import wavefront_slots


@dataclass(frozen=True)
class LaunchResult:
    """Timing of one simulated kernel launch (all times in milliseconds)."""

    label: str
    total_ms: float
    compute_ms: float
    memory_ms: float
    overhead_ms: float
    num_wavefronts: int
    bytes_moved: float
    serial_ms: float = 0.0

    @property
    def bound(self) -> str:
        """Which roofline term dominated: 'compute', 'memory', 'serial' or 'overhead'."""
        busiest = max(self.compute_ms, self.memory_ms, self.serial_ms)
        if self.overhead_ms >= busiest:
            return "overhead"
        if self.serial_ms >= max(self.compute_ms, self.memory_ms):
            return "serial"
        if self.compute_ms >= self.memory_ms:
            return "compute"
        return "memory"


@dataclass(frozen=True)
class LaunchSpec:
    """One kernel launch awaiting simulation.

    ``wavefront_cycles`` must be a 1-D float64 array (use
    :func:`as_wavefront_cycles` to normalize arbitrary input).  The
    optional ``wave_counts`` is an integer array of the same shape: entry
    ``i`` of ``wavefront_cycles`` then stands for ``wave_counts[i]``
    wavefronts (see the module docstring for the exactness conditions).
    The remaining fields mirror the :func:`simulate_launch` parameters.
    """

    wavefront_cycles: np.ndarray
    bytes_moved: float
    label: str = "kernel"
    occupancy_factor: float = 1.0
    extra_launches: int = 0
    bandwidth_utilization: float = 1.0
    serial_cycles: float = 0.0
    wave_counts: Optional[np.ndarray] = None


def as_wavefront_cycles(wavefront_cycles) -> np.ndarray:
    """Normalize a cycle-count argument to a 1-D float64 array."""
    cycles = np.asarray(wavefront_cycles, dtype=np.float64)
    if cycles.ndim == 0:
        cycles = cycles.reshape(1)
    return cycles


#: Doubles hold every integer below this exactly.
EXACT_INTEGER_LIMIT = 2**53


def check_exact_weights(values: np.ndarray, counts: np.ndarray, what: str) -> None:
    """Check that ``values @ counts`` is exact in any summation order.

    Requires an integer ``counts`` array shaped like ``values``, every count
    at least 1, integer-valued ``values`` and ``max|values| * sum(counts)``
    below 2**53.  Every partial sum of the expanded array is then an integer
    below 2**53, which a double holds exactly, so the weighted sum equals
    the expanded array's pairwise sum bit for bit.  Raises ``ValueError``
    naming ``what``.
    """
    if counts.shape != values.shape or counts.dtype.kind not in "iu":
        raise ValueError(
            f"{what}: weights must be an integer array shaped like the "
            f"values, got {counts.dtype} {counts.shape} for {values.shape}"
        )
    if not counts.size:
        return
    if counts.min() < 1:
        raise ValueError(f"{what}: weights must be >= 1")
    if (values % 1.0).any():
        raise ValueError(f"{what}: weighted values must be integer-valued")
    total = int(counts.sum())
    peak = int(abs(values).max())
    if peak * total >= EXACT_INTEGER_LIMIT:
        raise ValueError(
            f"{what}: max value {peak} x total weight {total} reaches 2**53, "
            "so the weighted sum would not be exact"
        )


def exact_weighted_sum(values: np.ndarray, counts: np.ndarray, what: str) -> float:
    """``values @ counts``, guarded by :func:`check_exact_weights`."""
    check_exact_weights(values, counts, what)
    return float(values @ counts)


def _validate_spec(spec: LaunchSpec) -> float:
    """Validate a spec and return ``max(wavefront_cycles)`` (0.0 when empty).

    The min/max reductions double as the finiteness check: a NaN anywhere
    propagates into the minimum and an infinity shows up at one of the two
    extremes, so no extra ``isfinite`` pass over the array is needed.
    """
    cycles = spec.wavefront_cycles
    if cycles.size:
        lowest = float(cycles.min())
        highest = float(cycles.max())
        if math.isnan(lowest) or math.isinf(lowest) or math.isinf(highest):
            raise ValueError(
                f"{spec.label}: wavefront cycle counts must be finite"
            )
        if lowest < 0:
            raise ValueError(
                f"{spec.label}: wavefront cycle counts must be non-negative"
            )
    else:
        highest = 0.0
    if spec.wave_counts is not None:
        check_exact_weights(cycles, spec.wave_counts, spec.label)
    if not math.isfinite(spec.bytes_moved):
        raise ValueError(f"{spec.label}: bytes_moved must be finite")
    if spec.bytes_moved < 0:
        raise ValueError(f"{spec.label}: bytes_moved must be non-negative")
    if not math.isfinite(spec.serial_cycles):
        raise ValueError(f"{spec.label}: serial_cycles must be finite")
    if spec.serial_cycles < 0:
        raise ValueError(f"{spec.label}: serial_cycles must be non-negative")
    return highest


def _finalize(device: DeviceSpec, spec: LaunchSpec, max_cycles: float) -> LaunchResult:
    """Turn a validated spec plus its max reduction into a LaunchResult."""
    cycles = spec.wavefront_cycles
    counts = spec.wave_counts
    num_wavefronts = int(cycles.shape[0] if counts is None else counts.sum())
    slots = wavefront_slots(device, spec.occupancy_factor)
    if num_wavefronts == 0:
        compute_ms = 0.0
    else:
        total_cycles = float(cycles.sum() if counts is None else cycles @ counts)
        makespan_cycles = max(total_cycles / slots, max_cycles)
        compute_ms = makespan_cycles * device.cycle_time_ns * 1e-6
    memory_ms = memory_time_ms(device, spec.bytes_moved, spec.bandwidth_utilization)
    serial_ms = spec.serial_cycles * device.cycle_time_ns * 1e-6
    overhead_ms = device.launch_overhead_ms * (1 + max(spec.extra_launches, 0))
    total_ms = overhead_ms + max(compute_ms, memory_ms, serial_ms)
    return LaunchResult(
        label=spec.label,
        total_ms=total_ms,
        compute_ms=compute_ms,
        memory_ms=memory_ms,
        overhead_ms=overhead_ms,
        num_wavefronts=num_wavefronts,
        bytes_moved=float(spec.bytes_moved),
        serial_ms=serial_ms,
    )


def simulate_spec(device: DeviceSpec, spec: LaunchSpec) -> LaunchResult:
    """Compute the time of one kernel launch described by a spec."""
    return _finalize(device, spec, _validate_spec(spec))


def simulate_launch(
    device: DeviceSpec,
    wavefront_cycles,
    bytes_moved: float,
    label: str = "kernel",
    occupancy_factor: float = 1.0,
    extra_launches: int = 0,
    bandwidth_utilization: float = 1.0,
    serial_cycles: float = 0.0,
) -> LaunchResult:
    """Compute the time of one kernel launch.

    Parameters
    ----------
    device:
        Device description.
    wavefront_cycles:
        Array (or scalar sequence) of per-wavefront cycle counts.  Each entry
        must already be the maximum lane cost of that wavefront.  All counts
        must be finite and non-negative.
    bytes_moved:
        Total DRAM traffic of the launch in bytes (finite, non-negative).
    label:
        Name recorded in the result (kernel name).
    occupancy_factor:
        Residency scaling for resource-hungry kernels, see
        :func:`repro.gpu.occupancy.wavefront_slots`.
    extra_launches:
        Additional kernel launches issued by the same logical operation
        (e.g. a separate reduction pass); each adds one launch overhead.
    bandwidth_utilization:
        Fraction of peak DRAM bandwidth this kernel's access pattern can
        sustain (1.0 for fully streaming kernels).
    serial_cycles:
        Cycles spent on a device-wide serialized resource (e.g. global
        atomics); modelled as an independent roofline term.
    """
    spec = LaunchSpec(
        wavefront_cycles=as_wavefront_cycles(wavefront_cycles),
        bytes_moved=bytes_moved,
        label=label,
        occupancy_factor=occupancy_factor,
        extra_launches=extra_launches,
        bandwidth_utilization=bandwidth_utilization,
        serial_cycles=serial_cycles,
    )
    return simulate_spec(device, spec)


def group_reduce_max(values: np.ndarray, group_size: int) -> np.ndarray:
    """Maximum of consecutive groups of ``group_size`` entries.

    Used by row-mapped kernels to turn per-row costs into per-wavefront
    costs: a wavefront of ``group_size`` lanes is as slow as its heaviest
    lane.  The tail group is padded with zeros.
    """
    values = np.asarray(values, dtype=np.float64)
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if values.size == 0:
        return np.zeros(0, dtype=np.float64)
    num_groups = -(-values.size // group_size)
    if values.size == num_groups * group_size:
        return values.reshape(num_groups, group_size).max(axis=1)
    padded = np.zeros(num_groups * group_size, dtype=np.float64)
    padded[: values.size] = values
    return padded.reshape(num_groups, group_size).max(axis=1)


def group_reduce_sum(values: np.ndarray, group_size: int) -> np.ndarray:
    """Sum of consecutive groups of ``group_size`` entries (zero-padded tail)."""
    values = np.asarray(values, dtype=np.float64)
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if values.size == 0:
        return np.zeros(0, dtype=np.float64)
    num_groups = -(-values.size // group_size)
    if values.size == num_groups * group_size:
        return values.reshape(num_groups, group_size).sum(axis=1)
    padded = np.zeros(num_groups * group_size, dtype=np.float64)
    padded[: values.size] = values
    return padded.reshape(num_groups, group_size).sum(axis=1)
