"""Device descriptions for the analytical GPU model."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated SIMD accelerator.

    The defaults of :data:`MI100` approximate the AMD Instinct MI100 used in
    the paper; only ratios between quantities matter for the reproduction
    (who wins on which matrix), not the absolute values.

    Attributes
    ----------
    name:
        Human-readable device name.
    num_cus:
        Number of compute units (CUs / SMs).
    simd_width:
        Lanes per wavefront (64 on CDNA GPUs).
    max_waves_per_cu:
        Wavefronts a CU keeps in flight to hide latency; together with
        ``num_cus`` this bounds the number of concurrently executing
        wavefronts.
    clock_ghz:
        Device clock in GHz.
    mem_bandwidth_gb_s:
        Achievable HBM bandwidth in GB/s.
    l2_cache_bytes:
        Last-level cache capacity; dense vectors that fit here are gathered
        at cache rather than DRAM granularity.
    launch_overhead_us:
        Fixed host-side cost of one kernel launch in microseconds.
    host_transfer_us:
        Fixed cost of one device-to-host result transfer (used by
        feature-collection kernels that must deliver scalars to the host).
    host_ns_per_op:
        Cost of one element of sequential host work in nanoseconds (used for
        preprocessing passes such as Adaptive-CSR binning).
    """

    name: str
    num_cus: int
    simd_width: int
    max_waves_per_cu: int
    clock_ghz: float
    mem_bandwidth_gb_s: float
    l2_cache_bytes: int
    launch_overhead_us: float
    host_transfer_us: float
    host_ns_per_op: float

    @property
    def cycle_time_ns(self) -> float:
        """Duration of one device clock cycle in nanoseconds."""
        return 1.0 / self.clock_ghz

    @property
    def launch_overhead_ms(self) -> float:
        """Kernel-launch overhead in milliseconds."""
        return self.launch_overhead_us * 1e-3

    @property
    def host_transfer_ms(self) -> float:
        """Device-to-host transfer overhead in milliseconds."""
        return self.host_transfer_us * 1e-3


#: Approximation of the AMD Instinct MI100 accelerator used in the paper.
MI100 = DeviceSpec(
    name="MI100-sim",
    num_cus=120,
    simd_width=64,
    max_waves_per_cu=4,
    clock_ghz=1.5,
    mem_bandwidth_gb_s=1100.0,
    l2_cache_bytes=8 * 1024 * 1024,
    launch_overhead_us=8.0,
    host_transfer_us=10.0,
    host_ns_per_op=1.0,
)

#: A much smaller device, useful in tests to expose saturation effects early.
SMALL_GPU = DeviceSpec(
    name="small-sim",
    num_cus=8,
    simd_width=32,
    max_waves_per_cu=4,
    clock_ghz=1.0,
    mem_bandwidth_gb_s=100.0,
    l2_cache_bytes=1 * 1024 * 1024,
    launch_overhead_us=5.0,
    host_transfer_us=8.0,
    host_ns_per_op=6.0,
)

_DEVICES = {"mi100": MI100, "small": SMALL_GPU}


def get_device(name: str = "mi100") -> DeviceSpec:
    """Look up a built-in device description by name."""
    key = name.lower()
    if key not in _DEVICES:
        raise KeyError(f"unknown device {name!r}; expected one of {sorted(_DEVICES)}")
    return _DEVICES[key]
