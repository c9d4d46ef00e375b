"""Analytical GPU execution-model simulator.

The paper measures its kernels on an AMD Instinct MI100.  No GPU is
available offline, so this package provides a deterministic analytical model
of a SIMD accelerator that captures the mechanisms the paper attributes the
performance differences to:

* **SIMD lockstep** — a wavefront is as slow as its slowest lane, which is
  how per-row load imbalance turns into lost throughput;
* **wavefront scheduling** — wavefronts are list-scheduled onto a finite
  number of concurrent hardware slots (compute units x waves per CU), so a
  single enormous wavefront or an insufficient number of wavefronts limits
  speedup;
* **memory bandwidth roofline** — large problems are bound by bytes moved,
  not by arithmetic;
* **kernel-launch overhead** — small problems are bound by neither;
* **sequential host work** — preprocessing passes such as Adaptive-CSR row
  binning run on the host and are far slower per element than the device.

Kernels (in :mod:`repro.kernels`) translate a sparse matrix into per-wavefront
cycle and byte counts; this package turns those into milliseconds.
"""

from repro.gpu.device import DeviceSpec, MI100, SMALL_GPU, get_device
from repro.gpu.host import HostModel
from repro.gpu.memory import effective_bandwidth_gb_s, gather_bytes_per_access
from repro.gpu.occupancy import wavefront_slots, workgroup_slots
from repro.gpu.simulator import LaunchResult, simulate_launch

__all__ = [
    "DeviceSpec",
    "MI100",
    "SMALL_GPU",
    "get_device",
    "HostModel",
    "effective_bandwidth_gb_s",
    "gather_bytes_per_access",
    "wavefront_slots",
    "workgroup_slots",
    "LaunchResult",
    "simulate_launch",
]
