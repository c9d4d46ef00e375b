"""Training-data generation: GPU benchmarking and feature collection stages.

This is the left half of the paper's Fig. 2: every kernel of interest is run
over the representative dataset to record per-iteration runtime and
preprocessing time, and the feature-collection kernels are run to record the
gathered features together with their collection cost.  The results can be
kept in memory or round-tripped through the CSV layouts of Section III-D.

The stage is domain-agnostic: the active :class:`~repro.domains.ProblemDomain`
supplies the kernels, the feature schemas and the collector, and the default
domain is the paper's ``"spmv"`` case study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import csv_schemas
from repro.domains import DEFAULT_DOMAIN, get_domain
from repro.gpu.device import MI100

#: Value recorded when a kernel cannot process a matrix at all.
UNSUPPORTED_TIME_MS = math.inf


@dataclass
class MatrixMeasurement:
    """Everything measured for one workload of the representative dataset.

    ``known``/``gathered`` are the active domain's feature objects (the
    :class:`~repro.sparse.features.KnownFeatures` /
    :class:`~repro.sparse.features.GatheredFeatures` dataclasses for SpMV,
    generic feature rows for other domains); both expose ``as_vector``,
    ``as_dict`` and the iteration/collection-time accessors.
    """

    name: str
    known: object
    gathered: object
    kernel_runtime_ms: dict
    kernel_preprocessing_ms: dict

    @property
    def collection_time_ms(self) -> float:
        """Cost of gathering the dynamic features for this matrix."""
        return self.gathered.collection_time_ms

    def kernel_total_ms(self, kernel: str, iterations: int = 1) -> float:
        """End-to-end time of one kernel: preprocessing + iterations x runtime."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        runtime = self.kernel_runtime_ms[kernel]
        preprocessing = self.kernel_preprocessing_ms[kernel]
        return preprocessing + iterations * runtime

    def fastest_kernel(self, iterations: int = 1) -> str:
        """Name of the kernel with the lowest end-to-end time."""
        return min(
            self.kernel_runtime_ms,
            key=lambda kernel: (self.kernel_total_ms(kernel, iterations), kernel),
        )

    def oracle_time_ms(self, iterations: int = 1) -> float:
        """End-to-end time of the fastest kernel (the Oracle of the paper)."""
        return self.kernel_total_ms(self.fastest_kernel(iterations), iterations)


@dataclass
class BenchmarkSuite:
    """All measurements of a benchmarking sweep, in dataset order."""

    kernel_names: list
    measurements: list = field(default_factory=list)
    device_name: str = MI100.name
    domain_name: str = DEFAULT_DOMAIN

    @property
    def domain(self):
        """The :class:`~repro.domains.ProblemDomain` this suite belongs to."""
        return get_domain(self.domain_name)

    def __len__(self) -> int:
        return len(self.measurements)

    def __iter__(self):
        return iter(self.measurements)

    def names(self) -> list:
        """Dataset names in sweep order."""
        return [measurement.name for measurement in self.measurements]

    def get(self, name: str) -> MatrixMeasurement:
        """Look up the measurement of one matrix by name."""
        for measurement in self.measurements:
            if measurement.name == name:
                return measurement
        raise KeyError(name)

    # ------------------------------------------------------------------
    # CSV round trip (Section III-D layouts)
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Write the suite as the four CSV files of the Seer pipeline."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        runtime_table = {
            m.name: dict(m.kernel_runtime_ms) for m in self.measurements
        }
        preprocessing_table = {
            m.name: dict(m.kernel_preprocessing_ms) for m in self.measurements
        }
        csv_schemas.write_aggregate_csv(
            directory / "runtime.csv", self.kernel_names, runtime_table
        )
        csv_schemas.write_aggregate_csv(
            directory / "preprocessing.csv", self.kernel_names, preprocessing_table
        )
        domain = self.domain
        csv_schemas.write_feature_csv(
            directory / "features.csv",
            domain.gathered_feature_names,
            {
                m.name: (m.gathered.as_dict(), m.collection_time_ms)
                for m in self.measurements
            },
        )
        csv_schemas.write_feature_csv(
            directory / "known.csv",
            domain.known_feature_names,
            {m.name: (m.known.as_dict(), 0.0) for m in self.measurements},
        )
        csv_schemas.write_manifest(
            directory / "manifest.json",
            domain=domain,
            kernel_names=self.kernel_names,
            device_name=self.device_name,
        )
        for kernel in self.kernel_names:
            csv_schemas.write_kernel_benchmark_csv(
                directory / f"kernel_{kernel.replace(',', '_')}.csv",
                kernel,
                [
                    (m.name, m.kernel_runtime_ms[kernel], m.kernel_preprocessing_ms[kernel])
                    for m in self.measurements
                ],
            )

    @classmethod
    def load(cls, directory, domain=None) -> "BenchmarkSuite":
        """Read a suite previously written by :meth:`save`.

        The domain is resolved from the directory's ``manifest.json`` when
        present; otherwise from ``domain`` (defaulting to ``"spmv"``, the
        layout every pre-domain artifact used).
        """
        directory = Path(directory)
        manifest = csv_schemas.read_manifest(directory / "manifest.json")
        if manifest is not None:
            domain = get_domain(manifest["domain"])
        else:
            domain = get_domain(domain)
        kernel_names, runtime_table = csv_schemas.read_aggregate_csv(
            directory / "runtime.csv"
        )
        _, preprocessing_table = csv_schemas.read_aggregate_csv(
            directory / "preprocessing.csv"
        )
        _, feature_rows = csv_schemas.read_feature_csv(directory / "features.csv")
        _, known_rows = csv_schemas.read_feature_csv(directory / "known.csv")
        measurements = []
        for name in sorted(runtime_table):
            gathered_values, collection_time = feature_rows[name]
            known_values, _ = known_rows[name]
            measurements.append(
                MatrixMeasurement(
                    name=name,
                    known=domain.known_from_row(known_values),
                    gathered=domain.gathered_from_row(
                        gathered_values, collection_time_ms=collection_time
                    ),
                    kernel_runtime_ms=runtime_table[name],
                    kernel_preprocessing_ms=preprocessing_table[name],
                )
            )
        return cls(
            kernel_names=list(kernel_names),
            measurements=measurements,
            domain_name=domain.name,
        )


def measure_matrix(name, workload, kernels, pipeline) -> MatrixMeasurement:
    """Benchmark one workload on every kernel and collect its features.

    ``pipeline`` is the domain's :class:`~repro.pipeline.FeaturePipeline`.

    Every kernel and the feature collector share one
    :class:`~repro.kernels.base.LaunchContext`, and the kernels are timed
    through :func:`~repro.kernels.base.batch_timings`; the result is
    bit-identical to timing each kernel independently (both evaluate the
    same :class:`~repro.gpu.simulator.LaunchSpec` objects).
    """
    from repro.kernels.base import LaunchContext, batch_timings

    context = LaunchContext.of(workload)
    timings = batch_timings(kernels, workload, context=context)
    runtime = {}
    preprocessing = {}
    for kernel in kernels:
        timing = timings.get(kernel.name)
        if timing is None:
            runtime[kernel.name] = UNSUPPORTED_TIME_MS
            preprocessing[kernel.name] = 0.0
            continue
        runtime[kernel.name] = timing.iteration_ms
        preprocessing[kernel.name] = timing.preprocessing_ms
    bundle = pipeline.extract(workload, context=context)
    return MatrixMeasurement(
        name=name,
        known=bundle.known,
        gathered=bundle.gathered,
        kernel_runtime_ms=runtime,
        kernel_preprocessing_ms=preprocessing,
    )


def run_benchmark_suite(
    records,
    kernels=None,
    device=MI100,
    domain=None,
) -> BenchmarkSuite:
    """Run the GPU benchmarking and feature-collection stages over a dataset.

    Parameters
    ----------
    records:
        Iterable of objects with ``name`` and ``matrix`` attributes (for
        example :class:`repro.sparse.collection.MatrixRecord`; ``matrix``
        holds the domain's workload object).
    kernels:
        Kernel instances to benchmark; defaults to the domain's registered
        set (the full Table II set for SpMV).
    device:
        Simulated device the kernels run on.
    domain:
        Problem domain name or instance; defaults to ``"spmv"``.

    Note
    ----
    The paper's methodology uses 10 warm-up iterations and averages 10
    timed runs.  The simulated timings are deterministic, so a single
    evaluation is exact and repetition is unnecessary here.
    """
    domain = get_domain(domain)
    if kernels is None:
        kernels = domain.default_kernels(device)
    pipeline = domain.make_pipeline(device)
    measurements = [
        measure_matrix(record.name, record.matrix, kernels, pipeline)
        for record in records
    ]
    return BenchmarkSuite(
        kernel_names=[kernel.name for kernel in kernels],
        measurements=measurements,
        device_name=device.name,
        domain_name=domain.name,
    )
