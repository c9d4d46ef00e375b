"""Benchmark regenerating Table III: Kendall correlations of runtime vs features."""

from benchmarks.conftest import record
from repro.experiments.table3_kendall import run_table3


def test_table3_kendall_correlations(benchmark, paper_sweep):
    result = benchmark.pedantic(
        run_table3, kwargs={"sweep": paper_sweep}, rounds=1, iterations=1
    )
    print("\n" + result.render())
    record(
        benchmark,
        **{
            f"tau[{kernel}]": {k: round(v, 2) for k, v in row.items()}
            for kernel, row in result.correlations.items()
        },
    )
    # Paper-shape checks: row-mapped kernels correlate strongly with the row
    # count; the work-oriented kernels correlate most strongly with nnz.
    adaptive = result.correlations["CSR,A"]
    work_oriented = result.correlations["CSR,WO"]
    ell = result.correlations["ELL,TM"]
    assert adaptive["rows"] > 0.5
    assert work_oriented["nnz"] >= work_oriented["most"]
    assert ell["rows"] <= adaptive["rows"]
