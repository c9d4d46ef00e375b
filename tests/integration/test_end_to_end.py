"""End-to-end integration tests of the paper's qualitative claims.

These run the whole pipeline (synthetic collection -> benchmarking ->
training -> evaluation) on the ``small`` profile and assert the directional
results the paper reports.  The headline magnitudes are reproduced by the
benchmark harness on the larger profiles; here the point is that the pieces
compose and the dynamics point the right way.
"""

import numpy as np

from repro.bench.evaluation import evaluate_dataset
from repro.core.training import USE_GATHERED, USE_KNOWN


def test_selector_tracks_oracle_and_beats_fixed_choices(small_sweep):
    """The deployed selector must stay close to the Oracle and never lose to
    always-known / always-gathered by a large margin."""
    report = evaluate_dataset(small_sweep.dataset, small_sweep.models)
    selector = report.aggregate_ms("Selector")
    assert report.aggregate_ms("Oracle") <= selector
    assert selector <= 1.6 * report.aggregate_ms("Oracle")
    assert selector <= 1.1 * report.aggregate_ms("Gathered")
    assert selector <= 1.1 * report.aggregate_ms("Known")


def test_selector_avoids_every_kernels_worst_case(small_sweep):
    """No individual kernel's aggregate should beat the selector by much,
    and the worst kernels should lose to it decisively (the Fig. 5d story)."""
    report = evaluate_dataset(small_sweep.dataset, small_sweep.models)
    selector = report.aggregate_ms("Selector")
    kernel_totals = {k: report.aggregate_ms(k) for k in report.kernel_names}
    assert min(kernel_totals.values()) >= 0.85 * selector
    assert max(kernel_totals.values()) >= 3.0 * selector
    assert report.geomean_speedup_vs_kernels("Selector") > 1.0


def test_gathered_features_matter_somewhere(small_sweep):
    """The gathered model must pick better kernels than the known model —
    otherwise feature collection would be pointless (Section IV-C).  The
    comparison excludes the collection overhead: on the small profile the
    matrices are tiny and the overhead rightly dominates (that is Fig. 6's
    point); what must improve is the quality of the selection itself."""
    report = small_sweep.test_report
    assert report.accuracy("Gathered") >= report.accuracy("Known")

    def pick_cost(row, kernel):
        value = row.kernel_totals_ms[kernel]
        if not np.isfinite(value):
            value = max(v for v in row.kernel_totals_ms.values() if np.isfinite(v))
        return value

    known_total = sum(pick_cost(row, row.known_kernel) for row in report.rows)
    gathered_total = sum(pick_cost(row, row.gathered_kernel) for row in report.rows)
    assert gathered_total <= known_total * 1.001


def test_selector_uses_both_paths(small_sweep):
    """The classifier-selection model must actually route some inputs to each
    of its two sub-models (otherwise it degenerates)."""
    report = evaluate_dataset(small_sweep.dataset, small_sweep.models)
    choices = {row.selector_choice for row in report.rows}
    assert choices == {USE_KNOWN, USE_GATHERED}


def test_known_path_skips_collection_cost(small_sweep):
    report = evaluate_dataset(small_sweep.dataset, small_sweep.models)
    for row in report.rows:
        if row.selector_choice == USE_KNOWN:
            assert row.selector_overhead_ms < 0.01
        else:
            assert row.selector_overhead_ms >= row.gathered_overhead_ms * 0.99


def test_multi_iteration_labels_shift_towards_preprocessing_kernels(small_sweep):
    """Across the corpus, preprocessing kernels win more often at higher
    iteration counts (the amortization effect of Fig. 7)."""
    by_iterations = {}
    for sample in small_sweep.dataset:
        wins = by_iterations.setdefault(sample.iterations, [0, 0])
        wins[1] += 1
        if sample.best_kernel in ("CSR,A", "rocSPARSE"):
            wins[0] += 1
    fractions = {
        iterations: wins / total for iterations, (wins, total) in by_iterations.items()
    }
    assert fractions[max(fractions)] >= fractions[min(fractions)]


def test_end_to_end_execute_produces_correct_numerics(small_sweep, rng):
    """Selecting and executing through the deployed predictor returns the
    mathematically correct SpMV result."""
    from repro.sparse.generators import power_law_matrix

    matrix = power_law_matrix(3_000, 3_000, 10.0, rng=2)
    x = rng.uniform(-1.0, 1.0, 3_000)
    result = small_sweep.predictor.execute(matrix, x, iterations=1)
    np.testing.assert_allclose(result.run.y, matrix.spmv(x), rtol=1e-9)


def test_generated_code_matches_deployed_models(small_sweep):
    """The exported C++/Python artifacts encode the same trees the runtime uses."""
    from repro.core.codegen import models_to_python_module

    namespace = {}
    exec(models_to_python_module(small_sweep.models), namespace)  # noqa: S102
    for sample in list(small_sweep.test_set)[:20]:
        expected = small_sweep.models.predict_known(sample.known_vector)
        produced = namespace["KERNEL_CLASSES"][
            namespace["known_classifier"](sample.known_vector)
        ]
        assert produced == expected
