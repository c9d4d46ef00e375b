"""The matrix tier's one-ahead loader thread inside a measurement chunk.

With a matrix directory, ``_measure_spec_chunk`` reads the next distinct
matrix on one loader thread while the current one is measured.  Writes stay
on the calling thread, so the chunk's counters, warnings and artifacts are
those of reading every matrix in turn.
"""

import dataclasses
import logging
import threading
import weakref

import pytest

from repro.bench import engine as engine_module
from repro.bench.engine import _measure_spec_chunk, matrix_key
from repro.domains.spmv import SPMV
from repro.gpu.device import MI100
from repro.kernels.csr_scalar import CsrThreadMapped
from repro.sparse.collection import collection_specs
from repro.sparse.io import TIER_SUFFIX

KERNELS = SPMV.kernel_names()


def _chunk(specs, matrix_dir):
    return _measure_spec_chunk(specs, KERNELS, MI100, "spmv", matrix_dir)


def _artifact(tmp_path, spec):
    return tmp_path / (matrix_key(spec) + TIER_SUFFIX)


def test_corrupt_artifact_mid_chunk_is_one_logged_miss_regenerated_and_rewritten(
    tmp_path, caplog
):
    """Guards "an unreadable artifact is a logged miss" under prefetching."""
    specs = collection_specs("tiny")[:5]
    cold, generated, hits = _chunk(specs, tmp_path)
    assert (generated, hits) == (5, 0)
    victim = _artifact(tmp_path, specs[2])
    original = victim.read_bytes()
    victim.write_bytes(original[: len(original) // 2])

    with caplog.at_level(logging.WARNING, logger=engine_module.__name__):
        measurements, generated, hits = _chunk(specs, tmp_path)
    assert (generated, hits) == (1, 4)
    [warning] = [r.getMessage() for r in caplog.records if r.name == engine_module.__name__]
    assert victim.name in warning
    assert victim.read_bytes() == original
    assert measurements == cold


def test_key_repeating_after_another_is_read_back_from_the_tier(tmp_path, monkeypatch):
    """Guards the invariant that a key is written before its prefetch starts."""
    first, second = collection_specs("tiny")[:2]
    again = dataclasses.replace(first, name=first.name + "-again")
    assert matrix_key(again) == matrix_key(first)
    built = []
    build = type(SPMV).spec_matrix

    def spy(self, spec):
        built.append(spec.name)
        return build(self, spec)

    monkeypatch.setattr(type(SPMV), "spec_matrix", spy)
    measurements, generated, hits = _chunk([first, second, again], tmp_path)
    assert (generated, hits) == (2, 1)
    assert built == [first.name, second.name]
    assert measurements[2] == dataclasses.replace(measurements[0], name=again.name)


def test_loader_reads_one_matrix_ahead_on_its_own_thread(tmp_path, monkeypatch):
    """Guards the one-ahead bound: at most two matrices are resident.

    When load *i* starts, only matrix *i* - 1 may still be alive: every
    earlier loaded matrix must already be gone.
    """
    specs = collection_specs("tiny")[:8]
    _chunk(specs, tmp_path)
    measured = []
    loads = []
    loaded = []
    load = engine_module._load_matrix_artifact
    measure = engine_module.measure_matrix

    def load_spy(path):
        stale = sum(ref() is not None for ref in loaded[:-1])
        loads.append((path.name, len(measured), threading.current_thread().name, stale))
        matrix = load(path)
        loaded.append(weakref.ref(matrix))
        return matrix

    def measure_spy(*args, **kwargs):
        result = measure(*args, **kwargs)
        measured.append(result.name)
        return result

    monkeypatch.setattr(engine_module, "_load_matrix_artifact", load_spy)
    monkeypatch.setattr(engine_module, "measure_matrix", measure_spy)
    _, generated, hits = _chunk(specs, tmp_path)
    assert (generated, hits) == (0, len(specs))
    assert [name for name, _, _, _ in loads] == [_artifact(tmp_path, s).name for s in specs]
    assert all(thread.startswith("matrix-loader") for _, _, thread, _ in loads)
    # Load i starts once matrix i - 1 is in hand, so measurement i - 2 is
    # done, and it must finish before measurement i.
    for index, (_, done, _, stale) in enumerate(loads):
        assert max(index - 1, 0) <= done <= index
        assert stale == 0


class _KernelFault(Exception):
    pass


def test_kernel_fault_mid_chunk_propagates_and_joins_the_loader(tmp_path, monkeypatch):
    """Guards exception propagation: no loader thread outlives a failed chunk."""
    specs = collection_specs("tiny")[:6]
    _chunk(specs, tmp_path)
    launches = []
    launch_spec = CsrThreadMapped._launch_spec

    def faulty(self, matrix, context):
        launches.append(matrix)
        if len(launches) == 3:
            raise _KernelFault("third matrix")
        return launch_spec(self, matrix, context)

    monkeypatch.setattr(CsrThreadMapped, "_launch_spec", faulty)
    before = threading.active_count()
    with pytest.raises(_KernelFault, match="third matrix"):
        _chunk(specs, tmp_path)
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("matrix-loader")]


def test_chunk_without_a_matrix_dir_starts_no_thread(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a loader thread was started without a matrix tier")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    measurements, generated, hits = _chunk(collection_specs("tiny")[:3], None)
    assert (len(measurements), generated, hits) == (3, 3, 0)
