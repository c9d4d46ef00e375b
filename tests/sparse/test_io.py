"""Tests for Matrix-Market I/O, the CSR ``.npz`` archive and the cache-tier container."""

import importlib
import io
import logging
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sparse.coo import SparseFormatError
from repro.sparse.csr import CSRMatrix
from repro.sparse.generators import power_law_matrix
from repro.sparse.io import (
    TIER_SUFFIX,
    MatrixMarketError,
    csr_to_npz_bytes,
    csr_to_tier_bytes,
    load_tier,
    read_matrix_market,
    tier_header,
    write_matrix_market,
)


def test_write_read_round_trip(tmp_path):
    matrix = power_law_matrix(50, 40, 4.0, rng=1)
    path = tmp_path / "matrix.mtx"
    write_matrix_market(matrix, path)
    loaded = read_matrix_market(path)
    np.testing.assert_allclose(loaded.to_dense(), matrix.to_dense())


def test_read_pattern_matrix(tmp_path):
    path = tmp_path / "pattern.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% comment line\n"
        "3 3 2\n"
        "1 1\n"
        "3 2\n"
    )
    matrix = read_matrix_market(path)
    dense = np.zeros((3, 3))
    dense[0, 0] = 1.0
    dense[2, 1] = 1.0
    np.testing.assert_allclose(matrix.to_dense(), dense)


def test_read_symmetric_matrix_mirrors_entries(tmp_path):
    path = tmp_path / "symmetric.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 3\n"
        "1 1 2.0\n"
        "2 1 3.0\n"
        "3 2 4.0\n"
    )
    dense = read_matrix_market(path).to_dense()
    expected = np.array([[2.0, 3.0, 0.0], [3.0, 0.0, 4.0], [0.0, 4.0, 0.0]])
    np.testing.assert_allclose(dense, expected)


def test_read_skew_symmetric_matrix(tmp_path):
    path = tmp_path / "skew.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "2 1 5.0\n"
    )
    dense = read_matrix_market(path).to_dense()
    np.testing.assert_allclose(dense, [[0.0, -5.0], [5.0, 0.0]])


def test_read_as_coo(tmp_path):
    matrix = power_law_matrix(20, 20, 3.0, rng=2)
    path = tmp_path / "coo.mtx"
    write_matrix_market(matrix, path)
    coo = read_matrix_market(path, as_csr=False)
    assert not isinstance(coo, CSRMatrix)
    np.testing.assert_allclose(coo.to_dense(), matrix.to_dense())


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_write_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        write_matrix_market(np.eye(3), tmp_path / "dense.mtx")


# ----------------------------------------------------------------------
# Hardened error reporting
# ----------------------------------------------------------------------
def test_out_of_range_row_index_rejected(tmp_path):
    path = tmp_path / "oob_row.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError, match=r"row index 4 out of range 1\.\.3"):
        read_matrix_market(path)


def test_out_of_range_column_index_rejected(tmp_path):
    path = tmp_path / "oob_col.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n2 5 2.0\n"
    )
    with pytest.raises(MatrixMarketError, match=r"column index 5 out of range"):
        read_matrix_market(path)


def test_zero_based_index_rejected(tmp_path):
    path = tmp_path / "zero.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n0 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError, match="out of range"):
        read_matrix_market(path)


def test_duplicate_coordinates_rejected(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n1 1 1.0\n2 3 2.0\n1 1 5.0\n"
    )
    with pytest.raises(MatrixMarketError, match=r"duplicate entry .*\(1, 1\)"):
        read_matrix_market(path)


def test_malformed_entry_line_rejected(tmp_path):
    path = tmp_path / "bad_entry.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 one 1.0\n"
    )
    with pytest.raises(MatrixMarketError, match="bad entry line"):
        read_matrix_market(path)


def test_entry_line_missing_value_rejected(tmp_path):
    path = tmp_path / "short_entry.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"
    )
    with pytest.raises(MatrixMarketError, match="bad entry line"):
        read_matrix_market(path)


#: Files rejected with a ``MatrixMarketError`` naming them, and its message.
#: The per-line reader let the first two escape as a bare ``OverflowError``
#: (an index past int64) and ``MemoryError`` (it preallocated the declared
#: 2e11 entries); ``loadtxt`` (NumPy >= 2, the package's floor) refuses the
#: third's float index as an int64; 2e11 declared rows raised a bare
#: ``MemoryError`` from the ``row_offsets`` allocation.
REJECTED_FILES = {
    "overflow.mtx": (
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n99999999999999999999 1 1.0\n",
        "bad entry line",
    ),
    "huge_nnz.mtx": (
        "%%MatrixMarket matrix coordinate real general\n3 3 200000000000\n1 1 1.0\n",
        "expected 200000000000 entries, found 1",
    ),
    "float_index.mtx": (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1.0 1 1.0\n",
        "bad entry line",
    ),
    "huge_rows.mtx": (
        "%%MatrixMarket matrix coordinate real general\n200000000000 3 1\n1 1 1.0\n",
        "200000000000 rows exceed the supported 2147483647",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTED_FILES))
def test_rejected_file_is_a_matrix_market_error_naming_it(name, tmp_path):
    text, message = REJECTED_FILES[name]
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MatrixMarketError, match=message) as raised:
        read_matrix_market(path)
    assert name in str(raised.value)


def test_wide_matrix_market_file_is_not_capped(tmp_path):
    # Columns are never allocated from their declared count.
    path = tmp_path / "wide.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 200000000000 1\n2 1 1.0\n")
    assert read_matrix_market(path).shape == (2, 200000000000)


def test_row_offsets_allocation_failure_is_a_matrix_market_error(tmp_path, monkeypatch):
    path = tmp_path / "big.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1.0\n")

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "bincount", exhausted)
    with pytest.raises(MatrixMarketError, match="big.mtx: cannot allocate row offsets"):
        read_matrix_market(path)


def test_gzip_round_trip(tmp_path):
    import gzip

    matrix = power_law_matrix(30, 25, 3.0, rng=4)
    plain = tmp_path / "m.mtx"
    write_matrix_market(matrix, plain)
    compressed = tmp_path / "m.mtx.gz"
    compressed.write_bytes(gzip.compress(plain.read_bytes()))
    loaded = read_matrix_market(compressed)
    np.testing.assert_allclose(loaded.to_dense(), matrix.to_dense())


def test_corrupt_gzip_rejected(tmp_path):
    path = tmp_path / "junk.mtx.gz"
    path.write_bytes(b"\x1f\x8b but definitely not gzip data")
    with pytest.raises(MatrixMarketError, match="unreadable"):
        read_matrix_market(path)


def test_corrupt_deflate_body_rejected(tmp_path):
    """Bit-flipped gzip bodies (bad downloads) always fail cleanly.

    Depending on where the corruption lands, decompression raises
    ``zlib.error`` / CRC errors, or the stream decodes into garbage text
    that fails entry parsing — every outcome must be a ``MatrixMarketError``
    (never a raw traceback), which is the hardening contract ``repro
    serve`` relies on.
    """
    import gzip

    matrix = power_law_matrix(40, 40, 4.0, rng=5)
    plain = tmp_path / "m.mtx"
    write_matrix_market(matrix, plain)
    compressed = gzip.compress(plain.read_bytes())
    for index, fraction in enumerate((0.3, 0.5, 0.7, 0.9, 0.99)):
        data = bytearray(compressed)
        offset = int(len(data) * fraction)
        for position in range(offset, min(offset + 8, len(data))):
            data[position] ^= 0xFF
        path = tmp_path / f"flipped{index}.mtx.gz"
        path.write_bytes(bytes(data))
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)


def test_uppercase_gz_suffix_decompresses(tmp_path):
    import gzip

    matrix = power_law_matrix(20, 20, 3.0, rng=6)
    plain = tmp_path / "m.mtx"
    write_matrix_market(matrix, plain)
    upper = tmp_path / "M.MTX.GZ"
    upper.write_bytes(gzip.compress(plain.read_bytes()))
    np.testing.assert_allclose(read_matrix_market(upper).to_dense(), matrix.to_dense())


def test_symmetric_file_storing_both_triangles_rejected(tmp_path):
    """Both triangles present would silently double off-diagonal values."""
    path = tmp_path / "both.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n2 1 5.0\n1 2 5.0\n"
    )
    with pytest.raises(MatrixMarketError, match="both triangles"):
        read_matrix_market(path)


# ----------------------------------------------------------------------
# CSR .npz round trip (the user-file interchange format)
# ----------------------------------------------------------------------
def test_save_load_npz_round_trip(tmp_path):
    from repro.sparse.io import load_npz, save_npz

    matrix = power_law_matrix(60, 45, 4.0, rng=6)
    path = tmp_path / "m.npz"
    save_npz(matrix, path)
    loaded = load_npz(path)
    np.testing.assert_array_equal(loaded.row_offsets, matrix.row_offsets)
    np.testing.assert_array_equal(loaded.col_indices, matrix.col_indices)
    np.testing.assert_array_equal(loaded.values, matrix.values)
    assert loaded.shape == matrix.shape


def test_load_npz_clear_errors(tmp_path):
    from repro.sparse.coo import SparseFormatError
    from repro.sparse.io import load_npz

    with pytest.raises(SparseFormatError, match="absent.npz"):
        load_npz(tmp_path / "absent.npz")
    corrupt = tmp_path / "corrupt.npz"
    corrupt.write_bytes(b"not an archive")
    with pytest.raises(SparseFormatError, match="corrupt.npz"):
        load_npz(corrupt)


def _archive_arrays(data: bytes) -> dict:
    with np.load(io.BytesIO(data)) as arrays:
        return {name: arrays[name] for name in arrays.files}


def _drawn(matrix):
    assert matrix.values.shape == (matrix.nnz,)  # draws the deferred values
    return matrix


def _expanded(matrix):
    assert matrix.col_indices.shape == (matrix.nnz,)  # expands the column runs
    return matrix


#: num_cols = 2**31 does not fit int32, so both formats keep int64 columns.
WIDE = 2**31

ARCHIVE_CASES = {
    "deferred": lambda: power_law_matrix(60, 45, 4.0, rng=6),
    "drawn": lambda: _drawn(power_law_matrix(60, 45, 4.0, rng=6)),
    "expanded": lambda: _expanded(power_law_matrix(60, 45, 4.0, rng=6)),
    "wide": lambda: CSRMatrix(2, WIDE, [0, 1, 3], [0, 5, WIDE - 1], [1.0, 2.0, 3.0]),
    "wide-runs": lambda: power_law_matrix(3, WIDE, 2.0, rng=6),
}


def test_archive_narrows_columns_and_stores_the_values_recipe():
    deferred = _archive_arrays(csr_to_npz_bytes(ARCHIVE_CASES["deferred"]()))
    assert deferred["run_starts"].dtype == np.int32
    assert deferred["run_strides"].dtype == np.int32
    assert deferred["run_starts"].shape == deferred["run_strides"].shape == (60,)
    assert "col_indices" not in deferred
    assert deferred["row_offsets"].dtype == np.int64
    assert deferred["values_state"].dtype == np.uint64
    assert "values" not in deferred
    drawn = _archive_arrays(csr_to_npz_bytes(ARCHIVE_CASES["drawn"]()))
    assert drawn["values"].dtype == np.float64
    assert "values_state" not in drawn
    assert drawn["run_starts"].dtype == np.int32
    expanded = _archive_arrays(csr_to_npz_bytes(ARCHIVE_CASES["expanded"]()))
    assert expanded["col_indices"].dtype == np.int32
    assert "run_starts" not in expanded and "run_strides" not in expanded
    wide = _archive_arrays(csr_to_npz_bytes(ARCHIVE_CASES["wide"]()))
    assert wide["col_indices"].dtype == np.int64
    wide_runs = _archive_arrays(csr_to_npz_bytes(ARCHIVE_CASES["wide-runs"]()))
    assert wide_runs["run_starts"].dtype == wide_runs["run_strides"].dtype == np.int64


@pytest.mark.parametrize("case", sorted(ARCHIVE_CASES))
def test_npz_round_trips_restore_int64_columns_and_float64_values(case, tmp_path):
    from repro.sparse.io import load_npz, save_npz

    matrix = ARCHIVE_CASES[case]()
    save_npz(matrix, tmp_path / "m.npz")
    container = tmp_path / f"m{TIER_SUFFIX}"
    container.write_bytes(csr_to_tier_bytes(matrix))
    runs, deferred = matrix.column_runs, matrix.deferred_values
    for loaded in (load_tier(container), load_npz(tmp_path / "m.npz")):
        # Recipes stay recipes: compare them before any array access expands.
        if runs is None:
            assert loaded.column_runs is None
        else:
            np.testing.assert_array_equal(loaded.column_runs.starts, runs.starts)
            np.testing.assert_array_equal(loaded.column_runs.strides, runs.strides)
        assert loaded.deferred_values == deferred
        assert loaded.shape == matrix.shape
        assert loaded.col_indices.dtype == np.int64
        assert loaded.values.dtype == np.float64
        np.testing.assert_array_equal(loaded.row_offsets, matrix.row_offsets)
        np.testing.assert_array_equal(loaded.col_indices, matrix.col_indices)
        np.testing.assert_array_equal(loaded.values, matrix.values)


def test_loaded_container_arrays_are_writable(tmp_path):
    path = tmp_path / "m.csr"
    path.write_bytes(csr_to_tier_bytes(ARCHIVE_CASES["drawn"]()))
    loaded = load_tier(path)
    loaded.values[0] = 9.0
    loaded.row_offsets[0] = 0
    assert loaded.values[0] == 9.0


# ----------------------------------------------------------------------
# The cache-tier container
# ----------------------------------------------------------------------
#: The container header, spelled out independently of ``repro.sparse.io``:
#: magic, version, column kind, column itemsize, values kind, a pad byte,
#: num_rows, num_cols, nnz.
HEADER = struct.Struct("<8sIBBBx3q")
HEADER_FIELDS = (
    "magic version column_runs column_itemsize deferred_values num_rows num_cols nnz".split()
)


def test_container_header_records_narrow_columns_and_the_values_recipe():
    kinds = {
        case: tier_header(csr_to_tier_bytes(build()))[:3] for case, build in ARCHIVE_CASES.items()
    }
    assert kinds == {
        "deferred": (True, 4, True),
        "drawn": (True, 4, False),
        "expanded": (False, 4, True),
        "wide": (False, 8, False),
        "wide-runs": (True, 8, True),
    }
    matrix = ARCHIVE_CASES["deferred"]()
    data = csr_to_tier_bytes(matrix)
    fields = dict(zip(HEADER_FIELDS, HEADER.unpack_from(data)))
    assert fields["magic"] == b"SEERCSR\0"
    assert (fields["num_rows"], fields["num_cols"], fields["nnz"]) == (60, 45, matrix.nnz)
    # Header, int64 row_offsets, two int32 runs padded to 8 bytes, six
    # state words, the CRC: 16 bytes per row, whatever the row lengths.
    assert len(data) == HEADER.size + 61 * 8 + 2 * 240 + 6 * 8 + 4
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])


def _sealed(data: bytearray) -> bytes:
    """``data`` with its trailing CRC-32 recomputed, so an edit is reached."""
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
    return bytes(data)


def _container(matrix=None) -> bytearray:
    return bytearray(csr_to_tier_bytes(matrix or power_law_matrix(60, 45, 4.0, rng=6)))


def _section(data: bytearray, name: str) -> np.ndarray:
    """A writable view of one stored array, located from the header."""
    offset = HEADER.size
    for section, dtype, count in tier_header(data).sections():
        if section == name:
            return np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        offset += -(-dtype.itemsize * count // 8) * 8
    raise KeyError(name)


def _edited_header(**fields):
    """Writer of a resealed container whose header ``fields`` are replaced."""

    def write(path):
        data = _container()
        values = dict(zip(HEADER_FIELDS, HEADER.unpack_from(data)))
        values.update(fields)
        HEADER.pack_into(data, 0, *values.values())
        path.write_bytes(_sealed(data))

    return write


def _malformed_state(path):
    data = _container()
    _section(data, "values_state")[4] = 7  # has_uint32 must be 0 or 1
    path.write_bytes(_sealed(data))


def _edited_runs(edit):
    """Writer of a resealed container whose column runs ``edit`` corrupts."""

    def write(path):
        matrix = power_law_matrix(60, 45, 4.0, rng=6)
        data = _container(matrix)
        edit(data, matrix.row_lengths())
        path.write_bytes(_sealed(data))

    return write


def _start_out_of_range(data, lengths):
    _section(data, "run_starts")[0] = 45  # num_cols


def _stride_below_one(data, lengths):
    _section(data, "run_strides")[-1] = 0


def _run_repeats_a_column(data, lengths):
    # A stride of num_cols maps every entry of a row onto its start column.
    _section(data, "run_strides")[np.argmax(lengths >= 2)] = 45


def _runs_of_wrong_length(data, lengths):
    # Two int32 strides fewer than the header's row count implies.
    end = HEADER.size + 61 * 8 + 2 * 240
    del data[end - 8 : end]


def _column_out_of_range(path):
    """Resealed, so the CRC passes: only the bounds check on the stored
    int32 columns, which stay narrow after load, can refuse it."""
    data = _container(_expanded(power_law_matrix(60, 45, 4.0, rng=6)))
    _section(data, "col_indices")[-1] = 45  # num_cols
    path.write_bytes(_sealed(data))


def _bad_crc(path):
    data = _container()
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _truncated(path):
    path.write_bytes(bytes(_container()[:300]))


def _huge_rows(path):
    # 100 bytes declaring 2e11 rows: refused by length, never allocated.
    data = bytearray(HEADER.pack(b"SEERCSR\0", 1, 1, 4, 1, 2 * 10**11, 45, 1))
    data += bytes(100 - len(data))
    path.write_bytes(_sealed(data))


#: Unreadable container writers, and the reason each must be refused for.
UNREADABLE = {
    "malformed-state": (_malformed_state, "values_state is not a PCG64 state"),
    "bad-crc": (_bad_crc, "CRC-32 mismatch"),
    "truncated": (_truncated, "header implies"),
    "run-start-out-of-range": (_edited_runs(_start_out_of_range), "start out of bounds"),
    "run-stride-below-one": (_edited_runs(_stride_below_one), "strides must be positive"),
    "run-repeats-a-column": (_edited_runs(_run_repeats_a_column), "would repeat a column"),
    "runs-of-wrong-length": (_edited_runs(_runs_of_wrong_length), "header implies"),
    "column-out-of-range": (_column_out_of_range, "column index out of bounds"),
    "bad-magic": (_edited_header(magic=b"NOTACSR\0"), "bad magic"),
    "bad-version": (_edited_header(version=2), "version 2"),
    "column-kind-out-of-range": (_edited_header(column_runs=2), "bad kind flags"),
    "values-kind-out-of-range": (_edited_header(deferred_values=2), "bad kind flags"),
    "itemsize-out-of-range": (_edited_header(column_itemsize=2), "bad column itemsize"),
    "negative-dimension": (_edited_header(num_cols=-1), "negative dimension"),
    "nnz-differs-from-row-offsets": (_edited_header(nnz=7), r"header nnz 7 differs"),
    "huge-row-count": (_huge_rows, "header implies"),
}

#: The two matrix cache tiers: (module, loader returning None on a miss).
TIER_LOADERS = [
    ("repro.bench.engine", "_load_matrix_artifact"),
    ("repro.serving.ingest", "_load_cached_matrix"),
]


@pytest.mark.parametrize("write", sorted(UNREADABLE))
def test_unreadable_archive_rejected_at_load(write, tmp_path):
    writer, reason = UNREADABLE[write]
    path = tmp_path / "bad.csr"
    writer(path)
    with pytest.raises(SparseFormatError, match=reason) as raised:
        load_tier(path)
    assert str(raised.value).startswith("bad.csr: ")


@pytest.mark.parametrize("module_name, loader", TIER_LOADERS)
@pytest.mark.parametrize("write", sorted(UNREADABLE))
def test_unreadable_archive_is_a_logged_miss_in_both_tiers(
    module_name, loader, write, tmp_path, caplog
):
    load = getattr(importlib.import_module(module_name), loader)
    path = tmp_path / "bad.csr"
    UNREADABLE[write][0](path)
    with caplog.at_level(logging.WARNING, logger=module_name):
        assert load(path) is None
        assert load(tmp_path / "absent.csr") is None  # a plain miss: not logged
    assert [record.name for record in caplog.records] == [module_name]
    assert "bad.csr" in caplog.records[0].getMessage()


@pytest.mark.parametrize("module_name, loader", TIER_LOADERS)
def test_both_tiers_load_one_container(module_name, loader, tmp_path):
    load = getattr(importlib.import_module(module_name), loader)
    matrix = power_law_matrix(20, 20, 3.0, rng=8)
    path = tmp_path / f"artifact{TIER_SUFFIX}"
    path.write_bytes(csr_to_tier_bytes(matrix))
    loaded = load(path)
    np.testing.assert_array_equal(loaded.col_indices, matrix.col_indices)
    np.testing.assert_array_equal(loaded.values, matrix.values)


def test_npz_entries_of_older_cache_formats_are_never_read(tmp_path, monkeypatch):
    """A cache dir from before the container still holds ``.npz`` entries
    under today's keys; neither tier opens them."""
    from repro import SweepEngine, run_sweep
    from repro.bench.engine import matrix_key
    from repro.domains import get_domain
    from repro.pipeline.sources import source_from_path
    from repro.serving.ingest import IngestCache, ingest_matrix
    from repro.sparse.io import save_npz

    domain = get_domain("spmv")
    specs = domain.collection_specs("tiny")
    (tmp_path / "matrices").mkdir()
    for spec in specs:
        path = tmp_path / "matrices" / f"{matrix_key(spec, domain)}.npz"
        save_npz(domain.spec_matrix(spec), path)
    write_matrix_market(power_law_matrix(30, 30, 3.0, rng=1), tmp_path / "m.mtx")
    source = source_from_path(tmp_path / "m.mtx")
    cache = IngestCache(tmp_path)
    (tmp_path / "ingest").mkdir()
    save_npz(power_law_matrix(30, 30, 3.0, rng=1), cache.path(source).with_suffix(".npz"))

    def refuse(*args, **kwargs):
        raise AssertionError("an npz cache entry was opened")

    monkeypatch.setattr(np, "load", refuse)
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    run_sweep(profile="tiny", iteration_counts=(1,), engine=engine)
    assert engine.stats.matrix_cache_hits == 0
    assert engine.stats.matrices_generated == len(specs)
    assert ingest_matrix(source, cache)[1] is False
    assert ingest_matrix(source, cache)[1] is True
    assert sorted(path.suffix for path in (tmp_path / "ingest").iterdir()) == [".csr", ".npz"]


def test_narrow_columns_past_int32_are_refused(tmp_path):
    """Guards the loader's int32 run views: 4-byte columns only where num_cols fits."""
    path = tmp_path / "wide.csr"
    _edited_header(num_cols=2**31)(path)
    with pytest.raises(SparseFormatError, match="4-byte columns for 2147483648 columns"):
        load_tier(path)


@st.composite
def explicit_column_matrices(draw):
    """Matrices with explicit sorted columns; ``WIDE`` columns are stored as int64."""
    num_cols = draw(st.sampled_from([1, 9, 300, WIDE]))
    lengths = draw(st.lists(st.integers(0, min(num_cols, 6)), max_size=10))
    columns = [
        sorted(draw(st.lists(st.integers(0, num_cols - 1), min_size=n, max_size=n, unique=True)))
        for n in lengths
    ]
    flat = np.array([col for row in columns for col in row], dtype=np.int64)
    return CSRMatrix(
        num_rows=len(lengths),
        num_cols=num_cols,
        row_offsets=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        col_indices=flat,
        values=np.linspace(0.5, 1.5, flat.shape[0]),
    )


@given(matrix=explicit_column_matrices())
@example(matrix=CSRMatrix(0, 9, [0], [], []))
@example(matrix=CSRMatrix(3, WIDE, [0, 0, 0, 0], [], []))
@settings(max_examples=60, deadline=None)
def test_loaded_explicit_columns_widen_once_to_the_written_int64(matrix, tmp_path_factory):
    """Guards the lazy widening: stored int32 or int64 columns read back as
    the written int64 array, widened once and cached."""
    path = tmp_path_factory.mktemp("tier") / f"m{TIER_SUFFIX}"
    path.write_bytes(csr_to_tier_bytes(matrix))
    assert tier_header(path.read_bytes()).column_itemsize == (8 if matrix.num_cols == WIDE else 4)
    loaded = load_tier(path)
    assert loaded.column_runs is None
    columns = loaded.col_indices
    assert columns.dtype == np.int64
    np.testing.assert_array_equal(columns, matrix.col_indices)
    assert loaded.col_indices is columns
