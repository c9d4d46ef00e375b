"""Tests for Matrix-Market I/O and the CSR ``.npz`` archive."""

import importlib
import io
import logging

import numpy as np
import pytest

from repro.sparse.coo import SparseFormatError
from repro.sparse.csr import CSRMatrix
from repro.sparse.generators import power_law_matrix
from repro.sparse.io import (
    MatrixMarketError,
    csr_to_npz_bytes,
    read_matrix_market,
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
#: 2e11 entries); NumPy < 2's ``loadtxt`` accepts the third's float index
#: with only a ``DeprecationWarning``.
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
}


@pytest.mark.parametrize("name", sorted(REJECTED_FILES))
def test_rejected_file_is_a_matrix_market_error_naming_it(name, tmp_path):
    text, message = REJECTED_FILES[name]
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MatrixMarketError, match=message) as raised:
        read_matrix_market(path)
    assert name in str(raised.value)


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
# CSR .npz round trip (the ingest-cache layout)
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


def test_npz_matches_engine_matrix_artifacts(tmp_path):
    """One .npz reader serves both the engine tier and the ingest cache."""
    from repro.bench.engine import matrix_to_bytes
    from repro.sparse.io import load_npz

    matrix = power_law_matrix(20, 20, 3.0, rng=8)
    path = tmp_path / "artifact.npz"
    path.write_bytes(matrix_to_bytes(matrix))
    loaded = load_npz(path)
    np.testing.assert_array_equal(loaded.values, matrix.values)


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


#: num_cols = 2**31 does not fit int32, so the archive keeps int64 columns.
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
    from repro.bench.engine import matrix_from_bytes, matrix_to_bytes
    from repro.sparse.io import load_npz, save_npz

    matrix = ARCHIVE_CASES[case]()
    path = tmp_path / "m.npz"
    save_npz(matrix, path)
    restored = [matrix_from_bytes(matrix_to_bytes(matrix)), load_npz(path)]
    for loaded in restored:
        assert loaded.shape == matrix.shape
        assert loaded.col_indices.dtype == np.int64
        assert loaded.values.dtype == np.float64
        np.testing.assert_array_equal(loaded.row_offsets, matrix.row_offsets)
        np.testing.assert_array_equal(loaded.col_indices, matrix.col_indices)
        np.testing.assert_array_equal(loaded.values, matrix.values)


def _malformed_state(path):
    arrays = _archive_arrays(csr_to_npz_bytes(power_law_matrix(60, 45, 4.0, rng=6)))
    arrays["values_state"][4] = 7  # has_uint32 must be 0 or 1
    np.savez(path, **arrays)


def _edited_runs(edit):
    """Writer of a format-4 archive whose column runs ``edit`` corrupts."""

    def write(path):
        matrix = power_law_matrix(60, 45, 4.0, rng=6)
        arrays = _archive_arrays(csr_to_npz_bytes(matrix))
        edit(arrays, matrix.row_lengths())
        np.savez(path, **arrays)

    return write


def _start_out_of_range(arrays, lengths):
    arrays["run_starts"][0] = 45  # num_cols


def _stride_below_one(arrays, lengths):
    arrays["run_strides"][-1] = 0


def _run_repeats_a_column(arrays, lengths):
    # A stride of num_cols maps every entry of a row onto its start column.
    arrays["run_strides"][np.argmax(lengths >= 2)] = 45


def _runs_of_wrong_length(arrays, lengths):
    arrays["run_starts"] = arrays["run_starts"][:-1]
    arrays["run_strides"] = arrays["run_strides"][:-1]


def _bad_crc(path):
    data = bytearray(csr_to_npz_bytes(power_law_matrix(60, 45, 4.0, rng=6)))
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _truncated(path):
    path.write_bytes(csr_to_npz_bytes(power_law_matrix(60, 45, 4.0, rng=6))[:300])


UNREADABLE = {
    "malformed-state": _malformed_state,
    "bad-crc": _bad_crc,
    "truncated": _truncated,
    "run-start-out-of-range": _edited_runs(_start_out_of_range),
    "run-stride-below-one": _edited_runs(_stride_below_one),
    "run-repeats-a-column": _edited_runs(_run_repeats_a_column),
    "runs-of-wrong-length": _edited_runs(_runs_of_wrong_length),
}

#: The two matrix cache tiers: (module, loader returning None on a miss).
TIER_LOADERS = [
    ("repro.bench.engine", "_load_matrix_artifact"),
    ("repro.serving.ingest", "_load_cached_matrix"),
]


@pytest.mark.parametrize("write", sorted(UNREADABLE))
def test_unreadable_archive_rejected_at_load(write, tmp_path):
    from repro.sparse.io import load_npz

    path = tmp_path / "bad.npz"
    UNREADABLE[write](path)
    with pytest.raises(SparseFormatError, match="bad.npz"):
        load_npz(path)


@pytest.mark.parametrize("module_name, loader", TIER_LOADERS)
@pytest.mark.parametrize("write", sorted(UNREADABLE))
def test_unreadable_archive_is_a_logged_miss_in_both_tiers(
    module_name, loader, write, tmp_path, caplog
):
    load = getattr(importlib.import_module(module_name), loader)
    path = tmp_path / "bad.npz"
    UNREADABLE[write](path)
    with caplog.at_level(logging.WARNING, logger=module_name):
        assert load(path) is None
        assert load(tmp_path / "absent.npz") is None  # a plain miss: not logged
    assert [record.name for record in caplog.records] == [module_name]
    assert "bad.npz" in caplog.records[0].getMessage()
