"""Sparse-matrix file I/O: Matrix Market and ``.npz`` CSR archives.

SuiteSparse matrices are distributed as Matrix-Market ``.mtx`` files
(often gzip-compressed as ``.mtx.gz``).  The reproduction generates its
matrices synthetically, but the readers/writers here let users point the
Seer pipeline at real matrix files when they have them, exactly as the
paper's tooling does — ``repro serve`` ingests whole directories of them.

Only the ``matrix coordinate`` container is supported (real / integer /
pattern fields, general / symmetric / skew-symmetric symmetry), which covers
the SuiteSparse collection.  Malformed files — bad headers, truncated entry
lists, out-of-range 1-based coordinates, duplicate entries, indices that
overflow int64, a declared entry count the body does not hold, a CSR read
declaring more than :data:`MAX_ROWS` rows — all raise :class:`MatrixMarketError`
with a message naming the offending file, never a bare NumPy error or
``MemoryError``.

No Python code runs once per entry.  After the header and size line, one
streamed :func:`numpy.loadtxt` call tokenizes the whole body in C from the
open (possibly gzip) text handle into int64 rows and columns and float64
values, 24 bytes per entry; nothing is preallocated from the declared
count, which is checked after the parse.  Symmetric files are mirrored, and
then the entries are sorted once, by a single int64 ``row * width + col``
key (``lexsort`` only when that key would overflow).  That one sort finds
duplicate coordinates and orders the CSR arrays.  The writer formats
fixed-size chunks of entries with one ``str.join`` and one ``write`` each.

The ``.npz`` helpers (:func:`save_npz` / :func:`load_npz`) round-trip a
:class:`~repro.sparse.csr.CSRMatrix` through one uncompressed NumPy archive,
the interchange format for user files and ``.npz`` corpus sources.  The
archive holds ``row_offsets`` (int64) and two pairs of alternatives:

* the columns as ``col_indices`` or, for a matrix whose
  :class:`~repro.sparse.csr.RowRuns` were never expanded, as one
  ``run_starts`` and one ``run_strides`` entry per row — int32 whenever
  ``num_cols`` fits, else int64;
* the float64 ``values`` or, for a matrix whose values were never drawn,
  the six-word ``values_state`` recipe of
  :class:`~repro.sparse.csr.DeferredValues`.

The two matrix cache tiers — the sweep engine's ``matrices/`` and the
serving layer's ``ingest/`` — store the same arrays in a flat container
instead (:func:`csr_to_tier_bytes` / :func:`load_tier`, suffix
:data:`TIER_SUFFIX`), so a cache hit skips the zip directory and per-member
header parsing of ``np.load``.  A container is a fixed 40-byte
little-endian header (:class:`TierHeader`: magic, version, the column and
values kinds, the column itemsize, ``num_rows``, ``num_cols``, ``nnz``),
then ``row_offsets``, the column arrays and the values, each padded to 8
bytes, then a CRC-32 of every byte before it.  The reader checks the
header, then that the file length is the one the header implies (before
allocating anything from the header), then the CRC, then that ``nnz`` is
``row_offsets[-1]``; the arrays are views of one buffer read, and the
:class:`~repro.sparse.csr.CSRMatrix` constructor validates them as usual.

A generated matrix therefore costs 16 bytes per row, whatever its row
lengths, where per-nonzero int32 columns cost about 4.8 bytes per nonzero.
Both loaders validate the column runs like any other member: runs that are
out of range or would repeat a column are a
:class:`~repro.sparse.coo.SparseFormatError`, as is every other unreadable
file.
"""

from __future__ import annotations

import gzip
import io
import os
import struct
import warnings
import zipfile
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.sparse.coo import COOMatrix, SparseFormatError
from repro.sparse.csr import CSRMatrix, DeferredValues, RowRuns

_SUPPORTED_FIELDS = {"real", "integer", "pattern"}
_SUPPORTED_SYMMETRIES = {"general", "symmetric", "skew-symmetric"}
_ENTRY_FIELDS = [("row", np.int64), ("col", np.int64), ("value", np.float64)]

#: Entries :func:`write_matrix_market` formats per ``write`` call.
WRITE_CHUNK_ENTRIES = 65536

#: Most rows a Matrix-Market size line may declare for a CSR read.  The
#: ``row_offsets`` hold one int64 per row, so a larger count is refused
#: before anything is allocated from it.  A COO read allocates nothing per
#: row, and columns are never allocated from their count.
MAX_ROWS = 2**31 - 1


class MatrixMarketError(SparseFormatError):
    """Raised when a Matrix-Market file cannot be parsed."""


def _parse_header(line: str) -> tuple:
    parts = line.strip().lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket" or parts[1] != "matrix":
        raise MatrixMarketError(f"not a MatrixMarket matrix header: {line!r}")
    layout, field, symmetry = parts[2], parts[3], parts[4]
    if layout != "coordinate":
        raise MatrixMarketError(f"unsupported layout {layout!r} (only coordinate)")
    if field not in _SUPPORTED_FIELDS:
        raise MatrixMarketError(f"unsupported field {field!r}")
    if symmetry not in _SUPPORTED_SYMMETRIES:
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")
    return field, symmetry


def _open_text(path: Path):
    """Open a ``.mtx`` file for reading, decompressing ``.mtx.gz`` transparently."""
    if path.name.lower().endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def _check_coordinates(values: np.ndarray, upper: int, what: str, path: Path) -> None:
    """Validate parsed 0-based coordinates against ``[0, upper)``."""
    if values.shape[0] == 0:
        return
    smallest, largest = int(values.min()), int(values.max())
    if smallest < 0 or largest >= upper:
        offender = smallest + 1 if smallest < 0 else largest + 1
        raise MatrixMarketError(f"{path.name}: {what} index {offender} out of range 1..{upper}")


def _read_entries(handle, field: str, path: Path) -> tuple:
    """Parse the entry lines left in ``handle`` into 0-based coordinate arrays.

    One streamed :func:`numpy.loadtxt` call tokenizes the whole body in C;
    ``%`` comments and blank lines are skipped and extra trailing tokens are
    ignored.  Returns ``(rows, cols, values)``; ``values`` is ``None`` for a
    ``pattern`` field.  The warning filters set around the call are
    process-wide (``warnings.catch_warnings`` is not thread-safe); the
    serving daemon parses on its one batch worker thread.
    """
    fields = _ENTRY_FIELDS[:2] if field == "pattern" else _ENTRY_FIELDS
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="loadtxt: input contained no data", category=UserWarning
        )
        try:
            entries = np.loadtxt(
                handle, dtype=np.dtype(fields), comments="%", usecols=range(len(fields)), ndmin=1
            )
        except ValueError as exc:
            raise MatrixMarketError(f"{path.name}: bad entry line: {exc}") from exc
    rows, cols = entries["row"], entries["col"]
    rows -= 1
    cols -= 1
    values = None if field == "pattern" else entries["value"]
    return rows, cols, values


def _row_major_order(rows: np.ndarray, cols: np.ndarray) -> tuple:
    """Stable ``(row, col)`` sort of non-negative coordinates: ``(order, duplicate)``.

    ``duplicate`` is the index of the first entry, in that order, whose
    coordinate repeats, or ``None``.  A single int64 key sorts an
    already-ordered file in one linear pass; ``lexsort`` covers shapes whose
    key would overflow.  Both sorts are stable, so the order is the same.
    """
    if rows.shape[0] == 0:
        return np.empty(0, dtype=np.intp), None
    width = int(cols.max()) + 1
    if (int(rows.max()) + 1) * width <= np.iinfo(np.int64).max:
        keys = rows * width + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeated = keys[1:] == keys[:-1]
    else:
        order = np.lexsort((cols, rows))
        sorted_rows, sorted_cols = rows[order], cols[order]
        repeated = (sorted_rows[1:] == sorted_rows[:-1]) & (sorted_cols[1:] == sorted_cols[:-1])
    if not repeated.any():
        return order, None
    return order, int(order[np.argmax(repeated)])


def read_matrix_market(path, as_csr: bool = True):
    """Read a Matrix-Market coordinate file (``.mtx`` or ``.mtx.gz``).

    Parameters
    ----------
    path:
        File to read; a ``.gz`` suffix is decompressed transparently.
    as_csr:
        Return a :class:`CSRMatrix` when true (the default), otherwise the
        raw :class:`COOMatrix`: entries in file order, followed by the
        mirrored entries of a symmetric file.
    """
    path = Path(path)
    try:
        with _open_text(path) as handle:
            header = handle.readline()
            field, symmetry = _parse_header(header)
            size_line = None
            for line in handle:
                stripped = line.strip()
                if not stripped or stripped.startswith("%"):
                    continue
                size_line = stripped
                break
            if size_line is None:
                raise MatrixMarketError(f"{path.name}: missing size line")
            try:
                num_rows, num_cols, nnz = (int(tok) for tok in size_line.split())
            except ValueError as exc:
                raise MatrixMarketError(f"{path.name}: bad size line: {size_line!r}") from exc
            if num_rows < 0 or num_cols < 0 or nnz < 0:
                raise MatrixMarketError(
                    f"{path.name}: negative dimension in size line {size_line!r}"
                )
            if as_csr and num_rows > MAX_ROWS:
                raise MatrixMarketError(
                    f"{path.name}: {num_rows} rows exceed the supported {MAX_ROWS}"
                )
            rows, cols, values = _read_entries(handle, field, path)
    except (OSError, UnicodeDecodeError, EOFError, zlib.error) as exc:
        # gzip surfaces header corruption/truncation as OSError/EOFError and
        # corrupt deflate bodies as zlib.error; binary junk in a text stream
        # surfaces as UnicodeDecodeError.
        raise MatrixMarketError(f"{path.name}: unreadable file ({exc})") from exc
    count = rows.shape[0]
    if count > nnz:
        raise MatrixMarketError(f"{path.name}: more entries than declared in size line")
    if count != nnz:
        raise MatrixMarketError(f"expected {nnz} entries, found {count} in {path.name}")
    if values is None:
        values = np.ones(count, dtype=np.float64)

    _check_coordinates(rows, num_rows, "row", path)
    _check_coordinates(cols, num_cols, "column", path)
    mirrored = symmetry != "general"
    all_rows, all_cols, all_values = rows, cols, values
    if mirrored:
        off_diagonal = rows != cols
        mirror_sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        all_rows = np.concatenate([rows, cols[off_diagonal]])
        all_cols = np.concatenate([cols, rows[off_diagonal]])
        all_values = np.concatenate([values, mirror_sign * values[off_diagonal]])

    order, duplicate = _row_major_order(all_rows, all_cols)
    if duplicate is not None:
        hint = ""
        if mirrored:
            # A symmetric file must store only one triangle: a file carrying
            # both (i, j) and (j, i) has no raw duplicate but collides once
            # mirrored — without this, mirroring would silently double values.
            # The raw entries are the head of the mirrored arrays.
            raw_duplicate = _row_major_order(rows, cols)[1]
            if raw_duplicate is None:
                hint = " (both triangles of a symmetric matrix stored?)"
            else:
                duplicate = raw_duplicate
        coordinate = f"({int(all_rows[duplicate]) + 1}, {int(all_cols[duplicate]) + 1})"
        raise MatrixMarketError(f"{path.name}: duplicate entry for coordinate {coordinate}{hint}")

    coo = COOMatrix(
        num_rows=num_rows, num_cols=num_cols, rows=all_rows, cols=all_cols, values=all_values
    )
    if not as_csr:
        return coo
    try:
        row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(all_rows, minlength=num_rows), out=row_offsets[1:])
    except MemoryError as exc:
        raise MatrixMarketError(
            f"{path.name}: cannot allocate row offsets for {num_rows} rows"
        ) from exc
    return CSRMatrix(
        num_rows=num_rows,
        num_cols=num_cols,
        row_offsets=row_offsets,
        col_indices=all_cols[order],
        values=all_values[order],
    )


def write_matrix_market(matrix, path) -> None:
    """Write a CSR or COO matrix as a general real coordinate ``.mtx`` file.

    Entries are formatted :data:`WRITE_CHUNK_ENTRIES` at a time, one
    ``write`` per chunk.
    """
    if isinstance(matrix, CSRMatrix):
        coo = matrix.to_coo()
    elif isinstance(matrix, COOMatrix):
        coo = matrix
    else:
        raise TypeError(f"cannot write {type(matrix).__name__} as MatrixMarket")
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write("% generated by the Seer reproduction\n")
        handle.write(f"{coo.num_rows} {coo.num_cols} {coo.nnz}\n")
        for start in range(0, coo.nnz, WRITE_CHUNK_ENTRIES):
            chunk = slice(start, start + WRITE_CHUNK_ENTRIES)
            rows = (coo.rows[chunk] + 1).tolist()
            cols = (coo.cols[chunk] + 1).tolist()
            values = coo.values[chunk].tolist()
            entries = zip(rows, cols, values)
            handle.write("".join(f"{row} {col} {value:.17g}\n" for row, col, value in entries))


# ----------------------------------------------------------------------
# CSR <-> .npz archives
# ----------------------------------------------------------------------
def csr_to_npz_bytes(matrix: CSRMatrix) -> bytes:
    """Serialized ``.npz`` form of one CSR matrix.

    Never draws deferred values and never expands column runs.
    """
    col_dtype = np.int32 if matrix.num_cols <= np.iinfo(np.int32).max else np.int64
    runs = matrix.column_runs
    if runs is None:
        columns = {"col_indices": matrix.col_indices.astype(col_dtype, copy=False)}
    else:
        columns = {
            "run_starts": runs.starts.astype(col_dtype, copy=False),
            "run_strides": runs.strides.astype(col_dtype, copy=False),
        }
    deferred = matrix.deferred_values
    if deferred is None:
        values = {"values": matrix.values}
    else:
        values = {"values_state": deferred.to_words()}
    buffer = io.BytesIO()
    np.savez(
        buffer,
        num_rows=np.int64(matrix.num_rows),
        num_cols=np.int64(matrix.num_cols),
        row_offsets=matrix.row_offsets,
        **columns,
        **values,
    )
    return buffer.getvalue()


def csr_from_npz_bytes(data: bytes) -> CSRMatrix:
    """Inverse of :func:`csr_to_npz_bytes`.

    Raises :class:`~repro.sparse.coo.SparseFormatError` for every archive
    that is not a valid CSR layout — truncated or corrupt zip data, missing
    arrays, a malformed ``values_state``, column runs that are out of range
    or would repeat a column — so callers catch one exception family.
    """
    try:
        with np.load(io.BytesIO(data)) as arrays:
            row_offsets = arrays["row_offsets"]
            if "col_indices" in arrays.files:
                columns = arrays["col_indices"]
            else:
                columns = RowRuns(
                    starts=arrays["run_starts"].astype(np.int64),
                    strides=arrays["run_strides"].astype(np.int64),
                )
            if "values" in arrays.files:
                values = arrays["values"]
            else:
                values = DeferredValues.from_words(arrays["values_state"], int(row_offsets[-1]))
            return CSRMatrix(
                num_rows=int(arrays["num_rows"]),
                num_cols=int(arrays["num_cols"]),
                row_offsets=row_offsets,
                col_indices=columns,
                values=values,
            )
    except SparseFormatError:
        raise
    except (OSError, ValueError, KeyError, IndexError, TypeError, zipfile.BadZipFile) as exc:
        raise SparseFormatError(f"not a readable CSR .npz archive ({exc})") from exc


def save_npz(matrix: CSRMatrix, path) -> None:
    """Persist a CSR matrix as one ``.npz`` archive."""
    Path(path).write_bytes(csr_to_npz_bytes(matrix))


def load_npz(path) -> CSRMatrix:
    """Read a CSR matrix written by :func:`save_npz`.

    Raises :class:`~repro.sparse.coo.SparseFormatError` when the archive is
    missing, truncated or does not hold a valid CSR layout, so ingest-layer
    callers get one exception family for every unreadable matrix file.
    """
    path = Path(path)
    try:
        return csr_from_npz_bytes(path.read_bytes())
    except OSError as exc:
        raise SparseFormatError(f"{path.name}: unreadable file ({exc})") from exc
    except SparseFormatError as exc:
        raise SparseFormatError(f"{path.name}: {exc}") from exc


# ----------------------------------------------------------------------
# CSR <-> the cache-tier container
# ----------------------------------------------------------------------
#: File suffix of a cache-tier container.
TIER_SUFFIX = ".csr"

_TIER_MAGIC = b"SEERCSR\0"
_TIER_VERSION = 1
#: magic, version, column kind, column itemsize, values kind, one pad byte,
#: num_rows, num_cols, nnz: 40 bytes, so every array starts 8-byte aligned.
_TIER_HEADER = struct.Struct("<8sIBBBx3q")
_TIER_CRC = struct.Struct("<I")
_VALUES_STATE_WORDS = 6


def _padded(nbytes: int) -> int:
    return nbytes + -nbytes % 8


class TierHeader(NamedTuple):
    """The fixed header of a cache-tier container.

    ``column_runs`` is true when the columns are stored as
    ``run_starts``/``run_strides`` and false for explicit ``col_indices``;
    ``deferred_values`` is true for the six-word ``values_state`` and false
    for float64 ``values``.
    """

    column_runs: bool
    column_itemsize: int
    deferred_values: bool
    num_rows: int
    num_cols: int
    nnz: int

    def sections(self) -> list:
        """``(name, little-endian dtype, count)`` of each stored array, in order."""
        columns = np.dtype(f"<i{self.column_itemsize}")
        if self.column_runs:
            stored = [
                ("run_starts", columns, self.num_rows),
                ("run_strides", columns, self.num_rows),
            ]
        else:
            stored = [("col_indices", columns, self.nnz)]
        if self.deferred_values:
            values = ("values_state", np.dtype("<u8"), _VALUES_STATE_WORDS)
        else:
            values = ("values", np.dtype("<f8"), self.nnz)
        return [("row_offsets", np.dtype("<i8"), self.num_rows + 1), *stored, values]

    def file_size(self) -> int:
        """Bytes of the whole container this header describes."""
        arrays = sum(_padded(dtype.itemsize * count) for _, dtype, count in self.sections())
        return _TIER_HEADER.size + arrays + _TIER_CRC.size


def tier_header(data) -> TierHeader:
    """Parse and check the header at the start of a container's bytes.

    Raises :class:`~repro.sparse.coo.SparseFormatError` for a short buffer,
    a foreign magic or version, a kind flag outside {0, 1}, a column
    itemsize outside {4, 8} or a negative dimension.
    """
    if len(data) < _TIER_HEADER.size + _TIER_CRC.size:
        raise SparseFormatError(f"{len(data)} bytes is too short for a CSR container")
    magic, version, runs, itemsize, deferred, *dimensions = _TIER_HEADER.unpack_from(data)
    if magic != _TIER_MAGIC:
        raise SparseFormatError("not a CSR container (bad magic)")
    if version != _TIER_VERSION:
        raise SparseFormatError(f"unsupported CSR container version {version}")
    if runs not in (0, 1) or deferred not in (0, 1):
        raise SparseFormatError(f"bad kind flags (columns {runs}, values {deferred})")
    if itemsize not in (4, 8):
        raise SparseFormatError(f"bad column itemsize {itemsize}")
    if min(dimensions) < 0:
        raise SparseFormatError(f"negative dimension in header {tuple(dimensions)}")
    return TierHeader(bool(runs), itemsize, bool(deferred), *dimensions)


def csr_to_tier_bytes(matrix: CSRMatrix) -> bytes:
    """Serialized cache-tier container of one CSR matrix.

    Never draws deferred values and never expands column runs.
    """
    runs = matrix.column_runs
    deferred = matrix.deferred_values
    header = TierHeader(
        column_runs=runs is not None,
        column_itemsize=4 if matrix.num_cols <= np.iinfo(np.int32).max else 8,
        deferred_values=deferred is not None,
        num_rows=matrix.num_rows,
        num_cols=matrix.num_cols,
        nnz=matrix.nnz,
    )
    columns = [matrix.col_indices] if runs is None else [runs.starts, runs.strides]
    values = matrix.values if deferred is None else deferred.to_words()
    parts = [_TIER_HEADER.pack(_TIER_MAGIC, _TIER_VERSION, *header)]
    for array, (_, dtype, _) in zip([matrix.row_offsets, *columns, values], header.sections()):
        stored = np.ascontiguousarray(array, dtype=dtype)
        parts += [stored, bytes(-stored.nbytes % 8)]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_TIER_CRC.pack(crc))
    return b"".join(parts)


def _csr_from_tier_buffer(buffer: bytearray) -> CSRMatrix:
    header = tier_header(buffer)
    expected = header.file_size()
    if len(buffer) != expected:
        raise SparseFormatError(f"holds {len(buffer)} bytes where its header implies {expected}")
    end = expected - _TIER_CRC.size
    (stored_crc,) = _TIER_CRC.unpack_from(buffer, end)
    if zlib.crc32(memoryview(buffer)[:end]) != stored_crc:
        raise SparseFormatError("CRC-32 mismatch")
    (last_offset,) = struct.unpack_from("<q", buffer, _TIER_HEADER.size + 8 * header.num_rows)
    if last_offset != header.nnz:
        raise SparseFormatError(
            f"header nnz {header.nnz} differs from row_offsets[-1] = {last_offset}"
        )
    arrays = {}
    offset = _TIER_HEADER.size
    for name, dtype, count in header.sections():
        arrays[name] = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
        offset += _padded(dtype.itemsize * count)
    if header.column_runs:
        columns = RowRuns(
            starts=arrays["run_starts"].astype(np.int64, copy=False),
            strides=arrays["run_strides"].astype(np.int64, copy=False),
        )
    else:
        columns = arrays["col_indices"]
    if header.deferred_values:
        values = DeferredValues.from_words(arrays["values_state"], header.nnz)
    else:
        values = arrays["values"]
    return CSRMatrix(
        num_rows=header.num_rows,
        num_cols=header.num_cols,
        row_offsets=arrays["row_offsets"],
        col_indices=columns,
        values=values,
    )


def load_tier(path) -> CSRMatrix:
    """Read a container written from :func:`csr_to_tier_bytes`.

    The file is read with one ``readinto`` into a buffer of its size, so
    the loaded arrays are writable views of it.  Raises
    :class:`~repro.sparse.coo.SparseFormatError` naming the file when it is
    missing, truncated, fails its CRC or does not hold a valid CSR layout.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            buffer = bytearray(os.fstat(handle.fileno()).st_size)
            read = handle.readinto(buffer)
    except OSError as exc:
        raise SparseFormatError(f"{path.name}: unreadable file ({exc})") from exc
    try:
        if read != len(buffer):
            raise SparseFormatError(f"changed size while read ({read} of {len(buffer)} bytes)")
        return _csr_from_tier_buffer(buffer)
    except SparseFormatError as exc:
        raise SparseFormatError(f"{path.name}: {exc}") from exc
