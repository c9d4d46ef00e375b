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
overflow int64, a declared entry count the body does not hold — all raise
:class:`MatrixMarketError` with a message naming the offending file, never
a bare NumPy error.

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
:class:`~repro.sparse.csr.CSRMatrix` through one uncompressed NumPy archive
(the zip CRC still detects corruption); the sweep engine's generated-matrix
tier and the serving layer's ingest cache both store this layout.  The
archive holds ``row_offsets`` (int64) and two pairs of alternatives:

* the columns as ``col_indices`` or, for a matrix whose
  :class:`~repro.sparse.csr.RowRuns` were never expanded, as one
  ``run_starts`` and one ``run_strides`` entry per row — int32 whenever
  ``num_cols`` fits, else int64;
* the float64 ``values`` or, for a matrix whose values were never drawn,
  the six-word ``values_state`` recipe of
  :class:`~repro.sparse.csr.DeferredValues`.

A generated matrix therefore costs 16 bytes per row, whatever its row
lengths, where per-nonzero int32 columns cost about 4.8 bytes per nonzero.
The loader validates the column runs like any other member: runs that are
out of range or would repeat a column are a
:class:`~repro.sparse.coo.SparseFormatError`.
"""

from __future__ import annotations

import gzip
import io
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.sparse.coo import COOMatrix, SparseFormatError
from repro.sparse.csr import CSRMatrix, DeferredValues, RowRuns

_SUPPORTED_FIELDS = {"real", "integer", "pattern"}
_SUPPORTED_SYMMETRIES = {"general", "symmetric", "skew-symmetric"}
_ENTRY_FIELDS = [("row", np.int64), ("col", np.int64), ("value", np.float64)]

#: Entries :func:`write_matrix_market` formats per ``write`` call.
WRITE_CHUNK_ENTRIES = 65536


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
        # NumPy < 2 parses "1.0" as an integer with only a DeprecationWarning;
        # as an error it rejects the entry, as int() always has.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            entries = np.loadtxt(
                handle, dtype=np.dtype(fields), comments="%", usecols=range(len(fields)), ndmin=1
            )
        except (ValueError, DeprecationWarning) as exc:
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
    row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_rows, minlength=num_rows), out=row_offsets[1:])
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
