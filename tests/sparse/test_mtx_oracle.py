"""The vectorized Matrix-Market reader and writer against per-line references.

``reference_read_matrix_market`` and ``reference_write_matrix_market`` are
the per-line loops the vectorized code replaced.  They are test oracles
only: the reader must return the same CSR/COO arrays or raise the same
error, and the writer must produce the same bytes.  The reference reader
differs from the shipped one in three documented places:

* an index that overflows int64 escapes it as ``OverflowError``, where the
  shipped reader raises ``MatrixMarketError`` ("bad entry line");
* it preallocates the declared entry count, so a size line declaring more
  entries than memory holds raises ``MemoryError`` (never generated here);
* it stops at the first entry past the declared count, so a malformed line
  after that point is "more entries than declared" to it, while the shipped
  reader parses the whole body first and reports the bad entry line.
"""

import gzip
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import io as mtx_io
from repro.sparse.coo import COOMatrix, SparseFormatError
from repro.sparse.csr import CSRMatrix
from repro.sparse.generators import power_law_matrix
from repro.sparse.io import (
    MatrixMarketError,
    _check_coordinates,
    _open_text,
    _parse_header,
    csr_to_npz_bytes,
    read_matrix_market,
    write_matrix_market,
)


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------
def _reference_check_duplicates(rows, cols, path, hint=""):
    if rows.shape[0] < 2:
        return
    order = np.lexsort((cols, rows))
    sorted_rows, sorted_cols = rows[order], cols[order]
    repeated = (sorted_rows[1:] == sorted_rows[:-1]) & (sorted_cols[1:] == sorted_cols[:-1])
    if repeated.any():
        first = int(np.argmax(repeated))
        coordinate = f"({int(sorted_rows[first]) + 1}, {int(sorted_cols[first]) + 1})"
        raise MatrixMarketError(f"{path.name}: duplicate entry for coordinate {coordinate}{hint}")


def reference_read_matrix_market(path, as_csr=True):
    """The per-line reader: one Python ``int``/``float`` call per token."""
    path = Path(path)
    with _open_text(path) as handle:
        field, symmetry = _parse_header(handle.readline())
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
            raise MatrixMarketError(f"{path.name}: negative dimension in size line {size_line!r}")
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        values = np.empty(nnz, dtype=np.float64)
        count = 0
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            tokens = stripped.split()
            if count >= nnz:
                raise MatrixMarketError(f"{path.name}: more entries than declared in size line")
            try:
                rows[count] = int(tokens[0]) - 1
                cols[count] = int(tokens[1]) - 1
                if field == "pattern":
                    values[count] = 1.0
                else:
                    values[count] = float(tokens[2])
            except (ValueError, IndexError) as exc:
                raise MatrixMarketError(f"{path.name}: bad entry line: {stripped!r}") from exc
            count += 1
        if count != nnz:
            raise MatrixMarketError(f"expected {nnz} entries, found {count} in {path.name}")

    _check_coordinates(rows, num_rows, "row", path)
    _check_coordinates(cols, num_cols, "column", path)
    _reference_check_duplicates(rows, cols, path)
    if symmetry in ("symmetric", "skew-symmetric"):
        off_diagonal = rows != cols
        mirror_sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        mirrored_rows = np.concatenate([rows, cols[off_diagonal]])
        mirrored_cols = np.concatenate([cols, rows[off_diagonal]])
        values = np.concatenate([values, mirror_sign * values[off_diagonal]])
        rows, cols = mirrored_rows, mirrored_cols
        _reference_check_duplicates(
            rows, cols, path, hint=" (both triangles of a symmetric matrix stored?)"
        )
    coo = COOMatrix(num_rows=num_rows, num_cols=num_cols, rows=rows, cols=cols, values=values)
    return CSRMatrix.from_coo(coo) if as_csr else coo


def reference_write_matrix_market(matrix, path):
    """The per-line writer: one ``write`` per entry."""
    coo = matrix.to_coo() if isinstance(matrix, CSRMatrix) else matrix
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write("% generated by the Seer reproduction\n")
        handle.write(f"{coo.num_rows} {coo.num_cols} {coo.nnz}\n")
        for row, col, value in zip(coo.rows, coo.cols, coo.values):
            handle.write(f"{int(row) + 1} {int(col) + 1} {value:.17g}\n")


# ----------------------------------------------------------------------
# Generated Matrix-Market files
# ----------------------------------------------------------------------
#: Entry lines both readers reject in every field.
MALFORMED_ENTRIES = (
    "1 one 1.0",
    "1.0 1 1.0",
    "99999999999999999999 1 1.0",
    "1",
)

#: Entry lines malformed only where the field has a value column.
MALFORMED_VALUES = ("1 1", "1 1 x")

#: The reference reader's error for an entry past the declared count.
MORE_ENTRIES = "more entries than declared in size line"

#: Ways to spell one real value (both readers parse every one).
VALUE_SPELLINGS = (repr, "{:.17g}".format, "{:e}".format, "{:.3f}".format)


@st.composite
def mtx_files(draw):
    """``(text, gzipped, malformed)`` of one Matrix-Market coordinate file.

    Covers every supported field and symmetry, shuffled entries (so
    duplicates and both-triangle files occur), out-of-range indices,
    interleaved comment and blank lines, tabs, extra trailing tokens,
    declared counts that are off by one, empty bodies and malformed lines.
    """
    field = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["general", "symmetric", "skew-symmetric"]))
    num_rows = draw(st.integers(1, 6))
    square = symmetry != "general" and draw(st.booleans())
    num_cols = num_rows if square else draw(st.integers(1, 6))
    coordinate = st.tuples(st.integers(1, num_rows), st.integers(1, num_cols))
    if draw(st.integers(0, 4)) == 0:
        coordinate = st.tuples(st.integers(0, num_rows + 1), st.integers(0, num_cols + 1))
    coordinates = draw(st.lists(coordinate, max_size=12))
    if symmetry != "general" and draw(st.booleans()):
        coordinates = [(max(r, c), min(r, c)) for r, c in coordinates]
    if draw(st.booleans()):
        coordinates = list(dict.fromkeys(coordinates))  # no raw duplicates

    lines = []
    for row, col in coordinates:
        tokens = [str(row), str(col)]
        if field == "real":
            value = draw(st.floats(-1e6, 1e6, allow_nan=False))
            tokens.append(draw(st.sampled_from(VALUE_SPELLINGS))(value))
        elif field == "integer":
            tokens.append(str(draw(st.integers(-1000, 1000))))
        if draw(st.integers(0, 5)) == 0:
            tokens.append(draw(st.sampled_from(["7", "extra", "%trailing"])))
        separator = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
        indent = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(indent + separator.join(tokens))
    malformed = draw(st.integers(0, 4)) == 0
    if malformed:
        position = draw(st.integers(0, len(lines)))
        choices = MALFORMED_ENTRIES
        if field != "pattern":
            choices += MALFORMED_VALUES
        lines.insert(position, draw(st.sampled_from(choices)))
    declared = len(coordinates) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    declared = max(declared, 0)
    noise = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(lines)),
                st.sampled_from(["", "   ", "\t", "% comment", "  % indented", "%"]),
            ),
            max_size=4,
        )
    )
    for position, line in sorted(noise, reverse=True):
        lines.insert(position, line)
    text = "\n".join(
        [
            f"%%MatrixMarket matrix coordinate {field} {symmetry}",
            "% generated",
            f"{num_rows} {num_cols} {declared}",
            *lines,
        ]
    )
    if draw(st.booleans()):
        text += "\n"
    return text, draw(st.booleans()), malformed


def _write(tmp_path, text, gzipped):
    if gzipped:
        path = tmp_path / "case.mtx.gz"
        path.write_bytes(gzip.compress(text.encode("utf-8")))
    else:
        path = tmp_path / "case.mtx"
        path.write_text(text, encoding="utf-8")
    return path


def _outcome(reader, path, as_csr):
    try:
        return reader(path, as_csr=as_csr), None
    except (SparseFormatError, OverflowError) as exc:
        return None, exc


def _assert_same_arrays(loaded, expected, as_csr):
    assert type(loaded) is type(expected)
    if as_csr:
        assert csr_to_npz_bytes(loaded) == csr_to_npz_bytes(expected)
        return
    assert loaded.shape == expected.shape
    for name in ("rows", "cols", "values"):
        got, want = getattr(loaded, name), getattr(expected, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


def _assert_same_outcome(path, as_csr, malformed=False):
    expected, expected_error = _outcome(reference_read_matrix_market, path, as_csr)
    loaded, error = _outcome(read_matrix_market, path, as_csr)
    if expected_error is None:
        assert error is None, error
        _assert_same_arrays(loaded, expected, as_csr)
        return
    assert error is not None, f"reference raised {expected_error!r}"
    message, expected_message = str(error), str(expected_error)
    bad_entry = f"{path.name}: bad entry line: "
    stopped_early = malformed and expected_message.endswith(MORE_ENTRIES)
    if isinstance(expected_error, OverflowError) or stopped_early:
        # The two documented departures (see the module docstring).
        assert type(error) is MatrixMarketError
        assert message.startswith(bad_entry), message
        return
    assert type(error) is type(expected_error)
    if expected_message.startswith(bad_entry):
        assert message.startswith(bad_entry), message
    else:
        assert message == expected_message


@given(case=mtx_files(), as_csr=st.booleans())
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_per_line_reference(case, as_csr, tmp_path_factory):
    text, gzipped, malformed = case
    path = _write(tmp_path_factory.mktemp("mtx"), text, gzipped)
    _assert_same_outcome(path, as_csr, malformed)


#: 2**32 rows and columns: the row-major int64 key would overflow, so the
#: reader sorts with ``lexsort``.  Only the COO result fits in memory.
WIDE = 2**32


@pytest.mark.parametrize("duplicates", [False, True])
def test_lexsort_fallback_matches_the_per_line_reference(duplicates, tmp_path):
    entries = [f"{WIDE} {WIDE} 1.0", f"{WIDE} 1 2.0", f"1 {WIDE} 3.0", "1 1 4.0"]
    if duplicates:
        # Two repeated coordinates: the message names the first in row order.
        entries += [f"{WIDE} 1 5.0", f"1 {WIDE} 6.0"]
    header = ["%%MatrixMarket matrix coordinate real general", f"{WIDE} {WIDE} {len(entries)}"]
    path = _write(tmp_path, "\n".join(header + entries), gzipped=False)
    _assert_same_outcome(path, as_csr=False)


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------
def _awkward_values(count, seed):
    """Values whose ``.17g`` spelling exercises every branch of the format."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
    special = [0.0, -0.0, 1.0, 0.1, 1e16, 1e-320, np.inf, -np.inf, np.nan, 2.5]
    values[: len(special)] = special[:count]
    return values


@pytest.mark.parametrize("chunk", [1, 7, mtx_io.WRITE_CHUNK_ENTRIES])
def test_writer_bytes_match_the_per_line_reference(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(mtx_io, "WRITE_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(chunk)
    count = 40 if chunk < 10 else mtx_io.WRITE_CHUNK_ENTRIES + 3
    coo = COOMatrix(
        num_rows=1000,
        num_cols=3000,
        rows=rng.integers(0, 1000, count),
        cols=rng.integers(0, 3000, count),
        values=_awkward_values(count, chunk),
    )
    matrices = {
        "coo": coo,
        "csr": power_law_matrix(300, 200, 4.0, rng=chunk),
        "empty": COOMatrix(3, 4, [], [], []),
    }
    for name, matrix in matrices.items():
        write_matrix_market(matrix, tmp_path / f"{name}.mtx")
        reference_write_matrix_market(matrix, tmp_path / f"{name}-ref.mtx")
        written = (tmp_path / f"{name}.mtx").read_bytes()
        assert written == (tmp_path / f"{name}-ref.mtx").read_bytes(), name
