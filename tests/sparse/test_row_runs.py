"""Row-run columns: generated matrices carry O(rows) column recipes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import generators as gen
from repro.sparse.coo import SparseFormatError
from repro.sparse.csr import CSRMatrix, RowRuns
from repro.sparse.io import csr_to_npz_bytes, csr_to_tier_bytes, load_tier

#: Every generator that lays its rows out as column runs.
RUN_GENERATORS = {
    "regular": lambda: gen.regular_matrix(90, 70, 9, rng=1),
    "banded": lambda: gen.banded_matrix(80, 7, rng=2),
    "power_law": lambda: gen.power_law_matrix(300, 250, 6.0, rng=3),
    "uniform": lambda: gen.uniform_random_matrix(120, 100, 0.05, rng=4),
    "skewed": lambda: gen.skewed_matrix(100, 90, 3, 4, 60, rng=5),
    "block": lambda: gen.block_diagonal_matrix(5, 6, rng=6),
    "road_network": lambda: gen.road_network_matrix(200, rng=7),
    "variable_block": lambda: gen.variable_block_matrix(100, 2, 9, rng=8),
    "empty_heavy": lambda: gen.empty_row_heavy_matrix(100, 80, 0.6, 5, rng=9),
    # Rows of 40 strided columns out of 300: over 100 runs wrap past num_cols.
    "wrapped": lambda: gen.regular_matrix(400, 300, 40, rng=11),
}


def _reference_columns(matrix: CSRMatrix) -> list:
    """Row by row, the sorted run each generator draws: ``(start + k * stride) % n``."""
    runs = matrix.column_runs
    columns = []
    for start, stride, length in zip(runs.starts, runs.strides, matrix.row_lengths()):
        run = [(int(start) + k * int(stride)) % matrix.num_cols for k in range(length)]
        columns.extend(sorted(run))
    return columns


@pytest.mark.parametrize("family", sorted(RUN_GENERATORS))
def test_run_generators_expand_to_the_sorted_reference_runs(family):
    matrix = RUN_GENERATORS[family]()
    assert matrix.column_runs is not None
    expected = _reference_columns(matrix)
    columns = matrix.col_indices
    assert columns.dtype == np.int64
    assert columns.tolist() == expected


def test_nnz_validate_and_archive_leave_the_runs_unexpanded(monkeypatch):
    def refuse(self, row_offsets, num_cols):
        raise AssertionError("column runs were expanded")

    monkeypatch.setattr(RowRuns, "expand", refuse)
    matrix = gen.power_law_matrix(300, 300, 6.0, rng=4)
    assert matrix.nnz == int(matrix.row_offsets[-1]) > 0
    matrix.validate()
    assert csr_to_npz_bytes(matrix)
    assert csr_to_tier_bytes(matrix)
    assert matrix.column_runs is not None


def test_columns_expand_once():
    matrix = gen.banded_matrix(64, 5, rng=2)
    assert matrix.column_runs is not None
    first = matrix.col_indices
    assert matrix.column_runs is None
    assert matrix.col_indices is first


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
    num_cols=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_generated_runs_stay_in_bounds_sorted_and_unique(lengths, num_cols, seed):
    matrix = gen.matrix_from_row_lengths(np.array(lengths), num_cols, rng=seed)
    matrix.validate()
    for cols in np.split(matrix.col_indices, matrix.row_offsets[1:-1]):
        assert np.all(np.diff(cols) > 0)
        assert cols.shape[0] == 0 or (cols.min() >= 0 and cols.max() < num_cols)


#: Runs a 2-row, 4-column matrix with row offsets ``[0, 1, 4]`` must refuse.
INVALID_RUNS = [
    ([0, 4], [1, 1], "start out of bounds"),
    ([-1, 0], [1, 1], "start out of bounds"),
    ([0, 0], [1, 0], "strides must be positive"),
    ([0, 0], [1, 2], "repeat a column"),
    ([0], [1], "one start and one stride per row"),
]


@pytest.mark.parametrize("starts, strides, message", INVALID_RUNS)
def test_invalid_runs_rejected(starts, strides, message):
    # Row 1 holds 3 entries of a 4-column matrix: a stride of 2 would wrap
    # back onto its start column.
    with pytest.raises(SparseFormatError, match=message):
        CSRMatrix(
            num_rows=2,
            num_cols=4,
            row_offsets=[0, 1, 4],
            col_indices=RowRuns(
                starts=np.array(starts, dtype=np.int64),
                strides=np.array(strides, dtype=np.int64),
            ),
            values=np.ones(4),
        )


@pytest.mark.parametrize("starts, strides, message", INVALID_RUNS)
def test_runs_checked_against_supplied_row_lengths(starts, strides, message):
    # The constructor hands the recipe the matrix's own row lengths; the
    # recipe alone, given the same lengths, refuses every invalid case.
    runs = RowRuns(
        starts=np.array(starts, dtype=np.int64),
        strides=np.array(strides, dtype=np.int64),
    )
    with pytest.raises(SparseFormatError, match=message):
        runs.validate(np.array([1, 3], dtype=np.int64), 4)


def test_supplied_row_lengths_accept_valid_runs():
    matrix = gen.power_law_matrix(300, 250, 6.0, rng=3)
    matrix.column_runs.validate(matrix.row_lengths(), matrix.num_cols)


def _per_row_validate(runs: RowRuns, row_lengths, num_cols: int) -> None:
    """Test-local copy of the check that divided every row, on int64 runs."""
    starts = np.asarray(runs.starts, dtype=np.int64)
    strides = np.asarray(runs.strides, dtype=np.int64)
    num_rows = row_lengths.shape[0]
    if starts.shape != (num_rows,) or strides.shape != (num_rows,):
        raise SparseFormatError(
            f"column runs must hold one start and one stride per row, got "
            f"{starts.shape} and {strides.shape} for {num_rows} rows"
        )
    if num_rows == 0:
        return
    if starts.min() < 0 or starts.max() >= num_cols:
        raise SparseFormatError("column run start out of bounds")
    if strides.min() < 1:
        raise SparseFormatError("column run strides must be positive")
    if np.any(row_lengths - 1 > (num_cols - 1) // strides):
        raise SparseFormatError("column run would repeat a column")


def _outcome(check, runs, row_lengths, num_cols):
    try:
        check(runs, row_lengths, num_cols)
    except SparseFormatError as exc:
        return str(exc)
    return None


@st.composite
def _runs_near_their_bounds(draw):
    """Runs whose rows sit on, just inside or just past ``(length - 1) * stride < num_cols``."""
    num_cols = draw(
        st.one_of(
            st.integers(min_value=1, max_value=64),
            st.integers(min_value=2**31 - 64, max_value=2**31 - 1),
        )
    )
    num_rows = draw(st.integers(min_value=0, max_value=12))
    max_stride = min(num_cols, 1 << 20)
    strides = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=8),
                st.integers(min_value=max(1, max_stride - 8), max_value=max_stride),
                st.sampled_from([0, min(num_cols + 1, 2**31 - 1)]),
            ),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    lengths = []
    for stride in strides:
        # Longest length whose run does not repeat a column: the equality
        # (length - 1) * stride == num_cols - 1 is reached when it divides.
        longest = (num_cols - 1) // max(stride, 1) + 1
        offset = draw(st.sampled_from([-longest, -1, 0, 1]))
        lengths.append(max(0, longest + offset))
    starts = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=num_cols - 1),
                st.sampled_from([-1, num_cols]),
            ),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    short = draw(st.booleans()) and num_rows > 0
    runs = RowRuns(
        starts=np.array(starts[: num_rows - short], dtype=dtype),
        strides=np.array(strides, dtype=dtype),
    )
    return runs, np.array(lengths, dtype=np.int64), num_cols


@settings(max_examples=300, deadline=None)
@given(case=_runs_near_their_bounds())
def test_validate_refuses_exactly_what_the_per_row_division_refused(case):
    """Guards the bound-first check: same inputs refused, same message."""
    runs, row_lengths, num_cols = case
    expected = _outcome(_per_row_validate, runs, row_lengths, num_cols)
    assert _outcome(RowRuns.validate, runs, row_lengths, num_cols) == expected


def test_validate_boundary_row_accepted_one_past_refused():
    # (length - 1) * stride == num_cols - 1 is the longest run that fits.
    runs = RowRuns(
        starts=np.array([0, 5], dtype=np.int32), strides=np.array([1, 3], dtype=np.int32)
    )
    runs.validate(np.array([2, 4], dtype=np.int64), 10)
    with pytest.raises(SparseFormatError, match="repeat a column"):
        runs.validate(np.array([2, 5], dtype=np.int64), 10)


@pytest.mark.parametrize("family", sorted(RUN_GENERATORS))
def test_loaded_int32_views_expand_like_the_generated_int64_recipe(family, tmp_path):
    """Guards the loader's int32 run views: same int64 columns as the generator."""
    matrix = RUN_GENERATORS[family]()
    path = tmp_path / "m.csr"
    path.write_bytes(csr_to_tier_bytes(matrix))
    loaded = load_tier(path)
    runs = loaded.column_runs
    assert runs.starts.dtype == runs.strides.dtype == np.dtype("<i4")
    # Views of the one read buffer, not int64 copies.
    assert runs.starts.base.obj is runs.strides.base.obj is loaded.row_offsets.base.obj
    assert matrix.column_runs.starts.dtype == np.int64
    columns = loaded.col_indices
    assert columns.dtype == np.int64
    np.testing.assert_array_equal(columns, matrix.col_indices)
