"""Tests for the shared domain types, returns generation, and CSV persistence."""
import errno
import math
import mmap
import os
import pickle
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bpfolio import model
from bpfolio.engine import BETA_RAMP_FACTOR, beta_ladder
from bpfolio.model import (
    ABSOLUTE_DEVIATION,
    MEAN_VARIANCE,
    BpConfig,
    CostModel,
    Portfolio,
    ReturnsParseError,
    ReturnSet,
    generate_returns,
    generic_model,
    load_returns,
    save_returns,
)


class TestReturnSet:
    def test_shape_properties(self):
        rs = ReturnSet(np.arange(12.0).reshape(3, 4) + 1.0)
        assert rs.n_assets == 3
        assert rs.n_periods == 4

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-d"):
            ReturnSet(np.ones(5))

    def test_rejects_too_few_assets(self):
        with pytest.raises(ValueError, match="at least 2 assets"):
            ReturnSet(np.ones((1, 4)))

    def test_rejects_empty_periods(self):
        with pytest.raises(ValueError, match="at least 1 period"):
            ReturnSet(np.ones((3, 0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cell", [(0, 0), (1, 2)], ids=["first", "last"])
    def test_rejects_non_finite(self, value, cell):
        entries = np.ones((2, 3))
        entries[cell] = value
        with pytest.raises(ValueError, match="non-finite"):
            ReturnSet(entries)

    def test_entries_read_only(self):
        rs = ReturnSet(np.ones((2, 3)))
        with pytest.raises(ValueError):
            rs.entries[0, 0] = 7.0

    def test_copies_input(self):
        raw = np.ones((2, 2))
        rs = ReturnSet(raw)
        raw[0, 0] = 99.0
        assert rs.entries[0, 0] == 1.0

    def test_loaded_and_generated_entries_read_only(self, tmp_path):
        # the loaders hand their arrays over uncopied, and they are locked too
        rs = generate_returns(3, 4, 0)
        path = tmp_path / "returns.csv"
        save_returns(rs, str(path))
        for held in (rs, load_returns(str(path), 3), load_returns(str(path), 3, center=True)):
            assert not held.entries.flags.writeable
            with pytest.raises(ValueError):
                held.entries[0, 0] = 7.0


class TestGenerateReturns:
    def test_deterministic_per_seed(self):
        a = generate_returns(10, 20, 42)
        b = generate_returns(10, 20, 42)
        assert np.array_equal(a.entries, b.entries)

    def test_seeds_give_distinct_draws(self):
        a = generate_returns(10, 20, 0)
        b = generate_returns(10, 20, 1)
        assert not np.array_equal(a.entries, b.entries)

    def test_shape(self):
        rs = generate_returns(7, 13, 5)
        assert rs.entries.shape == (7, 13)

    def test_standard_normal_statistics(self):
        rs = generate_returns(1000, 2000, 11)
        flat = rs.entries.ravel()
        assert abs(flat.mean()) < 5e-3
        assert abs(flat.std() - 1.0) < 5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_returns(1, 10, 0)
        with pytest.raises(ValueError):
            generate_returns(10, 0, 0)


class TestPortfolio:
    def test_budget_defaults_to_size(self):
        port = Portfolio(positions=np.array([2.0, 1.0, 0.0]))
        assert port.n_assets == 3
        assert port.budget_gap() == pytest.approx(0.0)
        assert port.is_feasible()

    def test_budget_gap_signed(self):
        port = Portfolio(positions=np.array([2.0, 2.0]))
        assert port.budget_gap() == pytest.approx(2.0)
        assert not port.is_feasible()

    def test_feasibility_tolerance_scales_with_size(self):
        positions = np.ones(100)
        positions[0] += 5e-8
        port = Portfolio(positions=positions)
        assert port.is_feasible(tol=1e-9)
        assert not port.is_feasible(tol=1e-10)

    def test_positions_read_only(self):
        port = Portfolio(positions=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            port.positions[0] = 3.0


class TestCostModel:
    def test_mean_variance_values(self):
        u = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(MEAN_VARIANCE.cost_values(u), [2.0, 0.0, 4.5])

    def test_absolute_deviation_values(self):
        u = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(ABSOLUTE_DEVIATION.cost_values(u), [2.0, 0.0, 3.0])

    def test_generic_wraps_callable(self):
        model = generic_model(lambda u: u ** 4, order=32)
        assert model.kind == "generic"
        assert model.order == 32
        assert np.allclose(model.cost_values(np.array([2.0])), [16.0])
        # a constant cost, as --cost-expr 1 gives, holds one value per u
        constant = generic_model(lambda u: 1.0).cost_values(np.zeros(5))
        assert constant.shape == (5,)
        assert np.array_equal(constant, np.ones(5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown cost model"):
            CostModel(kind="huber")

    def test_generic_requires_callable(self):
        with pytest.raises(ValueError, match="requires a cost callable"):
            CostModel(kind="generic")


class TestBpConfig:
    def test_defaults_valid(self):
        config = BpConfig()
        assert config.beta == 1.0
        assert config.tol == 1e-10
        assert config.max_sweeps == 5000
        assert beta_ladder(ABSOLUTE_DEVIATION, config) == [1.0]

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0},
        {"beta": -1.0},
        {"beta": math.nan},
        {"beta": math.inf},
        {"tol": 0.0},
        {"tol": math.nan},
        {"max_sweeps": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BpConfig(**kwargs)

    def test_ladder_without_schedule_is_single_beta(self):
        # only an `ad` solve above beta 1 anneals; `mv` runs at beta 1
        assert beta_ladder(MEAN_VARIANCE, BpConfig(beta=3.0)) == [1.0]
        assert beta_ladder(generic_model(np.abs), BpConfig(beta=3.0)) == [3.0]
        assert beta_ladder(ABSOLUTE_DEVIATION, BpConfig(beta=0.5)) == [0.5]

    def test_ladder_geometric(self):
        ladder = beta_ladder(ABSOLUTE_DEVIATION, BpConfig(beta=8.0))
        assert ladder[0] == 1.0
        ratios = np.array(ladder[1:]) / np.array(ladder[:-1])
        assert np.all(ratios > 1.0)
        assert np.all(ratios <= BETA_RAMP_FACTOR)

    def test_ladder_clamps_to_final(self):
        # 3 is not a power of the ramp factor, so the last step is clamped
        ladder = beta_ladder(ABSOLUTE_DEVIATION, BpConfig(beta=3.0))
        assert ladder[-1] == 3.0
        assert ladder[-2] < 3.0 < ladder[-2] * BETA_RAMP_FACTOR
        assert np.all(np.diff(ladder) > 0.0)

    def test_ladder_degenerate_schedule(self):
        assert beta_ladder(ABSOLUTE_DEVIATION, BpConfig(beta=1.0)) == [1.0]


class TestReturnsCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        extremes = ReturnSet(np.array([[1e300, -0.0, 5e-324], [0.1, 1.0 / 3.0, -2.5]]))
        path = tmp_path / "returns.csv"
        for rs in (generate_returns(8, 17, 3), extremes):
            save_returns(rs, str(path))
            loaded = load_returns(str(path), rs.n_assets)
            assert np.array_equal(loaded.entries, rs.entries)
            # one row per line, each value at 17 significant digits
            assert path.read_text() == "".join(
                ",".join(f"{value:.17g}" for value in row) + "\n" for row in rs.entries)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "returns.csv"
        # a line of Unicode blanks is blank too
        for text in ("1,2\n\n3,4\n", "1,2\n\u3000\x1c\n3,4\n"):
            path.write_text(text, encoding="utf-8")
            loaded = load_returns(str(path), 2)
            assert np.array_equal(loaded.entries, [[1.0, 2.0], [3.0, 4.0]])

    # run by TestReturnsCsvSplit too, which expects the same of every example
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.differing_executors])
    # {:.17g} writes -0.0 as a bare -0, which orjson reads as the integer 0
    @example(values=[[-0.0, 1.0, 0.0], [2.0, -0.0, -0.0]], fmt="{:.17g}", blank_after=1,
             newline="\n")
    @example(values=[[0.0, -0.0, 0.5], [-0.0, 0.0, -0.0]], fmt="{:.17g}", blank_after=0,
             newline="\r\n")
    @given(
        values=st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
            min_size=2, max_size=6),
        fmt=st.sampled_from(["{!r}", "{:.17g}", "{:.6e}", "{:.3f}", " {!r} "]),
        blank_after=st.integers(0, 6),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_orjson_rows_match_float(self, values, fmt, blank_after, newline):
        lines = [",".join(fmt.format(v) for v in row) for row in values]
        expected = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        lines.insert(blank_after, "")
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "returns.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(newline.join(lines) + newline)
            # every row of these files loads through orjson, none through
            # float(); a forked child that reaches float() ends without its
            # rows, and the one-pass read this process then makes fails
            with mock.patch.object(model, "_float_row",
                                   side_effect=AssertionError("read with float()")):
                loaded = load_returns(path, len(values)).entries
        assert loaded.shape == expected.shape == (len(values), 3)
        assert np.array_equal(loaded.view(np.int64), expected.view(np.int64))

    def test_other_rows_read_what_float_reads(self, tmp_path):
        # each file has rows that are not JSON numbers, so float() reads them
        path = tmp_path / "returns.csv"
        for text, expected in [
            ("1_0,2\n   \n3,4.5\n", [[10.0, 2.0], [3.0, 4.5]]),
            (".5,1.\n+1,1_0\n-.25,01\n", [[0.5, 1.0], [1.0, 10.0], [-0.25, 1.0]]),
            # orjson rows and float() rows in one file, bare -0 in both
            ("-0,1\n.5,-0\n2.5e-1,0\n1_0,-0.0\n", [[-0.0, 1.0], [0.5, -0.0], [0.25, 0.0],
                                                  [10.0, -0.0]]),
            # Unicode blanks pad a row
            ("\u30001,2\u3000\n\x1c3,4\x1c\n", [[1.0, 2.0], [3.0, 4.0]]),
        ]:
            path.write_text(text, encoding="utf-8")
            expected = np.array(expected)
            loaded = load_returns(str(path), len(expected)).entries
            assert np.array_equal(loaded.view(np.int64), expected.view(np.int64))

    def test_single_row_and_single_column_stay_two_dimensional(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ReturnsParseError, match="expected 2 asset rows, found 1"):
            load_returns(str(path), 2)
        with pytest.raises(ValueError, match="need at least 2 assets, got 1"):
            load_returns(str(path), 1)
        path.write_text("1\n2\n3\n")
        assert load_returns(str(path), 3).entries.shape == (3, 1)

    def test_ragged_row_reported_with_location(self, tmp_path):
        path = tmp_path / "returns.csv"
        # rows are counted as physical lines, blank ones included
        for text, message in [
            ("1,2,3\n4,5,6\n7,8\n", "ragged row at row 3: got 2 columns, expected 3"),
            ("1,2,3\n\n4,5,6\n7,8\n", "ragged row at row 4: got 2 columns, expected 3"),
        ]:
            path.write_text(text)
            with pytest.raises(ReturnsParseError) as caught:
                load_returns(str(path), 3)
            assert str(caught.value) == message

    def test_non_numeric_cell_reported_with_location(self, tmp_path):
        path = tmp_path / "returns.csv"
        for text, message in [
            ("1,2\n3,oops\n", "non-numeric cell at row 2, column 2: 'oops'"),
            ("1,2\n\n3,x\n", "non-numeric cell at row 3, column 2: 'x'"),
            # '#' is a malformed cell, never a comment
            ("1,2\n#3,4\n", "non-numeric cell at row 2, column 1: '#3'"),
            ("# header\n1,2\n3,4\n", "non-numeric cell at row 1, column 1: '# header'"),
            # a lone \r ends a line, so it cannot join ",3" onto the row before
            ("1,2\r,3\n4,5,6\n", "non-numeric cell at row 2, column 1: ''"),
            # \r\r\n is two line ends: text mode reads a blank line 2
            ("1,2\r\r\n3,x\n", "non-numeric cell at row 3, column 2: 'x'"),
            # far past the first rows, and past the rows asked for
            ("1,2\n" * 5000 + "3,x\n", "non-numeric cell at row 5001, column 2: 'x'"),
            # JSON values that are not numbers
            ("1,2\n3,true\n", "non-numeric cell at row 2, column 2: 'true'"),
            ("null,2\n3,4\n", "non-numeric cell at row 1, column 1: 'null'"),
            ('1,"1"\n3,4\n', "non-numeric cell at row 1, column 2: '\"1\"'"),
            ("1,2\n[1],4\n", "non-numeric cell at row 2, column 1: '[1]'"),
            # cells float() reads as nan or inf, overflowing ones included
            ("1,2\n3,1e400\n", "non-finite cell at row 2, column 2: '1e400'"),
            ("1,nan\n3,4\n", "non-finite cell at row 1, column 2: 'nan'"),
            ("-1e400,2\n3,4\n", "non-finite cell at row 1, column 1: '-1e400'"),
            ("1,2\n\ninf,4\n", "non-finite cell at row 3, column 1: 'inf'"),
            ("1,-inf\n3,4\n", "non-finite cell at row 1, column 2: '-inf'"),
            ("1,2\n3, 1e999\n", "non-finite cell at row 2, column 2: ' 1e999'"),
            # bytes that are not UTF-8, shown as they are
            (b"1,2\n3,\xff\n", "non-UTF-8 cell at row 2, column 2: b'\\xff'"),
            (b"1,2\n\xe2\x82,4\n", "non-UTF-8 cell at row 2, column 1: b'\\xe2\\x82'"),
            (b"1,2\n3,4\xff5\n", "non-UTF-8 cell at row 2, column 2: b'4\\xff5'"),
        ]:
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
            with pytest.raises(ReturnsParseError) as caught:
                load_returns(str(path), 2)
            assert str(caught.value) == message

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        for text in ("", "\n  \n"):
            path.write_text(text)
            with pytest.raises(ReturnsParseError) as caught:
                load_returns(str(path), 2)
            assert str(caught.value) == f"no rows in {path}"

    def test_compressed_names_read_as_plain_text(self, tmp_path):
        rs = generate_returns(3, 5, 1)
        for name in ("returns.csv.gz", "returns.csv.bz2", "returns.csv.xz"):
            path = tmp_path / name
            save_returns(rs, str(path))
            assert np.array_equal(load_returns(str(path), 3).entries, rs.entries)
        # a missing file is missing, even with a compressed sibling beside it
        save_returns(rs, str(tmp_path / "other.csv.gz"))
        with pytest.raises(FileNotFoundError):
            load_returns(str(tmp_path / "other.csv"), 3)

    def test_row_count_must_match(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ReturnsParseError, match="expected 3 asset rows"):
            load_returns(str(path), 3)
        path.write_text("1,2\n3,4\n\n5,6\n7,8\n")
        # more rows than asked for, and asked-for counts no file could hold
        for n_assets in (2, 3, 10 ** 15, 0, -1):
            with pytest.raises(ReturnsParseError) as caught:
                load_returns(str(path), n_assets)
            assert str(caught.value) == f"expected {n_assets} asset rows, found 4"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("first_rows", [1, 1024])
    def test_pipe_input_grows_its_array(self, tmp_path, monkeypatch, first_rows):
        # the array starts at _FIRST_ROWS rows and doubles as rows arrive
        monkeypatch.setattr(model, "_FIRST_ROWS", first_rows)
        rs = generate_returns(7, 5, 2)
        path = tmp_path / "returns.csv"
        save_returns(rs, str(path))

        def load_from_pipe(n_assets):
            read_end, write_end = os.pipe()
            os.write(write_end, path.read_bytes())  # well inside the pipe buffer
            os.close(write_end)
            try:
                return load_returns(f"/dev/fd/{read_end}", n_assets)
            finally:
                os.close(read_end)

        assert np.array_equal(load_from_pipe(7).entries, rs.entries)
        for n_assets in (6, 8, 10 ** 15):
            with pytest.raises(ReturnsParseError,
                               match=f"expected {n_assets} asset rows, found 7"):
                load_from_pipe(n_assets)

    def test_center_subtracts_row_means(self, tmp_path):
        rs = generate_returns(4, 50, 9)
        path = tmp_path / "returns.csv"
        save_returns(rs, str(path))
        centered = load_returns(str(path), 4, center=True)
        assert np.max(np.abs(centered.entries.mean(axis=1))) < 1e-14

    def test_center_off_by_default(self, tmp_path):
        rs = generate_returns(4, 50, 9)
        path = tmp_path / "returns.csv"
        save_returns(rs, str(path))
        loaded = load_returns(str(path), 4)
        assert math.isclose(
            float(loaded.entries.mean()), float(rs.entries.mean()), rel_tol=0, abs_tol=0
        )


# the two-part read forks a child
can_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-part read needs os.fork")


def two_usable_cores():
    """Patches that let the two-part read run on a host with fewer usable
    cores, where it is slower but gives the same result."""
    return (mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True),
            mock.patch.object(model, "_cpu_quota", lambda: math.inf))


@can_fork
class TestReturnsCsvSplit(TestReturnsCsv):
    """Every case of TestReturnsCsv again, each regular file read in two parts
    at once: the rows up to the middle line end here, the rest in a child."""

    @pytest.fixture(autouse=True, scope="class")
    def split_every_file(self):
        affinity, quota = two_usable_cores()
        with (affinity, quota, mock.patch.object(model, "_SPLIT_BYTES", 0),
              mock.patch.object(os, "fork", wraps=os.fork) as fork):
            yield
        assert fork.call_count > 0


def load_outcome(path, n_assets, split_bytes):
    """The bytes and shape load_returns gives, or its error's type and message."""
    with mock.patch.object(model, "_SPLIT_BYTES", split_bytes):
        try:
            entries = load_returns(str(path), n_assets).entries
        except ValueError as error:
            return type(error), str(error)
    return entries.shape, entries.tobytes()


# cells of every path: shortest reprs and 17 digits for orjson, -0 and zeros
# it reads again with float(), and cells only float() reads
CSV_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
    st.sampled_from(["-0", "0", "-0.0", "0e0", ".5", "1.", "+1", "1_0", " 2.5 ", "-.25", "01"]),
)
# a cell that spoils its row: malformed, non-finite, not UTF-8, or one
# that adds a column
BAD_CELLS = ["x", "", "true", "nan", "1e400", "-inf", b"\xff", "1,2"]


@can_fork
class TestTwoPartRead:
    @pytest.fixture(autouse=True, scope="class")
    def cores(self):
        affinity, quota = two_usable_cores()
        with affinity, quota:
            yield

    @settings(max_examples=80, deadline=None, derandomize=True)
    # a bad cell in the first row, which this process reads, and in the last,
    # which the child reads
    @example(rows=[["1", "-0", ".5"]] * 6, ends=[b"\n"], blanks=[], bad=(0, 1, "x"), extra=0)
    @example(rows=[["1", "-0", ".5"]] * 6, ends=[b"\n"], blanks=[], bad=(5, 1, "x"), extra=0)
    @example(rows=[["1", "-0", ".5"]] * 6, ends=[b"\r\n"], blanks=[2], bad=(5, 2, b"\xff"),
             extra=0)
    # the child's first row, ragged against the rows before it
    @example(rows=[["1", "-0", ".5"]] * 6, ends=[b"\n"], blanks=[], bad=(4, 0, "1,2"), extra=0)
    @given(
        rows=st.lists(st.lists(CSV_CELLS, min_size=3, max_size=3), min_size=2, max_size=10),
        ends=st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=1, max_size=12),
        blanks=st.lists(st.integers(0, 10), max_size=3),
        bad=st.none() | st.tuples(st.integers(0, 9), st.integers(0, 2),
                                  st.sampled_from(BAD_CELLS)),
        extra=st.integers(-1, 1),
    )
    def test_split_read_matches_one_pass(self, rows, ends, blanks, bad, extra):
        cells = [[cell.encode() for cell in row] for row in rows]
        if bad is not None:
            row, column, cell = bad
            cells[row % len(cells)][column] = cell if isinstance(cell, bytes) else cell.encode()
        lines = [b",".join(row) for row in cells]
        for at in blanks:
            lines.insert(at, b"  ")
        text = b"".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "returns.csv")
            with open(path, "wb") as fh:
                fh.write(text)
            n_assets = len(rows) + extra
            one_pass = load_outcome(path, n_assets, 2 ** 62)
            assert load_outcome(path, n_assets, 0) == one_pass

    @pytest.mark.parametrize("text, message", [
        # the child's first row is ragged against the rows before it, even
        # when a later row of the child's part is ragged against it
        ("1,2\n" * 4 + "1,2,3\n" + "1,2\n" * 3,
         "ragged row at row 5: got 3 columns, expected 2"),
        # the child's lines are counted on from this process's, blank ones included
        ("1,2\n\n\r\n1,2\r1,2\n" + "1,2\n" * 3 + "1,x\n",
         "non-numeric cell at row 9, column 2: 'x'"),
        # the first fault in file order, though the child's part has one too
        ("1,2\n1,x\n1,2\n1,2\n1,2\n1,2\n1,y\n",
         "non-numeric cell at row 2, column 2: 'x'"),
        # a row count other than n_assets counts the rows of both parts
        ("1,2\n" * 9, "expected 8 asset rows, found 9"),
        # two rows before the middle, six past it
        ("\n" * 20 + "1,2\n" * 8, None),
        # rows only past the middle: this process's part has none
        ("\n" * 40 + "1,2\n" * 8, None),
        # rows only before the middle, then blank lines: the child sends nothing
        ("1,2\n" * 8 + "\n" * 40, None),
    ])
    def test_faults_across_the_split(self, tmp_path, text, message):
        path = tmp_path / "returns.csv"
        path.write_text(text)
        one_pass = load_outcome(path, 8, 2 ** 62)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert load_outcome(path, 8, 0) == one_pass
        assert fork.call_count == 1
        if message is not None:
            assert one_pass == (ReturnsParseError, message)

    @pytest.mark.parametrize("first_rows", [1, 3, 1024])
    def test_growing_arrays_join_bitwise(self, tmp_path, monkeypatch, first_rows):
        # both parts grow their arrays, and this process's may hold spare rows
        monkeypatch.setattr(model, "_FIRST_ROWS", first_rows)
        monkeypatch.setattr(model, "_SPLIT_BYTES", 0)
        rs = generate_returns(41, 30, 5)
        path = tmp_path / "returns.csv"
        save_returns(rs, str(path))
        loaded = load_returns(str(path), 41)
        assert np.array_equal(loaded.entries.view(np.int64), rs.entries.view(np.int64))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_process_or_descriptor_left(self, tmp_path, monkeypatch):
        monkeypatch.setattr(model, "_SPLIT_BYTES", 0)
        # each half of 64 rows of 200 cells is 100 KB as doubles, more than a
        # pipe holds, so the child is still writing when this process stops
        row = ",".join(["1.5"] * 200)
        path = tmp_path / "returns.csv"
        descriptors = len(os.listdir("/proc/self/fd"))

        class Injected(Exception):
            pass

        read_rows = model._read_rows

        def interrupted(handle, end, n_assets):
            part = read_rows(handle, end, n_assets)
            if end is not None:  # this process's part of two
                raise Injected
            return part

        def exits_at_once(mapped, split, n_assets, read_end, write_end):
            os._exit(0)

        def sends_short_rows(mapped, split, n_assets, read_end, write_end):
            try:  # the count and width of its rows, then 100 zero bytes
                rows = mapped[split:].count(b"\n")
                os.write(write_end, pickle.dumps((rows, 200)) + bytes(100))
            finally:
                os._exit(0)

        for rows, error, send_rows in [
            ([row] * 128, None, model._send_rows),
            (["x"] + [row] * 127, "non-numeric cell at row 1, column 1: 'x'", model._send_rows),
            ([row] * 127 + ["x"], "non-numeric cell at row 128, column 1: 'x'",
             model._send_rows),
            ([row] * 128, Injected, model._send_rows),
            # a child that ends without its rows, as when it is killed: the
            # file is read again in one pass
            ([row] * 128, None, exits_at_once),
            ([row] * 128, None, sends_short_rows),
        ]:
            path.write_text("\n".join(rows) + "\n")
            with mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                    mock.patch.object(model, "_send_rows", send_rows):
                if error is None:
                    loaded = load_returns(str(path), 128).entries
                    assert loaded.shape == (128, 200) and np.all(loaded == 1.5)
                elif error is Injected:
                    with mock.patch.object(model, "_read_rows", interrupted), \
                            pytest.raises(Injected):
                        load_returns(str(path), 128)
                else:
                    with pytest.raises(ReturnsParseError, match=f"^{error}$"):
                        load_returns(str(path), 128)
            assert fork.call_count == 1
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert len(os.listdir("/proc/self/fd")) == descriptors


class TestOnePassRead:
    @pytest.fixture(autouse=True)
    def forbid_fork(self, monkeypatch):
        def fork():
            pytest.fail("os.fork called for a one-pass input")

        monkeypatch.setattr(os, "fork", fork)

    @pytest.fixture
    def returns_file(self, tmp_path):
        rs = generate_returns(9, 6, 4)
        path = tmp_path / "returns.csv"
        save_returns(rs, str(path))
        return rs, path

    def test_file_under_the_threshold(self, returns_file):
        rs, path = returns_file
        assert path.stat().st_size < model._SPLIT_BYTES
        assert np.array_equal(load_returns(str(path), 9).entries, rs.entries)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe(self, returns_file, monkeypatch):
        monkeypatch.setattr(model, "_SPLIT_BYTES", 0)
        rs, path = returns_file
        read_end, write_end = os.pipe()
        os.write(write_end, path.read_bytes())  # well inside the pipe buffer
        os.close(write_end)
        try:
            loaded = load_returns(f"/dev/fd/{read_end}", 9)
        finally:
            os.close(read_end)
        assert np.array_equal(loaded.entries, rs.entries)

    def test_one_usable_core(self, returns_file, monkeypatch):
        monkeypatch.setattr(model, "_SPLIT_BYTES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        rs, path = returns_file
        assert np.array_equal(load_returns(str(path), 9).entries, rs.entries)

    def test_cpu_quota_under_two_cores(self, returns_file, monkeypatch):
        monkeypatch.setattr(model, "_SPLIT_BYTES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(model, "_cpu_quota", lambda: 1.5)
        rs, path = returns_file
        assert np.array_equal(load_returns(str(path), 9).entries, rs.entries)

    def test_fork_refused(self, returns_file, monkeypatch):
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(model, "_SPLIT_BYTES", 0)
        monkeypatch.setattr(os, "fork", fork)
        rs, path = returns_file
        assert np.array_equal(load_returns(str(path), 9).entries, rs.entries)

    def test_mapping_refused(self, returns_file, monkeypatch):
        # the file is mapped and the pipe made before the fork, so no fork
        def refuse(*args, **kwargs):
            raise OSError(errno.ENODEV, "No such device")

        monkeypatch.setattr(model, "_SPLIT_BYTES", 0)
        rs, path = returns_file
        for module, name in [(mmap, "mmap"), (os, "pipe")]:
            affinity, quota = two_usable_cores()
            with affinity, quota, mock.patch.object(module, name, refuse):
                assert np.array_equal(load_returns(str(path), 9).entries, rs.entries)

    def test_no_fork_on_the_platform(self, returns_file, monkeypatch):
        monkeypatch.setattr(model, "_SPLIT_BYTES", 0)
        monkeypatch.delattr(os, "fork")
        rs, path = returns_file
        assert np.array_equal(load_returns(str(path), 9).entries, rs.entries)


class TestCpuQuota:
    @pytest.mark.parametrize("lines, files, quota", [
        (["0::/job"], {"job/cpu.max": "150000 100000"}, 1.5),
        (["0::/"], {"cpu.max": "max 100000"}, math.inf),
        (["4:cpu,cpuacct:/job", "3:memory:/job", "0::/"],
         {"cpu/job/cpu.cfs_quota_us": "50000", "cpu/job/cpu.cfs_period_us": "100000"}, 0.5),
        (["1:cpu:/", "0::/"],
         {"cpu/cpu.cfs_quota_us": "-1", "cpu/cpu.cfs_period_us": "100000"}, math.inf),
        # the least of both hierarchies
        (["1:cpu:/", "0::/job"],
         {"cpu/cpu.cfs_quota_us": "300000", "cpu/cpu.cfs_period_us": "100000",
          "job/cpu.max": "250000 100000"}, 2.5),
        # no quota file to read
        (["0::/job", "1:cpu:/job"], {}, math.inf),
    ])
    def test_quota_in_cores(self, tmp_path, lines, files, quota):
        (tmp_path / "cgroup").write_text("".join(line + "\n" for line in lines))
        for name, text in files.items():
            path = tmp_path / "root" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text + "\n")
        assert model._cpu_quota(str(tmp_path / "cgroup"), str(tmp_path / "root")) == quota

    def test_no_cgroup_file(self, tmp_path):
        assert model._cpu_quota(str(tmp_path / "missing"), str(tmp_path)) == math.inf
