import csv
import io
import resource

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtebounds import data
from dtebounds.data import (
    ConfigError,
    CsvParseError,
    DegenerateDesignError,
    Sample,
    adjuster_arrays,
    load_csv,
    make_folds,
    shift_for_delta,
    squash_outcomes,
)


def write_csv(path, rows, header="y,d,x1,x2"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


def simple_sample(n=40, seed=0, p=3):
    rng = np.random.default_rng(seed)
    d = np.zeros(n, dtype=int)
    d[: n // 2] = 1
    rng.shuffle(d)
    return Sample(rng.normal(size=n), d, rng.normal(size=(n, p)))


class TestLoadCsv:
    def test_four_row_file(self, tmp_path):
        f = write_csv(tmp_path / "a.csv",
                      ["1.0,1,0.1,0.2", "2.0,1,0.3,0.4",
                       "3.0,0,0.5,0.6", "4.0,0,0.7,0.8"])
        s = load_csv(f, "y", "d", x_prefix="x")
        assert s.n1 == 2 and s.n0 == 2
        assert s.p == 2
        np.testing.assert_array_equal(s.y, [1.0, 2.0, 3.0, 4.0])

    def test_bad_treatment_value_names_row(self, tmp_path):
        f = write_csv(tmp_path / "a.csv",
                      ["1.0,1,0,0", "2.0,2,0,0", "3.0,0,0,0"])
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(f, "y", "d", x_prefix="x")

    def test_missing_value_names_row(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", ["1.0,1,0,0", "2.0,0,,0"])
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(f, "y", "d", x_prefix="x")

    def test_all_treated_is_degenerate(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", ["1.0,1,0,0", "2.0,1,0,0"])
        with pytest.raises(DegenerateDesignError):
            load_csv(f, "y", "d", x_prefix="x")

    def test_trial_shaped_counts(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [f"{rng.normal():.6f},{dv},{rng.normal():.6f},{rng.normal():.6f}"
                for dv in [1] * 551 + [0] * 444]
        f = write_csv(tmp_path / "b.csv", rows)
        s = load_csv(f, "y", "d", x_prefix="x")
        assert (s.n1, s.n0) == (551, 444)

    def test_round_trip_exact(self, tmp_path):
        rows = ["1.25,1,0.5,3.125", "-2.75,0,1.0,-0.0625"]
        f = write_csv(tmp_path / "a.csv", rows)
        s = load_csv(f, "y", "d", x_prefix="x")
        out = tmp_path / "o.csv"
        with open(out, "w") as fh:
            fh.write("y,d,x1,x2\n")
            for i in range(s.n):
                fh.write(f"{float(s.y[i])!r},{s.d[i]},{float(s.x[i,0])!r},{float(s.x[i,1])!r}\n")
        s2 = load_csv(str(out), "y", "d", x_prefix="x")
        np.testing.assert_array_equal(s.y, s2.y)
        np.testing.assert_array_equal(s.x, s2.x)

    def test_explicit_columns(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", ["1,1,2,3", "0,0,4,5"],
                      header="y,d,age,income")
        s = load_csv(f, "y", "d", x_cols=["age", "income"])
        assert s.p == 2
        with pytest.raises(ConfigError):
            load_csv(f, "y", "d", x_cols=["age", "nope"])


# Malformed files and the exact error each raised before numpy's reader
# parsed clean files; (file text, load_csv keywords beyond y/d, type, message)
MALFORMED = [
    ("", {}, CsvParseError, "empty file"),
    ("y,d,x1,x2\n", {}, CsvParseError, "file has no data rows"),
    ("a,d,x1,x2\n1,1,0,0\n", {}, ConfigError,
     "columns 'y'/'d' not found in header"),
    ("\ufeffy,d,x1,x2\n1,1,0,0\n0,0,0,0\n", {}, ConfigError,
     "columns 'y'/'d' not found in header"),
    ("y,d,x1,x2\n1,1,0,0\n", {"x_prefix": None}, ConfigError,
     "either x_cols or x_prefix is required"),
    ("y,d,x1,x2\n1,1,0,0\n", {"x_cols": ["x1", "x9"]}, ConfigError,
     "covariate columns not in header: ['x9']"),
    ("y,d,x1,x2\n1,1,0,0\n1,1,2\n", {}, CsvParseError,
     "row 2: expected 4 fields, got 3"),
    ("y,d,x1,x2\n1,5,1,0,0\n", {}, CsvParseError,
     "row 1: expected 4 fields, got 5"),
    ("y,d,x1,x2\n1,1,0,0\n\n0,0,0,0\n", {}, CsvParseError,
     "row 2: expected 4 fields, got 0"),
    ("y,d,x1,x2\n1,1,0,0\n0,0,0,0\n\n", {}, CsvParseError,
     "row 3: expected 4 fields, got 0"),
    ("y,d,x1,x2\n1,1,0,0\n2.0,0,,0\n", {}, CsvParseError,
     "row 2: could not convert string to float: ''"),
    ("y,d,x1,x2\n#,1,0,0\n", {}, CsvParseError,
     "row 1: could not convert string to float: '#'"),
    ('y,d,x1,x2\n"1,5",1,0,0\n', {}, CsvParseError,
     "row 1: could not convert string to float: '1,5'"),
    ("y,d,x1,x2\n1,1,0,0\n2.0,2,0,0\n", {}, CsvParseError,
     "row 2: treatment column must be 0 or 1, got '2'"),
    ("y,d,x1,x2\n1,1.0,0,0\n", {}, CsvParseError,
     "row 1: treatment column must be 0 or 1, got '1.0'"),
    ("y,d,x1,x2\n1,,0,0\n", {}, CsvParseError,
     "row 1: treatment column must be 0 or 1, got ''"),
    ("y,d,x1,x2\n1,١,0,0\n", {}, CsvParseError,
     "row 1: treatment column must be 0 or 1, got '١'"),
    ("y,d,x1,x2\n1,1,0,0\ninf,0,0,0\n", {}, CsvParseError,
     "row 2: non-finite value"),
    ("y,d,x1,x2\n1,1,0,nan\n", {}, CsvParseError, "row 1: non-finite value"),
    ("y,d,x1,x2\n1e400,1,0,0\n", {}, CsvParseError, "row 1: non-finite value"),
    ("y,d,x1,x2\na,7,0,0\n", {}, CsvParseError,
     "row 1: could not convert string to float: 'a'"),
    ("y,d,x1,x2\ninf,7,0,0\n", {}, CsvParseError,
     "row 1: treatment column must be 0 or 1, got '7'"),
    ("y,d,x1,x2\na,1,0\n", {}, CsvParseError,
     "row 1: expected 4 fields, got 3"),
    ("y,d,x1,x2\n1,1,0,0\n2,1,0,0\n", {}, DegenerateDesignError,
     "file contains only treated or only control rows"),
    ("y,d,x1,x2\n1,0,0,0\n2,0,0,0\n", {}, DegenerateDesignError,
     "file contains only treated or only control rows"),
    ("y,d,x1,x2\r\n1,1,0,0\r\n1,0\r\n", {}, CsvParseError,
     "row 2: expected 4 fields, got 2"),
    ("y,d,x1,x2\n1,1,0,0\n0,0,1\0,0\n", {}, CsvParseError,
     "row 2: could not convert string to float: '1\\x00'"),
]


@pytest.mark.parametrize("text,kwargs,exc,message", MALFORMED)
def test_malformed_file_message(tmp_path, text, kwargs, exc, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(exc) as info:
        load_csv(str(path), "y", "d", **{"x_prefix": "x", **kwargs})
    assert type(info.value) is exc
    assert str(info.value) == message


def test_not_utf8_names_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,d,x1,x2\n1,1,0,0\r\n0,0,\xe9,0\n")
    with pytest.raises(CsvParseError) as info:
        load_csv(str(path), "y", "d", x_prefix="x")
    assert str(info.value) == (
        "line 3: not UTF-8 text (invalid continuation byte at byte 23)")


def test_not_utf8_far_into_the_file_names_line(tmp_path):
    # past the first chunk the text reader decodes, so the line and the
    # byte count from the start of the file, not of the chunk
    rows = b"1,1,0,0\n0,0,1,1\r\n" * 1000
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,d,x1,x2\n" + rows + b"0,0,\xe9,0\n")
    with pytest.raises(CsvParseError) as info:
        load_csv(str(path), "y", "d", x_prefix="x")
    assert str(info.value) == (
        "line 2002: not UTF-8 text (invalid continuation byte at byte "
        f"{10 + len(rows) + 4})")


@pytest.mark.parametrize("text", [
    "y,d\n1,1\n", "y,d\r\n1,1\r0,0", "\ufeffy,d\n1\x85,1\u2028\n\n",
    'y,d\n"1\r\n2",1\n', "y,d\n1,\x0c1\n"])
def test_read_lines_splits_as_the_csv_module(tmp_path, text):
    """A file's lines are the lines the csv module iterates over, line ends
    as written, so both parsers see the file the csv module sees."""
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    lines = data._read_lines(path)
    assert lines == _lines(text)
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(lines)) == list(csv.reader(fh))


@pytest.mark.parametrize("where", ["header", "row 2"])
def test_oversized_field_names_row(tmp_path, where):
    big = "1" * (csv.field_size_limit() + 1)
    lines = ["y,d,x1,x2", "1,1,0,0", "0,0,0,0"]
    if where == "header":
        lines[0] += "," + big
        lines[1:] = [line + ",0" for line in lines[1:]]
    else:
        lines[2] = f"0,0,{big},0"
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvParseError) as info:
        load_csv(str(path), "y", "d", x_prefix="x")
    assert str(info.value) == (
        f"{where}: field larger than field limit ({csv.field_size_limit()})")


def _benchmark_shaped(path, n=2000, p=20, seed=0):
    # repr() cells and 0/1 treatment, as perfbench writes its inputs
    rng = np.random.default_rng(seed)
    d = rng.integers(0, 2, size=n)
    y = rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, size=n)
    x = rng.normal(size=(n, p))
    lines = [",".join(["y", "d"] + [f"x{j + 1:02d}" for j in range(p)])]
    for i in range(n):
        lines.append(",".join([repr(float(y[i])), str(d[i])]
                              + [repr(v) for v in x[i].tolist()]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _lines(text):
    # the lines ``_read_lines`` reads from a file holding ``text``
    return io.StringIO(text, newline="").readlines()


def _same_arrays(a, b):
    for u, v in ((a.y, b.y), (a.d, b.d), (a.x, b.x)):
        assert (u.dtype, u.shape) == (v.dtype, v.shape)
        assert u.tobytes() == v.tobytes()


def test_clean_file_never_reaches_the_row_parser(tmp_path, monkeypatch):
    """A clean benchmark-shaped file is parsed by numpy alone, to the
    arrays the row parser reads from it."""
    f = _benchmark_shaped(tmp_path / "clean.csv")
    with monkeypatch.context() as mp:
        mp.setattr(data, "_load_clean", lambda *args: None)
        rows = load_csv(f, "y", "d", x_prefix="x")

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called on a clean file")

    monkeypatch.setattr(csv, "reader", no_reader)
    fast = load_csv(f, "y", "d", x_prefix="x")
    _same_arrays(fast, rows)
    assert (fast.n, fast.p) == (2000, 20)


def test_clean_file_reuses_memory(tmp_path):
    """Loading a clean file again maps no fresh memory: a buffer the size
    of the file, freed on return, faulted ~370 new pages per call."""
    f = _benchmark_shaped(tmp_path / "clean.csv")
    for _ in range(3):
        load_csv(f, "y", "d", x_prefix="x")
    calls = 20
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        load_csv(f, "y", "d", x_prefix="x")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / calls < 50


# cells that numpy and float() both read, and cells or lines that one of
# them rejects or that the csv module reads differently
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0", "5e-324", "1e-400", "-1.7976931348623157e308",
                     " 1.5 ", "\t2", "1.5\x0c", "1\x85", "+.5", "1."]))
ODD_CELLS = st.sampled_from([
    "1_000", "١٢", "infinity", "-Infinity", "nan", "1e400", "", " ", "#",
    "#1", '"3"', "1,5", "a", "1\0", "0\r", "0x10", "1d5"])
ODD_D = st.sampled_from(["1.0", " 1", "0 ", "2", "", '"1"', "١"])
NOTES = st.sampled_from(["", "a", "b c", "1", "#"])
ODD_NOTES = st.sampled_from(['"', '"a,b"', 'a"b', '"a\nb"', '"\n1,1,0,0,"'])
ODD_LINES = st.sampled_from(["", " ", "#", "# 1,1,0,0,", "1,1,0,0",
                             "1,1,0,0,a,b"])


@st.composite
def csv_texts(draw):
    """A small y,d,x1,x2,note file of clean rows with up to three changes,
    each a token or a line layout that may send it to the row parser. The
    note column is read by neither parser."""
    rows = draw(st.lists(
        st.tuples(CELLS, st.sampled_from(["0", "1"]), CELLS, CELLS,
                  NOTES).map(list),
        min_size=2, max_size=6))
    lines = ["y,d,x1,x2,note"] + [",".join(r) for r in rows]
    end, last, bom = "\n", "\n", ""
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["cell", "d", "note", "line", "end",
                                     "last", "bom"]))
        at = draw(st.integers(1, len(lines) - 1))
        if kind in ("cell", "d", "note"):
            cells = lines[at].split(",")
            col = {"d": 1, "note": -1}.get(kind) or draw(
                st.sampled_from([0, 2, 3]))
            if col < len(cells):
                cells[col] = draw({"cell": ODD_CELLS, "d": ODD_D,
                                   "note": ODD_NOTES}[kind])
            lines[at] = ",".join(cells)
        elif kind == "line":
            lines.insert(at, draw(ODD_LINES))
        elif kind == "end":
            end = draw(st.sampled_from(["\r\n", "\r"]))
            last = end
        elif kind == "last":
            last = draw(st.sampled_from(["", "\n\n", " "]))
        else:
            bom = "\ufeff"
    return bom + end.join(lines) + last


@settings(max_examples=600, deadline=None, derandomize=True)
@given(csv_texts())
@example("y,d,x1,x2\n1,1,0,0\n2,0,1\x85, 1")
@example("y,d,x1,x2\r\n1,1,0,0\r\n2,0,1,1\r\n")
@example("y,d,x1,x2\n1_000,1,0,0\n2,0,1,1\n")
@example("y,d,x1,x2\n١٢,1,0,0\n2,0,1,1\n")
def test_fast_path_reads_what_the_row_parser_reads(text):
    """Where numpy's reader takes a file, the row parser reads the same
    y, d and x from it, dtype and bytes included; otherwise it declines."""
    lines = _lines(text)
    fast = data._load_clean(lines, "y", "d", None, "x")
    if fast is not None:
        _same_arrays(fast, data._load_rows(lines, "y", "d", None, "x"))


def test_fast_path_takes_odd_but_exact_cells():
    """Cells numpy and float() read alike stay on the fast path: a negative
    zero, a subnormal, padding whitespace, a trailing form feed."""
    lines = _lines("y,d,x1,x2\n-0,1,5e-324,1.5\x0c\n2.5,0, 1.5 ,\t2\n")
    fast = data._load_clean(lines, "y", "d", None, "x")
    assert fast is not None
    _same_arrays(fast, data._load_rows(lines, "y", "d", None, "x"))
    assert np.signbit(fast.y[0]) and fast.x[0, 0] == 5e-324


class TestShiftForDelta:
    def test_zero_is_identity(self):
        s = simple_sample()
        np.testing.assert_array_equal(shift_for_delta(s, 0.0).y, s.y)

    def test_only_controls_shift(self):
        s = Sample(np.array([1.0, 1.0]), np.array([1, 0]),
                   np.zeros((2, 1)))
        out = shift_for_delta(s, 0.05)
        assert out.y[0] == 1.0
        assert out.y[1] == 1.05

    def test_shift_then_unshift_roundtrips(self):
        s = simple_sample(seed=3)
        back = shift_for_delta(shift_for_delta(s, 0.7), -0.7)
        np.testing.assert_allclose(back.y, s.y, atol=1e-15)

    def test_rejects_nonfinite_delta(self):
        with pytest.raises(ValueError):
            shift_for_delta(simple_sample(), np.inf)


class TestSquashOutcomes:
    def test_preserves_order(self):
        s = simple_sample(seed=5)
        out = squash_outcomes(s)
        assert np.all(np.argsort(out.y) == np.argsort(s.y))
        assert out.y.min() > 0 and out.y.max() < 1
        assert out.transformed_scale

    def test_constant_outcome_warns(self):
        s = Sample(np.ones(4), np.array([1, 1, 0, 0]), np.zeros((4, 1)))
        with pytest.warns(UserWarning):
            out = squash_outcomes(s)
        assert np.all((out.y >= 0) & (out.y <= 1))

    def test_zero_iqr_falls_back(self):
        y = np.array([0.0] * 8 + [5.0])
        s = Sample(y, np.array([1, 1, 1, 1, 0, 0, 0, 0, 0]), np.zeros((9, 1)))
        out = squash_outcomes(s)
        assert out.y[-1] > out.y[0]


class TestMakeFolds:
    def test_even_split(self):
        s = Sample(np.arange(20.0), np.repeat([1, 0], 10), np.zeros((20, 1)))
        plan = make_folds(s, 5, seed=0)
        for k in range(1, 6):
            members = plan.members(k)
            assert (s.d[members] == 1).sum() == 2
            assert (s.d[members] == 0).sum() == 2

    def test_remainder_spread(self):
        d = np.array([1] * 11 + [0] * 10)
        s = Sample(np.arange(21.0), d, np.zeros((21, 1)))
        plan = make_folds(s, 5, seed=2)
        sizes = sorted((s.d[plan.members(k)] == 1).sum() for k in range(1, 6))
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        s = simple_sample(n=50, seed=8)
        a = make_folds(s, 4, seed=99)
        b = make_folds(s, 4, seed=99)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)

    def test_stratification_invariant(self):
        s = simple_sample(n=57, seed=10)
        plan = make_folds(s, 5, seed=1)
        for arm in (0, 1):
            counts = [np.sum((s.d == arm) & (plan.fold_of == k))
                      for k in range(1, 6)]
            target = (s.d == arm).sum() / 5
            assert all(abs(c - target) < 1 for c in counts)

    def test_k_too_large(self):
        s = Sample(np.arange(6.0), np.array([1, 1, 0, 0, 0, 0]),
                   np.zeros((6, 1)))
        with pytest.raises(ConfigError):
            make_folds(s, 3, seed=0)


def test_adjuster_rejects_nonfinite():
    with pytest.raises(ConfigError, match="finite"):
        adjuster_arrays((np.array([1.0, np.nan]), np.zeros(2)), 2)


def test_adjuster_zero():
    # plain array-likes of any numeric dtype are read as float64
    s_lo, s_hi = adjuster_arrays((np.zeros(5, dtype=int), [0.0] * 5), 5)
    for side in (s_lo, s_hi):
        assert side.dtype == np.float64
        np.testing.assert_array_equal(side, np.zeros(5))


def test_adjuster_rejects_non_numeric():
    with pytest.raises(ConfigError, match="adjusters"):
        adjuster_arrays((["a", "b"], np.zeros(2)), 2)


class TestGroupStratifiedFolds:
    def test_balance_within_group_arm_cells(self):
        rng = np.random.default_rng(20)
        n = 120
        d = np.array([1, 0] * (n // 2))
        g = np.repeat([0, 1, 2], n // 3)
        s = Sample(rng.normal(size=n), d, rng.normal(size=(n, 2)))
        plan = make_folds(s, 4, seed=1, group_of=g)
        for gv in (0, 1, 2):
            for arm in (0, 1):
                cell = (g == gv) & (s.d == arm)
                sizes = [np.sum(cell & (plan.fold_of == k))
                         for k in range(1, 5)]
                assert max(sizes) - min(sizes) <= 1

    def test_empty_cell_raises(self):
        d = np.array([1, 1, 1, 0, 0, 0])
        g = np.array([0, 0, 0, 1, 1, 1])  # group 0 has no controls
        s = Sample(np.arange(6.0), d, np.zeros((6, 1)))
        with pytest.raises(DegenerateDesignError):
            make_folds(s, 2, seed=0, group_of=g)


def test_lower_bound_monotone_in_delta():
    # the estimand P(Y(1)-Y(0) <= delta) is nondecreasing in delta; so is
    # the estimated lower bound, deterministically: shifting the control
    # outcomes up lowers their CDF pointwise
    from dtebounds.stepfun import makarov_bounds

    rng = np.random.default_rng(21)
    for _ in range(25):
        n = 60
        d = np.array([1, 0] * (n // 2))
        y = np.round(rng.normal(size=n), 1)
        s = Sample(y, d, np.zeros((n, 1)))
        lows = [makarov_bounds(shift_for_delta(s, dl)).theta_l
                for dl in (-0.05, 0.0, 0.05)]
        assert lows[0] <= lows[1] <= lows[2]
        # and against a brute-force population check on the discrete values
        ups = [makarov_bounds(shift_for_delta(s, dl)).theta_u
               for dl in (-0.05, 0.0, 0.05)]
        assert ups[0] <= ups[1] <= ups[2]
