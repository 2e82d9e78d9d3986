"""Data model and ingestion: samples, folds, propensity specs, adjusters."""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "Sample",
    "FoldPlan",
    "PropensityModel",
    "adjuster_arrays",
    "CsvParseError",
    "DegenerateDesignError",
    "ConfigError",
    "EstimationError",
    "load_csv",
    "shift_for_delta",
    "squash_outcomes",
    "make_folds",
]

PROPENSITY_EPS = 1e-3


class CsvParseError(ValueError):
    """Malformed input data; message carries the offending row number."""


class DegenerateDesignError(ValueError):
    """The design cannot identify anything (e.g. an empty treatment arm)."""


class ConfigError(ValueError):
    """Invalid run configuration."""


class EstimationError(RuntimeError):
    """An estimator failed; the message names the failing fold or input."""


@dataclass(frozen=True)
class Sample:
    """An experiment sample: outcomes, binary treatment, covariates.

    Immutable after construction; all operations below return new samples.
    """

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    transformed_scale: bool = False

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        d = np.ascontiguousarray(self.d, dtype=np.int64)
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("covariates must be a 2-d array")
        if not (y.shape[0] == d.shape[0] == x.shape[0]):
            raise ValueError("y, d, x must have equal length")
        if not np.all(np.isfinite(y)):
            raise ValueError("outcomes must be finite")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        if not np.all((d == 0) | (d == 1)):
            raise ValueError("treatment indicator must be binary")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x", x)
        if self.n1 == 0 or self.n0 == 0:
            raise DegenerateDesignError(
                "sample needs at least one treated and one control unit")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n1(self) -> int:
        return int(self.d.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def y_lo(self) -> float:
        return float(self.y.min())

    @property
    def y_hi(self) -> float:
        return float(self.y.max())

    def subset(self, idx) -> "Sample":
        return Sample(self.y[idx], self.d[idx], self.x[idx],
                      transformed_scale=self.transformed_scale)


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every unit to one of k folds, stratified by arm."""

    k_folds: int
    fold_of: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(self.fold_of, dtype=np.int64)
        if f.min() < 1 or f.max() > self.k_folds:
            raise ValueError("fold indices must lie in 1..k")
        object.__setattr__(self, "fold_of", f)

    def members(self, k: int) -> np.ndarray:
        return np.where(self.fold_of == k)[0]

    def complement(self, k: int) -> np.ndarray:
        return np.where(self.fold_of != k)[0]


@dataclass(frozen=True)
class PropensityModel:
    """How treatment probabilities enter the estimators.

    mode "in_sample" uses the observed treated share; "constant_known" a
    known scalar; "group" a constant within each covariate group;
    "known_function" arbitrary known per-unit values.
    """

    mode: str = "in_sample"
    pi: float | None = None
    group_of: np.ndarray | None = None
    p_of_x: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("in_sample", "constant_known", "group",
                             "known_function"):
            raise ConfigError(f"unknown propensity mode {self.mode!r}")
        if self.mode == "constant_known":
            if self.pi is None or not (PROPENSITY_EPS < self.pi < 1 - PROPENSITY_EPS):
                raise ConfigError("constant propensity must lie in (eps, 1-eps)")
        if self.mode == "known_function":
            p = np.asarray(self.p_of_x, dtype=np.float64)
            if np.any(p < PROPENSITY_EPS) or np.any(p > 1 - PROPENSITY_EPS):
                bad = int(np.argmax((p < PROPENSITY_EPS) | (p > 1 - PROPENSITY_EPS)))
                raise ConfigError(
                    f"propensity value out of (eps, 1-eps) at row {bad}")
            object.__setattr__(self, "p_of_x", p)
        if self.mode == "group" and self.group_of is None:
            raise ConfigError("group mode requires group indices")

    def validate_groups(self, d: np.ndarray):
        g = np.asarray(self.group_of)
        for gv in np.unique(g):
            sel = g == gv
            if d[sel].sum() == 0 or (1 - d[sel]).sum() == 0:
                raise DegenerateDesignError(
                    f"group {gv} lacks a treated or a control unit")


def adjuster_arrays(adjusters, n: int):
    """The (s_lower, s_upper) float64 arrays of a user adjuster pair: per-unit
    values of two scalar covariate-adjustment functions, each side any
    array-like. A side that is not one finite number per sample unit is a
    ConfigError."""
    try:
        s_lo, s_hi = (np.ascontiguousarray(a, dtype=np.float64)
                      for a in adjusters)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"adjusters: {exc}") from None
    if s_lo.shape != (n,) or s_hi.shape != (n,):
        raise ConfigError(f"adjusters: expected shape ({n},) per side, got "
                          f"{s_lo.shape} and {s_hi.shape}")
    if not (np.isfinite(s_lo).all() and np.isfinite(s_hi).all()):
        raise ConfigError("adjusters: values must be finite")
    return s_lo, s_hi


def load_csv(path, y_col: str, d_col: str, x_cols=None, x_prefix: str | None = None) -> Sample:
    """Read an experiment CSV into a Sample.

    The file must be UTF-8 text with a header row; covariate columns are
    given either explicitly (x_cols) or by shared prefix (x_prefix). Rows
    are kept in file order. Missing or non-numeric cells, bytes that are not
    UTF-8 and fields longer than ``csv.field_size_limit()`` raise
    CsvParseError naming the offending row (1-based, excluding the header)
    or line.

    The file is read once, into lines. A plain numeric file is parsed by
    numpy's C reader (``_load_clean``); any file that reader might read
    differently goes to the row-by-row csv parser (``_load_rows``), which
    alone raises, so the arrays and the errors do not depend on which parser
    ran.
    """
    lines = _read_lines(path)
    sample = _load_clean(lines, y_col, d_col, x_cols, x_prefix)
    if sample is None:
        sample = _load_rows(lines, y_col, d_col, x_cols, x_prefix)
    return sample


def _read_lines(path) -> list[str]:
    """A file's lines as the csv module reads them: split after each line
    feed, carriage return or CR LF pair, line ends kept as written. Bytes
    that are not UTF-8 raise CsvParseError naming their line (1-based, the
    header is line 1).

    The file is decoded a chunk at a time, never held as one string: a
    buffer the size of the file, freed on return, would be mapped afresh
    from the kernel on every call."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError:
            pass  # its offsets count from a chunk, not from the file
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the sentinel puts the bad byte's line last
        head = raw[:exc.start].decode("utf-8") + "?"
        line = len(io.StringIO(head, newline="").readlines())
        raise CsvParseError(f"line {line}: not UTF-8 text ({exc.reason} at "
                            f"byte {exc.start})") from None
    # the file changed between the two reads
    return io.StringIO(text, newline="").readlines()


def _csv_rows(lines):
    """The csv module's rows of ``lines``, the header first. A row it cannot
    read (a field longer than ``csv.field_size_limit()``) raises
    CsvParseError naming the header or the 1-based data row."""
    rownum = 0  # rows read so far, so the number of a data row that fails
    try:
        for rownum, row in enumerate(csv.reader(lines), start=1):
            yield row
    except csv.Error as exc:
        where = f"row {rownum}" if rownum else "header"
        raise CsvParseError(f"{where}: {exc}") from None


def _columns(header, y_col, d_col, x_cols, x_prefix):
    """The indices of the outcome, the treatment and the covariates in a
    stripped header; a column it lacks is a ConfigError."""
    if y_col not in header or d_col not in header:
        raise ConfigError(f"columns {y_col!r}/{d_col!r} not found in header")
    if x_cols is None:
        if x_prefix is None:
            raise ConfigError("either x_cols or x_prefix is required")
        x_cols = [h for h in header if h.startswith(x_prefix)
                  and h not in (y_col, d_col)]
    missing = [c for c in x_cols if c not in header]
    if missing:
        raise ConfigError(f"covariate columns not in header: {missing}")
    return header.index(y_col), header.index(d_col), [header.index(c) for c in x_cols]


def _load_clean(lines, y_col, d_col, x_cols, x_prefix) -> Sample | None:
    """The Sample of a plain numeric CSV's lines, with the y and x columns
    parsed by ``np.loadtxt``; None for any file that ``_load_rows`` might
    read differently or reject.

    It takes only files without quotes, carriage returns or NULs, with no
    line longer than the csv field limit, a header holding every requested
    column, exactly one field per header name on every line, a treatment
    token of exactly ``0`` or ``1``, and y and x cells that numpy parses to
    finite numbers, one row per line, in both arms. On such a file both
    parsers split the same fields, and where ``loadtxt`` accepts a cell
    it reads the same double as ``float()``: both convert with
    ``PyOS_string_to_double`` after stripping whitespace.
    """
    limit = csv.field_size_limit()
    if len(lines) < 2 or any('"' in line or "\r" in line or "\0" in line
                             or len(line) > limit for line in lines):
        return None
    header = [h.strip() for h in lines[0].split(",")]
    try:
        yi, di, xi = _columns(header, y_col, d_col, x_cols, x_prefix)
    except ConfigError:
        return None
    body = lines[1:]
    commas = len(header) - 1
    if any(line.count(",") != commas for line in body):
        return None
    # the last field of a line holds its line end
    d_tokens = [line.split(",", di + 1)[di].rstrip("\n") for line in body]
    if not set(d_tokens) <= {"0", "1"}:
        return None
    d = np.array([t == "1" for t in d_tokens], dtype=np.int64)
    if d.all() or not d.any():
        return None
    try:
        yx = np.loadtxt(body, delimiter=",", comments=None, ndmin=2,
                        usecols=[yi] + xi)
    except ValueError:
        return None
    if yx.shape[0] != len(body) or not np.isfinite(yx).all():
        return None
    return Sample(yx[:, 0], d, yx[:, 1:])


def _load_rows(lines, y_col, d_col, x_cols, x_prefix) -> Sample:
    """The row-by-row parser of ``load_csv``: a malformed file raises here,
    at its first bad row."""
    rows = _csv_rows(lines)
    try:
        header = next(rows)
    except StopIteration:
        raise CsvParseError("empty file") from None
    header = [h.strip() for h in header]
    yi, di, xi = _columns(header, y_col, d_col, x_cols, x_prefix)
    ys, ds, xs = [], [], []
    for rownum, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise CsvParseError(f"row {rownum}: expected {len(header)} fields,"
                                f" got {len(row)}")
        try:
            yv = float(row[yi])
            xv = [float(row[j]) for j in xi]
        except ValueError as exc:
            raise CsvParseError(f"row {rownum}: {exc}") from None
        dv_raw = row[di].strip()
        if dv_raw not in ("0", "1"):
            raise CsvParseError(
                f"row {rownum}: treatment column must be 0 or 1,"
                f" got {dv_raw!r}")
        if not math.isfinite(yv) or not all(math.isfinite(v) for v in xv):
            raise CsvParseError(f"row {rownum}: non-finite value")
        ys.append(yv)
        ds.append(int(dv_raw))
        xs.append(xv)
    if not ys:
        raise CsvParseError("file has no data rows")
    try:
        return Sample(np.array(ys), np.array(ds), np.array(xs))
    except DegenerateDesignError:
        raise DegenerateDesignError(
            "file contains only treated or only control rows") from None


def shift_for_delta(sample: Sample, delta: float) -> Sample:
    """Shift control outcomes by delta so downstream bounds target
    P(Y(1) - Y(0) <= delta)."""
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    y = sample.y.copy()
    y[sample.d == 0] += delta
    return Sample(y, sample.d, sample.x,
                  transformed_scale=sample.transformed_scale)


def squash_outcomes(sample: Sample) -> Sample:
    """Map outcomes through a fixed bounded strictly increasing function
    (standard normal CDF after median/IQR standardization).

    The target probability at delta=0 is invariant; reports should state
    that bound locations refer to the transformed scale.
    """
    y = sample.y
    med = float(np.median(y))
    q75, q25 = np.percentile(y, [75, 25])
    iqr = float(q75 - q25)
    if iqr > 0:
        z = (y - med) / iqr
    else:
        span = sample.y_hi - sample.y_lo
        if span == 0:
            warnings.warn("constant outcome: squash transform is affine")
            z = np.zeros_like(y)
        else:
            z = (y - sample.y_lo) / span - 0.5
    return Sample(ndtr(z), sample.d, sample.x, transformed_scale=True)


def make_folds(sample: Sample, k: int, seed: int,
               group_of=None) -> FoldPlan:
    """Random folds stratified by treatment arm; deterministic given seed.

    Within each stratum, fold sizes differ by at most one; remainder units
    go one-per-fold in shuffled fold order. With ``group_of`` the strata are
    group x treatment cells (for the within-group propensity estimator).
    """
    if k < 2:
        raise ConfigError("need at least 2 folds")
    if k > min(sample.n1, sample.n0):
        raise ConfigError(
            f"k={k} exceeds the smaller arm ({min(sample.n1, sample.n0)})")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(sample.n, dtype=np.int64)
    if group_of is None:
        strata = [sample.d == arm for arm in (1, 0)]
    else:
        g = np.asarray(group_of)
        if g.shape[0] != sample.n:
            raise ConfigError("group indices must cover the sample")
        strata = [(sample.d == arm) & (g == gv)
                  for gv in np.unique(g) for arm in (1, 0)]
    for sel in strata:
        idx = np.where(sel)[0]
        if idx.size == 0:
            raise DegenerateDesignError("empty group-arm cell in fold plan")
        rng.shuffle(idx)
        m = idx.size
        base, rem = divmod(m, k)
        sizes = np.full(k, base, dtype=np.int64)
        sizes[rng.permutation(k)[:rem]] += 1
        stops = np.cumsum(sizes)
        starts = stops - sizes
        for f in range(k):
            fold_of[idx[starts[f]:stops[f]]] = f + 1
    return FoldPlan(k_folds=k, fold_of=fold_of)
