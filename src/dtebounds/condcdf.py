"""Conditional outcome-CDF models, extraction of adjustment functions, and
their cross-fitting, which model selection also uses to score candidates.

A fitted model estimates F_j(t | x) for one arm. The adjustment functions
are, per covariate row, the grid argmax (lower side) and argmin (upper
side) of F_1(t|x) - F_0(t|x). Model quality affects only the width of the
resulting bounds, never their validity, so the built-in learners are
deliberately simple and dependency-free: k-nearest-neighbor and ridge.
"""
from __future__ import annotations

import copy
import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import (
    ConfigError,
    DegenerateDesignError,
    EstimationError,
    FoldPlan,
    Sample,
    make_folds,
)
from .stepfun import scan_bounds

__all__ = [
    "GridSpec",
    "ConditionalCdfModel",
    "ConstantCdfModel",
    "LocationShiftModel",
    "QuantileGridModel",
    "parse_model_spec",
    "fit_arm_model",
    "extract_adjusters",
    "fit_adjusters",
    "crossfit_adjusters",
    "select_model",
]

TAU_GRID = np.round(np.linspace(0.0, 1.0, 101), 2)
MODEL_NAMES = ("constant", "knn_loc_shift", "ridge_loc_shift", "knn_quantile")
# the ways a model can fail to fit its data; anything else is a bug
FIT_ERRORS = (ConfigError, DegenerateDesignError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class GridSpec:
    """Candidate-location grid for the per-row argmax/argmin search.

    kind "normal": random draws centered at 0 with scale equal to the
    outcome range; kind "linear": equispaced over an inflated outcome range
    (deterministic alternative for reproducibility studies).
    """

    kind: str = "normal"
    size: int = 10_000

    def build(self, y_lo: float, y_hi: float, rng) -> np.ndarray:
        if self.size < 1:
            raise ConfigError("grid size must be positive")
        span = max(y_hi - y_lo, 1e-12)
        if self.kind == "normal":
            return np.sort(rng.normal(0.0, span, size=self.size))
        if self.kind == "linear":
            pad = 0.5 * span
            return np.linspace(y_lo - pad, y_hi + pad, self.size)
        raise ConfigError(f"unknown grid kind {self.kind!r}")


class ConditionalCdfModel:
    """Interface: eval_cdf(t, x) in [0,1], nondecreasing in t for fixed x."""

    kind = "abstract"

    def eval_cdf(self, t, x):
        raise NotImplementedError

    def cdf_matrix(self, grid, X):
        """len(X) x len(grid) matrix of conditional CDF values."""
        return np.vstack([self.eval_cdf(grid, x) for x in X])


class ConstantCdfModel(ConditionalCdfModel):
    """Covariate-free empirical CDF of the arm outcomes."""

    kind = "constant"

    def __init__(self, y):
        self.y_sorted = np.sort(np.asarray(y, dtype=np.float64))

    def eval_cdf(self, t, x=None):
        out = kernels.ecdf_at(self.y_sorted, t)
        return out if np.ndim(t) else float(out[0])

    # location-shift view with a zero shift, for the fast argopt kernel
    def predict_mu(self, X, rows=None):
        return np.zeros(len(X))

    @property
    def residuals(self):
        return self.y_sorted


class LocationShiftModel(ConditionalCdfModel):
    """F_j(t|x) modeled as Fe(t - mu(x)) with Fe the in-train residual ECDF."""

    kind = "loc_shift"

    def __init__(self, regressor, residuals):
        self.regressor = regressor
        self.residuals = np.sort(residuals)

    def predict_mu(self, X, rows=None):
        # a regressor needs to take ``rows`` only if it is given them
        if rows is None:
            return self.regressor.predict(np.atleast_2d(X))
        return self.regressor.predict(np.atleast_2d(X), rows)

    def eval_cdf(self, t, x):
        mu = float(self.predict_mu(np.atleast_2d(x))[0])
        out = kernels.ecdf_at(self.residuals, np.asarray(t, dtype=float) - mu)
        return out if np.ndim(t) else float(out[0])


class QuantileGridModel(ConditionalCdfModel):
    """Per-row quantile predictions on a tau grid, linearly interpolated.

    Predictions are sorted per row (monotone rearrangement) before
    interpolation; outside the predicted range the CDF is clamped to 0/1.
    ``rows`` is the estimate's neighbour table viewed at the rows of y and
    x, or None (see ``fit_arm_model``).
    """

    kind = "quantile_grid"

    def __init__(self, y, x, k, taus=TAU_GRID, rows=None):
        self.y = np.asarray(y, dtype=np.float64)
        self.x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self.k = int(k)
        self.rows = rows
        self.taus = np.asarray(taus, dtype=np.float64)
        # the interpolated CDF is monotone, and the argopt kernel exact,
        # only for sorted levels in [0, 1]
        t = self.taus
        if not (t.ndim == 1 and t.size and np.all(np.isfinite(t))
                and np.all(np.diff(t) >= 0) and t[0] >= 0 and t[-1] <= 1):
            raise ConfigError("taus must be a nonempty 1-D nondecreasing "
                              "array of levels in [0, 1]")
        if self.k > self.y.size:
            raise ConfigError(f"k={self.k} exceeds arm size {self.y.size}")

    def predict_quantiles(self, X, rows=None):
        idx = _neighbours(self, X, rows)
        q = np.quantile(self.y[idx], self.taus, axis=1).T
        return np.sort(q, axis=1)

    def eval_cdf(self, t, x):
        q = self.predict_quantiles(np.atleast_2d(x))[0]
        out = kernels.interp_cdf_row(q, self.taus, np.atleast_1d(
            np.asarray(t, dtype=np.float64)))
        return out if np.ndim(t) else float(out[0])


class _KnnMean:
    def __init__(self, x, y, k, rows=None):
        self.x = x
        self.y = y
        self.k = k
        self.rows = rows

    def predict(self, X, rows=None):
        return self.y[_neighbours(self, X, rows)].mean(axis=1)


class _Ridge:
    """Ridge regression with intercept; penalty chosen by generalized CV
    when lam is None."""

    def __init__(self, x, y, lam=None):
        n, p = x.shape
        self.x_mean = x.mean(axis=0)
        self.x_scale = x.std(axis=0)
        self.x_scale[self.x_scale == 0] = 1.0
        xs = (x - self.x_mean) / self.x_scale
        self.y_mean = y.mean()
        yc = y - self.y_mean
        u, s, vt = np.linalg.svd(xs, full_matrices=False)
        uty = u.T @ yc
        if lam is None:
            lams = np.logspace(-4, 4, 41)
            best, lam_best = np.inf, 1.0
            for lm in lams:
                shrink = s / (s**2 + lm)
                resid = yc - u @ (s * shrink * uty)
                df = np.sum(s**2 / (s**2 + lm))
                gcv = (resid @ resid) / n / (1 - df / n) ** 2
                if gcv < best:
                    best, lam_best = gcv, lm
            lam = lam_best
        self.lam = lam
        self.coef = vt.T @ (s / (s**2 + lam) * uty)

    def predict(self, X, rows=None):
        xs = (np.atleast_2d(X) - self.x_mean) / self.x_scale
        return self.y_mean + xs @ self.coef


# values held at once by one row block of ``_knn_indices`` (the Gram
# values and their partition, or the exact difference terms): ~256 KB, so
# that freeing them does not trim the allocator's heap, which would
# page-fault them in again on the next block
_KNN_BLOCK_VALUES = 1 << 15
# Gram candidates per row beyond k, so that a near-tie at the k-th
# neighbour rarely fails the certificate
_KNN_PAD = 8
# from this many training rows on, the Gram stage pays off (given also 2
# training rows per Gram candidate)
_KNN_WIDE_TRAIN = 48


def _knn_indices(train_x, query_x, k):
    """Per query row, the indices of its min(k, n_train) nearest training
    rows in (squared distance, training index) order.

    The distance is ``((q - t)**2).sum(-1)``, and the result equals a
    stable argsort of every such distance. A Gram form
    |q|^2 - 2 q.t + |t|^2 first picks k + _KNN_PAD candidates per row. A
    row's nearest candidates by exact distance are its neighbours if its
    k-th distance is below every excluded Gram value less ``tol``, a bound
    on the rounding of both forms. Every other row, and every row when the
    Gram stage cannot pay off, sorts its distances to all training rows.
    """
    n, p = train_x.shape
    k = min(k, n)
    c = k + _KNN_PAD
    if n < max(_KNN_WIDE_TRAIN, 2 * c):
        return _knn_sorted(train_x, query_x, k)
    t2 = np.einsum("ij,ij->i", train_x, train_x)
    q2 = np.einsum("ij,ij->i", query_x, query_x)
    # fl(|q|^2), fl(|t|^2) and fl(q.t) in any summation order, and the
    # exact form, each err by at most p * eps times values bounded by
    # |q|^2 + |t|^2; the two sums and the squares add a few eps more
    tol = (4 * (p + 4) * np.finfo(np.float64).eps * (q2 + t2.max())
           + (p + 4) * np.finfo(np.float64).tiny)
    out = np.empty((query_x.shape[0], k), dtype=np.intp)
    certified = np.empty(query_x.shape[0], dtype=bool)
    rows = max(1, _KNN_BLOCK_VALUES // (2 * n + c * p))
    for a in range(0, query_x.shape[0], rows):
        q = query_x[a:a + rows]
        g = q @ train_x.T
        g *= -2.0
        g += t2
        g += q2[a:a + rows, None]
        part = np.argpartition(g, c, axis=1)
        cand = np.sort(part[:, :c], axis=1)
        d2 = _sq_dist(q, train_x[cand])
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out[a:a + rows] = np.take_along_axis(cand, order, axis=1)
        d_k = np.take_along_axis(d2, order[:, -1:], axis=1)[:, 0]
        excl = np.take_along_axis(g, part[:, c:c + 1], axis=1)[:, 0]
        certified[a:a + rows] = d_k < excl - tol[a:a + rows]
    redo = np.flatnonzero(~certified)
    if redo.size:
        out[redo] = _knn_sorted(train_x, query_x[redo], k)
    return out


def _knn_sorted(train_x, query_x, k):
    """``_knn_indices`` from a stable sort of every distance of each row."""
    n, p = train_x.shape
    out = np.empty((query_x.shape[0], k), dtype=np.intp)
    rows = max(1, _KNN_BLOCK_VALUES // max(1, n * p))
    for a in range(0, query_x.shape[0], rows):
        d2 = _sq_dist(query_x[a:a + rows], train_x)
        out[a:a + rows] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def _sq_dist(q, t):
    """Squared distances of the rows of ``q`` to ``t``: all its rows, or
    per query row its own rows when ``t`` is 3-D."""
    d = q[:, None, :] - t
    np.square(d, out=d)
    return d.sum(axis=-1)


# list entries per row beyond 2k: nested 5-fold training sets hold about
# 64% of an arm's rows, so 2k entries hold about 1.3k of them on average,
# and the pad covers the spread (at k = 25 on the simulation design, none
# of 309 600 query rows of six 3-model estimates at n = 2000 fell back)
_TABLE_PAD = 16


class _NeighbourTable:
    """The nearest-neighbour lists of one estimate's sample, shared by the
    kNN searches of its nested cross-fit.

    For each (arm, k) searched, one ``_knn_indices`` call lists, for every
    row of the sample, its ``min(2k + _TABLE_PAD, arm size)`` nearest rows
    of that arm in (distance, row) order, where the arm holds only the rows
    ``drawn_from`` (all rows by default). An instance is a view of those
    lists: ``ids`` maps the rows it stands for (a subset's, an arm's or a
    query set's) to rows of the sample.
    """

    def __init__(self, sample: Sample, drawn_from=None):
        self.x = sample.x
        self.d = sample.d
        self.ids = np.arange(sample.n)
        self.pool = self.ids if drawn_from is None else np.unique(drawn_from)
        self.lists = {}

    def subset(self, idx) -> "_NeighbourTable":
        view = copy.copy(self)
        view.ids = self.ids[idx]
        return view

    def knn(self, query: "_NeighbourTable", k: int) -> np.ndarray:
        """``_knn_indices(x[train], x[query], k)`` for this view's rows as
        training rows, which must lie in one arm of the drawn rows in
        increasing order.

        Restricted to a subset of the arm in increasing order, the arm's
        (distance, row) order is the subset's own (distance, index) order,
        so the first k entries of a row's list that lie in the training set
        are its neighbours there. A row whose list holds fewer falls back to
        a direct search.
        """
        train = self.ids
        k = min(k, train.size)
        key = (int(self.d[train[0]]), k)
        lists = self.lists.get(key)
        if lists is None:
            arm = self.pool[self.d[self.pool] == key[0]]
            depth = min(2 * k + _TABLE_PAD, arm.size)
            # 32-bit rows halve the table, which lives through the estimate
            lists = arm.astype(np.int32)[_knn_indices(self.x[arm], self.x,
                                                      depth)]
            self.lists[key] = lists
        # each listed row's position among the training rows, -1 outside
        pos = np.full(len(self.x), -1, dtype=np.int32)
        pos[train] = np.arange(train.size)
        cand = pos[lists[query.ids]]
        hit = cand >= 0
        rank = np.cumsum(hit, axis=1)
        full = rank[:, -1] >= k
        out = np.empty((query.ids.size, k), dtype=np.intp)
        out[full] = cand[hit & (rank <= k) & full[:, None]].reshape(-1, k)
        short = np.flatnonzero(~full)
        if short.size:
            out[short] = _knn_indices(self.x[train],
                                      self.x[query.ids[short]], k)
        return out


def _with_table(sample: Sample, drawn_from=None) -> Sample:
    """``sample`` if it carries a neighbour-table view, else the same sample
    viewed in a new table whose lists are drawn from the rows
    ``drawn_from`` (all rows by default)."""
    if sample._table is not None:
        return sample
    return dataclasses.replace(sample,
                               _table=_NeighbourTable(sample, drawn_from))


def _view(sample: Sample, idx):
    """The neighbour-table view of ``sample`` at ``idx``, if it has one."""
    return None if sample._table is None else sample._table.subset(idx)


def _neighbours(learner, X, rows):
    """Per row of X, the indices of its ``learner.k`` nearest training
    rows: from the table when both sides are viewed in it."""
    if learner.rows is None or rows is None:
        return _knn_indices(learner.x, np.atleast_2d(X), learner.k)
    return learner.rows.knn(rows, learner.k)


def parse_model_spec(spec: str):
    """Split a model spec string like 'knn_loc_shift:k=15' into
    (name, params)."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ConfigError(f"malformed model spec {spec!r}")
            params[key.strip()] = val.strip()
    return name.strip(), params


def fit_arm_model(y, x, spec: str, rows=None) -> ConditionalCdfModel:
    """Fit one arm's conditional CDF model from outcomes y and covariates x.

    Degenerate (constant) covariates trigger a fallback to the constant
    model with a warning; an oversized k or a non-numeric parameter is a
    ConfigError. ``rows``, the estimate's neighbour table viewed at the
    rows of y and x, answers the kNN searches among them for query rows
    that are viewed in it too; the answers equal a direct search.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if y.size == 0:
        raise ConfigError("cannot fit a model on an empty arm")
    name, params = parse_model_spec(spec)
    if name == "constant":
        return ConstantCdfModel(y)
    if np.all(x.std(axis=0) == 0):
        warnings.warn(f"constant covariates: falling back to constant model"
                      f" (requested {spec!r})")
        return ConstantCdfModel(y)
    try:
        k = int(params.get("k", math.ceil(math.sqrt(y.size))))
        lam = params.get("lambda", "auto")
        lam = None if lam == "auto" else float(lam)
    except ValueError:
        raise ConfigError(f"malformed model spec {spec!r}") from None
    if k < 1:
        raise ConfigError(f"k={k} must be positive")
    if name == "knn_loc_shift":
        if k > y.size:
            raise ConfigError(f"k={k} exceeds arm size {y.size}")
        reg = _KnnMean(x, y, k, rows)
        resid = y - reg.predict(x, rows)
        return LocationShiftModel(reg, resid)
    if name == "ridge_loc_shift":
        reg = _Ridge(x, y, lam)
        resid = y - reg.predict(x)
        return LocationShiftModel(reg, resid)
    if name == "knn_quantile":
        return QuantileGridModel(y, x, k, rows=rows)
    raise ConfigError(f"unknown model spec {spec!r}")


def extract_adjusters(m1: ConditionalCdfModel, m0: ConditionalCdfModel,
                      x_eval, grid: np.ndarray, rows=None):
    """Per evaluation row, the grid argmax (lower) and argmin (upper) of
    F1(t|x) - F0(t|x); ties break toward the smallest grid point.

    Returns the (s_lower, s_upper) pair of arrays. ``rows`` is the
    estimate's neighbour table viewed at the rows of x_eval, or None.

    The caller is responsible for fitting the models on data disjoint from
    x_eval's fold.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ConfigError("empty argmax grid")
    x_eval = np.atleast_2d(np.asarray(x_eval, dtype=np.float64))
    if m1.kind == "constant" and m0.kind == "constant":
        # covariate-free CDFs: bounds are invariant to any constant shift,
        # so the zero function is the canonical adjuster
        zero = np.zeros(len(x_eval))
        return zero, zero
    loc_kinds = ("constant", "loc_shift")
    if m1.kind == "quantile_grid" and m0.kind == "quantile_grid":
        q1 = m1.predict_quantiles(x_eval, rows)
        q0 = m0.predict_quantiles(x_eval, rows)
        s_lo, s_hi = kernels.interp_cdf_argopt(q1, q0, m1.taus, grid)
    elif m1.kind in loc_kinds and m0.kind in loc_kinds:
        s_lo, s_hi = kernels.shift_cdf_argopt(
            m1.predict_mu(x_eval, rows), m0.predict_mu(x_eval, rows),
            m1.residuals, m0.residuals, grid)
    else:
        f1 = m1.cdf_matrix(grid, x_eval)
        f0 = m0.cdf_matrix(grid, x_eval)
        d = f1 - f0
        s_lo = grid[np.argmax(d, axis=1)]
        s_hi = grid[np.argmin(d, axis=1)]
    return s_lo, s_hi


def fit_adjusters(train: Sample, spec_l: str, spec_u: str, sample: Sample,
                  row_sets, grid: np.ndarray):
    """Fit each distinct spec's arm models on ``train`` once, then evaluate
    per row set, an index array of rows of ``sample``, the lower-side
    values of spec_l's pair and the upper-side values of spec_u's pair.

    Returns one (s_lower, s_upper) pair of arrays per row set. When the two
    specs agree, one extraction yields both sides. The kNN searches read
    the neighbour table that ``train`` and ``sample`` are viewed in, if any.

    The fits and extractions run with numpy's BLAS held to one thread (see
    ``kernels._one_blas_thread``): the shift kernel's pool already runs a
    thread per CPU, and the small products of the fits gain nothing from
    more. The previous thread count is restored on return or raise. The
    limit is process-global, so other threads' BLAS calls run on one thread
    while any estimate is inside this function. The seed-7 report tests pin
    that reports do not change with it.
    """
    treated = train.d == 1
    fitted = {}
    out = []
    with kernels._one_blas_thread():
        for spec in dict.fromkeys((spec_l, spec_u)):
            fitted[spec] = tuple(
                fit_arm_model(train.y[arm], train.x[arm], spec,
                              _view(train, arm))
                for arm in (treated, ~treated))
        for idx in row_sets:
            x_rows, x_view = sample.x[idx], _view(sample, idx)
            s_lo, s_hi = extract_adjusters(*fitted[spec_l], x_rows, grid,
                                           x_view)
            if spec_u != spec_l:
                _, s_hi = extract_adjusters(*fitted[spec_u], x_rows, grid,
                                            x_view)
            out.append((s_lo, s_hi))
    return out


def crossfit_adjusters(sample: Sample, folds: FoldPlan, model_specs,
                       seed: int = 0, grid_spec: GridSpec = GridSpec(),
                       select_folds: int = 5):
    """Fit per-fold adjustment functions out-of-fold and evaluate them on
    the held-out fold rows; with several specs, each fold first selects
    one per side on its own out-of-fold data.

    Returns (s_lower, s_upper, meta); meta records the model spec chosen
    per fold and the per-fold adjuster dispersion diagnostic. A fold whose
    fit fails with one of ``FIT_ERRORS`` raises EstimationError naming the
    fold; any other exception propagates unchanged.

    With several specs, every kNN search of the nested selections and of
    the final fits reads the neighbour table that ``sample`` carries, or a
    new one of ``sample``. A single-spec cross-fit reads the table only
    when ``sample`` carries one, as a candidate's scoring inside a
    selection does; otherwise it searches directly.
    """
    specs = list(model_specs)
    if len(specs) > 1:
        sample = _with_table(sample)
    s_lo = np.empty(sample.n)
    s_hi = np.empty(sample.n)
    chosen: list[tuple[str, str]] = []
    rng = np.random.default_rng(seed)
    grid = grid_spec.build(sample.y_lo, sample.y_hi, rng)
    for k in range(1, folds.k_folds + 1):
        try:
            oof = sample.subset(folds.complement(k))
            spec_l, spec_u = select_model(specs, oof, select_folds,
                                          seed + k, grid_spec)
            members = folds.members(k)
            [(lo_k, hi_k)] = fit_adjusters(oof, spec_l, spec_u, sample,
                                           [members], grid)
            s_lo[members] = lo_k
            s_hi[members] = hi_k
            chosen.append((spec_l, spec_u))
        except FIT_ERRORS as exc:
            raise EstimationError(f"fold {k}: {exc}") from exc
    meta = {
        "models_per_fold": chosen,
        "adjuster_sd_l": float(np.std(s_lo)),
        "adjuster_sd_u": float(np.std(s_hi)),
    }
    return s_lo, s_hi, meta


def select_model(candidates, train: Sample, cv_folds: int = 5, seed: int = 0,
                 grid_spec: GridSpec = GridSpec()) -> tuple[str, str]:
    """Pick per side the candidate spec whose inner cross-validated bound is
    best: (spec with the largest lower bound, spec with the smallest upper
    bound).

    Each candidate is scored for both sides by the bounds scanned from its
    ``crossfit_adjusters`` over ``cv_folds`` folds of ``train``. Per side,
    the first candidate with a strictly better score wins. Held-out
    data never enters; candidates that fail to fit (one of ``FIT_ERRORS``)
    are excluded with one warning each, and a side with no surviving
    candidate falls back to the constant model with a warning. A single
    candidate is returned for both sides without scoring.

    The candidates' kNN searches read the neighbour table that ``train``
    carries, or a new one of ``train`` (see ``crossfit_adjusters``).
    """
    if not candidates:
        raise ConfigError("need at least one candidate model spec")
    if len(candidates) == 1:
        return candidates[0], candidates[0]
    train = _with_table(train)
    try:
        folds, plan_error = make_folds(train, cv_folds, seed), None
    except FIT_ERRORS as exc:
        folds, plan_error = None, exc
    best_l = best_u = None
    score_l = score_u = -np.inf
    for spec in candidates:
        try:
            if plan_error is not None:
                # without a fold plan no candidate can be scored
                raise plan_error
            lo, hi, _ = crossfit_adjusters(train, folds, [spec], seed,
                                           grid_spec)
        except (EstimationError, *FIT_ERRORS) as exc:
            # the fit error's own message, without the fold prefix
            warnings.warn(f"candidate {spec!r} failed during selection: "
                          f"{exc.__cause__ or exc}")
            continue
        val_l, _, inf, _ = scan_bounds(train, lo, hi)
        val_u = 1.0 + inf
        if val_l > score_l:
            score_l, best_l = val_l, spec
        if -val_u > score_u:
            score_u, best_u = -val_u, spec
    if best_l is None or best_u is None:
        warnings.warn("all candidate models failed; using constant model")
    return best_l or "constant", best_u or "constant"
