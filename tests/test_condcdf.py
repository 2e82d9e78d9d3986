import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtebounds import DgpSpec, condcdf, draw_dgp
from dtebounds.condcdf import (
    _KNN_BLOCK_VALUES,
    ConstantCdfModel,
    GridSpec,
    QuantileGridModel,
    _knn_indices,
    _NeighbourTable,
    _view,
    _with_table,
    extract_adjusters,
    fit_arm_model,
    parse_model_spec,
    select_model,
)
from dtebounds.crossfit import crossfit_adjusters, estimate
from dtebounds.data import (
    ConfigError,
    Sample,
    make_folds,
    shift_for_delta,
    squash_outcomes,
)
from dtebounds.splitfit import estimate_split, make_split


def test_constant_model_is_ecdf():
    m = fit_arm_model(np.array([1.0, 2.0, 3.0]), np.zeros((3, 2)), "constant")
    assert m.eval_cdf(2.0, np.zeros(2)) == pytest.approx(2 / 3)
    assert m.eval_cdf(0.5, None) == 0.0
    assert m.eval_cdf(3.0, None) == 1.0


def test_quantile_grid_interpolation_rule():
    # predicted quantiles 1.0 at tau=0.2 and 2.0 at tau=0.3:
    # F(1.5|x) = 0.2 + (0.3-0.2)/(2.0-1.0)*(1.5-1.0) = 0.25
    m = QuantileGridModel(np.arange(9.0), np.zeros((9, 1)), k=9,
                          taus=np.array([0.2, 0.3]))
    m.predict_quantiles = lambda X: np.array([[1.0, 2.0]] * len(np.atleast_2d(X)))
    assert m.eval_cdf(1.5, np.zeros(1)) == pytest.approx(0.25)


@pytest.mark.parametrize("taus", [
    [], [[0.2, 0.5]], [0.2, np.nan], [0.2, np.inf], [0.5, 0.2],
    [-0.1, 0.5], [0.5, 1.1]])
def test_quantile_grid_rejects_bad_taus(taus):
    with pytest.raises(ConfigError, match="taus"):
        QuantileGridModel(np.arange(9.0), np.zeros((9, 1)), k=3, taus=taus)
    # repeated levels and the ends of [0, 1] are allowed
    QuantileGridModel(np.arange(9.0), np.zeros((9, 1)), k=3,
                      taus=[0.0, 0.5, 0.5, 1.0])


def test_location_shift_zero_mu_is_residual_ecdf():
    from dtebounds.condcdf import LocationShiftModel

    rng = np.random.default_rng(0)
    y = rng.normal(size=50)

    class ZeroReg:
        def predict(self, X):
            return np.zeros(len(X))

    m = LocationShiftModel(ZeroReg(), residuals=y.copy())
    t = np.linspace(-3, 3, 10)
    expected = np.array([np.mean(y <= ti) for ti in t])
    np.testing.assert_allclose(m.eval_cdf(t, np.zeros(3)), expected)


def test_ridge_huge_penalty_collapses_to_marginal_ecdf():
    rng = np.random.default_rng(0)
    y = rng.normal(size=50)
    x = rng.normal(size=(50, 3))
    m = fit_arm_model(y, x, "ridge_loc_shift:lambda=1e12")
    # mu is essentially the sample mean everywhere, so the implied CDF of the
    # outcome is its marginal ECDF
    t = np.linspace(-3, 3, 10)
    expected = np.array([np.mean(y <= ti) for ti in t])
    np.testing.assert_allclose(m.eval_cdf(t, x.mean(axis=0)), expected,
                               atol=1e-8)


def test_monotone_cdfs_across_variants():
    rng = np.random.default_rng(1)
    y = rng.normal(size=60)
    x = rng.normal(size=(60, 3))
    models = [fit_arm_model(y, x, s) for s in
              ("constant", "knn_loc_shift:k=10", "ridge_loc_shift:lambda=auto",
               "knn_quantile:k=15")]
    for m in models:
        for _ in range(250):
            t1, t2 = np.sort(rng.normal(scale=2, size=2))
            xq = rng.normal(size=3)
            a, b = m.eval_cdf(t1, xq), m.eval_cdf(t2, xq)
            assert a <= b + 1e-12
            assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0


def _knn_single_broadcast(train_x, query_x, k):
    # reference: every distance from one (q, n_train, p) broadcast, in
    # (distance, index) order
    d2 = ((query_x[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


@pytest.mark.parametrize("q", [1, 33, 70])
@pytest.mark.parametrize("k", [7, 90, 120])  # k >= n_train sorts every row
@pytest.mark.parametrize("discrete", [False, True])
def test_knn_indices_match_single_broadcast(q, k, discrete):
    # discrete: one covariate with 4 levels, so every row ties, as in the
    # finite-sample coverage check; else rounded covariates, so that some
    # distances tie and a change of expression reorders neighbours
    rng = np.random.default_rng(q)
    if discrete:
        train = rng.integers(0, 4, size=(90, 1)).astype(float)
        query = rng.integers(0, 4, size=(q, 1)).astype(float)
    else:
        train = np.round(rng.normal(size=(90, 5)), 1)
        query = np.round(rng.normal(size=(q, 5)), 1)
    np.testing.assert_array_equal(_knn_indices(train, query, k),
                                  _knn_single_broadcast(train, query, k))


def _knn_brute_force(train_x, query_x, k):
    # each row's training indices sorted by the key (distance, index)
    d2 = ((query_x[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    return np.array([sorted(range(len(train_x)), key=lambda i: (row[i], i))[:k]
                     for row in d2], dtype=np.intp)


@st.composite
def _knn_inputs(draw):
    kind = draw(st.sampled_from(["continuous", "rounded", "duplicated",
                                 "offset"]))
    # half the draws take the Gram path: n >= 64 and k small against n
    n = draw(st.one_of(st.integers(1, 63), st.integers(64, 160)))
    p = draw(st.integers(1, 6))
    q = draw(st.integers(1, 24))
    k = min(draw(st.one_of(st.integers(1, 12), st.integers(1, n + 2))),
            n + 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = rng.normal(size=(n, p))
    query = rng.normal(size=(q, p))
    if kind == "rounded":
        train, query = np.round(train), np.round(query)
    elif kind == "duplicated":
        # every training row repeated, and some queries on training rows
        train = train[rng.integers(0, max(1, n // 3), size=n)]
        query[: q // 2] = train[rng.integers(0, n, size=q // 2)]
    elif kind == "offset":
        # the Gram form cancels: its rounding error exceeds the spread of
        # the distances, so only the certificate keeps the result exact
        scale = draw(st.sampled_from([1e-4, 1e-2, 1.0]))
        train, query = 1e6 + scale * train, 1e6 + scale * query
    return train, query, k, draw(st.integers(0, q))


@settings(max_examples=300, deadline=None)
@given(inputs=_knn_inputs())
@example(inputs=(np.zeros((100, 2)), np.zeros((3, 2)), 7, 1))
@example(inputs=(1e6 + np.arange(200.0)[:, None] * 1e-4,
                 np.full((5, 1), 1e6), 10, 2))
# all rows are candidates (48 rows, k = 17), and only the k-th distance
# ties: rows 16 and 31 are both at 17, and the default argsort puts 31 first
@example(inputs=(np.r_[48.0:32:-1, 17.0, 31.0:0:-1][:, None], np.zeros((1, 1)),
                 17, 0))
def test_knn_indices_are_brute_force_order(inputs):
    # the k nearest in (distance, index) order, on the Gram path (n large
    # against k) and the all-rows path alike, and independent of how the
    # query rows are split into calls
    train, query, k, cut = inputs
    got = _knn_indices(train, query, k)
    np.testing.assert_array_equal(got, _knn_brute_force(train, query, k))
    np.testing.assert_array_equal(
        np.concatenate([_knn_indices(train, query[:cut], k),
                        _knn_indices(train, query[cut:], k)]), got)


@pytest.mark.parametrize("rounded", [False, True])
def test_knn_indices_memory_is_bounded_by_the_block(rounded):
    # 1600 x 20 against 1600 x 20: one (32, n, p) distance chunk of the
    # earlier routine alone held 8 MB; rounded covariates tie at the k-th
    # neighbour and send rows to the all-rows path
    rng = np.random.default_rng(5)
    train = rng.normal(size=(1600, 20))
    query = rng.normal(size=(1600, 20))
    if rounded:
        train, query = np.round(train), np.round(query)
    tracemalloc.start()
    try:
        out = _knn_indices(train, query, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = 8 * _KNN_BLOCK_VALUES
    assert peak < out.nbytes + 4 * block_bytes, (peak, block_bytes)


@st.composite
def _table_searches(draw):
    # covariates with tied distances and duplicated rows, random arms, a
    # table of all rows or of a split's auxiliary rows, and the training
    # rows of one arm of a one- or two-level nested out-of-fold set, as
    # select_model makes them; arms of 48 rows or more let the table's
    # build take the Gram path of _knn_indices
    arm_size = st.one_of(st.integers(4, 40), st.integers(48, 120))
    n1, n0 = draw(arm_size), draw(arm_size)
    n, p = n1 + n0, draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.round(rng.normal(size=(n, p)), draw(st.integers(0, 1)))
    if draw(st.booleans()):
        x = x[rng.integers(0, max(1, n // 3), size=n)]
    d = np.zeros(n, dtype=int)
    d[rng.permutation(n)[:n1]] = 1
    whole = Sample(np.zeros(n), d, x)
    pool = None
    if draw(st.booleans()):
        pool = make_split(whole, draw(st.floats(0.5, 0.9)),
                          draw(st.integers(0, 99))).aux
    whole = _with_table(whole, pool)
    sample = whole if pool is None else whole.subset(pool)
    for _ in range(draw(st.integers(1, 2))):
        if min(sample.n1, sample.n0) < 2:
            break
        cv = draw(st.integers(2, min(sample.n1, sample.n0)))
        folds = make_folds(sample, cv, draw(st.integers(0, 99)))
        sample = sample.subset(folds.complement(draw(st.integers(1, cv))))
    train = _view(sample, sample.d == draw(st.integers(0, 1)))
    # query rows of both arms, drawn or not, in any order
    query = _view(whole, rng.permutation(n)[:draw(st.integers(1, n))])
    k = draw(st.one_of(st.integers(1, min(8, train.ids.size)),
                       st.integers(1, train.ids.size)))
    # lists shorter than 2k + 16, down to one entry, send rows to fallback
    pad = draw(st.integers(1 - 2 * k, 16))
    return whole._table, train, query, k, pad


@settings(max_examples=300, deadline=None)
@given(search=_table_searches())
def test_neighbour_table_equals_direct_search(search):
    table, train, query, k, pad = search
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condcdf, "_TABLE_PAD", pad)
        got = train.knn(query, k)
    np.testing.assert_array_equal(
        got, _knn_indices(table.x[train.ids], table.x[query.ids], k))


class TestNeighbourTableOrder:
    """The table answers only for training rows of one arm among its drawn
    rows, in increasing order; any other training set raises instead of
    returning wrong neighbours."""

    @pytest.fixture
    def table(self):
        rng = np.random.default_rng(8)
        d = np.array([1, 0] * 30)
        whole = Sample(np.zeros(60), d, rng.normal(size=(60, 2)))
        # drawn rows: the first 40
        return _with_table(whole, np.arange(40))._table

    def _search(self, table, train):
        return table.subset(np.asarray(train)).knn(table.subset([45, 3]), 2)

    def test_drawn_rows_of_one_arm_in_order_are_answered(self, table):
        train = np.arange(0, 40, 2)
        np.testing.assert_array_equal(
            self._search(table, train),
            _knn_indices(table.x[train], table.x[[45, 3]], 2))

    @pytest.mark.parametrize("train", [
        [0, 4, 2, 6, 8],        # shuffled
        [0, 2, 2, 4, 6],        # a repeated row
        [0, 2, 4, 6, 40],       # a treated row that was not drawn
        [42, 44, 46],           # no drawn row at all
        [0, 2, 3, 4],           # a control row among treated ones
        [1, 3, 5, 6],           # a treated row among control ones
    ])
    def test_other_training_sets_raise(self, table, train):
        with pytest.raises(ValueError, match="drawn rows of one arm in "
                                             "increasing order"):
            self._search(table, train)


class TestNeighbourTableTraffic:
    """Which kNN searches an estimate makes: with several candidates, one
    table build per arm and distinct k, and every other search a fallback
    of a table search; with one, direct searches only."""

    @pytest.fixture
    def calls(self, monkeypatch, process_log):
        # (training rows, query rows, inside a table search), from every
        # process of the estimate
        seen = process_log
        inside = []
        knn, search = condcdf._knn_indices, _NeighbourTable.knn

        def counting_knn(train_x, query_x, k):
            seen.append((len(train_x), len(query_x), bool(inside)))
            return knn(train_x, query_x, k)

        def counting_search(self, query, k):
            inside.append(True)
            try:
                return search(self, query, k)
            finally:
                inside.pop()

        monkeypatch.setattr(condcdf, "_knn_indices", counting_knn)
        monkeypatch.setattr(_NeighbourTable, "knn", counting_search)
        return seen

    def test_selecting_estimate_builds_one_table_per_arm_and_k(self, calls,
                                                                 cpus):
        # on 2 CPUs the folds run in the caller and one forked child, and
        # each of the two processes builds the lists it reads
        cpus(2)
        s = make_sample(n=300, seed=3)
        crossfit_adjusters(s, make_folds(s, 3, 0),
                           ["constant", "knn_loc_shift:k=10",
                            "knn_quantile:k=12"],
                           grid_spec=GridSpec("linear", 50))
        per_process = calls.by_process()
        assert len(per_process) == 2
        # two distinct k, each built once per arm
        once = sorted([(s.n1, s.n, True), (s.n0, s.n, True)] * 2)
        for seen in per_process:
            assert sorted(c for c in seen if c[1] == s.n) == once
        assert sum(c[1] == s.n for c in calls) == 2 * len(once)
        assert all(inside for _, _, inside in calls)

    def test_selecting_sample_split_reads_one_table(self, calls, cpus):
        # the table lists every row's neighbours among the auxiliary rows,
        # so the selection, the final residual fits and the extractions on
        # the main rows all read it; each candidate's scoring is a
        # one-model cross-fit of 200 rows, too small to fork
        cpus(2)
        s, _ = draw_dgp(DgpSpec(), 400, seed=5)
        estimate(s, "sample-split",
                 ["knn_loc_shift:k=10", "knn_quantile:k=10"], seed=0)
        aux_d = s.d[make_split(s, 0.5, 0).aux]
        assert sorted(calls) == sorted([(int(aux_d.sum()), s.n, True),
                                        (int((aux_d == 0).sum()), s.n, True)])

    # per fold and arm: the location-shift fit's residuals, and the
    # evaluation on the fold
    @pytest.mark.parametrize("spec, per_fold", [("knn_loc_shift:k=10", 4),
                                                ("knn_quantile:k=12", 2)])
    def test_single_spec_estimate_builds_no_table(self, calls, spec,
                                                  per_fold):
        s = make_sample(n=300, seed=3)
        folds = make_folds(s, 3, 0)
        crossfit_adjusters(s, folds, [spec],
                           grid_spec=GridSpec("linear", 50))
        assert len(calls) == per_fold * folds.k_folds
        assert not any(inside for _, _, inside in calls)


def test_knn_k_too_large_errors():
    with pytest.raises(ConfigError):
        fit_arm_model(np.arange(5.0), np.random.default_rng(0).normal(size=(5, 2)),
                      "knn_loc_shift:k=9")


def test_constant_covariates_fall_back():
    with pytest.warns(UserWarning, match="constant covariates"):
        m = fit_arm_model(np.arange(8.0), np.ones((8, 2)), "knn_quantile:k=3")
    assert m.kind == "constant"


def test_parse_model_spec():
    assert parse_model_spec("knn_loc_shift:k=15") == ("knn_loc_shift", {"k": "15"})
    assert parse_model_spec("constant") == ("constant", {})
    with pytest.raises(ConfigError):
        parse_model_spec("knn_loc_shift:k")


class TestExtractAdjusters:
    def test_identical_models_tie_to_smallest_grid_point(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=30)
        x = rng.normal(size=(30, 2))
        m = fit_arm_model(y, x, "knn_quantile:k=10")
        grid = np.linspace(-2, 2, 50)
        s_lo, s_hi = extract_adjusters(m, m, x[:5], grid)
        np.testing.assert_array_equal(s_lo, grid[0])
        np.testing.assert_array_equal(s_hi, grid[0])

    def test_two_constant_models_give_zero_adjuster(self):
        rng = np.random.default_rng(4)
        m1 = ConstantCdfModel(rng.normal(size=20))
        m0 = ConstantCdfModel(rng.normal(size=20))
        s_lo, s_hi = extract_adjusters(m1, m0, np.zeros((4, 2)),
                                       np.linspace(-1, 1, 11))
        np.testing.assert_array_equal(s_lo, 0.0)
        np.testing.assert_array_equal(s_hi, 0.0)

    def test_deterministic_separation(self):
        # conditional outcomes y1=2 and y0=5 encoded as near-point masses:
        # any grid point in [2,5) attains difference 1; smallest returned
        y1 = np.full(40, 2.0)
        y0 = np.full(40, 5.0)
        m1 = ConstantCdfModel(y1)
        m0 = ConstantCdfModel(y0)
        grid = np.array([0.0, 1.0, 2.5, 3.0, 4.0, 6.0])
        f1 = np.array([m1.eval_cdf(g, None) for g in grid])
        f0 = np.array([m0.eval_cdf(g, None) for g in grid])
        d = f1 - f0
        assert d.max() == 1.0
        assert grid[np.argmax(d)] == 2.5

    def test_empty_grid_errors(self):
        m = ConstantCdfModel(np.arange(3.0))
        with pytest.raises(ConfigError):
            extract_adjusters(m, m, np.zeros((1, 1)), np.array([]))

    def test_mixed_kind_generic_path(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=40)
        x = rng.normal(size=(40, 2))
        mq = fit_arm_model(y + 0.5, x, "knn_quantile:k=12")
        mc = fit_arm_model(y, x, "constant")
        grid = np.linspace(-2, 2, 30)
        s_lo, s_hi = extract_adjusters(mq, mc, x[:6], grid)
        # oracle: per row, argmax/argmin of the evaluated difference
        for i, xr in enumerate(x[:6]):
            d = np.array([mq.eval_cdf(g, xr) - mc.eval_cdf(g, xr)
                          for g in grid])
            assert s_lo[i] == grid[np.argmax(d)]
            assert s_hi[i] == grid[np.argmin(d)]


class TestGridSpec:
    def test_normal_grid_is_seeded_and_scaled(self):
        g1 = GridSpec().build(0.0, 2.0, np.random.default_rng(7))
        g2 = GridSpec().build(0.0, 2.0, np.random.default_rng(7))
        np.testing.assert_array_equal(g1, g2)
        assert abs(np.std(g1) - 2.0) < 0.1

    def test_linear_grid(self):
        g = GridSpec(kind="linear", size=101).build(0.0, 1.0, None)
        assert g.size == 101
        assert g[0] < 0.0 < 1.0 < g[-1]


def make_sample(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    d = np.array([1, 0] * (n // 2))
    y = 2.0 * x[:, 0] + d * 1.0 + 0.3 * rng.normal(size=n)
    return Sample(y, d, x)


class TestSelectModel:
    def test_single_candidate_passthrough(self):
        s = make_sample()
        assert select_model(["constant"], s) == ("constant", "constant")

    def test_informative_model_beats_constant(self):
        # the outcome is driven by x0, so a covariate model attains a larger
        # inner lower bound than the constant model
        s = make_sample(n=300, seed=3)
        spec_l, _ = select_model(["constant", "knn_loc_shift:k=15"], s,
                                 cv_folds=4, seed=1)
        assert spec_l == "knn_loc_shift:k=15"

    def test_ties_keep_first_candidate(self):
        # two spellings of one model score identically on both sides; the
        # first one listed wins each side
        s = make_sample()
        a, b = "ridge_loc_shift", "ridge_loc_shift:lambda=auto"
        assert select_model([a, b], s, cv_folds=4, seed=1) == (a, a)
        assert select_model([b, a], s, cv_folds=4, seed=1) == (b, b)

    def test_failing_candidate_excluded(self):
        s = make_sample()
        failing = ["knn_loc_shift:k=500", "knn_quantile:k=500"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            best = select_model([failing[0], "constant", failing[1]], s,
                                cv_folds=4, seed=1)
        msgs = [str(w.message) for w in caught]
        # one warning per failing candidate, not one per side
        assert len(msgs) == 2
        for spec, msg in zip(failing, msgs):
            assert msg.startswith(f"candidate {spec!r} failed during selection")
        assert best == ("constant", "constant")

    def test_all_candidates_failing_fall_back_to_constant(self):
        s = make_sample()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            best = select_model(["knn_loc_shift:k=500", "bogus_model"], s,
                                cv_folds=4, seed=1)
        msgs = [str(w.message) for w in caught]
        assert len(msgs) == 3
        assert msgs[2] == "all candidate models failed; using constant model"
        assert best == ("constant", "constant")

    def test_scores_each_candidate_by_cross_fitting(self, monkeypatch):
        # one fold loop: selection scores each candidate with the same
        # crossfit_adjusters the estimators run
        from dtebounds import condcdf, crossfit
        assert crossfit.crossfit_adjusters is condcdf.crossfit_adjusters
        original = condcdf.crossfit_adjusters
        seen, plans = [], []

        def counting(sample, folds, specs, *args, **kwargs):
            seen.append((folds.k_folds, list(specs)))
            plans.append(folds)
            return original(sample, folds, specs, *args, **kwargs)

        monkeypatch.setattr(condcdf, "crossfit_adjusters", counting)
        select_model(["constant", "knn_loc_shift:k=10"], make_sample(),
                     cv_folds=4, seed=1)
        assert seen == [(4, ["constant"]), (4, ["knn_loc_shift:k=10"])]
        # both candidates are scored on one fold plan
        assert plans[0] is plans[1]

    def test_too_few_units_for_the_inner_folds(self):
        # 4 treated units cannot fill 5 inner folds: every candidate fails
        # to get a fold plan and is skipped with the fold error's own text
        rng = np.random.default_rng(2)
        d = np.zeros(40, dtype=int)
        d[:4] = 1
        s = Sample(rng.normal(size=40), d, rng.normal(size=(40, 2)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            best = select_model(["constant", "knn_loc_shift:k=2"], s,
                                cv_folds=5, seed=0)
        assert [str(w.message) for w in caught] == [
            "candidate 'constant' failed during selection: "
            "k=5 exceeds the smaller arm (4)",
            "candidate 'knn_loc_shift:k=2' failed during selection: "
            "k=5 exceeds the smaller arm (4)",
            "all candidate models failed; using constant model",
        ]
        assert best == ("constant", "constant")

    def test_programming_errors_propagate(self, monkeypatch):
        # only the ways a model can fail to fit are excluded with a warning
        from dtebounds import condcdf

        def broken(*args, **kwargs):
            raise TypeError("bug in a learner")

        monkeypatch.setattr(condcdf, "fit_arm_model", broken)
        with pytest.raises(TypeError, match="bug in a learner"):
            select_model(["ridge_loc_shift", "knn_loc_shift:k=10"],
                         make_sample(), cv_folds=4, seed=1)

    def test_malformed_parameter_is_a_fit_failure(self):
        s = make_sample()
        for spec in ("knn_loc_shift:k=ten", "knn_quantile:k=0",
                     "ridge_loc_shift:lambda=big"):
            with pytest.raises(ConfigError, match=r"k=0|malformed"):
                fit_arm_model(s.y, s.x, spec)


class TestSampleTable:
    """The neighbour-table view a sample carries: private to condcdf, kept
    by subsets, dropped by samples with other data."""

    def test_equality_and_repr_ignore_the_view(self):
        s = make_sample()
        viewed = _with_table(s)
        assert s._table is None and viewed._table is not None
        assert _with_table(viewed) is viewed
        assert viewed == s
        assert repr(viewed) == repr(s)

    def test_subset_keeps_the_view(self):
        viewed = _with_table(make_sample())
        idx = np.arange(0, viewed.n, 3)
        sub = viewed.subset(idx)
        np.testing.assert_array_equal(sub._table.ids, idx)
        np.testing.assert_array_equal(sub.subset([1, 4])._table.ids,
                                      idx[[1, 4]])
        assert sub._table.lists is viewed._table.lists

    def test_new_data_drops_the_view(self):
        viewed = _with_table(make_sample())
        assert shift_for_delta(viewed, 1.0)._table is None
        assert squash_outcomes(viewed)._table is None

    def test_selection_leaves_the_callers_sample_bare(self):
        s = make_sample()
        specs = ["constant", "knn_loc_shift:k=5"]
        grid = GridSpec("linear", 50)
        crossfit_adjusters(s, make_folds(s, 3, 0), specs, grid_spec=grid)
        select_model(specs, s, cv_folds=3, grid_spec=grid)
        assert s._table is None


class TestExtractionCount:
    """Each fitted pair is extracted once per row set, for both sides."""

    @pytest.fixture
    def calls(self, monkeypatch, process_log):
        from dtebounds import condcdf
        seen = process_log
        original = condcdf.extract_adjusters

        def counting(*args, **kwargs):
            seen.append(len(np.atleast_2d(args[2])))
            return original(*args, **kwargs)

        monkeypatch.setattr(condcdf, "extract_adjusters", counting)
        return seen

    def test_crossfit_one_model(self, calls):
        s = make_sample(n=200)
        folds = make_folds(s, 4, seed=0)
        crossfit_adjusters(s, folds, ["knn_loc_shift:k=10"], seed=0,
                           grid_spec=GridSpec("linear", 50))
        assert len(calls) == folds.k_folds
        assert sum(calls) == s.n

    def test_split_one_model(self, calls):
        s = make_sample(n=200)
        plan = make_split(s, 0.5, seed=0)
        estimate_split(s, plan, ["knn_loc_shift:k=10"], seed=0,
                       grid_spec=GridSpec("linear", 50))
        # treated main rows, then control main rows
        assert calls == [plan.main_treated.size, plan.main_control.size]

    def test_selection_scores_both_sides_in_one_pass(self, calls):
        s = make_sample(n=200)
        select_model(["constant", "knn_loc_shift:k=10"], s, cv_folds=4,
                     seed=0, grid_spec=GridSpec("linear", 50))
        assert len(calls) == 2 * 4


def test_location_shift_dgp_recovers_shape_up_to_constant():
    # outcome = f(x) + noise, treated also gets an independent symmetric
    # effect: both conditional CDFs are unit-normal around f(x) (control)
    # and sqrt(2)-normal (treated), so their difference is extremal at
    # f(x) -+ u* with u* = sqrt(2 ln 2) = 1.1774 exactly. The fitted
    # adjusters should track f(x) up to those constants (bounds are
    # invariant to any additive constant).
    rng = np.random.default_rng(17)
    n = 1200
    x = rng.normal(size=(n, 1))
    f = 2.0 * x[:, 0]
    d = np.array([1, 0] * (n // 2))
    y = f + d * rng.normal(size=n) + rng.normal(size=n)
    m1 = fit_arm_model(y[d == 1], x[d == 1], "knn_loc_shift:k=35")
    m0 = fit_arm_model(y[d == 0], x[d == 0], "knn_loc_shift:k=35")
    grid = np.linspace(-10, 10, 4001)
    s_lo, s_hi = extract_adjusters(m1, m0, x, grid)
    u_star = np.sqrt(2.0 * np.log(2.0))
    for s, target in ((s_lo, -u_star), (s_hi, u_star)):
        offset = s - f
        assert np.std(offset) < 0.5 * np.std(f)
        assert abs(np.median(offset) - target) < 0.3
