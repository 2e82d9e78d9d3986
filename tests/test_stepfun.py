import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from dtebounds import kernels, splitfit
from dtebounds.condcdf import GridSpec, fit_adjusters
from dtebounds.crossfit import crossfit_adjusters, estimate, estimate_crossfit
from dtebounds.data import (
    DegenerateDesignError,
    Sample,
    make_folds,
    shift_for_delta,
    squash_outcomes,
)
from dtebounds.simulate import DgpSpec, draw_dgp
from dtebounds.reports import BoundsEstimate
from dtebounds.splitfit import SplitPlan, estimate_split, make_split
from dtebounds.stepfun import (
    makarov_bounds,
    profile_bounds,
    scan_bounds,
    side_profiles,
)


def sample_from_arms(treated, control):
    y = np.concatenate([treated, control])
    d = np.array([1] * len(treated) + [0] * len(control))
    x = np.zeros((len(y), 1))
    return Sample(y, d, x)


def lower_profile(s, s_vals=None):
    """The lower-side profile of ``s`` under adjuster ``s_vals`` (zero)."""
    s_vals = np.zeros(s.n) if s_vals is None else s_vals
    return side_profiles(s, s_vals, s_vals)[0]


def step_at(profile, t):
    """The right-continuous step function of a profile, evaluated at t."""
    pts, d = profile
    return np.concatenate([[0.0], d])[np.searchsorted(pts, t, side="right")]


def one_arm_cdf(values, weights=None):
    values = np.asarray(values, dtype=float)
    empty = np.empty(0)
    if weights is None:
        return kernels.delta_profile(values, empty)
    return kernels.delta_profile(values, empty, weights, empty)


class TestStepCdf:
    """The one-arm profile ``delta_profile(a, empty)`` is the ECDF of a."""

    def test_basic_evaluation(self):
        f = one_arm_cdf([1.0, 2.0, 3.0])
        assert step_at(f, 0.5) == 0.0
        assert step_at(f, 1.0) == pytest.approx(1 / 3)
        assert step_at(f, 2.999) == pytest.approx(2 / 3)
        assert step_at(f, 3.0) == 1.0

    def test_ties_collapse(self):
        f = one_arm_cdf([1.0, 1.0, 2.0])
        assert f[0].size == 2
        assert step_at(f, 1.0) == pytest.approx(2 / 3)

    def test_empty_arm_raises(self):
        with pytest.raises(DegenerateDesignError):
            sample_from_arms([1.0, 2.0], [])


class TestBuildCurve:
    def test_hand_enumerated_curve(self):
        # treated adjusted {0.1, 0.9}, control {0.5}
        s = sample_from_arms([0.1, 0.9], [0.5])
        pts, d = lower_profile(s)
        np.testing.assert_allclose(pts, [0.1, 0.5, 0.9])
        np.testing.assert_allclose(d, [0.5, -0.5, 0.0])

    def test_zero_adjuster_reduces_to_plain(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=9), rng.normal(size=7)
        s = sample_from_arms(a, b)
        plain = kernels.delta_profile(a, b)
        zero = lower_profile(s, np.zeros(s.n))
        np.testing.assert_array_equal(np.column_stack(zero),
                                      np.column_stack(plain))

    def test_identical_arms_flat(self):
        vals = [0.3, 1.2, 2.2]
        s = sample_from_arms(vals, vals)
        pts, d = lower_profile(s)
        np.testing.assert_allclose(pts, vals)
        np.testing.assert_allclose(d, 0.0)

    def test_adjuster_length_mismatch(self):
        s = sample_from_arms([1.0], [2.0])
        for bad in (np.zeros(5), np.zeros(1)):
            with pytest.raises(ValueError):
                side_profiles(s, bad, bad)
            with pytest.raises(ValueError):
                scan_bounds(s, np.zeros(s.n), bad)


class TestScanExamples:
    def test_sup_of_hand_curve(self):
        s = sample_from_arms([0.1, 0.9], [0.5])
        sup, t, _, _ = scan_bounds(s, np.zeros(3), np.zeros(3))
        assert (t, sup) == (0.1, 0.5)

    def test_inf_of_hand_curve(self):
        s = sample_from_arms([0.1, 0.9], [0.5])
        _, _, inf, t = scan_bounds(s, np.zeros(3), np.zeros(3))
        assert (t, inf) == (0.5, -0.5)

    def test_flat_curve_gives_zero(self):
        s = sample_from_arms([1.0, 2.0], [1.0, 2.0])
        sup, _, inf, _ = scan_bounds(s, np.zeros(4), np.zeros(4))
        assert sup == 0.0
        assert inf == 0.0

    def test_constant_outcomes_point_identified(self):
        # Y(1)=1 on treated, Y(0)=0 on control: theta = P(1-0<=0) = 0
        s = sample_from_arms([1.0], [0.0])
        est = makarov_bounds(s)
        assert (est.theta_l, est.theta_u) == (0.0, 0.0)

    def test_bad_adjuster_widens_bounds(self):
        # constant outcomes, adjuster 0 on half the units and 1 on the rest:
        # adjusted treated values {0, 1}, control {-1, 0}; exact enumeration
        # gives induced bounds [0, 0.5] (wider than the sharp [0, 0])
        s = sample_from_arms([1.0, 1.0], [0.0, 0.0])
        adj = np.array([0.0, 1.0, 0.0, 1.0])
        sup, _, inf, _ = scan_bounds(s, adj, adj)
        assert sup == 0.0
        assert 1 + inf == 0.5

    def test_large_same_distribution_bounds_near_unit(self):
        rng = np.random.default_rng(12)
        s = sample_from_arms(rng.normal(size=4000), rng.normal(size=4000))
        est = makarov_bounds(s)
        assert est.theta_l < 0.05 and est.theta_u > 0.95


class TestInvariants:
    def test_validity_on_discrete_population(self):
        # enumerate a synthetic population with known joint, brute-force theta,
        # and check the induced bounds contain it for arbitrary adjusters
        rng = np.random.default_rng(21)
        for _ in range(25):
            m = rng.integers(4, 10)
            y1 = rng.integers(-3, 4, size=m).astype(float)
            y0 = rng.integers(-3, 4, size=m).astype(float)
            theta = np.mean(y1 - y0 <= 0)
            s_vals = rng.normal(size=m)
            # population curve: both "arms" are the full population
            spop = sample_from_arms(y1, y0)
            adj = np.concatenate([s_vals, s_vals])
            sup, _, inf, _ = scan_bounds(spop, adj, adj)
            assert sup - 1e-12 <= theta <= 1 + inf + 1e-12

    def test_range_invariants(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            s = sample_from_arms(rng.normal(size=rng.integers(1, 30)),
                                 rng.normal(size=rng.integers(1, 30)))
            est = makarov_bounds(s)
            assert 0.0 <= est.theta_l <= 1.0
            assert 0.0 <= est.theta_u <= 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(44)
        s = sample_from_arms(rng.normal(size=60), rng.normal(size=50) + 0.4)
        raw = makarov_bounds(s)
        sq = makarov_bounds(squash_outcomes(s))
        assert raw.theta_l == pytest.approx(sq.theta_l, abs=1e-12)
        assert raw.theta_u == pytest.approx(sq.theta_u, abs=1e-12)


def test_dump_curve_consistency():
    rng = np.random.default_rng(5)
    s = sample_from_arms(rng.normal(size=15), rng.normal(size=12))
    lo, hi = side_profiles(s, np.zeros(s.n), np.zeros(s.n))
    sup, _, inf, _ = profile_bounds(lo, hi)
    assert lo is hi
    assert lo[1].max() == sup
    assert lo[1].min() == inf


def _arm_normalized_ipw(d, p):
    w1 = 1.0 / p[d == 1]
    w0 = 1.0 / (1.0 - p[d == 0])
    return w1 / w1.sum(), w0 / w0.sum()


def test_ipw_weight_mode():
    rng = np.random.default_rng(6)
    n = 30
    y = rng.normal(size=n)
    d = np.array([1, 0] * 15)
    p = np.full(n, 0.5)
    w1, w0 = _arm_normalized_ipw(d, p)
    a, b = y[d == 1], y[d == 0]
    pts_ipw, d_ipw = kernels.delta_profile(a, b, w1, w0)
    pts_plain, d_plain = kernels.delta_profile(a, b)
    # constant propensity: normalized IPW weights collapse to plain ECDFs
    np.testing.assert_array_equal(pts_ipw, pts_plain)
    np.testing.assert_allclose(d_ipw, d_plain, atol=1e-12)


def test_ipw_weight_mode_varying_propensity():
    # hand-computed weighted ECDFs with two distinct propensity values
    y = np.array([1.0, 2.0, 3.0, 4.0])
    d = np.array([1, 1, 0, 0])
    p = np.array([0.25, 0.5, 0.5, 0.75])
    # treated weights 1/p normalized: (4, 2)/6; control 1/(1-p): (2, 4)/6
    w1, w0 = _arm_normalized_ipw(d, p)
    a, b = y[d == 1], y[d == 0]
    f1 = one_arm_cdf(a, w1)
    f0 = one_arm_cdf(b, w0)
    assert step_at(f1, 1.0) == pytest.approx(4 / 6)
    assert step_at(f1, 2.0) == pytest.approx(1.0)
    assert step_at(f0, 3.0) == pytest.approx(2 / 6)
    pts, diff = kernels.delta_profile(a, b, w1, w0)
    assert diff[pts == 3.0] == pytest.approx([1.0 - 2 / 6])


# tied data: half-integers in a narrow range, so most values repeat
_half = st.integers(-6, 6).map(lambda k: k / 2)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n1=st.integers(1, 25), n0=st.integers(1, 25),
       equal=st.booleans(), weighted=st.booleans())
def test_scan_bounds_matches_two_separate_scans(data, n1, n0, equal,
                                                weighted):
    n = n1 + n0

    def arr(size, elems):
        return np.array(data.draw(st.lists(elems, min_size=size,
                                           max_size=size)))

    s = sample_from_arms(arr(n1, _half), arr(n0, _half))
    s_lo = arr(n, _half)
    s_hi = s_lo.copy() if equal else arr(n, _half)
    w = arr(n, st.floats(0.1, 10.0)) if weighted else None
    t = s.d == 1
    w1, w0 = (None, None) if w is None else (w[t], w[~t])
    y_lo, y_hi = s.y - s_lo, s.y - s_hi
    sup, t_l, _, _ = kernels.profile_extrema(
        *kernels.delta_profile(y_lo[t], y_lo[~t], w1, w0))
    _, _, inf, t_u = kernels.profile_extrema(
        *kernels.delta_profile(y_hi[t], y_hi[~t], w1, w0))
    assert scan_bounds(s, s_lo, s_hi, w) == (sup, t_l, inf, t_u)
    lo, hi = side_profiles(s, s_lo, s_hi, w)
    assert (lo is hi) == np.array_equal(s_lo, s_hi)
    # with raw weights the profile need not reach 0 on support, so the sup
    # may be the off-support 0; an unweighted profile ends at exactly 0
    assert max(lo[1].max(), 0.0) == sup
    if not weighted:
        assert lo[1].max() == sup


class TestProfileCount:
    """One ``delta_profile`` per distinct adjuster array."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        seen = []
        original = kernels.delta_profile

        def counting(a, b, *args, **kwargs):
            seen.append(np.size(a) + np.size(b))
            return original(a, b, *args, **kwargs)

        monkeypatch.setattr(kernels, "delta_profile", counting)
        return seen

    @pytest.fixture(scope="class")
    def sample(self):
        return draw_dgp(DgpSpec(), 200, seed=3)[0]

    def test_crossfit_constant_builds_one(self, sizes, sample):
        estimate_crossfit(sample, *crossfit_adjusters(
            sample, make_folds(sample, 4, 0), ["constant"]))
        assert sizes == [sample.n]

    def test_crossfit_unequal_adjusters_build_two(self, sizes, sample):
        rng = np.random.default_rng(1)
        estimate_crossfit(sample, rng.normal(size=sample.n),
                          rng.normal(size=sample.n))
        assert sizes == [sample.n, sample.n]

    def test_split_one_model_equal_sides_builds_one(self, sizes, sample):
        plan = make_split(sample, 0.5, seed=0)
        estimate_split(sample, plan, ["constant"])
        assert sizes == [plan.main.size]


def unit_adjusters(rng, y0, y1, kind):
    """One adjuster value per unit: a rounded random draw (kind 0), y0 (1),
    y1 (2), their midpoint (3), or per unit any of these four (4)."""
    options = np.stack([np.round(rng.normal(scale=2.0, size=y0.size), 1),
                        y0, y1, 0.5 * (y0 + y1)])
    if kind == 4:
        return options[rng.integers(4, size=y0.size), np.arange(y0.size)]
    return options[kind]


def arm_counts(sample, s, t):
    """(c1, c0): each arm's count of units with y - s <= t."""
    hit = (sample.y - s) <= t
    return int(hit[sample.d == 1].sum()), int(hit[sample.d == 0].sum())


def assert_count_identities(est, sample, lo, hi, m, below, at_or_below):
    """The strict and non-strict count identities of
    ``TestValidityForAnyAdjuster`` for an estimate over m units."""
    c1, c0 = arm_counts(sample, lo, est.t_l)
    assert est.theta_l == c1 / m - c0 / m
    assert c1 - c0 <= below
    c1, c0 = arm_counts(sample, hi, est.t_u)
    assert est.theta_u == 1.0 + (c1 / m - c0 / m)
    assert at_or_below <= m + c1 - c0


class TestValidityForAnyAdjuster:
    """The bounds are valid for any adjuster, pinned as exact counts.

    For a unit with outcomes y1 and y0' = fl(y0 + delta), any adjuster
    value s and any t, 1{y1 - s <= t} - 1{y0' - s <= t} <= 1{y1 < y0'} and
    1{y1 <= y0'} <= 1 + 1{y1 - s <= t} - 1{y0' - s <= t}; both hold in
    floating point, because fl(v - s) is nondecreasing in v. So on a sample
    whose treated arm holds every unit's y1 and whose control arm every
    unit's y0', with one adjuster value per unit in both arms, the reported
    bounds are fl(c1/n) - fl(c0/n) (plus 1 above) at their optimizers, with
    c1 - c0 <= #{y1 < y0'} at t_l and #{y1 <= y0'} <= n + c1 - c0 at t_u.
    Counts are compared, not floats: a bound can sit an ulp above the exact
    ratio. ``makarov_bounds`` is the case s = 0."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 59), seed=st.integers(0, 2**32 - 1),
           decimals=st.integers(0, 1),
           delta=st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5, 8.0]),
           kind_l=st.integers(0, 4), kind_u=st.integers(0, 4))
    def test_counts_at_the_reported_optimizers(self, n, seed, decimals,
                                               delta, kind_l, kind_u):
        rng = np.random.default_rng(seed)
        try:
            _, hidden = draw_dgp(DgpSpec(), n, rng=rng)
        except DegenerateDesignError:
            reject()  # the draw's observed sample has one arm only
        # rounded outcomes, so that ties occur
        y0, y1 = np.round(hidden.y0, decimals), np.round(hidden.y1, decimals)
        both = shift_for_delta(Sample(np.concatenate([y1, y0]),
                                      np.repeat([1, 0], n),
                                      np.zeros((2 * n, 1))), delta)
        y0_shifted = both.y[n:]
        below = int(np.sum(y1 < y0_shifted))
        at_or_below = int(np.sum(y1 <= y0_shifted))
        s_lo = np.tile(unit_adjusters(rng, y0, y1, kind_l), 2)
        s_hi = np.tile(unit_adjusters(rng, y0, y1, kind_u), 2)
        scanned = BoundsEstimate.from_scan(both, scan_bounds(both, s_lo, s_hi))
        crossfit = estimate(both, "cross-fit", [], k_folds=2,
                            adjusters=(s_lo, s_hi), h_rules=()).estimate
        zero = np.zeros(2 * n)
        for est, lo, hi in ((scanned, s_lo, s_hi), (crossfit, s_lo, s_hi),
                            (makarov_bounds(both), zero, zero)):
            c1, c0 = arm_counts(both, lo, est.t_l)
            assert est.theta_l == c1 / n - c0 / n
            assert c1 - c0 <= below
            c1, c0 = arm_counts(both, hi, est.t_u)
            assert est.theta_u == 1.0 + (c1 / n - c0 / n)
            assert at_or_below <= n + c1 - c0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(8, 59), seed=st.integers(0, 2**32 - 1),
           decimals=st.integers(0, 1),
           delta=st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5, 8.0]),
           kind_l=st.integers(0, 4), kind_u=st.integers(0, 4))
    def test_sample_split_main_half_counts(self, n, seed, decimals, delta,
                                           kind_l, kind_u):
        """The paper's finite-sample claim: on the main half of a split,
        the bounds are the main half's own counts, for user adjusters and
        for a kNN fit on the auxiliary half. Both copies of a unit share
        its covariates, so a fitted adjuster gives them one value."""
        rng = np.random.default_rng(seed)
        try:
            observed, hidden = draw_dgp(DgpSpec(), n, rng=rng)
        except DegenerateDesignError:
            reject()
        y0, y1 = np.round(hidden.y0, decimals), np.round(hidden.y1, decimals)
        both = shift_for_delta(Sample(np.concatenate([y1, y0]),
                                      np.repeat([1, 0], n),
                                      np.tile(observed.x[:, :2], (2, 1))),
                               delta)
        # m units in the main half; each auxiliary arm keeps 3 for k = 3
        m = int(rng.integers(1, n - 2))
        units = np.sort(rng.choice(n, size=m, replace=False))
        rest = np.setdiff1d(np.arange(n), units)
        plan = SplitPlan(0.5, units, units + n,
                         np.concatenate([rest, rest + n]))
        main = plan.main
        y0_shifted = both.y[n:][units]
        below = int(np.sum(y1[units] < y0_shifted))
        at_or_below = int(np.sum(y1[units] <= y0_shifted))

        user = [np.tile(unit_adjusters(rng, y0, y1, kind), 2)
                for kind in (kind_l, kind_u)]
        # each case: the estimate and its adjusters on the main half's rows,
        # the m treated copies and then the m control copies
        cases = [(estimate_split(both, plan, [], adjusters=user).estimate,
                  user[0][main], user[1][main])]
        fitted, real_fit = [], splitfit.fit_adjusters

        def capture(*args):
            out = real_fit(*args)
            fitted.extend(out)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitfit, "fit_adjusters", capture)
            knn = estimate_split(both, plan, ["knn_loc_shift:k=3"],
                                 grid_spec=GridSpec("linear", 50)).estimate
        (lo1, hi1), (lo0, hi0) = fitted
        np.testing.assert_array_equal(lo1, lo0)
        np.testing.assert_array_equal(hi1, hi0)
        cases.append((knn, np.tile(lo1, 2), np.tile(hi1, 2)))

        half = both.subset(main)
        for est, lo, hi in cases:
            assert est.n == 2 * m
            c1, c0 = arm_counts(half, lo, est.t_l)
            assert est.theta_l == c1 / m - c0 / m
            assert c1 - c0 <= below
            c1, c0 = arm_counts(half, hi, est.t_u)
            assert est.theta_u == 1.0 + (c1 / m - c0 / m)
            assert at_or_below <= m + c1 - c0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 59), seed=st.integers(0, 2**32 - 1),
           decimals=st.integers(0, 1),
           delta=st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5, 8.0]),
           spec=st.sampled_from(["constant", "knn_loc_shift:k=5",
                                 "ridge_loc_shift", "knn_quantile:k=5"]),
           grid=st.sampled_from([GridSpec("normal", 300),
                                 GridSpec("linear", 301)]))
    def test_counts_for_fitted_learners(self, n, seed, decimals, delta,
                                        spec, grid):
        """Adjusters that each built-in learner fits on an independent draw,
        through ``fit_adjusters``: a unit's two copies share its covariates,
        so they get one value, and the counts hold as for any adjuster."""
        rng = np.random.default_rng(seed)
        try:
            observed, hidden = draw_dgp(DgpSpec(), n, rng=rng)
            train, _ = draw_dgp(DgpSpec(), 40, rng=rng)
        except DegenerateDesignError:
            reject()
        y0, y1 = np.round(hidden.y0, decimals), np.round(hidden.y1, decimals)
        both = shift_for_delta(Sample(np.concatenate([y1, y0]),
                                      np.repeat([1, 0], n),
                                      np.tile(observed.x, (2, 1))), delta)
        [(s_lo, s_hi)] = fit_adjusters(
            train, spec, spec, both, [np.arange(2 * n)],
            grid.build(both.y.min(), both.y.max(), rng))
        np.testing.assert_array_equal(s_lo[:n], s_lo[n:])
        np.testing.assert_array_equal(s_hi[:n], s_hi[n:])
        below = int(np.sum(y1 < both.y[n:]))
        at_or_below = int(np.sum(y1 <= both.y[n:]))
        scanned = BoundsEstimate.from_scan(both, scan_bounds(both, s_lo, s_hi))
        crossfit = estimate(both, "cross-fit", [], k_folds=2,
                            adjusters=(s_lo, s_hi), h_rules=()).estimate
        for est in (scanned, crossfit):
            assert_count_identities(est, both, s_lo, s_hi, n, below,
                                    at_or_below)
