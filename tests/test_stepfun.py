import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtebounds import kernels
from dtebounds.crossfit import crossfit_adjusters, estimate_crossfit
from dtebounds.data import (
    Adjuster,
    DegenerateDesignError,
    Sample,
    make_folds,
    squash_outcomes,
)
from dtebounds.simulate import DgpSpec, draw_dgp
from dtebounds.splitfit import estimate_split, make_split
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
        zero = lower_profile(s, Adjuster.zero(s.n).values)
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
    sup, t_l, _, _ = kernels.scan_extrema(y_lo[t], y_lo[~t], w1, w0)
    _, _, inf, t_u = kernels.scan_extrema(y_hi[t], y_hi[~t], w1, w0)
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
