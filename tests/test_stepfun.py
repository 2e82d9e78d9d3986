import numpy as np
import pytest

from dtebounds.data import Adjuster, DegenerateDesignError, Sample, squash_outcomes
from dtebounds.stepfun import (
    StepCdf,
    build_curve,
    dump_curve,
    inf_delta,
    makarov_bounds,
    sup_delta,
)


def sample_from_arms(treated, control, adjuster=None):
    y = np.concatenate([treated, control])
    d = np.array([1] * len(treated) + [0] * len(control))
    x = np.zeros((len(y), 1))
    s = Sample(y, d, x)
    return s


class TestStepCdf:
    def test_basic_evaluation(self):
        f = StepCdf.from_values(np.array([1.0, 2.0, 3.0]))
        assert f(0.5) == 0.0
        assert f(1.0) == pytest.approx(1 / 3)
        assert f(2.999) == pytest.approx(2 / 3)
        assert f(3.0) == 1.0

    def test_ties_collapse(self):
        f = StepCdf.from_values(np.array([1.0, 1.0, 2.0]))
        assert f.breakpoints.size == 2
        assert f(1.0) == pytest.approx(2 / 3)

    def test_weighted_heights_reach_one(self):
        rng = np.random.default_rng(0)
        w = rng.random(10) + 0.1
        f = StepCdf.from_values(rng.normal(size=10), w)
        assert f.heights[-1] == 1.0

    def test_empty_arm_raises(self):
        with pytest.raises(DegenerateDesignError):
            StepCdf.from_values(np.array([]))


class TestBuildCurve:
    def test_hand_enumerated_curve(self):
        # treated adjusted {0.1, 0.9}, control {0.5}
        s = sample_from_arms([0.1, 0.9], [0.5])
        rows = dump_curve(build_curve(s))
        np.testing.assert_allclose(rows[:, 0], [0.1, 0.5, 0.9])
        np.testing.assert_allclose(rows[:, 1], [0.5, -0.5, 0.0])

    def test_zero_adjuster_reduces_to_plain(self):
        rng = np.random.default_rng(4)
        s = sample_from_arms(rng.normal(size=9), rng.normal(size=7))
        c0 = build_curve(s)
        c1 = build_curve(s, Adjuster.zero(s.n))
        np.testing.assert_array_equal(dump_curve(c0), dump_curve(c1))

    def test_identical_arms_flat(self):
        vals = [0.3, 1.2, 2.2]
        s = sample_from_arms(vals, vals)
        rows = dump_curve(build_curve(s))
        np.testing.assert_allclose(rows[:, 0], vals)
        np.testing.assert_allclose(rows[:, 1], 0.0)

    def test_adjuster_length_mismatch(self):
        s = sample_from_arms([1.0], [2.0])
        with pytest.raises(ValueError):
            build_curve(s, Adjuster(values=np.zeros(5)))


class TestScanExamples:
    def test_sup_of_hand_curve(self):
        s = sample_from_arms([0.1, 0.9], [0.5])
        t, v = sup_delta(build_curve(s))
        assert (t, v) == (0.1, 0.5)

    def test_inf_of_hand_curve(self):
        s = sample_from_arms([0.1, 0.9], [0.5])
        t, v = inf_delta(build_curve(s))
        assert (t, v) == (0.5, -0.5)

    def test_flat_curve_gives_zero(self):
        s = sample_from_arms([1.0, 2.0], [1.0, 2.0])
        _, v = sup_delta(build_curve(s))
        assert v == 0.0
        _, v = inf_delta(build_curve(s))
        assert v == 0.0

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
        adj = Adjuster(values=np.array([0.0, 1.0, 0.0, 1.0]))
        curve = build_curve(s, adj)
        _, sup = sup_delta(curve)
        _, inf = inf_delta(curve)
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
            t_adj = y1 - s_vals
            c_adj = y0 - s_vals
            # population curve: both "arms" are the full population
            spop = sample_from_arms(t_adj, c_adj)
            curve = build_curve(spop)
            _, sup = sup_delta(curve)
            _, inf = inf_delta(curve)
            assert sup - 1e-12 <= theta <= 1 + inf + 1e-12

    def test_range_invariants(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            s = sample_from_arms(rng.normal(size=rng.integers(1, 30)),
                                 rng.normal(size=rng.integers(1, 30)))
            _, sup = sup_delta(build_curve(s))
            _, inf = inf_delta(build_curve(s))
            assert 0.0 <= sup <= 1.0
            assert -1.0 <= inf <= 0.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(44)
        s = sample_from_arms(rng.normal(size=60), rng.normal(size=50) + 0.4)
        _, sup_raw = sup_delta(build_curve(s))
        _, inf_raw = inf_delta(build_curve(s))
        sq = squash_outcomes(s)
        _, sup_sq = sup_delta(build_curve(sq))
        _, inf_sq = inf_delta(build_curve(sq))
        assert sup_raw == pytest.approx(sup_sq, abs=1e-12)
        assert inf_raw == pytest.approx(inf_sq, abs=1e-12)


def test_dump_curve_consistency():
    rng = np.random.default_rng(5)
    s = sample_from_arms(rng.normal(size=15), rng.normal(size=12))
    curve = build_curve(s)
    rows = dump_curve(curve)
    _, sup = sup_delta(curve)
    assert rows.shape[1] == 2
    assert rows[:, 1].max() == sup


def test_ipw_weight_mode():
    rng = np.random.default_rng(6)
    n = 30
    y = rng.normal(size=n)
    d = np.array([1, 0] * 15)
    s = Sample(y, d, np.zeros((n, 1)))
    p = np.full(n, 0.5)
    c_ipw = build_curve(s, weight_mode="ipw-normalized", p_of_x=p)
    c_plain = build_curve(s)
    # constant propensity: normalized IPW weights collapse to plain ECDFs
    rows_ipw = dump_curve(c_ipw)
    rows_plain = dump_curve(c_plain)
    np.testing.assert_array_equal(rows_ipw[:, 0], rows_plain[:, 0])
    np.testing.assert_allclose(rows_ipw[:, 1], rows_plain[:, 1], atol=1e-12)


def test_ipw_weight_mode_varying_propensity():
    # hand-computed weighted ECDFs with two distinct propensity values
    y = np.array([1.0, 2.0, 3.0, 4.0])
    d = np.array([1, 1, 0, 0])
    s = Sample(y, d, np.zeros((4, 1)))
    p = np.array([0.25, 0.5, 0.5, 0.75])
    curve = build_curve(s, weight_mode="ipw-normalized", p_of_x=p)
    # treated weights 1/p normalized: (4, 2)/6; control 1/(1-p): (2, 4)/6
    f1 = StepCdf.from_values(curve.vals1, curve.w1)
    f0 = StepCdf.from_values(curve.vals0, curve.w0)
    assert f1(1.0) == pytest.approx(4 / 6)
    assert f1(2.0) == pytest.approx(1.0)
    assert f0(3.0) == pytest.approx(2 / 6)
    rows = dump_curve(curve)
    assert rows[rows[:, 0] == 3.0, 1] == pytest.approx([1.0 - 2 / 6])
