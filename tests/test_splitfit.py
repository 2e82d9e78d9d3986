import math

import numpy as np
import pytest

from dtebounds.data import ConfigError, Sample
from dtebounds.splitfit import dkw_critical, estimate_split, make_split


def make_sample(n=200, seed=0, effect=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    d = (rng.random(n) < 0.5).astype(int)
    y = x[:, 0] + effect * d + rng.normal(size=n)
    return Sample(y, d, x)


class TestDkwCritical:
    def test_closed_form_values(self):
        # sqrt(log 40 / 2) * (1/10 + 1/10)
        expected = math.sqrt(math.log(40.0) / 2.0) * 0.2
        assert dkw_critical(0.05, 100, 100) == pytest.approx(expected)
        assert dkw_critical(0.05, 100, 100) == pytest.approx(0.27162, abs=5e-6)
        assert dkw_critical(0.10, 200, 200) == pytest.approx(0.17308, abs=5e-6)

    def test_monotonicity(self):
        assert dkw_critical(0.05, 100, 100) > dkw_critical(0.2, 100, 100)
        assert dkw_critical(0.05, 100, 100) > dkw_critical(0.05, 200, 100)
        assert dkw_critical(0.025, 50, 70) > dkw_critical(0.05, 50, 70)

    def test_scaling_law(self):
        c1 = dkw_critical(0.05, 60, 80)
        c2 = dkw_critical(0.05, 120, 160)
        assert c1 / c2 == pytest.approx(math.sqrt(2.0))

    def test_validation(self):
        with pytest.raises(ConfigError):
            dkw_critical(0.0, 10, 10)
        with pytest.raises(ConfigError):
            dkw_critical(0.05, 0, 10)


class TestMakeSplit:
    def test_stratified_and_disjoint(self):
        s = make_sample(101, seed=2)
        plan = make_split(s, 0.5, seed=3)
        all_idx = np.sort(np.concatenate([plan.main, plan.aux]))
        np.testing.assert_array_equal(all_idx, np.arange(s.n))
        assert plan.main_treated.size > 0 and plan.main_control.size > 0
        assert np.all(s.d[plan.main_treated] == 1)
        assert np.all(s.d[plan.main_control] == 0)

    def test_aux_fraction_respected(self):
        s = make_sample(400, seed=4)
        plan = make_split(s, 0.25, seed=0)
        assert plan.aux.size == pytest.approx(100, abs=2)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            make_split(make_sample(), 1.5)


class TestEstimateSplit:
    def test_report_contents(self):
        s = make_sample(300, seed=5)
        plan = make_split(s, 0.5, seed=1)
        rep = estimate_split(s, plan, ["constant"], alpha=0.05, seed=2)
        assert rep.method == "sample-split"
        c = rep.crit["c_alpha"]
        assert c == pytest.approx(
            dkw_critical(0.05, plan.main_treated.size, plan.main_control.size))
        assert rep.meta["n1_main"] == plan.main_treated.size
        assert 0.0 <= rep.lower_onesided <= rep.upper_onesided <= 1.0
        assert rep.two_sided[0] <= rep.lower_onesided

    def test_main_sample_only_enters_estimate(self):
        s = make_sample(300, seed=6)
        plan = make_split(s, 0.5, seed=1)
        zero = np.zeros(s.n)
        rep = estimate_split(s, plan, [], adjusters=(zero, zero))
        # recompute the bound by hand on the main subsample
        from dtebounds.stepfun import makarov_bounds
        main = s.subset(plan.main)
        mk = makarov_bounds(main)
        assert rep.estimate.theta_l == mk.theta_l
        assert rep.estimate.theta_u == mk.theta_u

    def test_adversarial_adjuster_still_valid_interval(self):
        # coverage of one-sided intervals under an arbitrary adjuster, on a
        # discrete design with exactly computable theta
        rng = np.random.default_rng(7)
        y1_of_x = np.array([0.0, 2.0, 1.0])
        y0_of_x = np.array([1.0, 0.0, 1.0])
        # X uniform on {0,1,2}; theta = P(Y1 - Y0 <= 0) = 2/3
        theta = np.mean(y1_of_x - y0_of_x <= 0)
        hit_lo = hit_hi = 0
        reps = 400
        n = 120
        for _ in range(reps):
            xi = rng.integers(0, 3, size=n)
            d = (rng.random(n) < 0.5).astype(int)
            y = np.where(d == 1, y1_of_x[xi], y0_of_x[xi])
            s = Sample(y.astype(float), d, xi[:, None].astype(float))
            plan = make_split(s, 0.5, seed=int(rng.integers(2**31)))
            adv = rng.normal(size=n)
            rep = estimate_split(s, plan, [], alpha=0.1, adjusters=(adv, adv))
            hit_lo += rep.lower_onesided_raw <= theta
            hit_hi += rep.upper_onesided_raw >= theta
        assert hit_lo / reps >= 0.9
        assert hit_hi / reps >= 0.9

    def test_model_fitting_path_runs(self):
        s = make_sample(240, seed=8)
        plan = make_split(s, 0.5, seed=3)
        rep = estimate_split(s, plan, ["constant", "knn_loc_shift:k=10"],
                             alpha=0.05, seed=4)
        assert rep.meta["model_l"] in ("constant", "knn_loc_shift:k=10")
        assert 0.0 <= rep.estimate.theta_l <= 1.0
