import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from dtebounds.condcdf import GridSpec
from dtebounds.crossfit import (
    METHODS,
    EstimationError,
    _indicator,
    _ipw_mean,
    _ipw_sigma,
    crossfit_adjusters,
    estimate,
    estimate_crossfit,
    ipw_excess_variance,
    one_sided_cis,
    sjls_estimate,
    sjls_report,
    variance_hat,
    variant_fold_t,
    variant_group_propensity,
    variant_known_propensity,
)
from dtebounds.data import (
    ConfigError,
    PropensityModel,
    Sample,
    make_folds,
)
from dtebounds.reports import BoundsEstimate
from dtebounds.simulate import DgpSpec, draw_dgp
from dtebounds.stepfun import makarov_bounds, scan_bounds


def make_sample(n=300, seed=0, effect=1.0, p_treat=0.5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    d = (rng.random(n) < p_treat).astype(int)
    y = x[:, 0] + effect * d + rng.normal(size=n)
    return Sample(y, d, x)


class TestEstimateCrossfit:
    def test_constant_model_reduces_to_plain_bounds(self):
        s = make_sample(seed=1)
        folds = make_folds(s, 5, seed=0)
        est = estimate_crossfit(s, *crossfit_adjusters(s, folds, ["constant"]))
        mk = makarov_bounds(s)
        assert est.theta_l == mk.theta_l
        assert est.theta_u == mk.theta_u
        assert est.t_l == mk.t_l and est.t_u == mk.t_u

    def test_failing_fold_names_fold(self):
        s = make_sample(60, seed=2)
        folds = make_folds(s, 3, seed=0)
        with pytest.raises(EstimationError, match="fold 1"):
            crossfit_adjusters(s, folds, ["knn_loc_shift:k=5000"])

    def test_empty_model_list_names_fold(self):
        with pytest.raises(EstimationError, match="^fold 1: need at least "
                                                  "one candidate model spec$"):
            estimate(make_sample(60, seed=2), "cross-fit", [])

    def test_fixed_adjusters_bypass_fitting(self):
        s = make_sample(80, seed=3)
        adv = np.random.default_rng(1).normal(size=s.n)
        est = estimate_crossfit(s, adv, adv)
        assert 0.0 <= est.theta_l <= 1.0
        assert 0.0 <= est.theta_u <= 1.0


def _counting(seen, name, original):
    def counting(*args, **kwargs):
        seen.append(name)
        return original(*args, **kwargs)
    return counting


def _propensity_for(method, s):
    if method in ("sjls", "cross-fit-ipw"):
        return PropensityModel(mode="constant_known", pi=0.5)
    if method == "cross-fit-group":
        return PropensityModel(mode="group",
                               group_of=(s.x[:, 1] > 0).astype(int))
    return PropensityModel()


class TestEstimateAdjusters:
    """``estimate`` is the one place that obtains the adjustment values:
    one cross-fitting per run, or the user's pair checked once."""

    FITTED = [m for m in METHODS if m != "sample-split"]

    @pytest.fixture
    def fits(self, monkeypatch, process_log):
        from dtebounds import condcdf, crossfit
        seen = process_log
        for module, name in ((crossfit, "crossfit_adjusters"),
                             (condcdf, "fit_arm_model")):
            monkeypatch.setattr(module, name,
                                _counting(seen, name, getattr(module, name)))
        return seen

    @pytest.mark.parametrize("method", FITTED)
    def test_cross_fits_once(self, method, fits):
        s = make_sample(120, seed=15)
        estimate(s, method, ["knn_loc_shift:k=10"], k_folds=3,
                 grid_spec=GridSpec("linear", 50),
                 propensity=_propensity_for(method, s), h_rules=())
        assert fits.count("crossfit_adjusters") == 1
        # two arm models per fold
        assert fits.count("fit_arm_model") == 2 * 3

    @pytest.mark.parametrize("method", METHODS)
    def test_fixed_adjusters_fit_nothing(self, method, fits):
        s = make_sample(120, seed=15)
        adv = np.random.default_rng(2).normal(size=s.n)
        rep = estimate(s, method, ["knn_loc_shift:k=10"], k_folds=3,
                       propensity=_propensity_for(method, s),
                       adjusters=(adv, adv), h_rules=())
        assert rep.method == method
        assert fits == []

    @pytest.mark.parametrize("method", METHODS)
    def test_wrong_length_adjusters_are_config_error(self, method):
        s = make_sample(60, seed=16)
        full, short = np.zeros(s.n), np.zeros(s.n - 1)
        for pair in ((short, short), (full, short), (short, full)):
            with pytest.raises(ConfigError, match="adjusters"):
                estimate(s, method, [], k_folds=3,
                         propensity=_propensity_for(method, s),
                         adjusters=pair)

    @pytest.mark.parametrize("method", METHODS)
    def test_nonfinite_adjusters_are_config_error(self, method):
        s = make_sample(60, seed=16)
        bad = np.zeros(s.n)
        bad[3] = np.inf
        with pytest.raises(ConfigError, match="finite"):
            estimate(s, method, [], k_folds=3,
                     propensity=_propensity_for(method, s),
                     adjusters=(np.zeros(s.n), bad))

    @pytest.mark.parametrize("method", ["sjls", "cross-fit-ipw",
                                        "cross-fit-group"])
    def test_unusable_propensity_fails_before_fitting(self, method, fits):
        s = make_sample(60, seed=17)
        with pytest.raises(ConfigError, match="propensity"):
            estimate(s, method, ["knn_loc_shift:k=10"], k_folds=3)
        assert fits == []


class TestVarianceHat:
    def test_symmetric_bernoulli_value(self):
        # indicators Bernoulli(1/2) in both arms, pi = 1/2 -> sigma2 = 1.0
        y = np.array([0.0, 1.0] * 50)
        d = np.array([1] * 50 + [0] * 50)
        s = Sample(y, d, np.zeros((100, 1)))
        s2l, s2u, slu, _ = variance_hat(s, np.zeros(100), np.zeros(100),
                                        0.0, 0.0)
        assert s2l == pytest.approx(1.0)
        assert s2u == pytest.approx(1.0)
        assert slu == pytest.approx(1.0)  # identical indicators

    def test_degenerate_arm_flagged(self):
        y = np.concatenate([np.zeros(10), np.ones(10)])
        d = np.array([1] * 10 + [0] * 10)
        s = Sample(y, d, np.zeros((20, 1)))
        s2l, _, _, diags = variance_hat(s, np.zeros(20), np.zeros(20),
                                        0.5, 0.5)
        assert any("degenerate" in m for m in diags)

    def test_identical_sides_collapse(self):
        s = make_sample(120, seed=4)
        sv = np.random.default_rng(0).normal(size=s.n)
        s2l, s2u, slu, _ = variance_hat(s, sv, sv, 0.3, 0.3)
        assert s2l == pytest.approx(s2u)
        assert slu == pytest.approx(s2l)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = make_sample(100, seed=int(rng.integers(1000)))
            a = rng.normal(size=s.n)
            b = rng.normal(size=s.n)
            s2l, s2u, slu, _ = variance_hat(s, a, b, 0.1, -0.2)
            assert abs(slu) <= np.sqrt(s2l * s2u) + 1e-12


TENTHS = st.integers(-30, 30).map(lambda v: v / 10)
ADJUSTER = st.one_of(TENTHS, st.floats(-5.0, 5.0))


class TestIndicatorConvention:
    """Every indicator counts y - s <= t, the comparison the scan makes, so
    the indicator means at the reported optimizers reproduce the bounds
    exactly, for any adjusters and with ties."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(TENTHS, st.integers(0, 1), ADJUSTER, ADJUSTER),
                    min_size=2, max_size=60))
    def test_indicator_means_reproduce_theta(self, rows):
        y, d, s_lo, s_hi = (np.array(col) for col in zip(*rows))
        d[:2] = (0, 1)
        s = Sample(y, d, np.zeros((y.size, 1)))
        est = estimate_crossfit(s, s_lo, s_hi)
        t = s.d == 1
        z_l = _indicator(s, s_lo, est.t_l)
        z_u = _indicator(s, s_hi, est.t_u)
        assert z_l[t].mean() - z_l[~t].mean() == est.theta_l
        assert 1.0 + (z_u[t].mean() - z_u[~t].mean()) == est.theta_u


class TestOneSidedCis:
    def base_est(self, theta_l=0.108, sigma_l=0.7, n=545):
        return BoundsEstimate(theta_l=theta_l, theta_u=0.9, t_l=0.0, t_u=0.0,
                              sigma2_l=sigma_l**2, sigma2_u=0.49,
                              sigma_lu=0.2, pi_hat=0.5, n=n)

    def test_benchmark_pvalue(self):
        # lower estimate 0.108 with standard error 0.030 -> z = 3.6, p < 1e-3
        n = 500
        sigma = 0.030 * np.sqrt(n)
        est = BoundsEstimate(theta_l=0.108, theta_u=0.95, t_l=0, t_u=0,
                             sigma2_l=sigma**2, sigma2_u=sigma**2,
                             sigma_lu=0.0, pi_hat=0.5, n=n)
        rep = one_sided_cis(est, 0.05, h_rules=())
        assert rep.p_lower_zero < 1e-3
        assert rep.p_lower_zero == pytest.approx(norm.sf(3.6), rel=1e-10)

    def test_zero_estimate_gives_half(self):
        est = self.base_est(theta_l=0.0)
        rep = one_sided_cis(est, 0.05, h_rules=())
        assert rep.p_lower_zero == pytest.approx(0.5)

    def test_z_alpha_value(self):
        est = self.base_est()
        rep = one_sided_cis(est, 0.05, h_rules=())
        assert rep.crit["z_alpha"] == pytest.approx(1.6449, abs=1e-4)
        expected = est.theta_l - rep.crit["z_alpha"] * est.sigma_l / np.sqrt(est.n)
        assert rep.lower_onesided_raw == pytest.approx(expected)

    def test_upper_pvalue_convention(self):
        # upper bound 0.946 with se 0.028 -> p ~ Phi((0.946-1)/0.028) ~ 0.027
        n = 995
        sig = 0.028 * np.sqrt(n)
        est = BoundsEstimate(theta_l=0.1, theta_u=0.946, t_l=0, t_u=0,
                             sigma2_l=sig**2, sigma2_u=sig**2, sigma_lu=0.0,
                             pi_hat=0.5, n=n)
        rep = one_sided_cis(est, 0.05, h_rules=())
        assert rep.p_upper_one == pytest.approx(norm.cdf((0.946 - 1) / 0.028),
                                                rel=1e-10)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(theta_u=st.floats(-0.5, 1.5), sigma_u=st.floats(0.0, 10.0))
    @example(theta_u=1.0, sigma_u=0.3)
    @example(theta_u=1.0, sigma_u=0.0)
    @example(theta_u=float(np.nextafter(1.0, 0.0)), sigma_u=0.0)
    def test_upper_pvalue_is_normal_cdf_of_the_excess(self, theta_u, sigma_u):
        # the upper p-value is Phi((theta_u - 1) / se) bit for bit, and with
        # se = 0 it is 0 below a unit upper bound and 1 from it on
        n = 400
        est = BoundsEstimate(theta_l=0.1, theta_u=theta_u, t_l=0, t_u=0,
                             sigma2_l=0.25, sigma2_u=sigma_u**2,
                             sigma_lu=0.0, pi_hat=0.5, n=n)
        p = one_sided_cis(est, 0.05, h_rules=()).p_upper_one
        se = est.sigma_u / np.sqrt(n)
        if se > 0.0:
            assert p == float(ndtr((theta_u - 1.0) / se))
        else:
            assert p == (0.0 if theta_u < 1.0 else 1.0)


class TestKnownPropensity:
    def test_weights_collapse_when_p_matches_share(self):
        s = make_sample(200, seed=6)
        # force exactly half treated
        d = np.array([1, 0] * 100)
        s = Sample(s.y, d, s.x)
        prop = PropensityModel(mode="constant_known", pi=0.5)
        zero = np.zeros(s.n)
        est_b = variant_known_propensity(s, zero, zero, prop)
        est_a = estimate_crossfit(s, zero, zero)
        assert est_b.theta_l == pytest.approx(est_a.theta_l, abs=1e-12)
        assert est_b.theta_u == pytest.approx(est_a.theta_u, abs=1e-12)

    @pytest.mark.parametrize("n, scale, seed, side", [(300, 2.0, 685, "l"),
                                                       (120, 1.0, 844, "u")])
    def test_t0_guard_reports_t0(self, n, scale, seed, side):
        # integer outcomes and adjusters: the cumulative scan's sup (inf) is
        # one ulp below (above) the direct mean at t = 0, reached elsewhere
        # on the scan, so the guard's t = 0 is the reported optimizer
        drawn, _ = draw_dgp(DgpSpec(), n, seed)
        rng = np.random.default_rng(seed)
        s = Sample(np.round(drawn.y), drawn.d, drawn.x)
        s_lo = np.round(scale * rng.normal(size=n))
        s_hi = np.round(scale * rng.normal(size=n))
        p = np.full(n, 0.5)
        prop = PropensityModel(mode="constant_known", pi=0.5)
        w = np.where(s.d == 1, 1.0 / (n * p), 1.0 / (n * (1.0 - p)))
        sup, t_l, inf, t_u = scan_bounds(s, s_lo, s_hi, w)
        sup0 = _ipw_mean(s, p, _indicator(s, s_lo, 0.0))
        inf0 = _ipw_mean(s, p, _indicator(s, s_hi, 0.0))
        if side == "l":
            assert sup0 > sup and t_l != 0.0
            sup, t_l = sup0, 0.0
        else:
            assert inf0 < inf and t_u != 0.0
            inf, t_u = inf0, 0.0
        est = variant_known_propensity(s, s_lo, s_hi, prop)
        assert (est.theta_l, est.theta_u, est.t_l, est.t_u) == (
            sup, 1.0 + inf, t_l, t_u)
        assert (est.sigma2_l, est.sigma2_u, est.sigma_lu) == _ipw_sigma(
            s, p, _indicator(s, s_lo, t_l), _indicator(s, s_hi, t_u),
            sup, inf)

    def test_excess_variance_formula(self):
        # E[Z1]=0.6, E[Z0]=0.4, pi=0.5: direct algebra gives
        # sigma2_B - sigma2_A = (0.6/0.5 + 0.4/0.5)^2 * 0.25 = 1.0
        a, b, pi = 0.6, 0.4, 0.5
        sigma2_b = a / pi + b / (1 - pi) - (a - b) ** 2
        sigma2_a = a * (1 - a) / pi + b * (1 - b) / (1 - pi)
        assert ipw_excess_variance(a, b, pi) == pytest.approx(
            sigma2_b - sigma2_a)
        assert ipw_excess_variance(a, b, pi) == pytest.approx(1.0)

    def test_excess_variance_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.random(2)
            pi = rng.uniform(0.05, 0.95)
            s2b = a / pi + b / (1 - pi) - (a - b) ** 2
            s2a = a * (1 - a) / pi + b * (1 - b) / (1 - pi)
            ex = ipw_excess_variance(a, b, pi)
            assert ex >= -1e-12
            assert ex == pytest.approx(s2b - s2a, abs=1e-12)


class TestSjls:
    def test_dominance_is_exact(self):
        rng = np.random.default_rng(8)
        prop = PropensityModel(mode="constant_known", pi=0.5)
        for _ in range(200):
            n = int(rng.integers(8, 40))
            d = np.zeros(n, dtype=int)
            d[: max(1, n // 2)] = 1
            rng.shuffle(d)
            y = rng.normal(size=n)
            s = Sample(y, d, rng.normal(size=(n, 2)))
            adj = rng.normal(size=n)
            theta_s = sjls_estimate(s, adj, prop)
            est_c = variant_known_propensity(s, adj, adj, prop)
            assert est_c.theta_l >= theta_s - 1e-15

    def test_argmax_at_zero_gives_equality(self):
        # place all adjusted treated mass at/below 0 and control above
        y = np.array([-1.0, -0.5, 1.0, 2.0])
        d = np.array([1, 1, 0, 0])
        s = Sample(y, d, np.zeros((4, 1)))
        prop = PropensityModel(mode="constant_known", pi=0.5)
        theta_s = sjls_estimate(s, np.zeros(4), prop)
        # direct scan with the same weights
        from dtebounds.kernels import delta_profile, profile_extrema
        w = np.full(2, 1.0 / (4 * 0.5))
        sup, _, _, _ = profile_extrema(*delta_profile(y[:2], y[2:], w, w))
        assert theta_s == pytest.approx(sup)

    def test_requires_known_propensity(self):
        s = make_sample(40, seed=9)
        with pytest.raises(Exception):
            sjls_estimate(s, np.zeros(40), PropensityModel())

    def test_report_estimates_can_leave_unit_interval(self):
        rng = np.random.default_rng(10)
        n = 30
        d = np.array([1] * 20 + [0] * 10)
        y = rng.normal(size=n)
        s = Sample(y, d, np.zeros((n, 1)))
        prop = PropensityModel(mode="constant_known", pi=0.5)
        zero = np.zeros(n)
        rep = sjls_report(s, zero, zero, prop)
        # raw estimates unclipped; reported interval endpoints clipped
        assert 0.0 <= rep.lower_onesided <= 1.0
        assert 0.0 <= rep.upper_onesided <= 1.0


class TestGroupVariant:
    def test_single_group_matches_pooled(self):
        s = make_sample(120, seed=11)
        zero = np.zeros(s.n)
        prop = PropensityModel(mode="group", group_of=np.zeros(s.n, dtype=int))
        est_g = variant_group_propensity(s, zero, zero, prop)
        est = estimate_crossfit(s, zero, zero)
        assert est_g.theta_l == pytest.approx(est.theta_l, abs=1e-12)
        assert est_g.sigma2_l == pytest.approx(est.sigma2_l, abs=1e-12)

    def test_duplicated_groups_match_pooled(self):
        rng = np.random.default_rng(12)
        y_half = rng.normal(size=40)
        d_half = np.array([1, 0] * 20)
        y = np.concatenate([y_half, y_half])
        d = np.concatenate([d_half, d_half])
        g = np.array([0] * 40 + [1] * 40)
        s = Sample(y, d, np.zeros((80, 1)))
        zero = np.zeros(80)
        prop = PropensityModel(mode="group", group_of=g)
        est_g = variant_group_propensity(s, zero, zero, prop)
        est = estimate_crossfit(s, zero, zero)
        assert est_g.theta_l == pytest.approx(est.theta_l, abs=1e-12)
        assert est_g.theta_u == pytest.approx(est.theta_u, abs=1e-12)

    def test_variance_display_value(self):
        # two equal-share groups, arm variances 0.25, arm shares 0.5:
        # sigma2 = 2 * 0.25 * (0.25/0.5 + 0.25/0.5) = 0.5
        y = np.array([0.0, 1.0] * 20)       # indicator threshold at 0.5
        d = np.tile([1, 1, 0, 0], 10)
        g = np.array([0] * 20 + [1] * 20)
        s = Sample(y, d, np.zeros((40, 1)))
        zero = np.zeros(40)
        prop = PropensityModel(mode="group", group_of=g)
        est = variant_group_propensity(s, zero, zero, prop)
        # indicators at t=0.5 are Bernoulli(1/2) within every group-arm cell
        z = (s.y <= zero + 0.5)
        for gv in (0, 1):
            for arm in (0, 1):
                cell = (g == gv) & (s.d == arm)
                assert z[cell].mean() == pytest.approx(0.5)
        s2l, _, _, _ = _group_sigma(est)
        assert s2l == pytest.approx(0.5)

    def test_empty_group_arm_errors(self):
        y = np.arange(8.0)
        d = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        g = np.array([0, 0, 0, 0, 1, 1, 1, 1])  # group 0 has no controls
        s = Sample(y, d, np.zeros((8, 1)))
        prop = PropensityModel(mode="group", group_of=g)
        with pytest.raises(Exception):
            variant_group_propensity(s, np.zeros(8), np.zeros(8), prop)


def _group_sigma(est):
    # the estimator stores the group-weighted variances directly
    return est.sigma2_l, est.sigma2_u, est.sigma_lu, None


class TestFoldTVariant:
    def test_absorption_dominance(self):
        # evaluating the absorbed adjusters at t=0 can never exceed the
        # scanned maximum of the same absorbed curves
        rng = np.random.default_rng(13)
        for seed in range(10):
            s = make_sample(100, seed=seed)
            folds = make_folds(s, 4, seed=seed)
            adv = rng.normal(size=s.n)
            ft = variant_fold_t(s, folds, adv, adv)
            # reconstruct absorbed adjusters and scan them
            from dtebounds.kernels import delta_profile, profile_extrema
            s_lo = adv.copy()
            for k in range(1, 5):
                oof = folds.complement(k)
                y_adj = s.y[oof] - adv[oof]
                d_oof = s.d[oof]
                _, tk, _, _ = profile_extrema(
                    *delta_profile(y_adj[d_oof == 1], y_adj[d_oof == 0]))
                s_lo[folds.members(k)] += tk if np.isfinite(tk) else 0.0
            y_abs = s.y - s_lo
            sup, _, _, _ = profile_extrema(
                *delta_profile(y_abs[s.d == 1], y_abs[s.d == 0]))
            assert ft.theta_l <= sup + 1e-12

    def test_validity_on_discrete_population(self):
        rng = np.random.default_rng(14)
        y1_of_x = np.array([1.0, 3.0, 0.0, 2.0])
        y0_of_x = np.array([2.0, 1.0, 1.0, 2.0])
        theta = np.mean(y1_of_x - y0_of_x <= 0)
        cover = 0
        reps = 300
        for _ in range(reps):
            xi = rng.integers(0, 4, size=160)
            d = (rng.random(160) < 0.5).astype(int)
            y = np.where(d == 1, y1_of_x[xi], y0_of_x[xi]).astype(float)
            s = Sample(y, d, xi[:, None].astype(float))
            folds = make_folds(s, 4, seed=int(rng.integers(2**31)))
            adv = rng.normal(size=160)
            ft = variant_fold_t(s, folds, adv, adv)
            rep = one_sided_cis(ft, 0.1, h_rules=())
            cover += (rep.lower_onesided_raw <= theta
                      <= rep.upper_onesided_raw)
        assert cover / reps >= 0.85


def test_flat_maximum_triggers_uniqueness_diagnostic():
    # identical discrete arms: the difference curve is 0 everywhere, so the
    # maximum is attained across the whole support span
    vals = np.array([0.0, 5.0, 10.0] * 8)
    y = np.concatenate([vals, vals])
    d = np.array([1] * 24 + [0] * 24)
    s = Sample(y, d, np.zeros((48, 1)))
    zero = np.zeros(48)
    est = estimate_crossfit(s, zero, zero)
    assert any("near-flat" in m for m in est.diagnostics)
