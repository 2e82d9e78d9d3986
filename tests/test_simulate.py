import numpy as np
import pytest
from scipy.stats import norm

from dtebounds.data import ConfigError
from dtebounds.simulate import (
    DgpSpec,
    McCell,
    draw_dgp,
    oracle_adjuster,
    oracle_theta0,
    run_table,
)


def theta0_closed_form(spec: DgpSpec) -> float:
    """Independent oracle: the effect is shift + S + c*S^2 with S the
    coordinate sum, a Gaussian with variance 1'Sigma 1, so the target
    probability is a difference of two normal CDF values at the roots."""
    var_s = float(np.ones(spec.d) @ spec.sigma() @ np.ones(spec.d))
    c, b, a = spec.quad_scale, 1.0, spec.shift
    disc = b * b - 4 * c * a
    r1 = (-b - np.sqrt(disc)) / (2 * c)
    r2 = (-b + np.sqrt(disc)) / (2 * c)
    sd = np.sqrt(var_s)
    return float(norm.cdf(r2 / sd) - norm.cdf(r1 / sd))


class TestDgp:
    def test_sigma_structure(self):
        spec = DgpSpec()
        sig = spec.sigma()
        assert np.all(np.diag(sig) == 1.0)
        assert sig[0, 5] == 0.0 and sig[5, 0] == 0.0 and sig[0, 1] == 0.0
        assert sig[4, 5] == pytest.approx(spec.ar_coef)
        np.linalg.cholesky(sig)  # positive definite

    def test_beta0_layout(self):
        b = DgpSpec().beta0()
        assert b[0] == 3.0 and b[1] == 1.0
        assert np.all(b[2:14] == 0.0)
        np.testing.assert_allclose(b[14:], 3.0 ** -np.arange(1, 7))

    def test_lead_coordinates_uncorrelated_with_tail(self):
        sample, _ = draw_dgp(DgpSpec(), 100_000, seed=0)
        x = sample.x
        for j in (0, 1):
            r = np.corrcoef(x[:, j], x[:, 2])[0, 1]
            assert abs(r) < 0.02

    def test_treatment_share(self):
        sample, _ = draw_dgp(DgpSpec(), 10_000, seed=1)
        assert abs(sample.n1 / sample.n - 0.5) < 0.02

    def test_mean_effect_matches_trace_formula(self):
        spec = DgpSpec()
        # E[effect] = shift + quad_scale * 1'Sigma 1
        expected = spec.shift + spec.quad_scale * float(
            np.ones(spec.d) @ spec.sigma() @ np.ones(spec.d))
        _, hidden = draw_dgp(spec, 2_000_000, seed=2)
        assert np.mean(hidden.y1 - hidden.y0) == pytest.approx(expected,
                                                               abs=0.02)

    def test_observed_p_slices_covariates(self):
        sample, hidden = draw_dgp(DgpSpec(observed_p=10), 50, seed=3)
        assert sample.p == 10
        np.testing.assert_array_equal(sample.x, hidden.x_full[:, :10])

    def test_cholesky_factor_is_cached_and_read_only(self):
        spec = DgpSpec()
        factor = spec.chol()
        assert DgpSpec().chol() is factor
        assert DgpSpec(ar_coef=0.5).chol() is not factor
        np.testing.assert_array_equal(factor,
                                      np.linalg.cholesky(spec.sigma()))
        with pytest.raises(ValueError):
            factor[0, 0] = 2.0

    def test_draws_match_a_fresh_factor(self):
        # the draws a fresh factor per call gave, byte for byte
        spec = DgpSpec()
        fresh = np.linalg.cholesky(spec.sigma())
        for seed in (0, 7):
            sample, hidden = draw_dgp(spec, 300, seed=seed)
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((300, spec.d)) @ fresh.T
            assert hidden.x_full.tobytes() == x.tobytes()
            y0 = spec.outcome0(x)
            y1 = y0 + spec.effect(x)
            d = (rng.random(300) < spec.treat_prob).astype(np.int64)
            assert sample.y.tobytes() == np.where(d == 1, y1, y0).tobytes()

    def test_consistency_of_observed_outcome(self):
        sample, hidden = draw_dgp(DgpSpec(), 500, seed=4)
        t = sample.d == 1
        np.testing.assert_array_equal(sample.y[t], hidden.y1[t])
        np.testing.assert_array_equal(sample.y[~t], hidden.y0[~t])


class TestOracleTheta0:
    def test_matches_closed_form(self):
        spec = DgpSpec()
        mc = oracle_theta0(spec, reps=2_000_000, seed=5)
        exact = theta0_closed_form(spec)
        assert mc == pytest.approx(exact, abs=4 * 0.5 / np.sqrt(2e6))

    def test_closed_form_near_benchmark(self):
        assert theta0_closed_form(DgpSpec()) == pytest.approx(0.43, abs=0.005)

    def test_degenerate_zero_effect(self):
        spec = DgpSpec(shift=0.0, quad_scale=0.0)
        # effect = S: P(S <= 0) = 1/2... with the linear term removed as well
        # the spec example needs beta_tau = 0; emulate via direct evaluation
        x = np.zeros((10, 20))
        assert np.all(spec.effect(x) == 0.0)

    def test_reps_floor(self):
        with pytest.raises(ConfigError):
            oracle_theta0(DgpSpec(), reps=1000)

    def test_scaling_by_batches_is_exact(self):
        spec = DgpSpec()
        a = oracle_theta0(spec, reps=1_000_000, seed=6, batch=1_000_000)
        b = oracle_theta0(spec, reps=1_000_000, seed=6, batch=250_000)
        assert a == b  # same stream, same draws


class TestOracleAdjusterP20:
    def test_separating_point_when_outcomes_differ(self):
        spec = DgpSpec()
        _, hidden = draw_dgp(spec, 200, seed=7)
        s_lo, s_hi = oracle_adjuster(spec, hidden.x_full)
        e = hidden.y1 - hidden.y0
        harmed = e < 0
        mid = 0.5 * (hidden.y0 + hidden.y1)
        np.testing.assert_allclose(s_lo[harmed], mid[harmed])
        np.testing.assert_allclose(s_hi[~harmed], mid[~harmed])

    def test_population_bounds_collapse_to_theta(self):
        # with the sharp adjusters the scanned bounds pinch the target
        from dtebounds.kernels import delta_profile, profile_extrema

        spec = DgpSpec()
        sample, hidden = draw_dgp(spec, 60_000, seed=8)
        s_lo, s_hi = oracle_adjuster(spec, hidden.x_full)
        theta = np.mean(hidden.y1 - hidden.y0 <= 0)
        t = sample.d == 1
        y_lo = sample.y - s_lo
        sup, _, _, _ = profile_extrema(*delta_profile(y_lo[t], y_lo[~t]))
        y_hi = sample.y - s_hi
        _, _, inf, _ = profile_extrema(*delta_profile(y_hi[t], y_hi[~t]))
        assert sup == pytest.approx(theta, abs=0.02)
        assert 1 + inf == pytest.approx(theta, abs=0.02)


class TestOracleAdjusterP10:
    def test_inner_reps_floor(self):
        spec = DgpSpec(observed_p=10)
        with pytest.raises(ConfigError):
            oracle_adjuster(spec, np.zeros((3, 10)), inner_reps=10)

    def test_dominance_over_no_covariates(self):
        # population-scale check that the fitted-from-truth adjuster yields a
        # larger lower bound than the zero adjuster
        from dtebounds.kernels import delta_profile, profile_extrema

        spec = DgpSpec(observed_p=10)
        sample, hidden = draw_dgp(spec, 20_000, seed=9)
        s_lo, s_hi = oracle_adjuster(spec, sample.x, inner_reps=400, seed=10)
        t = sample.d == 1
        y_adj = sample.y - s_lo
        sup_adj, _, _, _ = profile_extrema(*delta_profile(y_adj[t], y_adj[~t]))
        sup_raw, _, _, _ = profile_extrema(
            *delta_profile(sample.y[t], sample.y[~t]))
        assert sup_adj > sup_raw

    def test_draws_do_not_depend_on_the_block_cut(self, monkeypatch):
        # one block for all rows against one block per row
        import dtebounds.simulate as sim

        spec = DgpSpec(observed_p=10)
        sample, _ = draw_dgp(spec, 30, seed=2)
        whole = oracle_adjuster(spec, sample.x, inner_reps=100, seed=3)
        monkeypatch.setattr(sim, "_ORACLE_BLOCK_VALUES", 1)
        per_row = oracle_adjuster(spec, sample.x, inner_reps=100, seed=3)
        assert whole[0].tobytes() == per_row[0].tobytes()
        assert whole[1].tobytes() == per_row[1].tobytes()


class TestRunTable:
    def test_small_run_rates_are_multiples(self):
        spec = DgpSpec()
        rep = run_table(spec, [McCell(200, 20, "none", "cross-fit")],
                        replications=10, seed=3, theta0=0.428)
        row = rep.rows[0]
        assert row["replications"] == 10
        assert (row["reject_zero"] * 10) == pytest.approx(
            round(row["reject_zero"] * 10))

    def test_deterministic_given_seed(self):
        spec = DgpSpec()
        cells = [McCell(150, 20, "none", "cross-fit"),
                 McCell(150, 20, "none", "sjls")]
        a = run_table(spec, cells, replications=5, seed=4, theta0=0.428)
        b = run_table(spec, cells, replications=5, seed=4, theta0=0.428)
        assert a.to_csv() == b.to_csv()

    def test_failures_recorded_not_fatal(self):
        spec = DgpSpec()
        # k=5 folds cannot be formed reliably at n=8 with p_treat=0.5:
        # failing replications are counted, the run completes
        rep = run_table(spec, [McCell(8, 20, "none", "cross-fit")],
                        replications=6, seed=5, theta0=0.428)
        row = rep.rows[0]
        assert row["failures"] + row["replications"] == 6
        assert (row["replications"], row["failures"]) == (0, 6)
        # no completed replication: no rate, rather than a fabricated 0.0
        for key in ("reject_zero", "reject_theta0", "avg_length"):
            assert np.isnan(row[key])

    def test_programming_errors_propagate(self, monkeypatch):
        import dtebounds.crossfit as cf

        def broken(*args, **kwargs):
            raise TypeError("bug in an estimator")

        monkeypatch.setattr(cf, "estimate_crossfit", broken)
        with pytest.raises(TypeError, match="bug in an estimator"):
            run_table(DgpSpec(), [McCell(100, 20, "none", "cross-fit")],
                      replications=2, seed=5, theta0=0.428)

    def test_learner_programming_errors_propagate(self, monkeypatch):
        from dtebounds import condcdf

        def broken(*args, **kwargs):
            raise TypeError("bug in a learner")

        monkeypatch.setattr(condcdf, "fit_arm_model", broken)
        with pytest.raises(TypeError, match="bug in a learner"):
            run_table(DgpSpec(), [McCell(100, 20, "knn_loc_shift:k=10",
                                         "cross-fit")],
                      replications=3, seed=5, theta0=0.428)

    @pytest.mark.parametrize("cell", [
        McCell(100, 20, "none", "crossfit"),
        McCell(100, 20, "knn_loc_shif:k=5", "cross-fit"),
        McCell(100, 20, "none", "cross-fit-group"),
        McCell(100, 15, "none", "cross-fit"),
        McCell(100, 20, "knn_loc_shift:K=3", "cross-fit"),
        McCell(100, 20, "knn_quantile:k=5,k=7", "cross-fit"),
    ])
    def test_bad_cell_rejected_before_any_replication(self, monkeypatch,
                                                      cell):
        import dtebounds.simulate as sim

        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran")

        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(sim, "draw_dgp", no_replication)
        monkeypatch.setattr(sim, "oracle_theta0", no_oracle)
        with pytest.raises(ConfigError, match=cell.label()):
            run_table(DgpSpec(), [McCell(100, 20, "none", "cross-fit"), cell],
                      replications=2, seed=5)

    def test_csv_shape(self):
        spec = DgpSpec()
        cells = [McCell(n, p, m, e)
                 for n in (100,) for p in (20,)
                 for m in ("none",) for e in ("cross-fit", "sample-split")]
        rep = run_table(spec, cells, replications=3, seed=6, theta0=0.428)
        lines = rep.to_csv().strip().splitlines()
        assert len(lines) == 1 + len(cells)
        assert lines[0].startswith("n,p,model,estimator")


@pytest.fixture(scope="module")
def table():
    spec = DgpSpec()
    cells = [
        McCell(500, 20, "none", "cross-fit"),
        McCell(500, 20, "none", "sample-split"),
        McCell(500, 20, "none", "sjls"),
        McCell(500, 20, "oracle", "cross-fit"),
    ]
    rep = run_table(spec, cells, replications=120, seed=7,
                    theta0_reps=1_000_000)
    return {(r["model"], r["estimator"]): r for r in rep.rows}


class TestTablePatterns:
    """Directional invariants of the power table at reduced replication
    counts (full-scale values live in the acceptance suite)."""

    def test_sample_split_rejects_less_than_crossfit(self, table):
        assert (table[("none", "sample-split")]["reject_zero"]
                <= table[("none", "cross-fit")]["reject_zero"])

    def test_sjls_interval_no_shorter_than_crossfit(self, table):
        assert (table[("none", "sjls")]["avg_length"]
                >= table[("none", "cross-fit")]["avg_length"] - 0.01)

    def test_oracle_beats_no_covariates_in_power(self, table):
        assert (table[("oracle", "cross-fit")]["reject_zero"]
                >= table[("none", "cross-fit")]["reject_zero"])

    def test_size_bounded_by_nominal_plus_noise(self, table):
        mc_se = np.sqrt(0.05 * 0.95 / 120)
        for row in table.values():
            assert row["reject_theta0"] <= 0.05 + 3 * mc_se


def test_convergence_shrinkage_with_sharp_adjusters():
    # root-n convergence: the lower-bound error at n=8000 shrinks by about
    # the theoretical factor 1/4 relative to n=500, and wins most pairs.
    # (A pairwise win rate of 90% is unattainable at this sample ratio: for
    # independent normal errors it equals (2/pi)*arctan(4) ~ 0.844.)
    spec = DgpSpec()
    theta0 = theta0_closed_form(spec)
    rng = np.random.default_rng(11)
    from dtebounds.crossfit import estimate
    from dtebounds.simulate import _sharp_point_adjusters

    wins = 0
    errs = {500: [], 8000: []}
    pairs = 40
    for _ in range(pairs):
        pair = {}
        for n in (500, 8000):
            sample, hidden = draw_dgp(spec, n, rng=rng)
            adj = _sharp_point_adjusters(hidden.y0, hidden.y1)
            est = estimate(sample, "cross-fit", [],
                           seed=int(rng.integers(2**31)), adjusters=adj,
                           h_rules=()).estimate
            pair[n] = abs(est.theta_l - theta0)
            errs[n].append(pair[n])
        wins += pair[8000] < pair[500]
    assert wins / pairs >= 0.75
    assert np.mean(errs[8000]) < 0.4 * np.mean(errs[500])


def test_conditional_tail_factor_matches_joint_law():
    # drawing the unobserved block from its conditional Gaussian must
    # reproduce the full covariance of the design
    from dtebounds.simulate import _conditional_tail_factor

    spec = DgpSpec(observed_p=10)
    gain, chol_cond = _conditional_tail_factor(spec)
    rng = np.random.default_rng(22)
    n = 400_000
    x_obs = rng.standard_normal((n, spec.d)) @ spec.chol().T
    obs = x_obs[:, :10]
    tail = obs @ gain.T + rng.standard_normal((n, 10)) @ chol_cond.T
    full = np.concatenate([obs, tail], axis=1)
    emp = np.cov(full, rowvar=False)
    np.testing.assert_allclose(emp, spec.sigma(), atol=0.02)
