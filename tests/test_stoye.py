import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from dtebounds.data import ConfigError
from dtebounds.reports import BoundsEstimate
from dtebounds.stoye import (
    CL_MAX,
    _cl_required,
    _constraint1,
    _constraint2,
    h_threshold,
    solve_critical_values,
    stoye_ci,
)

Z_A = float(norm.ppf(0.95))
Z_HALF = float(norm.ppf(0.975))


def gk_constraint1(c_l, c_u, rho, lam_u):
    w = np.sqrt(1 - rho**2)
    val, _ = quad(lambda z: norm.pdf(z) * norm.cdf((c_u + lam_u - rho * z) / w),
                  -c_l, 8.0, epsabs=1e-12, limit=300)
    return val


def gk_constraint2(c_l, c_u, rho, lam_l):
    w = np.sqrt(1 - rho**2)
    val, _ = quad(lambda z: norm.pdf(z) * norm.cdf((rho * z + c_l + lam_l) / w),
                  -8.0, c_u, epsabs=1e-12, limit=300)
    return val


def test_constraints_match_adaptive_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(40):
        c_l, c_u = rng.uniform(0.3, 3.0, size=2)
        rho = rng.uniform(-0.95, 0.95)
        lam = rng.uniform(0.0, 4.0)
        assert _constraint1(c_l, c_u, rho, lam) == pytest.approx(
            gk_constraint1(c_l, c_u, rho, lam), abs=1e-9)
        assert _constraint2(c_l, c_u, rho, lam) == pytest.approx(
            gk_constraint2(c_l, c_u, rho, lam), abs=1e-9)


def test_constraints_monte_carlo_oracle():
    # independent check of the event probabilities by direct simulation
    rng = np.random.default_rng(1)
    z1 = rng.standard_normal(400_000)
    z2 = rng.standard_normal(400_000)
    for rho, lam, c_l, c_u in [(0.5, 0.7, 1.8, 1.7), (-0.4, 0.0, 2.0, 2.0)]:
        w = np.sqrt(1 - rho**2)
        p1 = np.mean((-c_l <= z1) & (rho * z1 <= c_u + lam + z2 * w))
        p2 = np.mean((z2 * w - c_l - lam <= rho * z1) & (z1 <= c_u))
        assert _constraint1(c_l, c_u, rho, lam) == pytest.approx(p1, abs=3e-3)
        assert _constraint2(c_l, c_u, rho, lam) == pytest.approx(p2, abs=3e-3)


def test_decoupled_limit_reaches_z_alpha():
    for rho in (-0.5, 0.0, 0.7):
        c_l, c_u = solve_critical_values(0.05, rho, 1e3, 1e3, 1.0, 1.0)
        assert c_l == pytest.approx(Z_A, abs=1e-4)
        assert c_u == pytest.approx(Z_A, abs=1e-4)


def test_degenerate_two_sided_limit():
    c_l, c_u = solve_critical_values(0.05, 1.0, 0.0, 0.0, 1.0, 1.0)
    assert c_l == pytest.approx(Z_HALF, abs=1e-4)
    assert c_u == pytest.approx(Z_HALF, abs=1e-4)


def test_critical_values_within_band():
    rng = np.random.default_rng(2)
    for _ in range(15):
        rho = rng.uniform(-0.9, 0.9)
        lam = rng.uniform(0.0, 3.0)
        sl, su = rng.uniform(0.4, 1.5, size=2)
        c_l, c_u = solve_critical_values(0.05, rho, lam / sl, lam / su, sl, su)
        assert Z_A - 1e-6 <= c_l <= Z_HALF + 1e-6
        assert Z_A - 1e-6 <= c_u <= Z_HALF + 1e-6


def test_solution_satisfies_constraints():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = rng.uniform(-0.9, 0.9)
        lam_l, lam_u = rng.uniform(0.0, 2.0, size=2)
        sl, su = rng.uniform(0.4, 1.5, size=2)
        c_l, c_u = solve_critical_values(0.05, rho, lam_l, lam_u, sl, su)
        assert _constraint1(c_l, c_u, rho, lam_u) >= 0.95 - 1e-6
        assert _constraint2(c_l, c_u, rho, lam_l) >= 0.95 - 1e-6


def test_h_threshold_rules():
    n = 2000
    assert h_threshold(n, "stoye") == pytest.approx(
        np.sqrt(np.log(np.log(n)) / n))
    assert h_threshold(n, "logn") == pytest.approx(np.sqrt(np.log(n) / n))
    assert h_threshold(n, "qloglog") == pytest.approx(
        np.sqrt(2 * np.log(np.log(n)) / n))
    with pytest.raises(ConfigError):
        h_threshold(n, "nope")


def make_est(theta_l, theta_u, s2l=0.64, s2u=0.64, slu=0.2, n=1000):
    return BoundsEstimate(theta_l=theta_l, theta_u=theta_u, t_l=0.0, t_u=0.0,
                          sigma2_l=s2l, sigma2_u=s2u, sigma_lu=slu,
                          pi_hat=0.5, n=n)


class TestStoyeCi:
    def test_lambda_threshold_rule(self):
        # gap 0.3 with h_n ~ 0.029: Lambda = 0.3; gap 0.02 -> Lambda = 0
        est = make_est(0.3, 0.6)
        si = stoye_ci(est, 0.05, 1000)
        assert si.lam == pytest.approx(0.3)
        est = make_est(0.3, 0.32)
        si = stoye_ci(est, 0.05, 1000)
        assert si.lam == 0.0

    def test_interval_nested_in_half_alpha_union(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            tl = rng.uniform(0.05, 0.5)
            tu = tl + rng.uniform(0.0, 0.5)
            s2l, s2u = rng.uniform(0.2, 1.0, size=2)
            r = rng.uniform(-0.9, 0.9)
            slu = r * np.sqrt(s2l * s2u)
            est = make_est(tl, tu, s2l, s2u, slu, n=800)
            si = stoye_ci(est, 0.05, 800)
            bon_lo = tl - Z_HALF * np.sqrt(s2l / 800)
            bon_hi = tu + Z_HALF * np.sqrt(s2u / 800)
            assert si.lo >= bon_lo - 1e-9
            assert si.hi <= bon_hi + 1e-9

    def test_wide_gap_narrower_than_half_alpha(self):
        est = make_est(0.2, 0.8)
        si = stoye_ci(est, 0.05, 2000)
        assert si.c_l < Z_HALF - 1e-3
        assert si.c_l >= Z_A - 1e-6

    def test_indefinite_variance_triple_is_config_error(self):
        # |sigma_lu| > sigma_l * sigma_u: correlation 0.2 / 0.16 = 1.25
        est = make_est(0.3, 0.6, s2l=0.16, s2u=0.16, slu=0.2)
        with pytest.raises(ConfigError, match="positive semidefinite"):
            stoye_ci(est, 0.05, 1000)

    def test_degenerate_variance_falls_back(self):
        est = make_est(0.4, 0.4, s2l=0.0, s2u=0.25, slu=0.0)
        si = stoye_ci(est, 0.05, 500)
        assert si.c_l == pytest.approx(Z_HALF)

    def test_coverage_on_simulated_normal_pairs(self):
        # bivariate-normal estimates around true bounds: the interval covers
        # every point of [lo, hi] with frequency >= 1 - alpha
        rng = np.random.default_rng(5)
        n = 900
        sl = su = 0.8
        rho = 0.6
        true_l, true_u = 0.40, 0.47
        cover_l = cover_u = 0
        reps = 250
        for _ in range(reps):
            e1 = rng.standard_normal()
            e2 = rho * e1 + np.sqrt(1 - rho**2) * rng.standard_normal()
            tl = true_l + sl * e1 / np.sqrt(n)
            tu = true_u + su * e2 / np.sqrt(n)
            est = make_est(tl, tu, sl**2, su**2, rho * sl * su, n=n)
            si = stoye_ci(est, 0.1, n)
            cover_l += si.lo <= true_l and true_l <= si.hi
            cover_u += si.lo <= true_u and true_u <= si.hi
        assert cover_l / reps >= 0.86
        assert cover_u / reps >= 0.86




EDGE_RHOS = [v for r in (1.0, 1.0 - 1e-12, 0.999999, 0.999, 0.9, 0.0)
             for v in (r, -r)]
LAMBDAS = st.one_of(
    st.sampled_from([0.0, 1e-8, 1e3]),
    st.floats(0.0, 1.0, exclude_max=True).map(lambda u: -math.log1p(-u)))
# the constraints are nondecreasing in c_l up to this rounding (2 ulps of 1)
MONOTONE_SLACK = 4.4e-16
Z_MAX = 10.0


def _pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _integrate(f, lo, hi, kink):
    points = [kink] if lo < kink < hi else None
    return quad(f, lo, hi, points=points, epsabs=1e-14, epsrel=0.0,
                limit=500)[0]


# Adaptive-quadrature oracles for the constraints. Each conditions on the
# normal whose coefficient is the larger of |rho| and w = sqrt(1 - rho^2),
# so the remaining conditional probability never steepens beyond unit scale.
def quad_constraint1(c_l, c_u, rho, lam_u):
    w = math.sqrt(1.0 - rho * rho)
    a = c_u + lam_u
    if abs(rho) <= w:
        return _integrate(lambda z: _pdf(z) * ndtr((a - rho * z) / w),
                          -c_l, Z_MAX, a / rho if rho else Z_MAX)

    def given_z2(z):  # Z1 lies in an interval with end t
        t = (a + w * z) / rho
        if rho > 0:
            return max(0.0, ndtr(t) - ndtr(-c_l))
        return ndtr(min(c_l, -t))

    return _integrate(lambda z: _pdf(z) * given_z2(z), -Z_MAX, Z_MAX,
                      -(a + rho * c_l) / w)


def quad_constraint2(c_l, c_u, rho, lam_l):
    w = math.sqrt(1.0 - rho * rho)
    k = c_l + lam_l
    if abs(rho) <= w:
        return _integrate(lambda z: _pdf(z) * ndtr((rho * z + k) / w),
                          -Z_MAX, c_u, -k / rho if rho else Z_MAX)

    def given_z2(z):
        t = (w * z - k) / rho
        if rho > 0:
            return max(0.0, ndtr(c_u) - ndtr(t))
        return ndtr(min(c_u, t))

    return _integrate(lambda z: _pdf(z) * given_z2(z), -Z_MAX, Z_MAX,
                      (rho * c_u + k) / w)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(c_l=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
       c_u=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
       rho=st.one_of(st.sampled_from([r for r in EDGE_RHOS if abs(r) <= 0.999]),
                     st.floats(-0.999, 0.999)),
       lam=LAMBDAS)
@example(0.0, 0.0, 0.5, 0.0)  # h = k = 0 in both constraints
@example(0.0, 1.3, -0.4, 0.0)  # h = 0 in the first, k = 0 in the second
def test_closed_form_matches_quadrature(c_l, c_u, rho, lam):
    assert abs(_constraint1(c_l, c_u, rho, lam)
               - quad_constraint1(c_l, c_u, rho, lam)) <= 1e-13
    assert abs(_constraint2(c_l, c_u, rho, lam)
               - quad_constraint2(c_l, c_u, rho, lam)) <= 1e-13


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rho=st.sampled_from([0.9, 0.99, 0.999, -0.999]),
       c_u=st.floats(0.0, 4.0), lam=LAMBDAS)
def test_constraints_nondecreasing_in_cl(rho, c_u, lam):
    sweep = np.linspace(0.0, CL_MAX, 2001)
    for fn in (_constraint1, _constraint2):
        vals = np.array([fn(c, c_u, rho, lam) for c in sweep])
        assert np.diff(vals).min() >= -MONOTONE_SLACK


def test_near_perfect_correlation_meets_the_limit():
    # away from the kinks of the rho = +-1 limits (c_l = c_u + lambda and
    # c_u = c_l + lambda), the constraints are continuous in rho there
    for sign in (1.0, -1.0):
        for c_l in (0.3, 1.1, 2.5):
            for c_u in (0.5, 1.96):
                for lam in (0.0, 0.7, 4.0):
                    for fn in (_constraint1, _constraint2):
                        near = fn(c_l, c_u, sign * (1.0 - 1e-12), lam)
                        assert near == pytest.approx(
                            fn(c_l, c_u, sign, lam), abs=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=st.floats(1e-4, 0.5, exclude_max=True),
       c_u=st.floats(0.0, 4.0),
       rho=st.one_of(st.sampled_from(EDGE_RHOS), st.floats(-1.0, 1.0)),
       lam=LAMBDAS)
def test_cl_rule_returns_a_feasible_near_least_point(alpha, c_u, rho, lam):
    target = 1.0 - alpha
    for con in (_constraint1, _constraint2):
        def fn(c):
            return con(c, c_u, rho, lam)

        c = _cl_required(fn, target)
        if c is None:
            assert fn(CL_MAX) < target
            continue
        assert fn(c) >= target
        if c > 0.0:
            assert fn(max(0.0, c - 1e-9)) < target + MONOTONE_SLACK


@settings(max_examples=80, deadline=None, derandomize=True)
@given(alpha=st.floats(1e-4, 0.5, exclude_max=True),
       rho=st.one_of(st.sampled_from(EDGE_RHOS), st.floats(-1.0, 1.0)),
       lam_l=LAMBDAS, lam_u=LAMBDAS,
       sigma_l=st.floats(-4.0, 2.0).map(math.exp),
       sigma_u=st.floats(-4.0, 2.0).map(math.exp))
def test_solution_meets_both_constraints(alpha, rho, lam_l, lam_u, sigma_l,
                                         sigma_u):
    c_l, c_u = solve_critical_values(alpha, rho, lam_l, lam_u, sigma_l,
                                     sigma_u)
    # a pair clipped to z_half is not the search's optimum and need not be
    # feasible; the c_l rule makes the larger of the two roots feasible for
    # its own constraint, and the other one to its rounding
    if max(c_l, c_u) < norm.ppf(1.0 - alpha / 2.0):
        target = 1.0 - alpha - MONOTONE_SLACK
        assert _constraint1(c_l, c_u, rho, lam_u) >= target
        assert _constraint2(c_l, c_u, rho, lam_l) >= target


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=20, deadline=None, derandomize=True)
@given(alpha=st.sampled_from([0.05, 0.1]),
       rho=st.sampled_from([0.999, 0.999999]),
       sigma_l=st.floats(0.4, 1.5), sigma_u=st.floats(0.4, 1.5))
@example(0.05, 0.999, 1.0, 1.0)
@example(0.05, 0.999999, 1.0, 1.0)
def test_solution_covers_near_perfect_correlation(alpha, rho, sigma_l,
                                                  sigma_u):
    c_l, c_u = solve_critical_values(alpha, rho, 0.5, 0.5, sigma_l, sigma_u)
    assert quad_constraint1(c_l, c_u, rho, 0.5) >= 1.0 - alpha - 1e-8
    assert quad_constraint2(c_l, c_u, rho, 0.5) >= 1.0 - alpha - 1e-8
