import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from dtebounds import stoye
from dtebounds.data import ConfigError
from dtebounds.reports import BoundsEstimate
from dtebounds.stoye import (
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
    assert h_threshold(n, "qloglog", q_factor=3.0) > h_threshold(n, "qloglog")
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


# The solver as it was before the bisection replay, kept as the oracle for
# bit identity. It reaches the constraints through the module, so a counting
# wrapper monkeypatched there sees both solvers' calls.
def reference_bisect_cl(fn, target, lo=0.0, hi=12.0):
    if fn(hi) < target:
        return None
    if fn(lo) >= target:
        return lo
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo < stoye.BISECT_TOL:
            break
    return hi


def reference_solve(alpha, rho, lam_l, lam_u, sigma_l, sigma_u):
    if not 0.0 < alpha < 0.5:
        raise ConfigError("alpha must lie in (0, 0.5) for two-sided intervals")
    target = 1.0 - alpha
    z_a = float(norm.ppf(1 - alpha))
    z_half = float(norm.ppf(1 - alpha / 2))
    rho = float(np.clip(rho, -1.0, 1.0))

    def cl_required(c_u):
        c1 = reference_bisect_cl(
            lambda c: stoye._constraint1(c, c_u, rho, lam_u), target)
        c2 = reference_bisect_cl(
            lambda c: stoye._constraint2(c, c_u, rho, lam_l), target)
        if c1 is None or c2 is None:
            return None
        return max(c1, c2)

    best = {"obj": float("inf"), "c_l": None, "c_u": None}

    def objective(c_u):
        req = cl_required(c_u)
        if req is None:
            return float("inf")
        obj = sigma_l * req + sigma_u * c_u
        if obj < best["obj"]:
            best.update(obj=obj, c_l=req, c_u=c_u)
        return obj

    lo, hi = max(0.0, z_a - 1e-6), z_half + 1e-6
    grid = np.linspace(lo, hi, 21)
    vals = [objective(c) for c in grid]
    j = int(np.argmin(vals))
    a = grid[max(0, j - 1)]
    b = grid[min(len(grid) - 1, j + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    it = 0
    while b - a > stoye.GOLDEN_TOL and it < 400:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = objective(x2)
        it += 1
    objective(0.5 * (a + b))
    if best["c_l"] is None:
        raise stoye.EstimationFailure(
            f"critical-value search failed: no feasible point found for "
            f"rho={rho:.4f}, lam=({lam_l:.3g},{lam_u:.3g})")
    return (float(np.clip(best["c_l"], 0.0, z_half)),
            float(np.clip(best["c_u"], 0.0, z_half)))


def outcome(solver, *args):
    """Bytes of the solution, or the type and message of the exception."""
    try:
        return np.array(solver(*args)).tobytes()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


EDGE_RHOS = [v for r in (1.0, 1.0 - 1e-12, 0.999, 0.9,
                         math.nextafter(0.9, 0.0), math.nextafter(0.9, 1.0))
             for v in (r, -r)]
LAMBDAS = st.one_of(
    st.sampled_from([0.0, 1e-8, 1e3]),
    st.floats(0.0, 1.0, exclude_max=True).map(lambda u: -math.log1p(-u)))


class TestReplayedBisection:
    """solve_critical_values replays the bisection from a verified root;
    its critical values equal the plain bisection's bit for bit."""

    # alpha near 0 sends norm.ppf to inf; both solvers warn the same way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           rho=st.one_of(st.sampled_from(EDGE_RHOS), st.floats(-1.0, 1.0)),
           lam_l=LAMBDAS, lam_u=LAMBDAS,
           sigma_l=st.floats(-4.0, 2.0).map(math.exp),
           sigma_u=st.floats(-4.0, 2.0).map(math.exp))
    @example(0.05, -0.999999999999, 0.0, 1e-08, 0.03574660230810845,
             0.23455569018718017)
    @example(1e-10, -0.9, 0.0, 0.0, math.exp(-1.0), 1.0)
    @example(0.05, -0.9970310927950041, 0.0, 0.0, 2.264510432340993,
             5.759645567646943)
    @example(0.05, 0.25, 50.0, 50.0, 0.45, 0.45)
    def test_matches_plain_bisection(self, alpha, rho, lam_l, lam_u,
                                     sigma_l, sigma_u):
        args = (alpha, rho, lam_l, lam_u, sigma_l, sigma_u)
        assert outcome(solve_critical_values, *args) == outcome(
            reference_solve, *args)

    def test_failed_bracket_falls_back(self, monkeypatch):
        # a root off the crossing fails the bracket check: every replay must
        # run the plain bisection once and still give the same bits
        replay_cl, bisect_cl = stoye._replay_cl, stoye._bisect_cl
        calls = {"replay": 0, "bisect": 0}

        def replay(fn, target, guess):
            calls["replay"] += 1
            before = calls["bisect"]
            c = replay_cl(fn, target, guess)
            assert calls["bisect"] == before + 1
            return c

        def bisect(fn, target):
            calls["bisect"] += 1
            return bisect_cl(fn, target)

        monkeypatch.setattr(stoye, "_secant_root", lambda g, x0, x1: 0.5)
        monkeypatch.setattr(stoye, "_replay_cl", replay)
        monkeypatch.setattr(stoye, "_bisect_cl", bisect)
        args = (0.05, 0.25, 3.0, 2.0, 0.5, 0.6)
        assert outcome(solve_critical_values, *args) == outcome(
            reference_solve, *args)
        assert calls["replay"] > 40

    def test_calls_fewer_constraints(self, monkeypatch):
        calls = [0]

        def counting(fn):
            def wrapped(*a):
                calls[0] += 1
                return fn(*a)
            return wrapped

        monkeypatch.setattr(stoye, "_constraint1",
                            counting(stoye._constraint1))
        monkeypatch.setattr(stoye, "_constraint2",
                            counting(stoye._constraint2))
        # a delta-sweep unit's input: rho 0.25, lambda about 50
        args = (0.05, 0.25, 50.3, 49.1, 0.44, 0.45)
        solve_critical_values(*args)
        replayed = calls[0]
        calls[0] = 0
        reference_solve(*args)
        assert replayed <= 0.4 * calls[0]
