"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with `pytest tests/test_acceptance.py -s`).

Three sub-criteria are expected to fail and are left red on purpose; the
repository notes explain why the benchmark values these assert cannot be
reproduced under any tested reading of the simulation design. Everything
else must pass.
"""
import math

import numpy as np
import pytest
from scipy.stats import norm

from dtebounds.crossfit import variance_hat, variant_known_propensity
from dtebounds.data import Adjuster, PropensityModel, Sample
from dtebounds.kernels import scan_extrema
from dtebounds.reports import BoundsEstimate
from dtebounds.simulate import DgpSpec, McCell, draw_dgp, oracle_theta0, run_table
from dtebounds.splitfit import estimate_split, make_split
from dtebounds.stoye import solve_critical_values, stoye_ci

Z_A = float(norm.ppf(0.95))
Z_HALF = float(norm.ppf(0.975))


def _line(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -------------------------------------------------------------------- C1 --

def test_c1_oracle_theta0():
    got = oracle_theta0(DgpSpec(), reps=10_000_000, seed=101)
    ok = _line("C1 target probability", abs(got - 0.43) <= 0.005,
               f"brute force 1e7 reps gives {got:.4f}, want 0.43 +- 0.005")
    assert ok


# -------------------------------------------------------------------- C2 --

@pytest.fixture(scope="module")
def table_cells():
    spec = DgpSpec()
    cells = [
        McCell(500, 20, "none", "cross-fit"),
        McCell(2000, 20, "none", "cross-fit"),
        McCell(500, 20, "none", "sample-split"),
        McCell(500, 20, "none", "sjls"),
        McCell(500, 20, "oracle", "cross-fit"),
        McCell(2000, 20, "oracle", "cross-fit"),
    ]
    rep = run_table(spec, cells, replications=1000, seed=2024,
                    theta0_reps=4_000_000)
    rows = {(r["n"], r["model"], r["estimator"]): r for r in rep.rows}
    rows["theta0"] = rep.theta0
    return rows


def test_c2_crossfit_n500_reject_rate(table_cells):
    """Documented failure: see notes. No tested reading of the simulation
    design reproduces the benchmark rejection rates; the population lower
    bound of the unadjusted curve is too small for them."""
    r = table_cells[(500, "none", "cross-fit")]["reject_zero"]
    assert _line("C2 cross-fit n=500 reject-zero", abs(r - 0.722) <= 0.05,
                 f"rate {r:.3f}, want 0.722 +- 0.05")


def test_c2_crossfit_n500_length(table_cells):
    ln = table_cells[(500, "none", "cross-fit")]["avg_length"]
    assert _line("C2 cross-fit n=500 length", abs(ln - 0.802) <= 0.02,
                 f"length {ln:.3f}, want 0.802 +- 0.02")


def test_c2_crossfit_n2000_reject_rate(table_cells):
    """Documented failure: same cause as the n=500 rate."""
    r = table_cells[(2000, "none", "cross-fit")]["reject_zero"]
    assert _line("C2 cross-fit n=2000 reject-zero", abs(r - 0.983) <= 0.02,
                 f"rate {r:.3f}, want 0.983 +- 0.02")


def test_c2_crossfit_n2000_length(table_cells):
    ln = table_cells[(2000, "none", "cross-fit")]["avg_length"]
    assert _line("C2 cross-fit n=2000 length", abs(ln - 0.776) <= 0.02,
                 f"length {ln:.3f}, want 0.776 +- 0.02")


def test_c2_sample_split_rate(table_cells):
    r = table_cells[(500, "none", "sample-split")]["reject_zero"]
    assert _line("C2 sample-split n=500 reject-zero", r <= 0.01,
                 f"rate {r:.3f}, want <= 0.01")


def test_c2_sample_split_length(table_cells):
    """Documented failure: the distribution-free interval is slightly less
    often clipped at 1 than the benchmark implies (see notes)."""
    ln = table_cells[(500, "none", "sample-split")]["avg_length"]
    assert _line("C2 sample-split n=500 length", abs(ln - 0.998) <= 0.01,
                 f"length {ln:.3f}, want 0.998 +- 0.01")


def test_c2_sjls_rate(table_cells):
    r = table_cells[(500, "none", "sjls")]["reject_zero"]
    assert _line("C2 sjls n=500 reject-zero", r <= 0.01,
                 f"rate {r:.3f}, want <= 0.01")


def test_c2_sjls_length(table_cells):
    """Documented near-miss failure: the t=0 comparison interval averages a
    few thousandths below the benchmark (see notes)."""
    ln = table_cells[(500, "none", "sjls")]["avg_length"]
    assert _line("C2 sjls n=500 length", abs(ln - 1.000) <= 0.005,
                 f"length {ln:.3f}, want 1.000 +- 0.005")


# -------------------------------------------------------------------- C3 --

def test_c3_oracle_n500(table_cells):
    r = table_cells[(500, "oracle", "cross-fit")]
    ok_size = abs(r["reject_theta0"] - 0.051) <= 0.03
    ok_len = abs(r["avg_length"] - 0.103) <= 0.02
    assert _line("C3 oracle n=500 size",
                 ok_size, f"size {r['reject_theta0']:.3f}, want 0.051 +- 0.03")
    assert _line("C3 oracle n=500 length",
                 ok_len, f"length {r['avg_length']:.3f}, want 0.103 +- 0.02")
    assert ok_size and ok_len


def test_c3_oracle_n2000(table_cells):
    r = table_cells[(2000, "oracle", "cross-fit")]
    ok_size = abs(r["reject_theta0"] - 0.049) <= 0.03
    ok_len = abs(r["avg_length"] - 0.052) <= 0.01
    assert _line("C3 oracle n=2000 size",
                 ok_size, f"size {r['reject_theta0']:.3f}, want 0.049 +- 0.03")
    assert _line("C3 oracle n=2000 length",
                 ok_len, f"length {r['avg_length']:.3f}, want 0.052 +- 0.01")
    assert ok_size and ok_len


# -------------------------------------------------------------------- C4 --

def _discrete_design():
    """Finite design with exactly enumerable target probability."""
    # per covariate level: supports and probabilities of each potential
    # outcome; within level, potential outcomes are drawn independently
    y1_support = np.array([[0.0, 2.0], [1.0, 3.0], [-1.0, 1.0], [0.0, 4.0]])
    y1_prob = np.array([[0.5, 0.5], [0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
    y0_support = np.array([[1.0, 2.0], [0.0, 2.0], [0.0, 1.0], [2.0, 3.0]])
    y0_prob = np.array([[0.4, 0.6], [0.5, 0.5], [0.2, 0.8], [0.7, 0.3]])
    theta = 0.0
    for lvl in range(4):
        for a in range(2):
            for b in range(2):
                harm = y1_support[lvl, a] - y0_support[lvl, b] <= 0.0
                theta += 0.25 * y1_prob[lvl, a] * y0_prob[lvl, b] * harm
    return y1_support, y1_prob, y0_support, y0_prob, theta


def _draw_discrete(rng, n, y1s, y1p, y0s, y0p):
    lvl = rng.integers(0, 4, size=n)
    d = (rng.random(n) < 0.5).astype(int)
    pick1 = (rng.random(n) < y1p[lvl, 1]).astype(int)
    pick0 = (rng.random(n) < y0p[lvl, 1]).astype(int)
    y = np.where(d == 1, y1s[lvl, pick1], y0s[lvl, pick0]).astype(float)
    return Sample(y, d, lvl[:, None].astype(float))


def test_c4_finite_sample_coverage():
    y1s, y1p, y0s, y0p, theta = _discrete_design()
    rng = np.random.default_rng(404)
    reps = 2000
    n = 160
    alpha = 0.1
    hits = {"adv_lo": 0, "adv_hi": 0, "fit_lo": 0, "fit_hi": 0}
    for _ in range(reps):
        s = _draw_discrete(rng, n, y1s, y1p, y0s, y0p)
        plan = make_split(s, 0.5, seed=int(rng.integers(2**31)))
        adv = Adjuster(values=rng.normal(size=n))
        rep = estimate_split(s, plan, [], alpha=alpha, adjusters=(adv, adv))
        hits["adv_lo"] += rep.lower_onesided_raw <= theta
        hits["adv_hi"] += rep.upper_onesided_raw >= theta
        rep = estimate_split(s, plan, ["knn_loc_shift:k=5"], alpha=alpha,
                             seed=int(rng.integers(2**31)))
        hits["fit_lo"] += rep.lower_onesided_raw <= theta
        hits["fit_hi"] += rep.upper_onesided_raw >= theta
    rates = {k: v / reps for k, v in hits.items()}
    ok = all(v >= 1 - alpha for v in rates.values())
    assert _line("C4 finite-sample coverage", ok,
                 f"one-sided coverage at alpha=0.1 over {reps} reps: " +
                 " ".join(f"{k}={v:.3f}" for k, v in rates.items()) +
                 " (want all >= 0.90)")


# -------------------------------------------------------------------- C5 --

def test_c5_exact_dominance():
    rng = np.random.default_rng(505)
    violations = 0
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(8, 40))
        d = np.zeros(n, dtype=int)
        d[: int(rng.integers(2, n - 1))] = 1
        rng.shuffle(d)
        y = np.round(rng.normal(size=n), 2)
        p = rng.uniform(0.2, 0.8, size=n)
        s_adj = rng.normal(size=n)
        # t=0 comparison value under the same weighting
        z = (y <= s_adj).astype(float)
        theta_s = float(np.mean(d * z / p - (1 - d) * z / (1 - p)))
        y_adj = y - s_adj
        t = d == 1
        w1 = 1.0 / (n * p[t])
        w0 = 1.0 / (n * (1.0 - p[~t]))
        sup, _, _, _ = scan_extrema(y_adj[t], y_adj[~t], w1, w0)
        theta_c = max(sup, float(np.mean(d * z / p - (1 - d) * z / (1 - p))))
        violations += theta_c < theta_s
        checked += 1
    assert _line("C5 exact dominance", violations == 0,
                 f"{violations} violations in {checked} random datasets")
    # and through the public estimator path on a subsample of cases
    rng = np.random.default_rng(506)
    from dtebounds.crossfit import sjls_estimate
    for _ in range(300):
        n = int(rng.integers(12, 40))
        d = np.array([1, 0] * (n // 2) + [1] * (n % 2))
        rng.shuffle(d)
        y = np.round(rng.normal(size=n), 2)
        s = Sample(y, d, rng.normal(size=(n, 2)))
        pvals = rng.uniform(0.2, 0.8, size=n)
        prop = PropensityModel(mode="known_function", p_of_x=pvals)
        adj = rng.normal(size=n)
        est_c = variant_known_propensity(s, adj, adj, prop)
        theta_s = sjls_estimate(s, adj, prop)
        assert est_c.theta_l >= theta_s


# -------------------------------------------------------------------- C6 --

def test_c6_scan_equals_dense_brute_force():
    rng = np.random.default_rng(606)
    for _ in range(100):
        n1 = int(rng.integers(2, 80))
        n0 = int(rng.integers(2, 80))
        a = np.round(rng.normal(size=n1), 1)
        b = np.round(rng.normal(size=n0), 1)
        sup, _, inf, _ = scan_extrema(a, b)
        grid = np.linspace(min(a.min(), b.min()) - 0.5,
                           max(a.max(), b.max()) + 0.5, 100_000)
        pts = np.concatenate([grid, a, b])
        f1 = np.searchsorted(np.sort(a), pts, side="right") / n1
        f0 = np.searchsorted(np.sort(b), pts, side="right") / n0
        dcurve = f1 - f0
        assert sup == max(dcurve.max(), 0.0)
        assert inf == min(dcurve.min(), 0.0)
    _line("C6 scan exactness", True,
          "sup/inf equal dense-grid brute force on 100 random samples")


# -------------------------------------------------------------------- C7 --

def test_c7_variance_consistency_and_excess():
    spec = DgpSpec()
    # population CDFs of both potential outcomes from a large draw
    rng = np.random.default_rng(707)
    m = 4_000_000
    x = rng.standard_normal((m, spec.d)) @ spec.chol().T
    y1_sorted = np.sort(spec.outcome1(x))
    y0_sorted = np.sort(spec.outcome0(x))
    del x

    sample, _ = draw_dgp(spec, 100_000, seed=0)
    t = sample.d == 1
    _, t_hat, _, _ = scan_extrema(sample.y[t], sample.y[~t])
    zeros = np.zeros(sample.n)
    s2l_hat, _, _, _ = variance_hat(sample, zeros, zeros, t_hat, 0.0)
    q1 = np.searchsorted(y1_sorted, t_hat, side="right") / m
    q0 = np.searchsorted(y0_sorted, t_hat, side="right") / m
    s2l_pop = q1 * (1 - q1) / 0.5 + q0 * (1 - q0) / 0.5
    rel = abs(s2l_hat - s2l_pop) / s2l_pop
    ok1 = rel <= 0.02
    assert _line("C7 variance consistency", ok1,
                 f"relative error {rel:.3%} at n=1e5 (want <= 2%)")

    # empirical inequality: the known-propensity estimator's dispersion is
    # no smaller than the in-sample-share estimator's
    reps = 2000
    n = 500
    prop_p = np.full(n, 0.5)
    vals_a = np.empty(reps)
    vals_b = np.empty(reps)
    rng = np.random.default_rng(708)
    for r in range(reps):
        smp, _ = draw_dgp(spec, n, rng=rng)
        tm = smp.d == 1
        sup_a, _, _, _ = scan_extrema(smp.y[tm], smp.y[~tm])
        w1 = 1.0 / (n * prop_p[: smp.n1])
        w0 = 1.0 / (n * (1.0 - prop_p[: smp.n0]))
        sup_b, _, _, _ = scan_extrema(smp.y[tm], smp.y[~tm], w1, w0)
        vals_a[r] = sup_a
        vals_b[r] = sup_b
    var_a, var_b = vals_a.var(), vals_b.var()
    ok2 = var_a <= var_b
    assert _line("C7 excess-variance inequality", ok2,
                 f"var(in-sample share)={var_a:.6f} <= var(true p)={var_b:.6f}"
                 f" over {reps} replications")


# -------------------------------------------------------------------- C8 --

def test_c8_stoye_limits_and_nesting():
    c_l, c_u = solve_critical_values(0.05, 0.3, 1e3, 1e3, 1.0, 1.0)
    ok_inf = abs(c_l - Z_A) <= 1e-4 and abs(c_u - Z_A) <= 1e-4
    assert _line("C8 decoupled limit", ok_inf,
                 f"c=({c_l:.6f},{c_u:.6f}), want both {Z_A:.6f} +- 1e-4")
    c_l, c_u = solve_critical_values(0.05, 1.0, 0.0, 0.0, 1.0, 1.0)
    ok_deg = abs(c_l - Z_HALF) <= 1e-4 and abs(c_u - Z_HALF) <= 1e-4
    assert _line("C8 degenerate limit", ok_deg,
                 f"c=({c_l:.6f},{c_u:.6f}), want both {Z_HALF:.6f} +- 1e-4")

    rng = np.random.default_rng(808)
    nested = True
    for _ in range(25):
        tl = rng.uniform(0.05, 0.6)
        tu = tl + rng.uniform(0.0, 0.35)
        s2l, s2u = rng.uniform(0.2, 1.0, size=2)
        r = rng.uniform(-0.95, 0.95)
        est = BoundsEstimate(theta_l=tl, theta_u=tu, t_l=0, t_u=0,
                             sigma2_l=s2l, sigma2_u=s2u,
                             sigma_lu=r * math.sqrt(s2l * s2u),
                             pi_hat=0.5, n=900)
        si = stoye_ci(est, 0.05, 900)
        bon_lo = tl - Z_HALF * math.sqrt(s2l / 900)
        bon_hi = tu + Z_HALF * math.sqrt(s2u / 900)
        nested &= (si.lo >= bon_lo - 1e-9) and (si.hi <= bon_hi + 1e-9)
    assert _line("C8 nesting", nested,
                 "pretested interval inside the half-alpha union interval "
                 "on all tested inputs")
