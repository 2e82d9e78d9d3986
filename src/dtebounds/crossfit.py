"""Cross-fitting bound estimators, variance estimates, and z-based intervals.

Adjustment functions are fit out-of-fold and the pooled indicator curves
are scanned exactly. Asymptotic intervals come from the normal limit of
the pooled estimators; the two-sided construction with pretesting lives in
``stoye``.
"""
from __future__ import annotations

import numpy as np
from scipy.stats import norm

from . import kernels
from .condcdf import GridSpec, fit_adjusters, select_model
from .data import (
    Adjuster,
    ConfigError,
    FoldPlan,
    PropensityModel,
    Sample,
)
from .reports import BoundsEstimate, IntervalReport, clip_unit
from .stoye import stoye_ci

__all__ = [
    "EstimationError",
    "crossfit_adjusters",
    "estimate_crossfit",
    "variance_hat",
    "one_sided_cis",
    "sjls_estimate",
    "sjls_report",
    "variant_group_propensity",
    "variant_known_propensity",
    "variant_fold_t",
    "ipw_excess_variance",
]

FLAT_SPAN_FRACTION = 0.1


class EstimationError(RuntimeError):
    """An estimator failed; the message names the failing fold or input."""


def crossfit_adjusters(sample: Sample, folds: FoldPlan, model_specs,
                       seed: int = 0, grid_spec: GridSpec = GridSpec(),
                       select_folds: int = 5):
    """Fit per-fold adjustment functions out-of-fold and evaluate them on
    the held-out fold rows.

    Returns (s_lower, s_upper, meta); meta records the model spec chosen
    per fold and the per-fold adjuster dispersion diagnostic.
    """
    specs = list(model_specs)
    s_lo = np.empty(sample.n)
    s_hi = np.empty(sample.n)
    chosen: list[tuple[str, str]] = []
    rng = np.random.default_rng(seed)
    grid = grid_spec.build(sample.y_lo, sample.y_hi, rng)
    for k in range(1, folds.k_folds + 1):
        try:
            oof = sample.subset(folds.complement(k))
            if len(specs) > 1:
                spec_l, spec_u = select_model(specs, oof, select_folds,
                                              seed + k, grid_spec)
            else:
                spec_l = spec_u = specs[0]
            members = folds.members(k)
            [(lo_k, hi_k)] = fit_adjusters(oof, spec_l, spec_u,
                                           [sample.x[members]], grid, seed + k)
            s_lo[members] = lo_k
            s_hi[members] = hi_k
            chosen.append((spec_l, spec_u))
        except Exception as exc:
            raise EstimationError(f"fold {k}: {exc}") from exc
    meta = {
        "models_per_fold": chosen,
        "adjuster_sd_l": float(np.std(s_lo)),
        "adjuster_sd_u": float(np.std(s_hi)),
    }
    return (Adjuster(values=s_lo, label="fitted_L"),
            Adjuster(values=s_hi, label="fitted_U"), meta)


def variance_hat(sample: Sample, s_lo_vals, s_hi_vals, t_l: float,
                 t_u: float):
    """Indicator variance/covariance triple at the plugged optimizers,
    combined across arms with the in-sample treated share.

    Returns (sigma2_l, sigma2_u, sigma_lu, diagnostics).
    """
    z_l = (sample.y <= np.asarray(s_lo_vals) + t_l).astype(np.float64)
    z_u = (sample.y <= np.asarray(s_hi_vals) + t_u).astype(np.float64)
    pi_hat = sample.n1 / sample.n
    diagnostics = []
    parts = {}
    for arm in (1, 0):
        sel = sample.d == arm
        zl, zu = z_l[sel], z_u[sel]
        v_l = float(zl.var())
        v_u = float(zu.var())
        c_lu = float(((zl - zl.mean()) * (zu - zu.mean())).mean())
        if v_l == 0.0 or v_u == 0.0:
            diagnostics.append(
                f"arm {arm}: degenerate indicator variance at the optimizer")
        parts[arm] = (v_l, v_u, c_lu)
    sigma2_l = parts[1][0] / pi_hat + parts[0][0] / (1 - pi_hat)
    sigma2_u = parts[1][1] / pi_hat + parts[0][1] / (1 - pi_hat)
    sigma_lu = parts[1][2] / pi_hat + parts[0][2] / (1 - pi_hat)
    return sigma2_l, sigma2_u, sigma_lu, diagnostics


def _flat_span_diagnostic(y_adj_t, y_adj_c, target, outcome_range, which):
    pts, d = kernels.delta_profile(y_adj_t, y_adj_c)
    hit = pts[np.abs(d - target) <= 1e-12]
    if hit.size >= 2:
        span = float(hit.max() - hit.min())
        if span > FLAT_SPAN_FRACTION * max(outcome_range, 1e-12):
            return (f"near-flat difference curve: {which} attained on a span "
                    f"of {span:.3g} (uniqueness-of-optimizer diagnostic)")
    return None


def estimate_crossfit(sample: Sample, folds: FoldPlan, model_specs,
                      seed: int = 0, grid_spec: GridSpec = GridSpec(),
                      adjusters: tuple[Adjuster, Adjuster] | None = None,
                      select_folds: int = 5) -> BoundsEstimate:
    """Cross-fitting bound estimates on the full sample.

    ``adjusters`` bypasses model fitting with fixed per-unit adjustment
    values (e.g. simulation oracles or externally fitted learners).
    """
    if adjusters is None:
        s_lo, s_hi, meta = crossfit_adjusters(sample, folds, model_specs,
                                              seed, grid_spec, select_folds)
    else:
        s_lo, s_hi = adjusters
        meta = {"models_per_fold": [("user", "user")]}
    y_lo = sample.y - s_lo.values
    y_hi = sample.y - s_hi.values
    t_mask = sample.d == 1
    sup, t_l, _, _ = kernels.scan_extrema(y_lo[t_mask], y_lo[~t_mask])
    _, _, inf, t_u = kernels.scan_extrema(y_hi[t_mask], y_hi[~t_mask])
    theta_l, theta_u = sup, 1.0 + inf
    sigma2_l, sigma2_u, sigma_lu, diags = variance_hat(
        sample, s_lo.values, s_hi.values, t_l, t_u)
    rng_span = sample.y_hi - sample.y_lo
    for arrs, target, which in ((y_lo, sup, "max"), (y_hi, inf, "min")):
        msg = _flat_span_diagnostic(arrs[t_mask], arrs[~t_mask], target,
                                    rng_span, which=which)
        if msg:
            diags.append(msg)
    if "adjuster_sd_l" in meta:
        diags.append(f"per-fold adjuster sd: L={meta['adjuster_sd_l']:.4g} "
                     f"U={meta['adjuster_sd_u']:.4g}")
    return BoundsEstimate(theta_l=theta_l, theta_u=theta_u, t_l=t_l, t_u=t_u,
                          sigma2_l=sigma2_l, sigma2_u=sigma2_u,
                          sigma_lu=sigma_lu, pi_hat=sample.n1 / sample.n,
                          n=sample.n, diagnostics=diags)


def _p_lower_zero(theta_l, se):
    if se == 0.0:
        return 0.0 if theta_l > 0 else 1.0
    return float(norm.sf(theta_l / se))


def _p_upper_one(theta_u, se):
    if se == 0.0:
        return 0.0 if theta_u < 1 else 1.0
    return float(norm.cdf((theta_u - 1.0) / se))


def one_sided_cis(est: BoundsEstimate, alpha: float, n: int | None = None,
                  method: str = "cross-fit", h_rules=("stoye", "logn",
                                                      "qloglog"),
                  with_stoye: bool = True) -> IntervalReport:
    """One-sided normal intervals plus the pretested two-sided interval
    under each threshold rule.

    The one-sided pair uses z_alpha; p-values test a zero lower bound and
    a unit upper bound.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    n = n or est.n
    z_a = float(norm.ppf(1 - alpha))
    se_l = est.sigma_l / np.sqrt(n)
    se_u = est.sigma_u / np.sqrt(n)
    lo_raw = est.theta_l - z_a * se_l
    hi_raw = est.theta_u + z_a * se_u
    diags = list(est.diagnostics)
    if se_l == 0.0 or se_u == 0.0:
        diags.append("zero variance: degenerate p-values")
    by_rule = {}
    stoye_default = None
    if with_stoye and 0.0 < alpha < 0.5:
        for rule in h_rules:
            si = stoye_ci(est, alpha, n, h_rule=rule)
            by_rule[rule] = (si.lo, si.hi)
            if rule == h_rules[0]:
                stoye_default = si
    if stoye_default is not None:
        two_raw = (stoye_default.lo, stoye_default.hi)
        crossed = stoye_default.empty
        two = (clip_unit(two_raw[0]), clip_unit(max(*two_raw)))
        crit = {"z_alpha": z_a, "c_l": stoye_default.c_l,
                "c_u": stoye_default.c_u, "lambda": stoye_default.lam,
                "h_n": stoye_default.h_n}
        if crossed:
            diags.append("two-sided interval is empty (endpoints crossed)")
    else:
        two_raw = (lo_raw, hi_raw)
        crossed = two_raw[0] > two_raw[1]
        two = (clip_unit(two_raw[0]), clip_unit(max(*two_raw)))
        crit = {"z_alpha": z_a}
    return IntervalReport(
        method=method,
        alpha=alpha,
        estimate=est,
        lower_onesided=clip_unit(lo_raw),
        upper_onesided=clip_unit(hi_raw),
        lower_onesided_raw=lo_raw,
        upper_onesided_raw=hi_raw,
        two_sided=two,
        two_sided_raw=two_raw,
        crossed=crossed,
        p_lower_zero=_p_lower_zero(est.theta_l, se_l),
        p_upper_one=_p_upper_one(est.theta_u, se_u),
        crit=crit,
        two_sided_by_rule=by_rule,
        meta={"n": n},
        diagnostics=diags,
    )


# ---------------------------------------------------------------------------
# Known-propensity machinery and the t=0 comparison estimator.
# ---------------------------------------------------------------------------

def _propensity_values(sample: Sample, propensity: PropensityModel):
    if propensity.mode == "constant_known":
        return np.full(sample.n, propensity.pi)
    if propensity.mode == "known_function":
        p = propensity.p_of_x
        if len(p) != sample.n:
            raise ConfigError("propensity values must cover the sample")
        return p
    raise ConfigError(
        "this estimator requires a known propensity (constant_known or "
        "known_function mode)")


def _ipw_delta_at(sample: Sample, s_vals, t: float, p):
    z = (sample.y <= np.asarray(s_vals) + t).astype(np.float64)
    w = np.where(sample.d == 1, 1.0 / p, -1.0 / (1.0 - p))
    return float(np.mean(w * z))


def sjls_estimate(sample: Sample, s_lo: Adjuster,
                  propensity: PropensityModel) -> float:
    """The t=0 inverse-propensity comparison estimator: the weighted
    indicator-mean difference evaluated at t = 0 with the same cross-fitted
    lower-side adjustment values.

    By construction this never exceeds the scanned maximum computed under
    the same weighting (see variant_known_propensity).
    """
    p = _propensity_values(sample, propensity)
    return _ipw_delta_at(sample, s_lo.values, 0.0, p)


def _ipw_variance_at(sample: Sample, s_vals, t: float, p, delta_val: float):
    z = (sample.y <= np.asarray(s_vals) + t).astype(np.float64)
    m2 = np.mean((sample.d / p**2 + (1 - sample.d) / (1 - p) ** 2) * z)
    return float(m2 - delta_val**2)


def sjls_report(sample: Sample, s_lo: Adjuster, s_hi: Adjuster,
                propensity: PropensityModel, alpha: float = 0.05) -> IntervalReport:
    """Interval report for the t=0 comparison estimator on both sides."""
    p = _propensity_values(sample, propensity)
    d_l = _ipw_delta_at(sample, s_lo.values, 0.0, p)
    d_u = _ipw_delta_at(sample, s_hi.values, 0.0, p)
    theta_l, theta_u = d_l, 1.0 + d_u
    sigma2_l = _ipw_variance_at(sample, s_lo.values, 0.0, p, d_l)
    sigma2_u = _ipw_variance_at(sample, s_hi.values, 0.0, p, d_u)
    z_l = (sample.y <= s_lo.values).astype(np.float64)
    z_u = (sample.y <= s_hi.values).astype(np.float64)
    m2 = np.mean((sample.d / p**2 + (1 - sample.d) / (1 - p) ** 2) * z_l * z_u)
    sigma_lu = float(m2 - d_l * d_u)
    est = BoundsEstimate(theta_l=theta_l, theta_u=theta_u, t_l=0.0, t_u=0.0,
                         sigma2_l=sigma2_l, sigma2_u=sigma2_u,
                         sigma_lu=sigma_lu, pi_hat=sample.n1 / sample.n,
                         n=sample.n)
    return one_sided_cis(est, alpha, sample.n, method="sjls",
                         with_stoye=False)


def variant_known_propensity(sample: Sample, folds: FoldPlan, model_specs,
                             propensity: PropensityModel, seed: int = 0,
                             grid_spec: GridSpec = GridSpec(),
                             adjusters=None) -> BoundsEstimate:
    """Scanned estimator under the raw (un-normalized) known-propensity
    weighting; estimates can leave [0,1] and are reported unclipped."""
    p = _propensity_values(sample, propensity)
    if adjusters is None:
        s_lo, s_hi, _ = crossfit_adjusters(sample, folds, model_specs, seed,
                                           grid_spec)
    else:
        s_lo, s_hi = adjusters
    t_mask = sample.d == 1
    n = sample.n
    w1 = 1.0 / (n * p[t_mask])
    w0 = 1.0 / (n * (1.0 - p[~t_mask]))
    y_lo = sample.y - s_lo.values
    y_hi = sample.y - s_hi.values
    sup, t_l, _, _ = kernels.scan_extrema(y_lo[t_mask], y_lo[~t_mask], w1, w0)
    _, _, inf, t_u = kernels.scan_extrema(y_hi[t_mask], y_hi[~t_mask], w1, w0)
    # t = 0 lies in the scanned domain; evaluating it explicitly guards the
    # exact dominance over the t=0 comparison estimator against float-path
    # differences between the cumulative scan and the direct mean
    sup = max(sup, _ipw_delta_at(sample, s_lo.values, 0.0, p))
    inf = min(inf, _ipw_delta_at(sample, s_hi.values, 0.0, p))
    sigma2_l = _ipw_variance_at(sample, s_lo.values, t_l, p, sup)
    sigma2_u = _ipw_variance_at(sample, s_hi.values, t_u, p, inf)
    z_l = (sample.y <= s_lo.values + t_l).astype(np.float64)
    z_u = (sample.y <= s_hi.values + t_u).astype(np.float64)
    m2 = np.mean((sample.d / p**2 + (1 - sample.d) / (1 - p) ** 2) * z_l * z_u)
    sigma_lu = float(m2 - sup * inf)
    return BoundsEstimate(theta_l=sup, theta_u=1.0 + inf, t_l=t_l, t_u=t_u,
                          sigma2_l=sigma2_l, sigma2_u=sigma2_u,
                          sigma_lu=sigma_lu, pi_hat=sample.n1 / sample.n,
                          n=sample.n)


def ipw_excess_variance(mean_z1: float, mean_z0: float, pi: float) -> float:
    """Asymptotic variance excess of the known-propensity estimator over the
    in-sample-share estimator: (E[Z1]/pi + E[Z0]/(1-pi))^2 * pi * (1-pi).

    Always nonnegative; equals the difference between the two variance
    displays for indicator outcomes.
    """
    return (mean_z1 / pi + mean_z0 / (1 - pi)) ** 2 * pi * (1 - pi)


def variant_group_propensity(sample: Sample, folds: FoldPlan, model_specs,
                             propensity: PropensityModel, seed: int = 0,
                             grid_spec: GridSpec = GridSpec(),
                             adjusters=None) -> BoundsEstimate:
    """Scanned estimator averaging equally-weighted within-group arm ECDF
    differences, for designs with a constant propensity inside each group."""
    if propensity.mode != "group":
        raise ConfigError("group estimator requires group propensity mode")
    g = np.asarray(propensity.group_of)
    if len(g) != sample.n:
        raise ConfigError("group indices must cover the sample")
    propensity.validate_groups(sample.d)
    groups = np.unique(g)
    g_bar = groups.size
    if adjusters is None:
        s_lo, s_hi, _ = crossfit_adjusters(sample, folds, model_specs, seed,
                                           grid_spec)
    else:
        s_lo, s_hi = adjusters
    t_mask = sample.d == 1
    w = np.empty(sample.n)
    for gv in groups:
        for arm, mask in ((1, t_mask), (0, ~t_mask)):
            cell = (g == gv) & mask
            w[cell] = 1.0 / (g_bar * cell.sum())
    y_lo = sample.y - s_lo.values
    y_hi = sample.y - s_hi.values
    sup, t_l, _, _ = kernels.scan_extrema(y_lo[t_mask], y_lo[~t_mask],
                                          w[t_mask], w[~t_mask])
    _, _, inf, t_u = kernels.scan_extrema(y_hi[t_mask], y_hi[~t_mask],
                                          w[t_mask], w[~t_mask])
    z_l = (sample.y <= s_lo.values + t_l).astype(np.float64)
    z_u = (sample.y <= s_hi.values + t_u).astype(np.float64)
    sigma2_l = sigma2_u = sigma_lu = 0.0
    for gv in groups:
        sel = g == gv
        pi_g = sel.mean()
        p1 = sample.d[sel].mean()
        p0 = 1.0 - p1
        for zl_or, zu_or, acc in ((z_l, z_l, "l"), (z_u, z_u, "u"),
                                  (z_l, z_u, "lu")):
            v1 = float(((zl_or[sel & t_mask] - zl_or[sel & t_mask].mean())
                        * (zu_or[sel & t_mask] - zu_or[sel & t_mask].mean())
                        ).mean())
            v0 = float(((zl_or[sel & ~t_mask] - zl_or[sel & ~t_mask].mean())
                        * (zu_or[sel & ~t_mask] - zu_or[sel & ~t_mask].mean())
                        ).mean())
            term = pi_g**2 * (v1 / p1 + v0 / p0)
            if acc == "l":
                sigma2_l += term
            elif acc == "u":
                sigma2_u += term
            else:
                sigma_lu += term
    return BoundsEstimate(theta_l=sup, theta_u=1.0 + inf, t_l=t_l, t_u=t_u,
                          sigma2_l=sigma2_l, sigma2_u=sigma2_u,
                          sigma_lu=sigma_lu, pi_hat=sample.n1 / sample.n,
                          n=sample.n)


def variant_fold_t(sample: Sample, folds: FoldPlan, model_specs,
                   seed: int = 0, grid_spec: GridSpec = GridSpec(),
                   adjusters=None) -> BoundsEstimate:
    """Optimization-free variant: each fold's location is learned
    out-of-fold and absorbed into the adjustment function, and the pooled
    indicator difference is evaluated at t = 0."""
    if adjusters is None:
        s_lo, s_hi, _ = crossfit_adjusters(sample, folds, model_specs, seed,
                                           grid_spec)
    else:
        s_lo, s_hi = adjusters
    s_lo_t = s_lo.values.copy()
    s_hi_t = s_hi.values.copy()
    for k in range(1, folds.k_folds + 1):
        oof = folds.complement(k)
        members = folds.members(k)
        d_oof = sample.d[oof]
        y_lo_oof = sample.y[oof] - s_lo.values[oof]
        y_hi_oof = sample.y[oof] - s_hi.values[oof]
        if (d_oof == 1).sum() == 0 or (d_oof == 0).sum() == 0:
            raise EstimationError(f"fold {k}: out-of-fold arm empty")
        _, t_k_l, _, _ = kernels.scan_extrema(y_lo_oof[d_oof == 1],
                                              y_lo_oof[d_oof == 0])
        _, _, _, t_k_u = kernels.scan_extrema(y_hi_oof[d_oof == 1],
                                              y_hi_oof[d_oof == 0])
        if not np.isfinite(t_k_l):
            t_k_l = 0.0
        if not np.isfinite(t_k_u):
            t_k_u = 0.0
        s_lo_t[members] += t_k_l
        s_hi_t[members] += t_k_u
    z_l = (sample.y <= s_lo_t).astype(np.float64)
    z_u = (sample.y <= s_hi_t).astype(np.float64)
    t_mask = sample.d == 1
    theta_l = float(z_l[t_mask].mean() - z_l[~t_mask].mean())
    theta_u = 1.0 + float(z_u[t_mask].mean() - z_u[~t_mask].mean())
    sigma2_l, sigma2_u, sigma_lu, diags = variance_hat(sample, s_lo_t, s_hi_t,
                                                       0.0, 0.0)
    return BoundsEstimate(theta_l=theta_l, theta_u=theta_u, t_l=0.0, t_u=0.0,
                          sigma2_l=sigma2_l, sigma2_u=sigma2_u,
                          sigma_lu=sigma_lu, pi_hat=sample.n1 / sample.n,
                          n=sample.n, diagnostics=diags)
