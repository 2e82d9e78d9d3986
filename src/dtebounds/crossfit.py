"""Cross-fitting bound estimators, variance estimates, and z-based intervals.

``estimate`` runs any of the package's methods on a sample and returns its
interval report. It obtains the adjustment values once, out-of-fold from
``condcdf.crossfit_adjusters`` or from a user pair, and the estimators scan
the pooled indicator curves of those arrays exactly. Asymptotic intervals
come from the normal limit of the pooled estimators; the two-sided
construction with pretesting lives in ``stoye``.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from .condcdf import GridSpec, crossfit_adjusters
from .data import (
    ConfigError,
    EstimationError,
    FoldPlan,
    PropensityModel,
    Sample,
    adjuster_arrays,
    make_folds,
)
from .reports import BoundsEstimate, IntervalReport
from .splitfit import estimate_split, make_split
from .stepfun import profile_bounds, scan_bounds, side_profiles
from .stoye import H_RULES, stoye_ci

__all__ = [
    "METHODS",
    "EstimationError",
    "crossfit_adjusters",
    "estimate",
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

METHODS = ("cross-fit", "sample-split", "sjls", "cross-fit-group",
           "cross-fit-ipw", "cross-fit-foldt")

FLAT_SPAN_FRACTION = 0.1


def _indicator(sample: Sample, s, t: float):
    """The 0/1 indicator of each unit's adjusted outcome at threshold t.

    It compares y - s with t, exactly as the scan does, so the indicator
    means at a scanned optimizer reproduce the scanned value bit for bit.
    """
    return ((sample.y - np.asarray(s)) <= t).astype(np.float64)


def variance_hat(sample: Sample, s_lo_vals, s_hi_vals, t_l: float,
                 t_u: float, group_of=None):
    """Indicator variance/covariance triple at the plugged optimizers.

    Within each group the per-arm indicator (co)variances are divided by
    the group's treated or control share; the groups are combined with
    their squared sample shares. Without ``group_of`` the whole sample is
    one group, so the arms are combined with the in-sample treated share.

    Returns (sigma2_l, sigma2_u, sigma_lu, diagnostics).
    """
    z_l = _indicator(sample, s_lo_vals, t_l)
    z_u = _indicator(sample, s_hi_vals, t_u)
    g = np.zeros(sample.n) if group_of is None else np.asarray(group_of)
    total = 0.0
    diagnostics = []
    for gv in np.unique(g):
        sel = g == gv
        p1 = sample.d[sel].mean()
        term = 0.0
        for arm, share in ((1, p1), (0, 1.0 - p1)):
            cell = sel & (sample.d == arm)
            zl = z_l[cell] - z_l[cell].mean()
            zu = z_u[cell] - z_u[cell].mean()
            v = np.array([(zl * zl).mean(), (zu * zu).mean(),
                          (zl * zu).mean()])
            if v[0] == 0.0 or v[1] == 0.0:
                diagnostics.append(f"arm {arm}: degenerate indicator "
                                   "variance at the optimizer")
            term = term + v / share
        total = total + sel.mean() ** 2 * term
    sigma2_l, sigma2_u, sigma_lu = map(float, total)
    return sigma2_l, sigma2_u, sigma_lu, diagnostics


def _flat_span_diagnostic(sample, profile, target, which):
    pts, d = profile
    hit = pts[np.abs(d - target) <= 1e-12]
    if hit.size >= 2:
        span = float(hit.max() - hit.min())
        outcome_range = sample.y_hi - sample.y_lo
        if span > FLAT_SPAN_FRACTION * max(outcome_range, 1e-12):
            return (f"near-flat difference curve: {which} attained on a span "
                    f"of {span:.3g} (uniqueness-of-optimizer diagnostic)")
    return None


def estimate_crossfit(sample: Sample, s_lo, s_hi,
                      meta: dict | None = None) -> BoundsEstimate:
    """Bound estimates on the full sample from per-unit adjustment values,
    cross-fitted or fixed; the per-fold adjuster dispersion in ``meta``, the
    record of ``crossfit_adjusters``, becomes a diagnostic."""
    profiles = side_profiles(sample, s_lo, s_hi)
    bounds = sup, t_l, inf, t_u = profile_bounds(*profiles)
    *variances, diags = variance_hat(sample, s_lo, s_hi, t_l, t_u)
    for profile, target, which in zip(profiles, (sup, inf), ("max", "min")):
        msg = _flat_span_diagnostic(sample, profile, target, which)
        if msg:
            diags.append(msg)
    if meta is not None:
        diags.append(f"per-fold adjuster sd: L={meta['adjuster_sd_l']:.4g} "
                     f"U={meta['adjuster_sd_u']:.4g}")
    return BoundsEstimate.from_scan(sample, bounds, variances, diags)


def _p_lower_zero(theta_l, se):
    if se == 0.0:
        return 0.0 if theta_l > 0 else 1.0
    return float(ndtr(-(theta_l / se)))


def one_sided_cis(est: BoundsEstimate, alpha: float,
                  method: str = "cross-fit",
                  h_rules=H_RULES) -> IntervalReport:
    """One-sided normal intervals plus the pretested two-sided interval
    under each threshold rule, with the estimate's own sample size ``n``.

    The one-sided pair uses z_alpha; p-values test a zero lower bound and
    a unit upper bound. With no threshold rules (``h_rules=()``) the
    two-sided interval is the pair of one-sided endpoints.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    n = est.n
    z_a = float(ndtri(1 - alpha))
    se_l = est.sigma_l / np.sqrt(n)
    se_u = est.sigma_u / np.sqrt(n)
    lo_raw = est.theta_l - z_a * se_l
    hi_raw = est.theta_u + z_a * se_u
    diags = list(est.diagnostics)
    if se_l == 0.0 or se_u == 0.0:
        diags.append("zero variance: degenerate p-values")
    by_rule = {}
    stoye_default = None
    if 0.0 < alpha < 0.5:
        for rule in h_rules:
            si = stoye_ci(est, alpha, h_rule=rule)
            by_rule[rule] = (si.lo, si.hi)
            if rule == h_rules[0]:
                stoye_default = si
    if stoye_default is not None:
        two_raw = (stoye_default.lo, stoye_default.hi)
        crit = {"z_alpha": z_a, "c_l": stoye_default.c_l,
                "c_u": stoye_default.c_u, "lambda": stoye_default.lam,
                "h_n": stoye_default.h_n}
    else:
        two_raw = (lo_raw, hi_raw)
        crit = {"z_alpha": z_a}
    rep = IntervalReport(
        method=method,
        alpha=alpha,
        estimate=est,
        lower_onesided_raw=lo_raw,
        upper_onesided_raw=hi_raw,
        two_sided_raw=two_raw,
        p_lower_zero=_p_lower_zero(est.theta_l, se_l),
        p_upper_one=_p_lower_zero(1.0 - est.theta_u, se_u),
        crit=crit,
        two_sided_by_rule=by_rule,
        meta={"n": n},
        diagnostics=diags,
    )
    if stoye_default is not None and rep.crossed:
        rep.diagnostics.append(
            "two-sided interval is empty (endpoints crossed)")
    return rep


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


def _ipw_mean(sample: Sample, p, z) -> float:
    """Raw inverse-propensity weighted treated-minus-control mean of z."""
    w = np.where(sample.d == 1, 1.0 / p, -1.0 / (1.0 - p))
    return float(np.mean(w * z))


def _ipw_sigma(sample: Sample, p, z_l, z_u, m_l: float, m_u: float):
    """(sigma2_l, sigma2_u, sigma_lu) of the weighted means m_l and m_u of
    the indicators z_l and z_u, from their weighted second moments."""
    w2 = sample.d / p**2 + (1 - sample.d) / (1 - p) ** 2
    return (float(np.mean(w2 * z_l) - m_l**2),
            float(np.mean(w2 * z_u) - m_u**2),
            float(np.mean(w2 * z_l * z_u) - m_l * m_u))


def sjls_estimate(sample: Sample, s_lo,
                  propensity: PropensityModel) -> float:
    """The t=0 inverse-propensity comparison estimator: the weighted
    indicator-mean difference evaluated at t = 0 with the same cross-fitted
    lower-side adjustment values.

    By construction this never exceeds the scanned maximum computed under
    the same weighting (see variant_known_propensity).
    """
    p = _propensity_values(sample, propensity)
    return _ipw_mean(sample, p, _indicator(sample, s_lo, 0.0))


def sjls_report(sample: Sample, s_lo, s_hi, propensity: PropensityModel,
                alpha: float = 0.05) -> IntervalReport:
    """Interval report for the t=0 comparison estimator on both sides."""
    p = _propensity_values(sample, propensity)
    z_l = _indicator(sample, s_lo, 0.0)
    z_u = _indicator(sample, s_hi, 0.0)
    d_l = _ipw_mean(sample, p, z_l)
    d_u = _ipw_mean(sample, p, z_u)
    est = BoundsEstimate.from_scan(sample, (d_l, 0.0, d_u, 0.0), _ipw_sigma(
        sample, p, z_l, z_u, d_l, d_u))
    return one_sided_cis(est, alpha, method="sjls", h_rules=())


def variant_known_propensity(sample: Sample, s_lo, s_hi,
                             propensity: PropensityModel) -> BoundsEstimate:
    """Scanned estimator under the raw (un-normalized) known-propensity
    weighting; estimates can leave [0,1] and are reported unclipped."""
    p = _propensity_values(sample, propensity)
    n = sample.n
    w = np.where(sample.d == 1, 1.0 / (n * p), 1.0 / (n * (1.0 - p)))
    sup, t_l, inf, t_u = scan_bounds(sample, s_lo, s_hi, w)
    # t = 0 lies in the scanned domain; evaluating it explicitly guards the
    # exact dominance over the t=0 comparison estimator against float-path
    # differences between the cumulative scan and the direct mean; when it
    # wins, t = 0 is the reported optimizer and the variances are taken there
    sup0 = _ipw_mean(sample, p, _indicator(sample, s_lo, 0.0))
    if sup0 > sup:
        sup, t_l = sup0, 0.0
    inf0 = _ipw_mean(sample, p, _indicator(sample, s_hi, 0.0))
    if inf0 < inf:
        inf, t_u = inf0, 0.0
    return BoundsEstimate.from_scan(sample, (sup, t_l, inf, t_u), _ipw_sigma(
        sample, p, _indicator(sample, s_lo, t_l),
        _indicator(sample, s_hi, t_u), sup, inf))


def ipw_excess_variance(mean_z1: float, mean_z0: float, pi: float) -> float:
    """Asymptotic variance excess of the known-propensity estimator over the
    in-sample-share estimator: (E[Z1]/pi + E[Z0]/(1-pi))^2 * pi * (1-pi).

    Always nonnegative; equals the difference between the two variance
    displays for indicator outcomes.
    """
    return (mean_z1 / pi + mean_z0 / (1 - pi)) ** 2 * pi * (1 - pi)


def _group_of(sample: Sample, propensity: PropensityModel):
    """The per-unit groups of a group propensity, each with both arms."""
    if propensity.mode != "group":
        raise ConfigError("group estimator requires group propensity mode")
    g = np.asarray(propensity.group_of)
    if len(g) != sample.n:
        raise ConfigError("group indices must cover the sample")
    propensity.validate_groups(sample.d)
    return g


def variant_group_propensity(sample: Sample, s_lo, s_hi,
                             propensity: PropensityModel) -> BoundsEstimate:
    """Scanned estimator averaging equally-weighted within-group arm ECDF
    differences, for designs with a constant propensity inside each group."""
    g = _group_of(sample, propensity)
    groups = np.unique(g)
    t_mask = sample.d == 1
    w = np.empty(sample.n)
    for gv in groups:
        for mask in (t_mask, ~t_mask):
            cell = (g == gv) & mask
            w[cell] = 1.0 / (groups.size * cell.sum())
    bounds = _, t_l, _, t_u = scan_bounds(sample, s_lo, s_hi, w)
    *variances, _ = variance_hat(sample, s_lo, s_hi, t_l, t_u, group_of=g)
    return BoundsEstimate.from_scan(sample, bounds, variances)


def variant_fold_t(sample: Sample, folds: FoldPlan, s_lo,
                   s_hi) -> BoundsEstimate:
    """Optimization-free variant: each fold's location is learned
    out-of-fold and absorbed into the adjustment function, and the pooled
    indicator difference is evaluated at t = 0."""
    s_lo_t = s_lo.copy()
    s_hi_t = s_hi.copy()
    for k in range(1, folds.k_folds + 1):
        oof = folds.complement(k)
        d_oof = sample.d[oof]
        if d_oof.all() or not d_oof.any():
            raise EstimationError(f"fold {k}: out-of-fold arm empty")
        _, t_k_l, _, t_k_u = scan_bounds(sample.subset(oof), s_lo[oof],
                                         s_hi[oof])
        members = folds.members(k)
        s_lo_t[members] += t_k_l if np.isfinite(t_k_l) else 0.0
        s_hi_t[members] += t_k_u if np.isfinite(t_k_u) else 0.0
    z_l = _indicator(sample, s_lo_t, 0.0)
    z_u = _indicator(sample, s_hi_t, 0.0)
    t_mask = sample.d == 1
    sup = float(z_l[t_mask].mean() - z_l[~t_mask].mean())
    inf = float(z_u[t_mask].mean() - z_u[~t_mask].mean())
    *variances, diags = variance_hat(sample, s_lo_t, s_hi_t, 0.0, 0.0)
    return BoundsEstimate.from_scan(sample, (sup, 0.0, inf, 0.0), variances,
                                    diags)


# ---------------------------------------------------------------------------
# One entry point for every method.
# ---------------------------------------------------------------------------

def estimate(sample: Sample, method: str, model_specs, alpha: float = 0.05,
             seed: int = 0, k_folds: int = 5, aux_fraction: float = 0.5,
             grid_spec: GridSpec = GridSpec(),
             propensity: PropensityModel = PropensityModel(),
             adjusters: tuple[np.ndarray, np.ndarray] | None = None,
             h_rules=H_RULES) -> IntervalReport:
    """Run one of ``METHODS`` on ``sample`` and return its interval report.

    ``sample-split`` splits with ``aux_fraction`` and reports DKW
    intervals; the other methods cross-fit over ``k_folds`` folds (strata
    are group x arm cells for ``cross-fit-group``). ``sjls`` and
    ``cross-fit-ipw`` read a known ``propensity``, ``cross-fit-group`` its
    groups; a propensity these methods cannot use fails before any model
    is fitted. ``adjusters``, two arrays, replaces model fitting with fixed
    per-unit values; a side that is not one finite number per unit is a
    ConfigError.
    The z-interval methods report a pretested two-sided interval per rule
    in ``h_rules``, the first being the headline one; with no rules the
    two-sided interval is the one-sided pair.
    """
    if method not in METHODS:
        raise ConfigError(f"method: {method!r} is not one of "
                          f"{', '.join(METHODS)}")
    if method == "sample-split":
        return estimate_split(sample, make_split(sample, aux_fraction, seed),
                              model_specs, alpha=alpha, seed=seed,
                              grid_spec=grid_spec, adjusters=adjusters)
    # sjls needs folds only to fit its adjusters
    folds = None
    if method != "sjls" or adjusters is None:
        group_of = propensity.group_of if method == "cross-fit-group" else None
        folds = make_folds(sample, k_folds, seed, group_of=group_of)
    # an unusable propensity fails before any model is fitted
    if method in ("sjls", "cross-fit-ipw"):
        _propensity_values(sample, propensity)
    elif method == "cross-fit-group":
        _group_of(sample, propensity)
    if adjusters is None:
        s_lo, s_hi, meta = crossfit_adjusters(sample, folds, model_specs, seed,
                                              grid_spec)
    else:
        s_lo, s_hi = adjuster_arrays(adjusters, sample.n)
        meta = None
    if method == "sjls":
        return sjls_report(sample, s_lo, s_hi, propensity, alpha)
    if method == "cross-fit":
        est = estimate_crossfit(sample, s_lo, s_hi, meta)
    elif method == "cross-fit-ipw":
        est = variant_known_propensity(sample, s_lo, s_hi, propensity)
    elif method == "cross-fit-group":
        est = variant_group_propensity(sample, s_lo, s_hi, propensity)
    else:
        est = variant_fold_t(sample, folds, s_lo, s_hi)
    return one_sided_cis(est, alpha, method=method, h_rules=h_rules)
