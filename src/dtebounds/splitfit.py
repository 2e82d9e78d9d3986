"""Sample-splitting estimators with distribution-free finite-sample intervals.

One half of the sample (auxiliary) fits the adjustment functions; the other
half (main) evaluates the bound estimators with those functions held fixed.
The DKW concentration inequality then yields intervals whose coverage holds
at any sample size, for any adjustment functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .condcdf import GridSpec, _with_table, fit_adjusters, select_model
from .data import (
    ConfigError,
    DegenerateDesignError,
    Sample,
    adjuster_arrays,
)
from .reports import BoundsEstimate, IntervalReport
from .stepfun import scan_bounds

__all__ = ["SplitPlan", "make_split", "dkw_critical", "estimate_split"]


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint, exhaustive main/auxiliary index sets; the split is
    stratified by treatment so both main arms stay nonempty."""

    aux_fraction: float
    main_treated: np.ndarray
    main_control: np.ndarray
    aux: np.ndarray

    def __post_init__(self):
        if self.main_treated.size == 0 or self.main_control.size == 0:
            raise DegenerateDesignError("main sample needs both arms")

    @property
    def main(self) -> np.ndarray:
        return np.sort(np.concatenate([self.main_treated, self.main_control]))


def make_split(sample: Sample, aux_fraction: float = 0.5,
               seed: int = 0) -> SplitPlan:
    if not 0.0 < aux_fraction < 1.0:
        raise ConfigError("aux_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    aux_parts = []
    main_parts = {}
    for arm in (1, 0):
        idx = np.where(sample.d == arm)[0]
        rng.shuffle(idx)
        n_aux = int(round(aux_fraction * idx.size))
        n_aux = min(max(n_aux, 1), idx.size - 1)
        aux_parts.append(idx[:n_aux])
        main_parts[arm] = np.sort(idx[n_aux:])
    return SplitPlan(aux_fraction=aux_fraction,
                     main_treated=main_parts[1],
                     main_control=main_parts[0],
                     aux=np.sort(np.concatenate(aux_parts)))


def dkw_critical(alpha: float, n1_main: int, n0_main: int) -> float:
    """Finite-sample critical value sqrt(log(2/alpha)/2) * (n1^-1/2 + n0^-1/2).

    Strictly decreasing in alpha and in both arm counts.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    if n1_main < 1 or n0_main < 1:
        raise ConfigError("main arm counts must be positive")
    return math.sqrt(math.log(2.0 / alpha) / 2.0) * (
        n1_main ** -0.5 + n0_main ** -0.5)


def estimate_split(sample: Sample, plan: SplitPlan, model_specs,
                   alpha: float = 0.05, seed: int = 0,
                   grid_spec: GridSpec = GridSpec(),
                   adjusters: tuple[np.ndarray, np.ndarray] | None = None,
                   select_folds: int = 5) -> IntervalReport:
    """Sample-splitting bound estimates with DKW intervals.

    model_specs is a list of model spec strings; with more than one, the
    per-side model is chosen by cross-validation inside the auxiliary set.
    ``adjusters``, two arrays, overrides fitting entirely with user-supplied
    per-unit values (any functions are valid; coverage does not depend on
    them); a side that is not one finite number per unit is a ConfigError.

    Returns an IntervalReport whose two_sided interval uses the half-alpha
    critical value, with one-sided intervals at alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    n1m, n0m = plan.main_treated.size, plan.main_control.size
    if adjusters is not None:
        s_lo, s_hi = adjuster_arrays(adjusters, sample.n)
        spec_l = spec_u = "user"
    else:
        specs = list(model_specs)
        if len(specs) > 1:
            # one neighbour table of the auxiliary rows answers the kNN
            # searches of the selection and of the final fits
            sample = _with_table(sample, plan.aux)
        aux = sample.subset(plan.aux)
        spec_l, spec_u = select_model(specs, aux, select_folds, seed,
                                      grid_spec)
        rng = np.random.default_rng(seed)
        grid = grid_spec.build(aux.y_lo, aux.y_hi, rng)
        main_arms = (plan.main_treated, plan.main_control)
        s_lo, s_hi = np.empty(sample.n), np.empty(sample.n)
        for rows, (lo, hi) in zip(main_arms, fit_adjusters(
                aux, spec_l, spec_u, sample, main_arms, grid)):
            s_lo[rows], s_hi[rows] = lo, hi

    main = plan.main
    sup, t_l, inf, t_u = scan_bounds(sample.subset(main), s_lo[main],
                                     s_hi[main])
    theta_l, theta_u = sup, 1.0 + inf

    c_a = dkw_critical(alpha, n1m, n0m)
    c_half = dkw_critical(alpha / 2.0, n1m, n0m)
    est = BoundsEstimate(theta_l=theta_l, theta_u=theta_u, t_l=t_l, t_u=t_u,
                         pi_hat=sample.n1 / sample.n, n=n1m + n0m)
    rep = IntervalReport(
        method="sample-split",
        alpha=alpha,
        estimate=est,
        lower_onesided_raw=theta_l - c_a,
        upper_onesided_raw=theta_u + c_a,
        two_sided_raw=(theta_l - c_half, theta_u + c_half),
        p_lower_zero=_dkw_p_lower_zero(theta_l, n1m, n0m),
        p_upper_one=_dkw_p_lower_zero(1.0 - theta_u, n1m, n0m),
        crit={"c_alpha": c_a, "c_half_alpha": c_half},
        meta={"n1_main": n1m, "n0_main": n0m,
              "aux_fraction": plan.aux_fraction,
              "model_l": spec_l, "model_u": spec_u},
    )
    if rep.crossed:
        rep.diagnostics.append("two-sided interval endpoints crossed")
    return rep


def _dkw_p_lower_zero(excess: float, n1: int, n0: int) -> float:
    """Smallest alpha at which the one-sided interval excludes the boundary:
    solves dkw_critical(alpha) = excess."""
    if excess <= 0:
        return 1.0
    scale = n1 ** -0.5 + n0 ** -0.5
    return float(min(1.0, 2.0 * math.exp(-2.0 * (excess / scale) ** 2)))

