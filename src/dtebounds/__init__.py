"""Bounds and confidence intervals for the distribution of treatment effects
in randomized experiments, via covariate-adjusted two-sample CDF comparisons.
"""

from .condcdf import GridSpec, extract_adjusters, fit_arm_model, select_model
from .crossfit import (
    estimate,
    estimate_crossfit,
    one_sided_cis,
    sjls_estimate,
    sjls_report,
    variance_hat,
    variant_fold_t,
    variant_group_propensity,
    variant_known_propensity,
)
from .data import (
    Adjuster,
    ConfigError,
    CsvParseError,
    DegenerateDesignError,
    FoldPlan,
    PropensityModel,
    Sample,
    load_csv,
    make_folds,
    shift_for_delta,
    squash_outcomes,
)
from .reports import BoundsEstimate, IntervalReport
from .simulate import (
    DgpSpec,
    McCell,
    draw_dgp,
    oracle_adjuster,
    oracle_theta0,
    run_table,
)
from .splitfit import SplitPlan, dkw_critical, estimate_split, make_split
from .stepfun import makarov_bounds
from .stoye import StoyeInterval, h_threshold, stoye_ci

__version__ = "0.1.0"

__all__ = [
    "Adjuster", "BoundsEstimate", "ConfigError", "CsvParseError",
    "DegenerateDesignError", "DgpSpec", "FoldPlan", "GridSpec",
    "IntervalReport", "McCell", "PropensityModel", "Sample", "SplitPlan",
    "StoyeInterval", "dkw_critical", "draw_dgp", "estimate",
    "estimate_crossfit", "estimate_split", "extract_adjusters",
    "fit_arm_model", "h_threshold", "load_csv", "makarov_bounds",
    "make_folds", "make_split", "one_sided_cis", "oracle_adjuster",
    "oracle_theta0", "run_table", "select_model", "shift_for_delta",
    "sjls_estimate", "sjls_report", "squash_outcomes", "stoye_ci",
    "variance_hat", "variant_fold_t", "variant_group_propensity",
    "variant_known_propensity",
]
