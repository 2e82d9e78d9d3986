"""Exact step-function algebra for two-sample CDF comparisons.

Everything here follows the <= (right-continuous) convention: a CDF
evaluated at t counts observations with value <= t. Extrema of the
difference curve are computed exactly by scanning the merged breakpoints;
no grids or smoothing are involved.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .data import Sample
from .reports import BoundsEstimate

__all__ = [
    "side_profiles",
    "profile_bounds",
    "scan_bounds",
    "makarov_bounds",
]


def side_profiles(sample: Sample, s_lo, s_hi, weights=None):
    """The adjusted CDF-difference curve of each side: the
    ``kernels.delta_profile`` (breakpoints, values) of the treated and
    control arms of y - s_lo, and of y - s_hi.

    ``weights`` holds one positive weight per unit (None: plain ECDFs).
    When the two adjusters are equal, one profile serves both sides and
    the same object is returned twice.
    """
    if np.shape(s_lo) != (sample.n,) or np.shape(s_hi) != (sample.n,):
        raise ValueError("adjuster length does not match sample size")
    t_mask = sample.d == 1
    w1 = w0 = None
    if weights is not None:
        w1, w0 = weights[t_mask], weights[~t_mask]

    def profile(s):
        y_adj = sample.y - s
        return kernels.delta_profile(y_adj[t_mask], y_adj[~t_mask], w1, w0)

    lo = profile(s_lo)
    return lo, lo if np.array_equal(s_lo, s_hi) else profile(s_hi)


def profile_bounds(lo, hi):
    """(sup, t_l, inf, t_u): the max over t of the lower-side profile and
    the min over t of the upper-side profile, with the conventions of
    ``kernels.profile_extrema``; the bounds are sup and 1 + inf."""
    sup, t_l, _, _ = kernels.profile_extrema(*lo)
    _, _, inf, t_u = kernels.profile_extrema(*hi)
    return sup, t_l, inf, t_u


def scan_bounds(sample: Sample, s_lo, s_hi, weights=None):
    """Exact optimizers of both adjusted difference curves: the max over t
    of the curve of y - s_lo and the min over t of the curve of y - s_hi.

    Returns (sup, t_l, inf, t_u) as ``profile_bounds`` does.
    """
    return profile_bounds(*side_profiles(sample, s_lo, s_hi, weights))


def makarov_bounds(sample: Sample) -> BoundsEstimate:
    """Unadjusted bounds on P(Y(1) - Y(0) <= 0) from the two observed arms;
    equivalent to the adjusted machinery with a zero adjustment term."""
    zero = np.zeros(sample.n)
    sup, t_l, inf, t_u = scan_bounds(sample, zero, zero)
    return BoundsEstimate(theta_l=sup, theta_u=1.0 + inf, t_l=t_l, t_u=t_u,
                          pi_hat=sample.n1 / sample.n, n=sample.n)
