"""Exact step-function algebra for two-sample CDF comparisons.

Everything here follows the <= (right-continuous) convention: a CDF
evaluated at t counts observations with value <= t. Extrema of the
difference curve are computed exactly by scanning the merged breakpoints;
no grids or smoothing are involved.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import Adjuster, DegenerateDesignError, Sample
from .reports import BoundsEstimate

__all__ = [
    "StepCdf",
    "DeltaCurve",
    "build_curve",
    "sup_delta",
    "inf_delta",
    "scan_bounds",
    "makarov_bounds",
    "dump_curve",
]


@dataclass(frozen=True)
class StepCdf:
    """Right-continuous weighted empirical CDF.

    breakpoints are sorted and distinct; heights[i] is the CDF value at and
    right of breakpoints[i] (0 before the first). For normalized weights the
    last height is 1.
    """

    breakpoints: np.ndarray
    heights: np.ndarray

    @classmethod
    def from_values(cls, values, weights=None, normalize=True):
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise DegenerateDesignError("cannot build a CDF from an empty arm")
        empty = np.empty(0)
        if weights is None:
            return cls(*kernels.delta_profile(values, empty))
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if normalize:
            weights = weights / weights.sum()
        pts, cum = kernels.delta_profile(values, empty, weights, empty)
        if normalize:
            cum[-1] = 1.0  # close cumulative rounding
        return cls(breakpoints=pts, heights=cum)

    def __post_init__(self):
        if np.any(np.diff(self.heights) < -1e-12):
            raise ValueError("CDF heights must be nondecreasing")

    def __call__(self, t):
        idx = np.searchsorted(self.breakpoints, np.asarray(t, dtype=np.float64),
                              side="right")
        padded = np.concatenate([[0.0], self.heights])
        return padded[idx]


@dataclass(frozen=True)
class DeltaCurve:
    """The treated-minus-control adjusted CDF difference t -> F1(t) - F0(t),
    held as the adjusted arm values (and normalized weights, if any) that
    the exact scan reads."""

    vals1: np.ndarray
    vals0: np.ndarray
    w1: np.ndarray | None = None
    w0: np.ndarray | None = None


def build_curve(sample: Sample, adjuster: Adjuster | None = None,
                weight_mode: str = "none", p_of_x=None) -> DeltaCurve:
    """Build the adjusted CDF-difference curve from a sample.

    weight_mode "none" uses plain 1/n_j ECDFs; "ipw-normalized" weights
    unit i by D_i/p(x_i) (treated) or (1-D_i)/(1-p(x_i)) (control) and
    renormalizes within arm so each CDF still reaches 1.
    """
    if adjuster is None:
        adj = np.zeros(sample.n)
    else:
        if len(adjuster.values) != sample.n:
            raise ValueError("adjuster length does not match sample size")
        adj = adjuster.values
    y = sample.y - adj
    t_mask = sample.d == 1
    vals1 = y[t_mask]
    vals0 = y[~t_mask]
    if vals1.size == 0 or vals0.size == 0:
        raise DegenerateDesignError("both treatment arms must be nonempty")
    if weight_mode == "none":
        return DeltaCurve(vals1, vals0)
    if weight_mode == "ipw-normalized":
        if p_of_x is None:
            raise ValueError("ipw mode requires propensity values")
        p = np.asarray(p_of_x, dtype=np.float64)
        w1 = 1.0 / p[t_mask]
        w0 = 1.0 / (1.0 - p[~t_mask])
        if np.any(w1 <= 0) or np.any(w0 <= 0):
            raise ValueError("weights must be positive")
        return DeltaCurve(vals1, vals0, w1 / w1.sum(), w0 / w0.sum())
    raise ValueError(f"unknown weight_mode {weight_mode!r}")


def sup_delta(curve: DeltaCurve) -> tuple[float, float]:
    """Exact max over t of the difference curve.

    Returns (t_star, value); value >= 0 always since the curve is 0 off
    support. t_star is the smallest maximizing breakpoint, or -inf when the
    max 0 is attained only off-support.
    """
    sup, t_sup, _, _ = kernels.scan_extrema(curve.vals1, curve.vals0,
                                            curve.w1, curve.w0)
    return t_sup, sup


def inf_delta(curve: DeltaCurve) -> tuple[float, float]:
    """Exact min over t; value <= 0, t_star smallest minimizing breakpoint
    or +inf sentinel. The implied upper bound is 1 + value."""
    _, _, inf, t_inf = kernels.scan_extrema(curve.vals1, curve.vals0,
                                            curve.w1, curve.w0)
    return t_inf, inf


def scan_bounds(sample: Sample, s_lo, s_hi, weights=None):
    """Exact optimizers of both adjusted difference curves: the max over t
    of the curve of y - s_lo and the min over t of the curve of y - s_hi.

    ``weights`` holds one positive weight per unit (None: plain ECDFs).
    Returns (sup, t_l, inf, t_u) with the conventions of ``sup_delta`` and
    ``inf_delta``; the bounds are sup and 1 + inf.
    """
    t_mask = sample.d == 1
    w1 = w0 = None
    if weights is not None:
        w1, w0 = weights[t_mask], weights[~t_mask]
    y_lo = sample.y - s_lo
    y_hi = sample.y - s_hi
    sup, t_l, _, _ = kernels.scan_extrema(y_lo[t_mask], y_lo[~t_mask], w1, w0)
    _, _, inf, t_u = kernels.scan_extrema(y_hi[t_mask], y_hi[~t_mask], w1, w0)
    return sup, t_l, inf, t_u


def makarov_bounds(sample: Sample) -> BoundsEstimate:
    """Unadjusted bounds on P(Y(1) - Y(0) <= 0) from the two observed arms;
    equivalent to the adjusted machinery with a zero adjustment term."""
    zero = np.zeros(sample.n)
    sup, t_l, inf, t_u = scan_bounds(sample, zero, zero)
    return BoundsEstimate(theta_l=sup, theta_u=1.0 + inf, t_l=t_l, t_u=t_u,
                          pi_hat=sample.n1 / sample.n, n=sample.n)


def dump_curve(curve: DeltaCurve) -> np.ndarray:
    """(t, delta(t)) rows at every merged breakpoint, for external plotting;
    the values are the ones ``sup_delta`` and ``inf_delta`` scan."""
    return np.column_stack(kernels.delta_profile(curve.vals1, curve.vals0,
                                                 curve.w1, curve.w0))
