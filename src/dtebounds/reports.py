"""Result containers shared by the estimators."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["BoundsEstimate", "IntervalReport", "clip_unit"]


def clip_unit(v: float) -> float:
    return float(min(1.0, max(0.0, v)))


@dataclass
class BoundsEstimate:
    """Point estimates of the lower/upper bounds with their optimizers and
    variance information.

    theta_l <= theta_u is not guaranteed (each side uses its own adjustment
    function); crossing is recorded, not silently repaired. Off-support
    optimizers carry the -inf/+inf sentinels.
    """

    theta_l: float
    theta_u: float
    t_l: float
    t_u: float
    sigma2_l: float = float("nan")
    sigma2_u: float = float("nan")
    sigma_lu: float = float("nan")
    pi_hat: float = float("nan")
    n: int = 0
    diagnostics: list = field(default_factory=list)

    @property
    def sigma_l(self) -> float:
        return float(np.sqrt(self.sigma2_l))

    @property
    def sigma_u(self) -> float:
        return float(np.sqrt(self.sigma2_u))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class IntervalReport:
    """Confidence intervals for the target probability, with the critical
    values and method metadata needed to reproduce them.

    From the raw endpoints it derives the one-sided intervals
    [lower_onesided, 1] and [0, upper_onesided], the two-sided interval (all
    clipped to [0,1]) and whether the raw two-sided endpoints ``crossed``.
    The two-sided interval is method-specific (a critical-value pair or a
    union interval); two_sided_by_rule carries any alternatives.
    """

    method: str
    alpha: float
    estimate: BoundsEstimate
    lower_onesided_raw: float
    upper_onesided_raw: float
    two_sided_raw: tuple
    p_lower_zero: float = float("nan")
    p_upper_one: float = float("nan")
    crit: dict = field(default_factory=dict)
    two_sided_by_rule: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    lower_onesided: float = field(init=False)
    upper_onesided: float = field(init=False)
    two_sided: tuple = field(init=False)
    crossed: bool = field(init=False)

    def __post_init__(self):
        lo, hi = self.two_sided_raw
        self.lower_onesided = clip_unit(self.lower_onesided_raw)
        self.upper_onesided = clip_unit(self.upper_onesided_raw)
        self.two_sided = (clip_unit(lo), clip_unit(max(lo, hi)))
        self.crossed = lo > hi

    @property
    def onesided_pair_length(self) -> float:
        """Length of [lower_onesided, upper_onesided] after clipping."""
        return max(0.0, self.upper_onesided - self.lower_onesided)

    @property
    def two_sided_length(self) -> float:
        lo, hi = self.two_sided
        return max(0.0, hi - lo)

    def to_dict(self) -> dict:
        return asdict(self)
