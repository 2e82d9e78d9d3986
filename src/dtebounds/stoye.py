"""Two-sided interval for a partially identified probability, with critical
values solving a coverage-constrained minimization.

The pair (c_l, c_u) minimizes sigma_l*c_l + sigma_u*c_u subject to two
coverage constraints over independent standard normals (Z1, Z2). Each
constraint is a bivariate normal probability (Stoye 2009), evaluated in
closed form through Owen's T function (Owen 1956). The pretested length
term Lambda switches off when the estimated bound gap falls below a
vanishing threshold h_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .data import ConfigError
from .reports import BoundsEstimate

__all__ = ["StoyeInterval", "h_threshold", "solve_critical_values", "stoye_ci"]

CL_MAX = 12.0  # every c_l search runs over [0, CL_MAX]
CL_XTOL = 1e-13  # brentq tolerance of a c_l root
PROBIT_CAP = 40.0  # beyond ndtri of any double in (0, 1)
GOLDEN_TOL = 1e-9
H_RULES = ("stoye", "logn", "qloglog")


class EstimationFailure(RuntimeError):
    """Solver non-convergence; the message names rho and lambda."""


@dataclass(frozen=True)
class StoyeInterval:
    c_l: float
    c_u: float
    lam: float
    h_n: float
    lo: float
    hi: float
    alpha: float
    h_rule: str


def h_threshold(n: int, rule: str = "stoye") -> float:
    """Vanishing threshold sequence for the length pretest."""
    if n < 3:
        raise ConfigError("n too small for a threshold sequence")
    if rule == "stoye":
        return math.sqrt(math.log(math.log(n)) / n)
    if rule == "logn":
        return math.sqrt(math.log(n) / n)
    if rule == "qloglog":
        return math.sqrt(2.0 * math.log(math.log(n)) / n)
    raise ConfigError(f"unknown h rule {rule!r}; choose from {H_RULES}")


def _phi2(h: float, k: float, rho: float, w: float) -> float:
    """P(X <= h, Y <= k) for standard normals X, Y with correlation rho,
    w = sqrt(1 - rho^2) > 0, by Owen's T."""
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    if h == 0.0:
        return 0.5 * ndtr(k) + owens_t(k, rho / w)
    if k == 0.0:
        return 0.5 * ndtr(h) + owens_t(h, rho / w)
    beta = 0.5 if (h < 0.0) != (k < 0.0) else 0.0
    return (0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, (k - rho * h) / (h * w))
            - owens_t(k, (h - rho * k) / (k * w)) - beta)


def _constraint1(c_l: float, c_u: float, rho: float, lam_u: float) -> float:
    """P(-c_l <= Z1 and rho*Z1 <= c_u + lam_u + Z2*sqrt(1-rho^2))."""
    w = math.sqrt(max(0.0, 1.0 - rho * rho))
    a = c_u + lam_u
    if w < 1e-10:
        # perfectly correlated limit: the Z2 term vanishes
        if rho > 0:
            return max(0.0, float(ndtr(a) - ndtr(-c_l)))
        return float(ndtr(-max(-c_l, -a)))
    # V = rho*Z1 - w*Z2 is standard normal with corr(Z1, V) = rho
    return float(ndtr(a) - _phi2(-c_l, a, rho, w))


def _constraint2(c_l: float, c_u: float, rho: float, lam_l: float) -> float:
    """P(Z2*sqrt(1-rho^2) - c_l - lam_l <= rho*Z1 and Z1 <= c_u)."""
    w = math.sqrt(max(0.0, 1.0 - rho * rho))
    a = c_l + lam_l
    if w < 1e-10:
        if rho > 0:
            return max(0.0, float(ndtr(c_u) - ndtr(-a)))
        return float(ndtr(min(c_u, a)))
    # U = w*Z2 - rho*Z1 is standard normal with corr(Z1, U) = -rho
    return float(_phi2(c_u, a, -rho, w))


def _cl_required(fn, target: float):
    """The least c_l on [0, CL_MAX] with fn(c_l) >= target, to brentq's
    tolerance, for fn nondecreasing: 0 if fn(0) already reaches target,
    None if fn(CL_MAX) does not. The returned c_l always meets target."""
    # imported on the first solve: scipy.optimize takes 0.2-0.3 s to load,
    # which every command would otherwise pay on start, solve or not
    from scipy.optimize import brentq

    gap = {}
    z_target = ndtri(target)

    def probit_gap(c):
        # brentq runs on the probit scale, where the CDF-like constraint is
        # close to linear in c_l, and so needs about half the evaluations;
        # feasibility is decided on the raw scale
        v = fn(c)
        gap[c] = v - target
        z = ndtri(v)
        return (z if math.isfinite(z) else math.copysign(PROBIT_CAP, v - 0.5)
                ) - z_target

    try:
        c = brentq(probit_gap, 0.0, CL_MAX, xtol=CL_XTOL)
    except ValueError:
        # no sign change: brentq evaluated both ends before giving up
        return 0.0 if gap[0.0] >= 0.0 else None
    # brentq may stop just below the crossing: step up onto the feasible side
    step = CL_XTOL
    while (gap[c] if c in gap else fn(c) - target) < 0.0:
        if c == CL_MAX:
            return None
        c = min(c + step, CL_MAX)
        step *= 2.0
    return c


def solve_critical_values(alpha: float, rho: float, lam_l: float,
                          lam_u: float, sigma_l: float, sigma_u: float):
    """Minimize sigma_l*c_l + sigma_u*c_u subject to both coverage
    constraints.

    Outer golden-section search over c_u. For each c_u, each constraint,
    a bivariate normal probability in closed form (Owen's T), gives the
    least c_l that meets it by one brentq root on [0, CL_MAX]; the
    feasible c_l is the larger of the two, as both constraints are
    nondecreasing in c_l.
    """
    if not 0.0 < alpha < 0.5:
        raise ConfigError("alpha must lie in (0, 0.5) for two-sided intervals")
    target = 1.0 - alpha
    z_a = float(ndtri(1 - alpha))
    z_half = float(ndtri(1 - alpha / 2))
    rho = float(np.clip(rho, -1.0, 1.0))

    def cl_required(c_u: float):
        c1 = _cl_required(lambda c: _constraint1(c, c_u, rho, lam_u), target)
        c2 = _cl_required(lambda c: _constraint2(c, c_u, rho, lam_l), target)
        if c1 is None or c2 is None:
            return None
        return max(c1, c2)

    best = {"obj": float("inf"), "c_l": None, "c_u": None}

    def objective(c_u: float) -> float:
        req = cl_required(c_u)
        if req is None:
            return float("inf")
        obj = sigma_l * req + sigma_u * c_u
        if obj < best["obj"]:
            best.update(obj=obj, c_l=req, c_u=c_u)
        return obj

    lo, hi = max(0.0, z_a - 1e-6), z_half + 1e-6
    # coarse bracket, then golden-section refinement
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
    while b - a > GOLDEN_TOL and it < 400:
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
        raise EstimationFailure(
            f"critical-value search failed: no feasible point found for "
            f"rho={rho:.4f}, lam=({lam_l:.3g},{lam_u:.3g})")
    return (float(np.clip(best["c_l"], 0.0, z_half)),
            float(np.clip(best["c_u"], 0.0, z_half)))


def stoye_ci(est: BoundsEstimate, alpha: float, n: int | None = None,
             h_rule: str = "stoye") -> StoyeInterval:
    """Pretested two-sided interval from a cross-fitting estimate."""
    n = n or est.n
    sigma_l, sigma_u = est.sigma_l, est.sigma_u
    h_n = h_threshold(n, h_rule)
    gap = est.theta_u - est.theta_l
    lam = gap if gap > h_n else 0.0
    if sigma_l < 1e-10 or sigma_u < 1e-10:
        # degenerate variance: fall back to the conservative half-alpha pair
        z_half = float(ndtri(1 - alpha / 2))
        c_l = c_u = z_half
    else:
        rho = est.sigma_lu / (sigma_l * sigma_u)
        if abs(rho) > 1.0 + 1e-9:
            raise ConfigError("variance triple is not positive semidefinite")
        sqrt_n = math.sqrt(n)
        c_l, c_u = solve_critical_values(alpha, rho,
                                         sqrt_n * lam / sigma_l,
                                         sqrt_n * lam / sigma_u,
                                         sigma_l, sigma_u)
    lo = est.theta_l - c_l * sigma_l / math.sqrt(n)
    hi = est.theta_u + c_u * sigma_u / math.sqrt(n)
    return StoyeInterval(c_l=c_l, c_u=c_u, lam=lam, h_n=h_n, lo=lo, hi=hi,
                         alpha=alpha, h_rule=h_rule)
