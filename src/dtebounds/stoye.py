"""Two-sided interval for a partially identified probability, with critical
values solving a coverage-constrained minimization.

The pair (c_l, c_u) minimizes sigma_l*c_l + sigma_u*c_u subject to two
coverage constraints over independent standard normals (Z1, Z2); each
constraint probability is an integral over Z1, truncated at |Z1| = 8, of a
closed-form normal CDF term, evaluated by fixed 96-node Gauss-Legendre
quadrature. The pretested length term Lambda switches off when the
estimated bound gap falls below a vanishing threshold h_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

from .data import ConfigError
from .reports import BoundsEstimate

__all__ = ["StoyeInterval", "h_threshold", "solve_critical_values", "stoye_ci"]

Z_TRUNC = 8.0
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
BISECT_TOL = 1e-12
CL_MAX = 12.0  # every c_l search runs over [0, CL_MAX]
GOLDEN_TOL = 1e-9
H_RULES = ("stoye", "logn", "qloglog")
# the bisection is replayed from a verified root only where the constraints
# are monotone in floating point: closer to |rho| = 1 the quadrature loses
# accuracy and the constraints stop being monotone
RHO_REPLAY = 0.9
ROOT_STEP = 5e-12
ROOT_WINDOW = 1e-11
# least rise of a constraint across [r - ROOT_STEP, r + ROOT_STEP]: far above
# the quadrature's rounding noise (a few 1e-16), so that beyond ROOT_WINDOW
# the sign of fn - target is the sign of c - r; a root where fn is flat, as
# with a tiny alpha, takes the plain bisection
ROOT_RISE = 1e-14
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


def h_threshold(n: int, rule: str = "stoye", q_factor: float = 2.0) -> float:
    """Vanishing threshold sequence for the length pretest."""
    if n < 3:
        raise ConfigError("n too small for a threshold sequence")
    if rule == "stoye":
        return math.sqrt(math.log(math.log(n)) / n)
    if rule == "logn":
        return math.sqrt(math.log(n) / n)
    if rule == "qloglog":
        if q_factor < 2.0:
            raise ConfigError("q_factor must be >= 2")
        return math.sqrt(q_factor * math.log(math.log(n)) / n)
    raise ConfigError(f"unknown h rule {rule!r}; choose from {H_RULES}")


def _gauss_legendre(lo: float, hi: float, a: float, b: float, w: float) -> float:
    """integral over [lo, hi] of phi(z) * Phi((a + b*z) / w), via fixed-order
    Gauss-Legendre. Within 2e-14 of adaptive quadrature for |rho| <= 0.9,
    but the integrand steepens as w = sqrt(1 - rho^2) shrinks: the largest
    error over 30 random c_l, c_u in [0.3, 3] and lambda in [0, 4] is 7e-9
    at |rho| = 0.99, 2e-3 at 0.999 and 1e-2 at 0.999999."""
    if hi <= lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    z = mid + half * GL_NODES
    vals = _INV_SQRT_2PI * np.exp(-0.5 * z * z) * ndtr((a + b * z) / w)
    return float(half * np.dot(GL_WEIGHTS, vals))


def _constraint1(c_l: float, c_u: float, rho: float, lam_u: float) -> float:
    """P(-c_l <= Z1 and rho*Z1 <= c_u + lam_u + Z2*sqrt(1-rho^2))."""
    w = math.sqrt(max(0.0, 1.0 - rho * rho))
    a = c_u + lam_u
    if w < 1e-10:
        # perfectly correlated limit: the Z2 term vanishes
        if rho > 0:
            return max(0.0, float(ndtr(a) - ndtr(-c_l)))
        return float(ndtr(-max(-c_l, -a)))
    return _gauss_legendre(-c_l, Z_TRUNC, a, -rho, w)


def _constraint2(c_l: float, c_u: float, rho: float, lam_l: float) -> float:
    """P(Z2*sqrt(1-rho^2) - c_l - lam_l <= rho*Z1 and Z1 <= c_u)."""
    w = math.sqrt(max(0.0, 1.0 - rho * rho))
    a = c_l + lam_l
    if w < 1e-10:
        if rho > 0:
            return max(0.0, float(ndtr(c_u) - ndtr(-a)))
        return float(ndtr(min(c_u, a)))
    return _gauss_legendre(-Z_TRUNC, c_u, a, rho, w)


def _bisect(ge, lo: float = 0.0, hi: float = CL_MAX):
    """Bisection for the smallest c on [lo, hi] with ge(c), for ge false
    below and true above some point. None if ge(hi) is false."""
    if not ge(hi):
        return None
    if ge(lo):
        return lo
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if ge(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < BISECT_TOL:
            break
    return hi


def _bisect_cl(fn, target: float, lo: float = 0.0, hi: float = CL_MAX):
    """Smallest c_l with fn(c_l) >= target; fn nondecreasing. None if
    unattainable on [lo, hi]."""
    return _bisect(lambda c: fn(c) >= target, lo, hi)


def _secant_root(g, x0: float, x1: float, maxiter: int = 8):
    """Root of g by secant steps from x0 and x1; None unless the steps
    converge inside (0, CL_MAX)."""
    g0, g1 = g(x0), g(x1)
    for _ in range(maxiter):
        if g1 == g0:
            return None
        x2 = x1 - g1 * (x1 - x0) / (g1 - g0)
        if not 0.0 < x2 < CL_MAX:
            return None
        if abs(x2 - x1) < 1e-13:
            return x2
        x0, g0, x1, g1 = x1, g1, x2, g(x2)
    return None


def _replay_cl(fn, target: float, guess: float):
    """_bisect_cl(fn, target), calling fn only near the crossing.

    The root r of fn = target comes from secant steps warm-started at
    guess, or from brentq on [0, CL_MAX] if they fail. It is verified as
    fn(r - ROOT_STEP) < target <= fn(r + ROOT_STEP), with fn rising by at
    least ROOT_RISE in between. The bisection then makes the same steps as
    _bisect_cl, but decides a point farther than ROOT_WINDOW from r by the
    side of r it lies on, which for a nondecreasing fn is the comparison fn
    would give. Without a verified root it falls back to _bisect_cl.
    """
    def g(c):
        return fn(c) - target

    r = _secant_root(g, guess, guess + 1e-6)
    if r is None:
        try:
            r = brentq(g, 0.0, CL_MAX, xtol=1e-13, disp=False)
        except ValueError:
            return _bisect_cl(fn, target)
    below, above = fn(r - ROOT_STEP), fn(r + ROOT_STEP)
    if not (below < target <= above and above - below >= ROOT_RISE):
        return _bisect_cl(fn, target)
    return _bisect(lambda c: (fn(c) >= target if abs(c - r) <= ROOT_WINDOW
                              else c > r))


def solve_critical_values(alpha: float, rho: float, lam_l: float,
                          lam_u: float, sigma_l: float, sigma_u: float):
    """Minimize sigma_l*c_l + sigma_u*c_u subject to both coverage
    constraints.

    Outer golden-section search over c_u with the required c_l solved by
    bisection from each constraint; the feasible c_l for fixed c_u is the
    max of the two bisection solutions, both nondecreasing requirements.
    For |rho| <= RHO_REPLAY, a constraint whose c_l at the previous c_u was
    interior replays its bisection from a root warm-started there
    (_replay_cl); the result is the same to the bit.
    """
    if not 0.0 < alpha < 0.5:
        raise ConfigError("alpha must lie in (0, 0.5) for two-sided intervals")
    target = 1.0 - alpha
    z_a = float(norm.ppf(1 - alpha))
    z_half = float(norm.ppf(1 - alpha / 2))
    rho = float(np.clip(rho, -1.0, 1.0))
    replay = abs(rho) <= RHO_REPLAY
    last = [None, None]  # each constraint's c_l at the previous c_u

    def required(k: int, fn):
        prev = last[k]
        if replay and prev is not None and prev > 0.0:
            last[k] = _replay_cl(fn, target, prev)
        else:
            last[k] = _bisect_cl(fn, target)
        return last[k]

    def cl_required(c_u: float):
        c1 = required(0, lambda c: _constraint1(c, c_u, rho, lam_u))
        c2 = required(1, lambda c: _constraint2(c, c_u, rho, lam_l))
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
        z_half = float(norm.ppf(1 - alpha / 2))
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
