"""Simulation DGP, brute-force oracles, and the Monte Carlo table runner.

The covariate law is Gaussian with two independent lead coordinates and an
autoregressive tail block; potential outcomes are deterministic quadratic
functions of all coordinates, so observing every coordinate point-identifies
the target probability. See the DgpSpec notes on the autoregression
coefficient default.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .condcdf import MODEL_NAMES, parse_model_spec
from .crossfit import METHODS, EstimationError, estimate
from .data import (
    ConfigError,
    DegenerateDesignError,
    PropensityModel,
    Sample,
)
from .stoye import EstimationFailure

__all__ = [
    "DgpSpec",
    "HiddenOutcomes",
    "draw_dgp",
    "oracle_theta0",
    "oracle_adjuster",
    "McCell",
    "McReport",
    "run_table",
    "MODELS",
    "ESTIMATORS",
]

MODELS = ("none", "oracle")  # plus any conditional-CDF model spec string
# every method but the group one, which the design has no groups for
ESTIMATORS = tuple(m for m in METHODS if m != "cross-fit-group")
_OBSERVED_P = (10, 20)  # observed covariate counts of the design


@dataclass(frozen=True)
class DgpSpec:
    """Simulation design.

    ar_coef is the tail-block autoregression coefficient of the covariate
    covariance. The default 0.2 is calibrated so the design reproduces the
    documented benchmark values (target probability ~0.43 and the power
    table); see the repository notes for the calibration evidence. Pass 0.5
    for the alternative reading.
    """

    d: int = 20
    ar_coef: float = 0.2
    treat_prob: float = 0.5
    observed_p: int = 20
    quad_scale: float = 0.2
    shift: float = -1.0

    def __post_init__(self):
        if self.observed_p not in _OBSERVED_P:
            raise ConfigError("observed_p must be 10 or 20")
        if not 0 < self.treat_prob < 1:
            raise ConfigError("treat_prob must lie in (0,1)")

    def sigma(self) -> np.ndarray:
        idx = np.arange(1, self.d + 1)
        s = self.ar_coef ** np.abs(idx[:, None] - idx[None, :])
        s[:2, :] = 0.0
        s[:, :2] = 0.0
        np.fill_diagonal(s, 1.0)
        return s

    def chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.sigma())

    def beta0(self) -> np.ndarray:
        b = np.zeros(self.d)
        b[0], b[1] = 3.0, 1.0
        b[-6:] = 3.0 ** -np.arange(1, 7)
        return b

    def alt_signs(self) -> np.ndarray:
        return (-1.0) ** np.arange(1, self.d + 1)

    def outcome0(self, x: np.ndarray) -> np.ndarray:
        t = x @ self.alt_signs()
        return x @ self.beta0() + self.quad_scale * t * t

    def effect(self, x: np.ndarray) -> np.ndarray:
        s = x.sum(axis=1)
        return self.shift + s + self.quad_scale * s * s

    def outcome1(self, x: np.ndarray) -> np.ndarray:
        return self.outcome0(x) + self.effect(x)


@dataclass(frozen=True)
class HiddenOutcomes:
    """Potential outcomes retained for oracle use only; estimators must
    never receive this object."""

    x_full: np.ndarray
    y0: np.ndarray
    y1: np.ndarray


def draw_dgp(spec: DgpSpec, n: int, seed=None, rng=None):
    """One draw of the experiment: returns (Sample, HiddenOutcomes).

    The sample's covariates are the first observed_p coordinates; the
    hidden record keeps all coordinates and both potential outcomes.
    """
    if n < 2:
        raise ConfigError("need n >= 2")
    if rng is None:
        rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.d)) @ spec.chol().T
    y0 = spec.outcome0(x)
    y1 = spec.outcome1(x)
    d = (rng.random(n) < spec.treat_prob).astype(np.int64)
    y = np.where(d == 1, y1, y0)
    sample = Sample(y, d, x[:, : spec.observed_p])
    return sample, HiddenOutcomes(x_full=x, y0=y0, y1=y1)


def oracle_theta0(spec: DgpSpec, reps: int = 10_000_000, seed: int = 0,
                  batch: int = 1_000_000) -> float:
    """Brute-force Monte Carlo value of P(Y(1) - Y(0) <= 0)."""
    if reps < 1_000_000:
        raise ConfigError("use at least 1e6 draws for the oracle")
    rng = np.random.default_rng(seed)
    chol_t = spec.chol().T
    hits = 0
    done = 0
    while done < reps:
        m = min(batch, reps - done)
        x = rng.standard_normal((m, spec.d)) @ chol_t
        hits += int(np.count_nonzero(spec.effect(x) <= 0.0))
        done += m
    return hits / reps


def _sharp_point_adjusters(y0, y1):
    """Adjusters attaining the pointwise extrema when potential outcomes are
    deterministic given covariates: a separating midpoint on the active sign
    and the upper outcome elsewhere (any point outside the pair works)."""
    e = y1 - y0
    mid = 0.5 * (y0 + y1)
    mx = np.maximum(y0, y1)
    s_lo = np.where(e < 0, mid, mx)
    s_hi = np.where(e > 0, mid, mx)
    return s_lo, s_hi


def _conditional_tail_factor(spec: DgpSpec):
    """Partitioned-covariance factorization for drawing the unobserved
    coordinates given the observed ones."""
    sig = spec.sigma()
    p = spec.observed_p
    s_oo = sig[:p, :p]
    s_ho = sig[p:, :p]
    s_hh = sig[p:, p:]
    gain = s_ho @ np.linalg.inv(s_oo)
    cond_cov = s_hh - gain @ s_ho.T
    return gain, np.linalg.cholesky(cond_cov + 1e-12 * np.eye(spec.d - p))


def oracle_adjuster(spec: DgpSpec, x_rows: np.ndarray, inner_reps: int = 2000,
                    grid: np.ndarray | None = None, seed: int = 0):
    """Sharp adjustment functions computed from the known design, as the
    (s_lower, s_upper) arrays of their values at the rows of x_rows.

    With all coordinates observed the potential outcomes are deterministic
    per row and the pointwise rule applies. With 10 observed coordinates,
    the unobserved block is drawn from its conditional Gaussian per row and
    the per-row empirical conditional CDFs are compared over the grid.
    """
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=np.float64))
    if spec.observed_p == 20:
        if x_rows.shape[1] != spec.d:
            raise ConfigError("need all coordinates for the deterministic rule")
        return _sharp_point_adjusters(spec.outcome0(x_rows),
                                      spec.outcome1(x_rows))
    if inner_reps < 100:
        raise ConfigError("inner_reps < 100 is too noisy for an oracle")
    if x_rows.shape[1] != spec.observed_p:
        raise ConfigError(f"expected {spec.observed_p} observed coordinates")
    rng = np.random.default_rng(seed)
    if grid is None:
        grid = np.sort(rng.normal(0.0, 30.0, size=4000))
    grid = np.asarray(grid, dtype=np.float64)
    gain, cond_chol = _conditional_tail_factor(spec)
    n = x_rows.shape[0]
    g = grid.size
    s_lo = np.empty(n)
    s_hi = np.empty(n)
    chunk = max(1, int(2e7) // (inner_reps * 2))
    for start in range(0, n, chunk):
        rows = x_rows[start:start + chunk]
        b = rows.shape[0]
        mu = rows @ gain.T
        z = rng.standard_normal((b, inner_reps, spec.d - spec.observed_p))
        tail = mu[:, None, :] + z @ cond_chol.T
        full = np.concatenate(
            [np.broadcast_to(rows[:, None, :], (b, inner_reps, spec.observed_p)),
             tail], axis=2).reshape(b * inner_reps, spec.d)
        y0 = spec.outcome0(full).reshape(b, inner_reps)
        y1 = spec.outcome1(full).reshape(b, inner_reps)
        # per-row ECDF difference over the shared grid, via binned counts
        d_curve = (_row_cdf_counts(y1, grid) - _row_cdf_counts(y0, grid)
                   ) / inner_reps
        s_lo[start:start + b] = grid[np.argmax(d_curve, axis=1)]
        s_hi[start:start + b] = grid[np.argmin(d_curve, axis=1)]
    return s_lo, s_hi


def _row_cdf_counts(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Rows x grid matrix of counts <= each grid point, per row."""
    b, m = samples.shape
    g = grid.size
    bins = np.searchsorted(grid, samples, side="left")  # 0..g
    counts = np.zeros((b, g + 1), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(b), m), bins.ravel()), 1)
    return np.cumsum(counts[:, :g], axis=1)


# ---------------------------------------------------------------------------
# Monte Carlo table runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McCell:
    n: int
    p: int
    model: str
    estimator: str

    def label(self) -> str:
        return f"n={self.n} p={self.p} model={self.model} est={self.estimator}"


@dataclass
class McReport:
    """Per-cell rejection rates and interval lengths with full seed info."""

    spec: DgpSpec
    alpha: float
    theta0: float
    replications: int
    master_seed: int
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        out = ["n,p,model,estimator,reject_zero,reject_theta0,avg_length,"
               "replications,failures"]
        for r in self.rows:
            out.append(
                f"{r['n']},{r['p']},{r['model']},{r['estimator']},"
                f"{r['reject_zero']:.6f},{r['reject_theta0']:.6f},"
                f"{r['avg_length']:.6f},{r['replications']},{r['failures']}")
        return "\n".join(out) + "\n"

    def sidecar(self, extra_config: dict | None = None) -> str:
        from . import __version__

        return json.dumps({
            "software_version": __version__,
            "alpha": self.alpha,
            "theta0": self.theta0,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "dgp": {"d": self.spec.d, "ar_coef": self.spec.ar_coef,
                    "treat_prob": self.spec.treat_prob,
                    "quad_scale": self.spec.quad_scale,
                    "shift": self.spec.shift},
            "config": extra_config or {},
            "rows": self.rows,
        }, indent=2, sort_keys=True)


def _cell_adjusters(cell: McCell, spec_p, sample, hidden, rng):
    if cell.model == "none":
        zero = np.zeros(sample.n)
        return (zero, zero), None
    if cell.model == "oracle":
        if spec_p.observed_p == 20:
            return _sharp_point_adjusters(hidden.y0, hidden.y1), None
        adj = oracle_adjuster(spec_p, sample.x, inner_reps=500,
                              seed=int(rng.integers(2**31)))
        return adj, None
    # a fitted model: ``estimate`` cross-fits the adjusters or fits them on
    # the auxiliary split
    return None, [cell.model]


def _run_cell(cell: McCell, spec: DgpSpec, alpha: float, theta0: float,
              replications: int, master_seed: int, cell_idx: int,
              k_folds: int, aux_fraction: float) -> dict:
    spec_p = replace(spec, observed_p=cell.p)
    rej0 = rej_t0 = tot_len = 0.0
    failures = 0
    done = 0
    for r in range(replications):
        ss = np.random.SeedSequence(master_seed, spawn_key=(cell_idx, r))
        rng = np.random.default_rng(np.random.Philox(ss))
        try:
            sample, hidden = draw_dgp(spec_p, cell.n, rng=rng)
            seed_r = int(rng.integers(2**31))
            adjusters, specs = _cell_adjusters(cell, spec_p, sample, hidden,
                                               rng)
            lo_raw, length = _run_estimator(cell.estimator, sample, adjusters,
                                            specs, alpha, seed_r, k_folds,
                                            aux_fraction, spec_p.treat_prob)
        except (ConfigError, DegenerateDesignError, EstimationError,
                EstimationFailure):
            failures += 1
            continue
        rej0 += lo_raw > 0.0
        rej_t0 += lo_raw > theta0
        tot_len += length
        done += 1
    # with no completed replication there is no rate to report
    denom = done or float("nan")
    return {"n": cell.n, "p": cell.p, "model": cell.model,
            "estimator": cell.estimator,
            "reject_zero": rej0 / denom, "reject_theta0": rej_t0 / denom,
            "avg_length": tot_len / denom, "replications": done,
            "failures": failures}


def _check_cell(cell: McCell):
    """Reject a cell whose p, estimator or model name would fail every
    replication."""
    if cell.p not in _OBSERVED_P:
        raise ConfigError(f"{cell.label()}: p must be 10 or 20")
    if cell.estimator not in ESTIMATORS:
        raise ConfigError(f"{cell.label()}: estimator must be one of "
                          f"{', '.join(ESTIMATORS)}")
    if (cell.model not in MODELS
            and parse_model_spec(cell.model)[0] not in MODEL_NAMES):
        raise ConfigError(f"{cell.label()}: model must be one of "
                          f"{', '.join(MODELS + MODEL_NAMES)}")


def _run_estimator(estimator, sample, adjusters, specs, alpha, seed, k_folds,
                   aux_fraction, true_pi):
    """Returns (raw lower one-sided endpoint, reported interval length)."""
    prop = PropensityModel()
    if estimator in ("sjls", "cross-fit-ipw"):
        prop = PropensityModel(mode="constant_known", pi=true_pi)
    rep = estimate(sample, estimator, specs or [], alpha, seed, k_folds,
                   aux_fraction, propensity=prop, adjusters=adjusters,
                   h_rules=())
    if estimator == "sample-split":
        # length of the two-sided (half-alpha) interval
        return rep.lower_onesided_raw, rep.two_sided_length
    return rep.lower_onesided_raw, rep.onesided_pair_length


def run_table(spec: DgpSpec, cells, replications: int = 1000,
              alpha: float = 0.05, seed: int = 0, k_folds: int = 5,
              aux_fraction: float = 0.5, theta0: float | None = None,
              theta0_reps: int = 2_000_000) -> McReport:
    """Monte Carlo power/size/length table over (n, p, model, estimator)
    cells.

    Rejections use the lower one-sided interval: of zero (power) and of the
    true target value (size). Replications use counter-based streams
    derived from (seed, cell index, replication index). A cell with a p
    other than 10 or 20, or an unknown estimator or model name, raises
    ConfigError before the oracle and any replication run. A replication
    that fails with one of the package's domain errors is counted in the
    cell's ``failures`` and skipped; any other exception propagates. A cell
    with no completed replication reports NaN rates.
    """
    if replications < 1:
        raise ConfigError("need at least one replication")
    cells = [c if isinstance(c, McCell) else McCell(*c) for c in cells]
    for cell in cells:
        _check_cell(cell)
    if theta0 is None:
        theta0 = oracle_theta0(spec, reps=max(theta0_reps, 1_000_000),
                               seed=seed + 1)
    report = McReport(spec=spec, alpha=alpha, theta0=theta0,
                      replications=replications, master_seed=seed)
    for idx, cell in enumerate(cells):
        report.rows.append(_run_cell(cell, spec, alpha, theta0, replications,
                                     seed, idx, k_folds, aux_fraction))
    return report
