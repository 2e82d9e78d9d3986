"""The benchmark's workloads: inputs made from the seed, one unit of work,
and the checks on each unit's output.

Every workload drives the package through a public entry point in the
benchmark's own process: ``cli.main`` for the ``analyze`` workloads, so the
argument, CSV and report layers are on the measured path, and
``simulate.run_table`` for the Monte Carlo workload. Entry points are looked
up on their module at each call, so a span wrapper installed there is seen.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

N_ANALYZE = 2000
N_WARM = 300
ALPHA = 0.05
MC_CELL = (160, 20, "knn_loc_shift:k=5", "sample-split")
# delta >= 0 keeps both indicator variances positive on the default design,
# so the Stoye solver never takes its degenerate-variance shortcut
DELTAS = tuple(round(0.2 * j, 1) for j in range(41))
WARM_SEED_OFFSET = 10**9


@dataclass
class UnitResult:
    ok: bool
    digest: str
    note: str = ""
    info: tuple = ()


def _sha256(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_csv(path: Path, sample) -> None:
    p = sample.x.shape[1]
    header = ["y", "d"] + [f"x{j + 1:02d}" for j in range(p)]
    lines = [",".join(header)]
    for y, d, x in zip(sample.y.tolist(), sample.d.tolist(),
                       sample.x.tolist()):
        lines.append(",".join([repr(y), str(d)] + [repr(v) for v in x]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class AnalyzeWorkload:
    """One ``dtebounds analyze`` call on a generated CSV per unit."""

    def __init__(self, name: str, models: str, sweep_delta: bool = False):
        self.name = name
        self.models = models
        self.sweep_delta = sweep_delta

    def make_inputs(self, pkg, work: Path, seed: int) -> None:
        self.pkg = pkg
        self.work = work
        self.seed = seed
        spec = pkg.simulate.DgpSpec()
        for fname, n, s in (("data.csv", N_ANALYZE, seed),
                            ("warm.csv", N_WARM, WARM_SEED_OFFSET + seed)):
            sample, _ = pkg.simulate.draw_dgp(spec, n, s)
            write_csv(work / fname, sample)

    def _argv(self, data: str, out: str, seed: int, delta: float,
              grid: str) -> list[str]:
        return ["analyze", "--input", data, "--x-prefix", "x",
                "--method", "cross-fit", "--models", self.models,
                "--k-folds", "5", "--seed", str(seed), "--delta", repr(delta),
                "--grid", grid, "--output", out]

    def warm_up(self) -> None:
        # small data and grid: loads lazy imports and runs every code path
        code = self.pkg.cli.main(self._argv(
            str(self.work / "warm.csv"), str(self.work / "warm"),
            WARM_SEED_OFFSET, 1.0 if self.sweep_delta else 0.0,
            "normal:500"))
        if code != 0:
            raise RuntimeError(f"warm-up analyze exited with {code}")

    def delta(self, i: int) -> float:
        return DELTAS[i % len(DELTAS)] if self.sweep_delta else 0.0

    def call(self, i: int):
        # the sweep holds data, folds and grid fixed so that theta(delta)
        # is comparable across units; the other workloads vary the seed
        seed = self.seed if self.sweep_delta else self.seed * 1000 + i
        return self.pkg.cli.main(self._argv(
            str(self.work / "data.csv"), str(self.work / "unit"), seed,
            self.delta(i), "normal:10000"))

    def check(self, i: int, code) -> UnitResult:
        if code != 0:
            return UnitResult(False, "", f"analyze exited with {code}")
        payload = json.loads((self.work / "unit.json").read_text("utf-8"))
        rep = payload["report"]
        est = rep["estimate"]
        th_l, th_u = est["theta_l"], est["theta_u"]
        problems = []
        if not (0.0 <= th_l <= 1.0 and 0.0 <= th_u <= 1.0):
            problems.append(f"theta outside [0,1]: {th_l}, {th_u}")
        if not rep["lower_onesided_raw"] <= th_l:
            problems.append("lower one-sided endpoint above theta_l")
        if not rep["upper_onesided_raw"] >= th_u:
            problems.append("upper one-sided endpoint below theta_u")
        if self.sweep_delta and not min(est["sigma2_l"],
                                        est["sigma2_u"]) >= 1e-20:
            problems.append("degenerate variance: solver would fall back")
        return UnitResult(not problems, _sha256(rep), "; ".join(problems),
                          (self.delta(i), th_l, th_u))

    def check_trace(self, tracer, units: int) -> list[str]:
        solves = tracer.stats["stoye.solve_critical_values"].calls
        if self.sweep_delta and solves != 3 * units:
            # one solve per threshold rule, unless the variance fell back
            return [f"{solves} Stoye solves for {units} units: a solver "
                    "call fell back"]
        return []

    def finish(self, results: list[UnitResult]) -> list[str]:
        if not self.sweep_delta:
            return []
        errors = []
        by_delta = {}
        for r in results:
            if not r.ok:
                continue
            delta = r.info[0]
            if delta in by_delta and by_delta[delta].digest != r.digest:
                errors.append(f"delta={delta}: repeated unit changed report")
            by_delta.setdefault(delta, r)
        ordered = [by_delta[d].info for d in sorted(by_delta)]
        for (d0, l0, u0), (d1, l1, u1) in zip(ordered, ordered[1:]):
            if not (l0 <= l1 and u0 <= u1):
                errors.append(f"theta not nondecreasing from delta={d0} "
                              f"to delta={d1}")
        return errors


class MonteCarloWorkload:
    """One replication of a ``run_table`` cell per unit, against the
    oracle target value computed during set-up."""

    name = "split-mc-n160"

    def make_inputs(self, pkg, work: Path, seed: int) -> None:
        self.pkg = pkg
        self.seed = seed
        self.spec = pkg.simulate.DgpSpec()
        self.cell = pkg.simulate.McCell(*MC_CELL)
        # small batches keep the oracle's arrays below the unit's memory,
        # so peak_rss_mb is set by the timed units; the draws, and so
        # theta0, do not depend on the batch size
        self.theta0 = pkg.simulate.oracle_theta0(
            self.spec, reps=1_000_000, seed=seed, batch=10_000)

    def _table(self, seed: int):
        return self.pkg.simulate.run_table(
            self.spec, [self.cell], replications=1, alpha=ALPHA, seed=seed,
            theta0=self.theta0)

    def warm_up(self) -> None:
        self._table(WARM_SEED_OFFSET + self.seed)

    def call(self, i: int):
        return self._table(self.seed * 1000 + i)

    def check(self, i: int, report) -> UnitResult:
        row = report.rows[0]
        ok = row["failures"] == 0 and row["replications"] == 1
        note = "" if ok else f"{row['failures']} replication failures"
        return UnitResult(ok, _sha256(report.rows), note,
                          (row["reject_theta0"],))

    def check_trace(self, tracer, units: int) -> list[str]:
        return []

    def finish(self, results: list[UnitResult]) -> list[str]:
        done = [r.info[0] for r in results if r.ok]
        if not done:
            return []
        # DKW intervals hold at any n: the size is at most alpha, up to
        # three binomial standard errors of Monte Carlo noise
        rate = sum(done) / len(done)
        slack = 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / len(done))
        if rate > ALPHA + slack:
            return [f"reject_theta0 rate {rate:.4f} exceeds "
                    f"{ALPHA} + {slack:.4f} over {len(done)} replications"]
        return []


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    AnalyzeWorkload("cf-select-n2000",
                    "constant,knn_loc_shift:k=25,ridge_loc_shift"),
    AnalyzeWorkload("cf-quantile-n2000", "knn_quantile:k=45"),
    MonteCarloWorkload(),
    AnalyzeWorkload("delta-sweep-n2000", "constant", sweep_delta=True),
)}
