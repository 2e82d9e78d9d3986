"""End-to-end benchmark of dtebounds, one workload per process.

    python3 perfbench/run.py --workload cf-select-n2000 --seed 1 \\
        --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` directory. Set-up (a fresh interpreter importing the
package, input generation, the CSV write, the oracle target value and a
small warm-up call) is repeated ``SETUP_REPEATS`` times and its median is
``setup_s``. The timed phase then runs units back to back (a closed loop
with one caller) for about ``--seconds``, and always at least one unit.

With ``--trace 1`` every unit runs twice in a row: untraced, then with span
wrappers installed (see ``spans.py``). The traced run must reproduce the
untraced run's report digest; it gives the per-layer metrics, normalised per
unit, ``trace.overhead``, the untraced over the traced unit time, and
``trace.coverage``, the share of traced unit time inside top-level spans.
Coverage is reported, not gated: the entry point's span wraps the whole
unit. A call that could reach an unwrapped function fails the run when the
wrappers are installed (see ``spans.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A record with the environment,
every metric and each unit's SHA-256 report digest is written to
``.perfbench_work/results/<workload>-seed<seed>-trace<trace>.json``.
"""
from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# BLAS reads these once, when numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
# leave no bytecode next to the sources of the checkout
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, UnitResult  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
SETUP_REPEATS = 3
P90_MIN_UNITS = 100

# (span, fields) reported by the traced run; times and counts are per unit
PER_LAYER = (
    ("condcdf.select_model", ("calls", "s", "self_s")),
    ("condcdf.fit_arm_model", ("calls", "s", "distinct_ratio")),
    ("condcdf.extract_adjusters", ("calls", "self_s", "rows",
                                   "distinct_ratio")),
    ("condcdf.predict", ("s", "rows")),
    ("kernels.shift_cdf_argopt", ("calls", "s", "cells", "cells_per_s",
                                  "m_mean")),
    ("kernels.interp_cdf_argopt", ("calls", "s", "cells", "cells_per_s")),
    ("kernels.scan_extrema", ("calls", "s", "points")),
    ("stoye.stoye_ci", ("calls",)),
    ("stoye.solve_critical_values", ("calls", "s")),
    ("crossfit.crossfit_adjusters", ("self_s",)),
    ("crossfit.estimate_crossfit", ("self_s",)),
    ("crossfit.variance_hat", ("calls", "s")),
    ("crossfit.one_sided_cis", ("self_s",)),
    ("data.load_csv", ("calls", "s", "rows")),
    ("data.make_folds", ("s",)),
    ("cli.main", ("self_s",)),
    ("splitfit.estimate_split", ("calls", "self_s")),
    ("simulate.draw_dgp", ("calls", "s")),
    ("simulate.run_table", ("self_s",)),
    ("simulate.oracle_theta0", ("s",)),
)
FIELD_UNITS = {"calls": "calls/unit", "s": "s/unit", "self_s": "s/unit",
               "rows": "rows/unit", "cells": "cells/unit",
               "points": "points/unit", "distinct_ratio": "ratio",
               "cells_per_s": "cells/s", "m_mean": "residuals"}
SETUP_SPANS = {"simulate.oracle_theta0"}


def import_package():
    """Import dtebounds from this checkout's sources, never from elsewhere."""
    if not (SRC / "dtebounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("cli", "simulate")
    mods = {n: importlib.import_module(f"dtebounds.{n}") for n in names}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: dtebounds imported from {mods['cli'].__file__}")
    return SimpleNamespace(**mods)


def set_up(wl, pkg, work: Path, seed: int) -> tuple[float, float]:
    """Returns the set-up time and the process's peak memory before the
    warm-up, which runs the same code as a unit."""
    # The set-up interpreter reads and writes bytecode only in the
    # benchmark's own cache, whatever the caller's environment says, so
    # import time does not depend on bytecode that other runs (of the tests,
    # say) left next to the sources. The first set-up in a checkout fills
    # the cache; the median of the set-ups reads it.
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str((WORK / "pycache").resolve())
    t0 = time.perf_counter()
    # a new interpreter pays the package import a user pays on each run
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import dtebounds.cli"], check=True, env=env)
    wl.make_inputs(pkg, work, seed)
    inputs_rss_mb = _peak_rss_mb()
    wl.warm_up()
    return time.perf_counter() - t0, inputs_rss_mb


def run_unit(wl, i: int, seen: set, tracer: Tracer | None = None):
    """One unit: its wall time, process CPU time and result. The traceback
    of a unit that raises is printed the first time its message is seen."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        raw = wl.call(i)
        err = None
    except Exception:  # a unit that raises is counted as failed
        err = traceback.format_exc()
    dt = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.end_unit()
    if err is None:
        return dt, cpu, wl.check(i, raw)
    res = UnitResult(False, "", err.strip().splitlines()[-1])
    if res.note not in seen:
        seen.add(res.note)
        print(err, file=sys.stderr)
    return dt, cpu, res


def timed_phase(wl, seconds: float, tracer: Tracer | None = None):
    """Run units 0, 1, ... while the next one, at the mean pace so far, is
    expected to end within ``seconds``; always at least one. A workload
    whose unit takes most of ``seconds`` thus runs one unit, not two. With
    a tracer, each unit runs untraced and then traced, so that both see the
    same machine conditions. Returns the untraced and traced unit records
    and the phase wall time."""
    untraced, traced, seen = [], [], set()
    start = time.perf_counter()
    i = 0
    while True:
        untraced.append(run_unit(wl, i, seen))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_unit(wl, i, seen, tracer))
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed * (i + 1) / i > seconds:
            break
    return untraced, traced, time.perf_counter() - start


def layer_metrics(tracer: Tracer, units: int, setup_tracer: Tracer) -> dict:
    out = {}
    for span, fields in PER_LAYER:
        per = SETUP_REPEATS if span in SETUP_SPANS else units
        st = (setup_tracer if span in SETUP_SPANS else tracer).stats[span]
        for f in fields:
            if f == "calls":
                v = st.calls / per
            elif f == "s":
                v = st.incl / per
            elif f == "self_s":
                v = st.self_time / per
            elif f == "distinct_ratio":
                v = st.distinct / st.calls if st.calls else 0.0
            elif f == "cells_per_s":
                v = st.counts["cells"] / st.incl if st.incl else 0.0
            elif f == "m_mean":
                v = st.counts["m_sum"] / st.calls if st.calls else 0.0
            else:
                v = st.counts[f] / per
            unit = "s" if span in SETUP_SPANS else FIELD_UNITS[f]
            out[f"{span}.{f}"] = (v, unit)
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": NPROC,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "cpu": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    pkg = import_package()
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)

    setup_tracer = Tracer()
    setups = []
    for _ in range(SETUP_REPEATS):
        with (setup_tracer.installed() if args.trace
              else contextlib.nullcontext()):
            setups.append(set_up(wl, pkg, work, args.seed))
    setup_times = [t for t, _ in setups]

    tracer = Tracer() if args.trace else None
    untraced, traced, wall = timed_phase(wl, args.seconds, tracer)
    times = [dt for dt, _, _ in untraced]
    results = [r for _, _, r in untraced]
    cpu_per_unit = (sum(c for _, c, _ in untraced) / len(untraced), "s/unit")
    errors = []
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "units_per_s": (len(times) / wall, "units/s"),
            "unit_s.p50": (statistics.median(times), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        # below peak_rss_mb when units, not the inputs, set the peak
        extra = {"proc.cpu_s": cpu_per_unit,
                 "inputs_peak_rss_mb": (setups[0][1], "MB")}
        if len(times) >= P90_MIN_UNITS:
            extra["unit_s.p90"] = (statistics.quantiles(times, n=10)[-1],
                                   "s")
    else:
        traced_s = sum(dt for dt, _, _ in traced)
        for i, (a, (_, _, b)) in enumerate(zip(results, traced)):
            if a.digest != b.digest:
                errors.append(f"unit {i}: traced report differs from "
                              "untraced")
        metrics = layer_metrics(tracer, len(traced), setup_tracer)
        coverage = tracer.top_level_s / traced_s
        metrics["trace.coverage"] = (coverage, "ratio")
        metrics["trace.overhead"] = (sum(times) / traced_s, "ratio")
        metrics["proc.cpu_s"] = cpu_per_unit
        errors += wl.check_trace(tracer, len(traced))
        extra = {}

    errors += wl.finish(results)
    results += [r for _, _, r in traced]
    failed = sum(not r.ok for r in results)
    errors += sorted({r.note for r in results if not r.ok})
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "units": len(results), "failed": failed,
        "fail_ratio": failed / len(results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_times": setup_times, "errors": errors,
        "unit_s": times, "traced_unit_s": [dt for dt, _, _ in traced],
        "digests": [r.digest for _, _, r in untraced],
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(results)} units, {failed} failed "
          f"(fail_ratio {record['fail_ratio']:g})")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<40s} {value:.6g} {unit}")
    print(f"  environment: {json.dumps(record['environment'])}")
    for err in errors:
        print(f"  error: {err}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
