"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0]
        [--compare .perfbench_work/sweep-trace0.json]

Runs ``run.py`` once per workload and seed, one process at a time, with the
``run_seconds`` of ``BENCHMARK.json``. For each metric it prints the median
and the quartile spread ``(q3 - q1) / median`` of ``statistics.quantiles``,
next to the metric's bound; ``!`` marks a spread of a third of the bound or
more. Each run's report digests are compared with the previous record of
the same workload and seed, so repeating a sweep shows whether results are
bit-identical. ``--compare`` checks every median against an earlier
summary: ``!`` marks one worse by more than the bound. The summary is
written to ``.perfbench_work/sweep-trace<trace>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload, seed, seconds, trace) -> tuple[dict, str]:
    record_path = (WORK / "results" / f"{workload}-seed{seed}-trace{trace}"
                   ".json")
    previous = (json.loads(record_path.read_text())["digests"]
                if record_path.exists() else None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digests = json.loads(record_path.read_text())["digests"]
    if previous is None:
        return result, f"first run of {len(digests)} units"
    k = min(len(previous), len(digests))
    same = previous[:k] == digests[:k]
    return result, f"{'digests identical' if same else 'DIGESTS DIFFER'} " \
                   f"over {k} units"


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()
    declared = {m["name"]: m for m in
                bench["per_layer" if args.trace else "end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    summary = {}
    problems = 0
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            result, digest_note = run_one(workload, seed,
                                          bench["run_seconds"], args.trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != {k: m["unit"] for k, m in declared.items()}:
                print(f"  metrics differ from BENCHMARK.json: {got}")
                problems += 1
            ok = result["correct"] and result["failed"] == 0
            problems += not ok or "DIFFER" in digest_note
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}, {digest_note}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            row = {"median": med, "values": vals}
            line = f"  {name:<40s} median {med:<12.6g}"
            meta = declared.get(name, {})
            if len(vals) >= 2:
                row["spread"] = spread(vals)
                line += f" spread {row['spread']:.4f}"
            if "bound" in meta:
                line += f" bound {meta['bound']}"
                if row.get("spread", 0.0) >= meta["bound"] / 3:
                    line += " !"
                    problems += 1
            before = earlier.get(workload, {}).get(name)
            if before and "bound" in meta:
                sign = 1 if meta["better"] == "lower" else -1
                change = sign * (med - before["median"]) / before["median"]
                line += f" vs earlier {change:+.4f}"
                if change > meta["bound"]:
                    line += " !"
                    problems += 1
            print(f"{line} {meta.get('unit', '')}")
            summary[workload][name] = row
    out = WORK / f"sweep-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {out.relative_to(ROOT)}; {problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
