"""Batch command-line interface: analyze a dataset, run simulations, dump
difference curves.

All randomness flows from a single --seed; identical (config, data, seed)
produce byte-identical outputs. Exit codes: 0 success, 2 configuration or
validation problem, 3 estimation failure, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .condcdf import GridSpec
from .crossfit import METHODS, EstimationError, crossfit_adjusters, estimate
from .data import (
    ConfigError,
    CsvParseError,
    DegenerateDesignError,
    PropensityModel,
    _csv_rows,
    _read_lines,
    load_csv,
    make_folds,
    shift_for_delta,
    squash_outcomes,
)
from .simulate import DgpSpec, McCell, run_table
from .stepfun import profile_bounds, side_profiles
from .stoye import EstimationFailure, H_RULES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3
EXIT_IO = 4


def read_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


_DATA = ("analyze", "bounds-curve")
_ALL = _DATA + ("simulate",)

# config key -> (type, default, subcommands with its flag, flag help). The
# flag is the key with '.' and '_' spelled '-'; a key whose default is None
# enters the config only when it is set. A subcommand has no flag for a key
# it never reads; config-file keys apply to every subcommand.
SETTINGS = {
    "alpha": (float, 0.05, ("analyze", "simulate"), None),
    "seed": (int, 0, _ALL, None),
    "output": (str, None, _ALL,
               "output path prefix (writes <prefix>.json etc.)"),
    "input": (str, None, _DATA, "CSV data file"),
    "y_col": (str, "y", _DATA, None),
    "d_col": (str, "d", _DATA, None),
    "x_prefix": (str, None, _DATA, None),
    "x_cols": (str, None, _DATA, "comma-separated covariate columns"),
    "method": (str, "cross-fit", ("analyze",), None),
    "models": (str, "constant", _DATA, "comma-separated model specs"),
    "delta": (float, 0.0, _DATA, None),
    "k_folds": (int, 5, _ALL, None),
    "aux_fraction": (float, 0.5, ("analyze", "simulate"), None),
    "h_rule": (str, "stoye", ("analyze",), None),
    "propensity.mode": (str, "in_sample", ("analyze",), None),
    "propensity.pi": (float, None, ("analyze",), None),
    "propensity.col": (str, None, ("analyze",),
                       "column with known per-unit propensities"),
    "group.col": (str, None, ("analyze",),
                  "column with group labels for the group method"),
    "squash": (bool, False, _DATA,
               "map outcomes through the bounded transform"),
    "grid": (str, "normal:10000", _DATA,
             "argmax grid spec, e.g. normal:10000 or linear:2001"),
    "adjuster_file": (str, None, _DATA,
                      "CSV with per-unit s_l,s_u columns from an external "
                      "learner; bypasses model fitting"),
    "cells": (str, None, ("simulate",),
              "cell file: lines 'n,p,model,estimator'"),
    "reps": (int, 1000, ("simulate",), None),
    "ar_coef": (float, 0.2, ("simulate",), None),
    "theta0_reps": (int, 2000000, ("simulate",), None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtebounds",
        description="Bounds and confidence intervals for the distribution "
                    "of treatment effects")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_ in (
            ("analyze", "estimate bounds on one dataset"),
            ("bounds-curve", "dump the adjusted CDF-difference curve"),
            ("simulate", "Monte Carlo power/size table")):
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", help="flat key=value config file")
        for key, (typ, _, commands, flag_help) in SETTINGS.items():
            if command not in commands:
                continue
            flag = "--" + key.replace(".", "-").replace("_", "-")
            if typ is bool:
                p.add_argument(flag, dest=key, action="store_true",
                               default=None, help=flag_help)
            else:
                p.add_argument(flag, dest=key, type=typ, help=flag_help)
    return parser


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _parse_setting(key: str, val: str):
    typ = SETTINGS[key][0]
    try:
        return _BOOLS[val.lower()] if typ is bool else typ(val)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: {val!r} is not a valid "
                          f"{typ.__name__}") from None


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    cfg = {key: s[1] for key, s in SETTINGS.items() if s[1] is not None}
    if getattr(args, "config", None):
        for key, val in read_config_file(args.config).items():
            if key not in SETTINGS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = _parse_setting(key, val)
    for key in SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    _validate_config(cfg, args.command)
    return cfg


def _validate_config(cfg: dict, command: str):
    if not 0.0 < cfg["alpha"] < 1.0:
        raise ConfigError("alpha: must lie in (0, 1)")
    if not np.isfinite(cfg["delta"]):
        raise ConfigError("delta: must be finite")
    if cfg["method"] not in METHODS:
        raise ConfigError(f"method: {cfg['method']!r} is not one of "
                          f"{', '.join(METHODS)}")
    if cfg["h_rule"] not in H_RULES:
        raise ConfigError(f"h_rule: {cfg['h_rule']!r} is not one of "
                          f"{', '.join(H_RULES)}")
    kind, _, size = cfg["grid"].partition(":")
    if kind not in ("normal", "linear"):
        raise ConfigError("grid: kind must be 'normal' or 'linear'")
    if size and not size.isdigit():
        raise ConfigError("grid: size must be an integer")
    if command in ("analyze", "bounds-curve") and not cfg.get("input"):
        raise ConfigError("input: a data file is required")
    if (command in _DATA and not cfg.get("adjuster_file")
            and not _model_list(cfg)):
        raise ConfigError("need at least one candidate model spec")
    if command == "simulate" and not cfg.get("cells"):
        raise ConfigError("cells: a cell file is required")


def _grid_spec(cfg: dict) -> GridSpec:
    kind, _, size = cfg["grid"].partition(":")
    return GridSpec(kind=kind, size=int(size) if size else 10_000)


def _model_list(cfg: dict) -> list[str]:
    return [m.strip() for m in str(cfg["models"]).split(",") if m.strip()]


def _read_columns(path: str, *cols: str):
    """Each named column's stripped cells in turn, from one read of the
    file. A file that is not UTF-8 text or holds a field longer than
    ``csv.field_size_limit()`` raises CsvParseError at once; a column
    missing from the header raises ConfigError and a row too short for it
    CsvParseError, when that column is reached."""
    try:
        rows = list(_csv_rows(_read_lines(path)))
    except CsvParseError as exc:
        raise CsvParseError(f"{path}: {exc}") from None
    header = [h.strip() for h in rows.pop(0)] if rows else []
    for col in cols:
        if col not in header:
            raise ConfigError(f"column {col!r} not found in {path}")
        j = header.index(col)
        out = []
        for rownum, row in enumerate(rows, start=1):
            if len(row) <= j:
                raise CsvParseError(f"{path}: row {rownum}: no {col!r} field")
            out.append(row[j].strip())
        yield np.array(out)


def _read_numbers(path: str, *cols: str) -> list[np.ndarray]:
    """Numeric columns, checked in the order named; a cell that is not a
    finite number raises CsvParseError naming its row (1-based, excluding
    the header)."""
    out = []
    for col, raw in zip(cols, _read_columns(path, *cols)):
        for rownum, val in enumerate(raw, start=1):
            try:
                ok = math.isfinite(float(val))
            except ValueError:
                ok = False
            if not ok:
                raise CsvParseError(f"{path}: row {rownum}: {col!r} value "
                                    f"{str(val)!r} is not a finite number")
        out.append(raw.astype(float))
    return out


def _load_sample(cfg: dict):
    x_cols = None
    if cfg.get("x_cols"):
        x_cols = [c.strip() for c in str(cfg["x_cols"]).split(",")]
    sample = load_csv(cfg["input"], cfg["y_col"], cfg["d_col"],
                      x_cols=x_cols, x_prefix=cfg.get("x_prefix"))
    if cfg["squash"]:
        sample = squash_outcomes(sample)
    if cfg["delta"] != 0.0:
        sample = shift_for_delta(sample, cfg["delta"])
    return sample


def _external_adjusters(cfg: dict, n: int):
    """Per-unit adjustment values fitted outside this package."""
    if not cfg.get("adjuster_file"):
        return None
    s_l, s_u = _read_numbers(cfg["adjuster_file"], "s_l", "s_u")
    if s_l.size != n:
        raise ConfigError(
            f"adjuster_file: expected {n} rows, got {s_l.size}")
    return s_l, s_u


def _propensity(cfg: dict, sample) -> PropensityModel:
    mode = cfg["propensity.mode"]
    if mode == "constant_known":
        return PropensityModel(mode=mode, pi=cfg.get("propensity.pi"))
    if mode == "known_function":
        if not cfg.get("propensity.col"):
            raise ConfigError("propensity.col: required for known_function")
        [vals] = _read_numbers(cfg["input"], cfg["propensity.col"])
        return PropensityModel(mode=mode, p_of_x=vals)
    if mode == "group":
        if not cfg.get("group.col"):
            raise ConfigError("group.col: required for group mode")
        [raw] = _read_columns(cfg["input"], cfg["group.col"])
        _, codes = np.unique(raw, return_inverse=True)
        return PropensityModel(mode=mode, group_of=codes)
    return PropensityModel(mode="in_sample")


def _run_analysis(cfg: dict):
    sample = _load_sample(cfg)
    rules = [cfg["h_rule"]] + [r for r in H_RULES if r != cfg["h_rule"]]
    return estimate(sample, cfg["method"], _model_list(cfg), cfg["alpha"],
                    cfg["seed"], cfg["k_folds"], cfg["aux_fraction"],
                    _grid_spec(cfg), _propensity(cfg, sample),
                    _external_adjusters(cfg, sample.n), rules)


def _render_text(rep, cfg: dict) -> str:
    est = rep.estimate
    lines = [
        f"method            {rep.method}",
        f"alpha             {rep.alpha}",
        f"delta             {cfg['delta']}",
        f"n (analysis)      {est.n}",
        f"lower bound       {est.theta_l:.6f}",
        f"upper bound       {est.theta_u:.6f}",
        f"optimizer t_l     {est.t_l:.6g}",
        f"optimizer t_u     {est.t_u:.6g}",
        f"one-sided lower   [{rep.lower_onesided:.6f}, 1]",
        f"one-sided upper   [0, {rep.upper_onesided:.6f}]",
        f"two-sided         [{rep.two_sided[0]:.6f}, {rep.two_sided[1]:.6f}]"
        + ("  (EMPTY: endpoints crossed)" if rep.crossed else ""),
        f"p (lower = 0)     {rep.p_lower_zero:.6g}",
        f"p (upper = 1)     {rep.p_upper_one:.6g}",
    ]
    if np.isfinite(est.sigma2_l):
        lines.append(f"sigma triple      {est.sigma2_l:.6g} {est.sigma2_u:.6g} "
                     f"{est.sigma_lu:.6g}")
    for rule, (lo, hi) in rep.two_sided_by_rule.items():
        lines.append(f"two-sided[{rule:<8s}] [{lo:.6f}, {hi:.6f}]")
    for d in rep.diagnostics:
        lines.append(f"note: {d}")
    if cfg["squash"]:
        lines.append("note: bounds refer to the transformed outcome scale")
    return "\n".join(lines) + "\n"


def cmd_analyze(cfg: dict) -> int:
    rep = _run_analysis(cfg)
    payload = {"config": _echo(cfg), "report": rep.to_dict()}
    _write_output(cfg, payload, _render_text(rep, cfg))
    return EXIT_OK


def cmd_bounds_curve(cfg: dict) -> int:
    sample = _load_sample(cfg)
    seed = cfg["seed"]
    adjusters = _external_adjusters(cfg, sample.n)
    if adjusters is None:
        s_lo, s_hi, _ = crossfit_adjusters(
            sample, make_folds(sample, cfg["k_folds"], seed),
            _model_list(cfg), seed, _grid_spec(cfg))
    else:
        s_lo, s_hi = adjusters
    lo, hi = side_profiles(sample, s_lo, s_hi)
    sup, t_l, inf, t_u = profile_bounds(lo, hi)
    header = (f"# adjusted CDF-difference curve (lower side)\n"
              f"# theta_l={float(sup)!r} at t_l={float(t_l)!r}\n"
              f"# theta_u={float(1 + inf)!r} at t_u={float(t_u)!r}\n"
              f"# columns: t delta\n")
    body = "".join(f"{float(t)!r} {float(dv)!r}\n" for t, dv in zip(*lo))
    out = cfg.get("output")
    if out:
        with open(f"{out}.curve.txt", "w", encoding="utf-8") as fh:
            fh.write(header + body)
    else:
        sys.stdout.write(header + body)
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    cells = []
    with open(cfg["cells"], encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line or line.lower().startswith("n,"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4 or not (parts[0].isdigit()
                                       and parts[1].isdigit()):
                raise ConfigError(
                    f"{cfg['cells']}:{lineno}: expected n,p,model,estimator")
            cells.append(McCell(int(parts[0]), int(parts[1]), parts[2],
                                parts[3]))
    spec = DgpSpec(ar_coef=cfg["ar_coef"])
    report = run_table(spec, cells, replications=cfg["reps"],
                       alpha=cfg["alpha"], seed=cfg["seed"],
                       k_folds=cfg["k_folds"],
                       aux_fraction=cfg["aux_fraction"],
                       theta0_reps=cfg["theta0_reps"])
    out = cfg.get("output")
    if out:
        with open(f"{out}.csv", "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        with open(f"{out}.json", "w", encoding="utf-8") as fh:
            fh.write(report.sidecar(extra_config=_echo(cfg)))
    else:
        sys.stdout.write(report.to_csv())
    return EXIT_OK


def _echo(cfg: dict) -> dict:
    return {k: cfg[k] for k in sorted(cfg)}


def _write_output(cfg: dict, payload: dict, text: str):
    out = cfg.get("output")
    blob = json.dumps(payload, indent=2, sort_keys=True, default=float)
    if out:
        with open(f"{out}.json", "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
        with open(f"{out}.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "bounds-curve":
            return cmd_bounds_curve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CsvParseError, DegenerateDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EstimationError, EstimationFailure) as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
