import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dtebounds.cli import SETTINGS, build_parser, main, resolve_config


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 160
    d = np.array([1, 0] * (n // 2))
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = x1 + 0.8 * d + rng.normal(size=n)
    g = (x2 > 0).astype(int)
    path = tmp_path / "data.csv"
    with open(path, "w") as fh:
        fh.write("y,d,x1,x2,grp,pscore\n")
        for i in range(n):
            fh.write(f"{y[i]:.8f},{d[i]},{x1[i]:.8f},{x2[i]:.8f},"
                     f"{g[i]},0.5\n")
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestAnalyze:
    def test_cross_fit_constant_matches_plain_bounds(self, data_csv, tmp_path):
        out = tmp_path / "rep"
        code = run_cli("analyze", "--input", data_csv, "--y-col", "y",
                       "--d-col", "d", "--x-prefix", "x",
                       "--method", "cross-fit", "--models", "constant",
                       "--output", str(out))
        assert code == 0
        payload = json.loads((tmp_path / "rep.json").read_text())
        from dtebounds import load_csv, makarov_bounds
        s = load_csv(data_csv, "y", "d", x_prefix="x")
        mk = makarov_bounds(s)
        assert payload["report"]["estimate"]["theta_l"] == mk.theta_l
        assert payload["report"]["estimate"]["theta_u"] == mk.theta_u
        assert payload["config"]["method"] == "cross-fit"
        assert (tmp_path / "rep.txt").read_text().startswith("method")

    def test_sample_split_echoes_critical_value(self, data_csv, tmp_path):
        out = tmp_path / "ss"
        code = run_cli("analyze", "--input", data_csv, "--y-col", "y",
                       "--d-col", "d", "--x-prefix", "x",
                       "--method", "sample-split", "--alpha", "0.05",
                       "--seed", "3", "--output", str(out))
        assert code == 0
        payload = json.loads((tmp_path / "ss.json").read_text())
        rep = payload["report"]
        n1 = rep["meta"]["n1_main"]
        n0 = rep["meta"]["n0_main"]
        from dtebounds import dkw_critical
        assert rep["crit"]["c_alpha"] == pytest.approx(
            dkw_critical(0.05, n1, n0))

    def test_unknown_method_exits_2_and_lists(self, data_csv, capsys):
        code = run_cli("analyze", "--input", data_csv, "--method", "bogus")
        assert code == 2
        err = capsys.readouterr().err
        assert "cross-fit" in err and "sjls" in err

    def test_missing_file_exits_4(self, tmp_path):
        code = run_cli("analyze", "--input", str(tmp_path / "nope.csv"),
                       "--x-prefix", "x")
        assert code == 4

    def test_degenerate_design_exits_2(self, tmp_path):
        path = tmp_path / "onearm.csv"
        path.write_text("y,d,x1\n1.0,1,0.0\n2.0,1,0.1\n")
        code = run_cli("analyze", "--input", str(path), "--x-prefix", "x")
        assert code == 2

    @pytest.mark.parametrize("bad", ["latin1", "big"])
    def test_undecodable_or_oversized_input_exits_2(self, data_csv, tmp_path,
                                                    capsys, bad):
        """A byte that is not UTF-8 or a field over the csv module's limit
        is a typed input error naming its line or row, not a traceback."""
        import csv

        lines = Path(data_csv).read_bytes().split(b"\n")
        if bad == "latin1":
            lines[4] = lines[4].replace(b",", b",\xe9", 1)
            want = "line 5: not UTF-8 text (invalid continuation byte at byte "
        else:
            lines[4] = lines[4] + b"1" * csv.field_size_limit()
            want = "row 4: field larger than field limit "
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(lines))
        code = run_cli("analyze", "--input", str(path), "--x-prefix", "x",
                       "--models", "constant")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {want}")

    def test_determinism(self, data_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli("analyze", "--input", data_csv, "--y-col", "y",
                           "--d-col", "d", "--x-prefix", "x",
                           "--method", "cross-fit",
                           "--models", "knn_loc_shift:k=10",
                           "--seed", "11", "--output", str(out))
            assert code == 0
            payload = json.loads((tmp_path / f"{name}.json").read_text())
            payload["config"].pop("output")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_config_file_with_flag_override(self, data_csv, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "method = cross-fit\nalpha = 0.10\ny_col = y\nd_col = d\n"
            "x_prefix = x\nmodels = constant\n")
        out = tmp_path / "cfg"
        code = run_cli("analyze", "--config", str(cfgfile), "--input",
                       data_csv, "--alpha", "0.05", "--output", str(out))
        assert code == 0
        payload = json.loads((tmp_path / "cfg.json").read_text())
        assert payload["config"]["alpha"] == 0.05  # flag wins
        assert payload["config"]["method"] == "cross-fit"

    def test_delta_shift_and_squash(self, data_csv, tmp_path):
        out = tmp_path / "d"
        code = run_cli("analyze", "--input", data_csv, "--y-col", "y",
                       "--d-col", "d", "--x-prefix", "x", "--delta", "0.05",
                       "--squash", "--output", str(out))
        assert code == 0
        txt = (tmp_path / "d.txt").read_text()
        assert "transformed outcome scale" in txt

    @pytest.mark.parametrize("method", ["sjls", "cross-fit-ipw"])
    def test_known_propensity_methods(self, data_csv, tmp_path, method):
        out = tmp_path / method
        code = run_cli("analyze", "--input", data_csv, "--y-col", "y",
                       "--d-col", "d", "--x-prefix", "x",
                       "--method", method, "--propensity-mode",
                       "constant_known", "--propensity-pi", "0.5",
                       "--output", str(out))
        assert code == 0
        payload = json.loads((tmp_path / f"{method}.json").read_text())
        assert payload["report"]["method"] == method

    @pytest.mark.parametrize("method, mode, want", [
        ("sjls", "constant_known",
         "propensity.pi: required for constant_known"),
        ("cross-fit-ipw", "known_function",
         "propensity.col: required for known_function"),
        ("cross-fit-group", "group", "group.col: required for group mode")])
    def test_missing_propensity_setting_is_named(self, data_csv, capsys,
                                                 method, mode, want):
        code = run_cli("analyze", "--input", data_csv, "--x-prefix", "x",
                       "--models", "constant", "--method", method,
                       "--propensity-mode", mode)
        assert code == 2
        assert capsys.readouterr().err == f"error: {want}\n"

    @pytest.mark.parametrize("method, flags", [
        ("cross-fit-ipw", ("--propensity-mode", "known_function",
                           "--propensity-col", "pscore")),
        ("cross-fit-group", ("--propensity-mode", "group",
                             "--group-col", "grp"))])
    def test_input_is_read_once(self, data_csv, tmp_path, monkeypatch,
                                method, flags):
        """The sample and its propensity or group column come from one
        open of the input file."""
        import builtins

        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code = run_cli("analyze", "--input", data_csv, "--x-cols", "x1",
                       "--models", "constant", "--method", method, *flags,
                       "--output", str(tmp_path / "out"))
        assert code == 0
        assert opened.count(data_csv) == 1

    @pytest.mark.parametrize("bad, want", [
        ("1.0", "propensity value out of (eps, 1-eps) at row 2"),
        ("abc", "{path}: row 2: 'pscore' value 'abc' is not a finite "
                "number")], ids=["out of range", "not a number"])
    def test_bad_propensity_cells_name_their_data_row(self, data_csv,
                                                      tmp_path, capsys,
                                                      bad, want):
        """A propensity out of range and one that is not a number, each in
        data row 2, name the same row, as every other input error does."""
        lines = Path(data_csv).read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + f",{bad}"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", "--input", str(path), "--x-prefix", "x",
                       "--method", "cross-fit-ipw",
                       "--propensity-mode", "known_function",
                       "--propensity-col", "pscore")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {want.format(path=path)}\n")

    def test_propensity_on_the_band_edge_names_its_row(self, data_csv,
                                                       tmp_path, capsys):
        """The band (eps, 1 - eps) is open for known per-unit values, as
        for a known constant: a propensity of exactly 0.001 in data row 2
        is an error that names the row."""
        lines = Path(data_csv).read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",0.001"
        path = tmp_path / "edge.csv"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", "--input", str(path), "--x-prefix", "x",
                       "--method", "cross-fit-ipw",
                       "--propensity-mode", "known_function",
                       "--propensity-col", "pscore")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: propensity value out of (eps, 1-eps) at row 2\n")

    def test_unread_model_parameter_fails_the_fold(self, data_csv, tmp_path,
                                                   capsys):
        code = run_cli("analyze", "--input", data_csv, "--x-prefix", "x",
                       "--models", "knn_loc_shift:K=3",
                       "--output", str(tmp_path / "k"))
        assert code == 3
        assert capsys.readouterr().err == (
            "estimation failed: fold 1: model spec 'knn_loc_shift:K=3': "
            "knn_loc_shift reads no parameter 'K'\n")

    def test_group_method(self, data_csv, tmp_path):
        out = tmp_path / "grp"
        code = run_cli("analyze", "--input", data_csv, "--y-col", "y",
                       "--d-col", "d", "--x-cols", "x1",
                       "--method", "cross-fit-group", "--propensity-mode",
                       "group", "--group-col", "grp", "--output", str(out))
        assert code == 0

    def test_foldt_method(self, data_csv, tmp_path):
        code = run_cli("analyze", "--input", data_csv, "--y-col", "y",
                       "--d-col", "d", "--x-prefix", "x",
                       "--method", "cross-fit-foldt",
                       "--output", str(tmp_path / "ft"))
        assert code == 0


def read_curve(path):
    """(header lines, (t, delta) rows) of a bounds-curve dump."""
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    rows = np.array([[float(v) for v in ln.split()]
                     for ln in lines if not ln.startswith("#")])
    return header, rows


def arm_profile(s, shift=0.0):
    """The two-sample profile of y - shift, as a (t, delta) row array."""
    from dtebounds import kernels
    y = s.y - shift
    return np.column_stack(kernels.delta_profile(y[s.d == 1], y[s.d == 0]))


class TestBoundsCurve:
    def test_dump_matches_report(self, data_csv, tmp_path):
        from dtebounds import load_csv
        s = load_csv(data_csv, "y", "d", x_prefix="x")
        out = tmp_path / "curve"
        for models in ("constant", "knn_loc_shift:k=10"):
            code = run_cli("bounds-curve", "--input", data_csv, "--y-col",
                           "y", "--d-col", "d", "--x-prefix", "x",
                           "--models", models, "--output", str(out))
            assert code == 0
            header, rows = read_curve(tmp_path / "curve.curve.txt")
            theta_l = float(header[1].split("=")[1].split(" at ")[0])
            # the dump is the profile the bound is scanned from
            assert rows[:, 1].max() == theta_l
            if models == "constant":
                # curve equals the unadjusted two-sample difference
                np.testing.assert_array_equal(rows[:, 0], np.unique(s.y))
                np.testing.assert_array_equal(rows, arm_profile(s))

    @pytest.fixture()
    def dgp_csv(self, tmp_path):
        from dtebounds import DgpSpec, draw_dgp
        sample, _ = draw_dgp(DgpSpec(), 200, seed=3)
        p = sample.x.shape[1]
        lines = [",".join(["y", "d"] + [f"x{j + 1:02d}" for j in range(p)])]
        for y, d, x in zip(sample.y.tolist(), sample.d.tolist(),
                           sample.x.tolist()):
            lines.append(",".join([repr(y), str(d)] + [repr(v) for v in x]))
        path = tmp_path / "dgp.csv"
        path.write_text("\n".join(lines) + "\n")
        return sample, path

    def _curve_with_adjusters(self, csv, adj_path, out):
        return run_cli("bounds-curve", "--input", str(csv), "--x-prefix", "x",
                       "--adjuster-file", str(adj_path), "--output", str(out))

    def test_adjuster_file_is_used(self, dgp_csv, tmp_path):
        sample, csv = dgp_csv
        adj = tmp_path / "adj.csv"
        adj.write_text("s_l,s_u\n" + "100,100\n" * sample.n)
        code = self._curve_with_adjusters(csv, adj, tmp_path / "cv")
        assert code == 0
        _, rows = read_curve(tmp_path / "cv.curve.txt")
        np.testing.assert_array_equal(rows, arm_profile(sample, 100.0))

    def test_missing_adjuster_file_exits_4(self, dgp_csv, tmp_path):
        _, csv = dgp_csv
        code = self._curve_with_adjusters(csv, tmp_path / "missing.csv",
                                          tmp_path / "cv")
        assert code == 4

    def test_adjuster_file_row_count_exits_2(self, dgp_csv, tmp_path):
        sample, csv = dgp_csv
        adj = tmp_path / "adj.csv"
        adj.write_text("s_l,s_u\n" + "0,0\n" * (sample.n - 1))
        code = self._curve_with_adjusters(csv, adj, tmp_path / "cv")
        assert code == 2

    def test_adjuster_file_from_config_is_used(self, dgp_csv, tmp_path):
        sample, csv = dgp_csv
        adj = tmp_path / "adj.csv"
        adj.write_text("s_l,s_u\n" + "100,100\n" * sample.n)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"adjuster_file = {adj}\n")
        code = run_cli("bounds-curve", "--config", str(cfgfile), "--input",
                       str(csv), "--x-prefix", "x", "--output",
                       str(tmp_path / "cv"))
        assert code == 0
        _, rows = read_curve(tmp_path / "cv.curve.txt")
        np.testing.assert_array_equal(rows, arm_profile(sample, 100.0))

    def test_one_profile_for_the_lower_side(self, data_csv, tmp_path,
                                            monkeypatch):
        from dtebounds import kernels
        original = kernels.delta_profile
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "delta_profile", counting)
        code = run_cli("bounds-curve", "--input", data_csv, "--x-prefix", "x",
                       "--models", "constant", "--output",
                       str(tmp_path / "cv"))
        assert code == 0
        # constant model: both sides share the dumped lower profile
        assert len(calls) == 1

    def test_empty_arm_exits_2(self, tmp_path):
        path = tmp_path / "onearm.csv"
        path.write_text("y,d,x1\n1.0,0,0.0\n2.0,0,0.1\n")
        code = run_cli("bounds-curve", "--input", str(path), "--x-prefix", "x")
        assert code == 2


class TestSimulate:
    def test_small_run_and_determinism(self, tmp_path):
        cells = tmp_path / "cells.csv"
        cells.write_text("n,p,model,estimator\n"
                         "120,20,none,cross-fit\n"
                         "120,20,none,sjls\n")
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code = run_cli("simulate", "--cells", str(cells), "--reps", "5",
                           "--seed", "9", "--theta0-reps", "1000000",
                           "--output", str(out))
            assert code == 0
            outs.append((tmp_path / f"{name}.csv").read_bytes())
        assert outs[0] == outs[1]
        body = outs[0].decode()
        assert body.startswith("n,p,model,estimator")
        assert len(body.strip().splitlines()) == 3
        sidecar = json.loads((tmp_path / "s1.json").read_text())
        assert sidecar["replications"] == 5
        assert sidecar["master_seed"] == 9

    def test_rates_are_multiples_of_tenth(self, tmp_path):
        cells = tmp_path / "cells.csv"
        cells.write_text("150,20,none,cross-fit\n")
        out = tmp_path / "s"
        code = run_cli("simulate", "--cells", str(cells), "--reps", "10",
                       "--seed", "1", "--theta0-reps", "1000000",
                       "--output", str(out))
        assert code == 0
        row = (tmp_path / "s.csv").read_text().strip().splitlines()[1]
        rate = float(row.split(",")[4])
        assert rate * 10 == pytest.approx(round(rate * 10))

    def test_malformed_cells_exit_2(self, tmp_path):
        cells = tmp_path / "cells.csv"
        cells.write_text("120,20,none\n")
        code = run_cli("simulate", "--cells", str(cells), "--reps", "2")
        assert code == 2

    def test_missing_cells_config_error(self):
        assert run_cli("simulate", "--reps", "2") == 2

    def test_aux_fraction_reaches_run_table(self, tmp_path, monkeypatch):
        from dtebounds import cli

        seen = {}

        def fake_run_table(spec, cells, **kwargs):
            seen.update(kwargs)
            return SimpleNamespace(to_csv=lambda: "")

        monkeypatch.setattr(cli, "run_table", fake_run_table)
        cells = tmp_path / "cells.csv"
        cells.write_text("120,20,none,sample-split\n")
        assert run_cli("simulate", "--cells", str(cells),
                       "--aux-fraction", "0.3") == 0
        assert seen["aux_fraction"] == 0.3

    @pytest.mark.parametrize("line", ["100,20,none,crossfit",
                                      "100,20,knn_loc_shif:k=5,cross-fit",
                                      "1OO,20,none,cross-fit",
                                      "100,15,none,cross-fit"])
    def test_bad_cell_exits_2(self, tmp_path, capsys, line):
        cells = tmp_path / "cells.csv"
        cells.write_text("100,20,none,cross-fit\n" + line + "\n")
        code = run_cli("simulate", "--cells", str(cells), "--reps", "2",
                       "--theta0-reps", "1000000")
        assert code == 2
        assert "error:" in capsys.readouterr().err


# one valid value per settings key, as it is written on the command line
SETTING_VALUES = {
    "alpha": "0.1", "seed": "3", "output": "out", "input": "in.csv",
    "y_col": "yy", "d_col": "dd", "x_prefix": "z", "x_cols": "x1,x2",
    "method": "sjls", "models": "constant,ridge_loc_shift", "delta": "0.5",
    "k_folds": "4", "aux_fraction": "0.4", "h_rule": "logn",
    "propensity.mode": "group", "propensity.pi": "0.3",
    "propensity.col": "ps", "group.col": "grp", "squash": "true",
    "grid": "linear:51", "adjuster_file": "adj.csv", "cells": "cells.csv",
    "reps": "7", "ar_coef": "0.5", "theta0_reps": "1000",
}
# the setting each command requires, so that the config validates
REQUIRED = {"analyze": "input", "bounds-curve": "input",
            "simulate": "cells"}


class TestSettings:
    def test_every_setting_has_a_test_value(self):
        assert set(SETTING_VALUES) == set(SETTINGS)

    @pytest.mark.parametrize("key", sorted(SETTING_VALUES))
    def test_flag_and_config_file_agree(self, key, tmp_path):
        parser = build_parser()
        value = SETTING_VALUES[key]
        flag = "--" + key.replace(".", "-").replace("_", "-")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        for command in SETTINGS[key][2]:
            required = REQUIRED[command]
            base = [command]
            if key != required:
                base += [f"--{required}", SETTING_VALUES[required]]
            by_flag = base + ([flag] if key == "squash" else [flag, value])
            from_flag = resolve_config(parser.parse_args(by_flag))
            from_file = resolve_config(
                parser.parse_args(base + ["--config", str(cfgfile)]))
            assert from_flag == from_file, command
            assert str(from_flag[key]).lower() == value

    def test_bad_config_value_exits_2(self, data_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = abc\n")
        code = run_cli("analyze", "--config", str(cfgfile), "--input",
                       data_csv)
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("false", False), ("NO", False)])
    def test_boolean_config_words(self, text, value, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"squash = {text}\n")
        args = build_parser().parse_args(
            ["analyze", "--input", "in.csv", "--config", str(cfgfile)])
        assert resolve_config(args)["squash"] is value

    @pytest.mark.parametrize("text", ["ture", "off", "2", ""])
    def test_bad_boolean_config_value_exits_2(self, text, data_csv, tmp_path,
                                              capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"squash = {text}\n")
        code = run_cli("analyze", "--config", str(cfgfile), "--input",
                       data_csv)
        assert code == 2
        assert "squash" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--alpha", "--method", "--aux-fraction", "--h-rule",
        "--propensity-mode", "--propensity-pi", "--propensity-col",
        "--group-col"])
    def test_bounds_curve_has_no_analysis_flags(self, flag, data_csv):
        # bounds-curve dumps the cross-fitted curve; it reads no interval,
        # method or propensity setting, so it offers no flag for one
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds-curve", "--input", data_csv, "--x-prefix", "x",
                    flag, "0.5")
        assert exc.value.code == 2

    @pytest.mark.parametrize("models", [",", ""])
    @pytest.mark.parametrize("command, method", [
        ("analyze", "cross-fit"), ("analyze", "cross-fit-foldt"),
        ("analyze", "sample-split"), ("bounds-curve", None)])
    def test_empty_model_list_exits_2(self, command, method, models,
                                      tmp_path, capsys):
        # rejected before any file is read: the input does not exist
        argv = [command, "--input", str(tmp_path / "nope.csv"),
                "--models", models]
        if method:
            argv += ["--method", method]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            "error: need at least one candidate model spec\n")


class TestExternalAdjusters:
    def test_adjuster_file_bypasses_models(self, data_csv, tmp_path):
        import numpy as np
        from dtebounds import load_csv
        from dtebounds.crossfit import estimate_crossfit

        s = load_csv(data_csv, "y", "d", x_prefix="x")
        rng = np.random.default_rng(5)
        s_l = rng.normal(size=s.n)
        s_u = rng.normal(size=s.n)
        adjfile = tmp_path / "adj.csv"
        with open(adjfile, "w") as fh:
            fh.write("s_l,s_u\n")
            for a, b in zip(s_l, s_u):
                fh.write(f"{float(a)!r},{float(b)!r}\n")
        out = tmp_path / "ext"
        code = run_cli("analyze", "--input", data_csv, "--y-col", "y",
                       "--d-col", "d", "--x-prefix", "x",
                       "--method", "cross-fit",
                       "--adjuster-file", str(adjfile),
                       "--seed", "4", "--output", str(out))
        assert code == 0
        payload = json.loads((tmp_path / "ext.json").read_text())
        est = estimate_crossfit(s, s_l, s_u)
        assert payload["report"]["estimate"]["theta_l"] == est.theta_l
        assert payload["report"]["estimate"]["theta_u"] == est.theta_u

    @pytest.mark.parametrize("models", [",", ""])
    @pytest.mark.parametrize("command", ["analyze", "bounds-curve"])
    def test_adjuster_file_needs_no_models(self, command, models, data_csv,
                                           tmp_path):
        adjfile = tmp_path / "adj.csv"
        adjfile.write_text("s_l,s_u\n" + "0.0,0.5\n" * 160)
        code = run_cli(command, "--input", data_csv, "--x-prefix", "x",
                       "--models", models, "--adjuster-file", str(adjfile),
                       "--output", str(tmp_path / "out"))
        assert code == 0

    @pytest.mark.parametrize("bad", ["0.5,abc", "0.5,nan", "0.5,inf", "0.5,",
                                     "0.5", ""])
    def test_bad_adjuster_value_names_row(self, data_csv, tmp_path, capsys,
                                          bad):
        adjfile = tmp_path / "adj.csv"
        rows = ["0.0,0.0"] * 160
        rows[6] = bad
        adjfile.write_text("s_l,s_u\n" + "\n".join(rows) + "\n")
        code = run_cli("analyze", "--input", data_csv, "--x-prefix", "x",
                       "--adjuster-file", str(adjfile))
        assert code == 2
        assert "row 7" in capsys.readouterr().err

    def test_adjuster_file_is_read_once_s_l_checked_first(
            self, data_csv, tmp_path, capsys, monkeypatch):
        """One open of the file serves both columns; a bad s_u cell gives
        the per-column message, and a bad s_l cell is still reported before
        anything wrong with s_u, here a later row with no s_u field."""
        import builtins

        adjfile = tmp_path / "adj.csv"
        rows = ["0.0,0.0"] * 160
        rows[6] = "0.5,abc"
        adjfile.write_text("s_l,s_u\n" + "\n".join(rows) + "\n")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        argv = ("analyze", "--input", data_csv, "--x-prefix", "x",
                "--adjuster-file", str(adjfile))
        assert run_cli(*argv) == 2
        assert opened.count(str(adjfile)) == 1
        assert capsys.readouterr().err == (
            f"error: {adjfile}: row 7: 's_u' value 'abc' is not a finite "
            f"number\n")
        rows[8] = "x"
        adjfile.write_text("s_l,s_u\n" + "\n".join(rows) + "\n")
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: {adjfile}: row 9: 's_l' value 'x' is not a finite "
            f"number\n")

    @pytest.mark.parametrize("bad", ["high", "nan"])
    def test_bad_propensity_value_names_row(self, data_csv, tmp_path, capsys,
                                            bad):
        lines = Path(data_csv).read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + f",{bad}"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", "--input", str(path), "--x-prefix", "x",
                       "--method", "cross-fit-ipw",
                       "--propensity-mode", "known_function",
                       "--propensity-col", "pscore")
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["latin1", "big"])
    def test_undecodable_or_oversized_adjuster_file_exits_2(
            self, data_csv, tmp_path, capsys, bad):
        import csv

        adjfile = tmp_path / "adj.csv"
        rows = [b"0.0,0.0"] * 160
        if bad == "latin1":
            rows[6] = b"0.0,0.\xff"
            want = "line 8: not UTF-8 text (invalid start byte at byte "
        else:
            rows[6] = b"0.0," + b"5" * (csv.field_size_limit() + 1)
            want = "row 7: field larger than field limit "
        adjfile.write_bytes(b"s_l,s_u\n" + b"\n".join(rows) + b"\n")
        code = run_cli("analyze", "--input", data_csv, "--x-prefix", "x",
                       "--adjuster-file", str(adjfile))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {adjfile}: {want}")

    def test_empty_adjuster_file_is_config_error(self, data_csv, tmp_path):
        adjfile = tmp_path / "adj.csv"
        adjfile.write_text("")
        code = run_cli("analyze", "--input", data_csv, "--x-prefix", "x",
                       "--adjuster-file", str(adjfile))
        assert code == 2

    def test_wrong_length_is_config_error(self, data_csv, tmp_path):
        adjfile = tmp_path / "adj.csv"
        adjfile.write_text("s_l,s_u\n0.0,0.0\n")
        code = run_cli("analyze", "--input", data_csv, "--y-col", "y",
                       "--d-col", "d", "--x-prefix", "x",
                       "--adjuster-file", str(adjfile))
        assert code == 2


def test_import_loads_no_scipy_stats():
    """The normal CDF and quantile come from ``scipy.special``:
    ``scipy.stats`` would add about half a second to every command's
    start. ``scipy.optimize``, which only the Stoye solver needs, is
    imported on the first solve."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dtebounds

    code = ("import sys\n"
            "import dtebounds.cli\n"
            "assert 'scipy.stats' not in sys.modules\n"
            "assert 'scipy.optimize' not in sys.modules\n")
    src = str(Path(dtebounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
