"""Golden digests of whole reports from the command line and the Monte Carlo
runner.

Every estimator, both interval constructions and the curve dump are pinned
by the SHA-256 of their serialized output, so a refactor of the estimation
path must reproduce each report bit for bit. A change that moves a report
on purpose updates its pin here and names it in CHANGES.md.
"""
import hashlib
import json

import pytest

from dtebounds import DgpSpec, McCell, draw_dgp, run_table
from dtebounds.cli import main

MODELS = ("constant", "knn_loc_shift:k=10")

# extra flags per method: the known-propensity methods read the design's
# constant treatment probability, the group method a covariate sign
METHOD_FLAGS = {
    "cross-fit": [],
    "sample-split": [],
    "sjls": ["--propensity-mode", "constant_known", "--propensity-pi", "0.5"],
    "cross-fit-group": ["--propensity-mode", "group", "--group-col", "grp"],
    "cross-fit-ipw": ["--propensity-mode", "known_function",
                      "--propensity-col", "pscore"],
    "cross-fit-foldt": [],
}

# the cross-fit pins moved when the Stoye constraints became closed forms
# with a brentq root for c_l: c_l by at most 5.3e-13, the two-sided
# endpoints by at most 2.6e-14
ANALYZE_GOLDEN = {
    ("cross-fit", "constant"):
        "31fe48ec9e0afd7bf14f0d9c27ee89fa3d2888ded8a71126d4595759c52c30ae",
    ("cross-fit", "knn_loc_shift:k=10"):
        "f5acc5d8464fad31d4a96180ea61ffcf54afe5973c18e9efcdb29251fc5d2b6b",
    ("cross-fit-foldt", "constant"):
        "e236f14e6f61c59ac2488a98a43f4dabb951ce105638b0dfd8c73ea0d54fbc1a",
    ("cross-fit-foldt", "knn_loc_shift:k=10"):
        "9a8eeb4ea8103fc19010ba284ef3eb2de9c5f611db0e53ca2318de18fbc7b398",
    ("cross-fit-group", "constant"):
        "b5977e549b41f7a61153b32fcd3022c54d1157e32ea619282b89cac1effeaff4",
    ("cross-fit-group", "knn_loc_shift:k=10"):
        "cd45225aa3192861c6f7850f4127d9a6b9a6955bfdc981e82b438dbf8d78e056",
    ("cross-fit-ipw", "constant"):
        "014a3499326c2f7f47f7e169eb5142b66cbabde0068f3422160c92f741aaf2a0",
    ("cross-fit-ipw", "knn_loc_shift:k=10"):
        "674ea1f087527b82186162fb7451cd8890122c8d0bf58a6a7a17434a64a5ab52",
    ("sample-split", "constant"):
        "f029083556816c58dfd60b1c2139294b504da4c4e4607722d48215d74196a782",
    ("sample-split", "knn_loc_shift:k=10"):
        "a0394417c8abff1c81d95c640f0c959058cc5bfba66a8100d55e642d893946df",
    ("sjls", "constant"):
        "5dab5563b22da4e07827d9b48b573a29f1b04ead8c4bf06d62b1f60ddcd39436",
    ("sjls", "knn_loc_shift:k=10"):
        "1721c04caad9d2b3def71dbf55a3638d988c58dafc9dacc12090ab0835f94a2c",
}

CURVE_GOLDEN = (
    "445550b5579b3d622e01b9ec107948310282f59c98944458ac8700be67dc8420")

# moved when the indicators began comparing y - s with t as the scan does:
# in one cross-fit replication the unit at the optimizer now counts in the
# variance, sigma2_l drops from 0.630 to 0.580, and the lower endpoint
# crosses zero (reject_zero 0.0 -> 0.5)
TABLE_GOLDEN = (
    "e954065c0d7705a15452792e950704300fe500c5153deb7a6915d60e10073ab5")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory):
    sample, _ = draw_dgp(DgpSpec(), 200, seed=3)
    p = sample.x.shape[1]
    path = tmp_path_factory.mktemp("golden") / "data.csv"
    lines = [",".join(["y", "d"] + [f"x{j + 1:02d}" for j in range(p)]
                      + ["grp", "pscore"])]
    for y, d, x in zip(sample.y.tolist(), sample.d.tolist(),
                       sample.x.tolist()):
        lines.append(",".join([repr(y), str(d)] + [repr(v) for v in x]
                              + [str(int(x[0] > 0)), "0.5"]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _common(csv, model, out):
    return ["--input", str(csv), "--x-prefix", "x", "--models", model,
            "--k-folds", "4", "--seed", "11", "--grid", "normal:500",
            "--output", str(out)]


@pytest.mark.parametrize("method,model", sorted(ANALYZE_GOLDEN))
def test_analyze_report_golden(golden_csv, tmp_path, method, model):
    out = tmp_path / "rep"
    code = main(["analyze", "--method", method]
                + _common(golden_csv, model, out) + METHOD_FLAGS[method])
    assert code == 0
    report = json.loads((tmp_path / "rep.json").read_text("utf-8"))["report"]
    blob = json.dumps(report, indent=2, sort_keys=True)
    assert _sha256(blob) == ANALYZE_GOLDEN[(method, model)]


def test_bounds_curve_golden(golden_csv, tmp_path):
    out = tmp_path / "cv"
    code = main(["bounds-curve"]
                + _common(golden_csv, "knn_loc_shift:k=10", out))
    assert code == 0
    text = (tmp_path / "cv.curve.txt").read_text("utf-8")
    assert _sha256(text) == CURVE_GOLDEN


def test_run_table_golden():
    cells = [McCell(80, 20, "knn_loc_shift:k=5", est)
             for est in ("cross-fit", "sample-split", "sjls", "cross-fit-ipw",
                         "cross-fit-foldt")]
    rep = run_table(DgpSpec(), cells, replications=2, seed=9, theta0=0.428)
    assert _sha256(json.dumps(rep.rows, sort_keys=True)) == TABLE_GOLDEN
