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

ANALYZE_GOLDEN = {
    ("cross-fit", "constant"):
        "692454febb197ba045e7504f6a503a3368a9ef927be78cde45e2ff53b7b1846a",
    ("cross-fit", "knn_loc_shift:k=10"):
        "d0d40b8541c45732457178ffc9eede26dd47048faac32e801a9d23f7e809f76c",
    ("cross-fit-foldt", "constant"):
        "16b4b5418b2f74881b88573c8eb3f1b6856a27756a9b1cd0819a32066cdaa36c",
    ("cross-fit-foldt", "knn_loc_shift:k=10"):
        "a3a1e01d5a5d554928387790f35c5980a039ec72d70c9ece42adabb9178fe2ab",
    ("cross-fit-group", "constant"):
        "15b361579d9062335a7f67da1c7d67e00dfa6d6140da81ccadd351f35dc5039b",
    ("cross-fit-group", "knn_loc_shift:k=10"):
        "c1b0d317282d91b12882ec43cb2f15f6b2ad1d98da41d5c85bf21360f7d46b8d",
    ("cross-fit-ipw", "constant"):
        "0a601c447151586c2db3fea560d70d69b00fdcbb512e4ff26dd58f70cb4aad97",
    ("cross-fit-ipw", "knn_loc_shift:k=10"):
        "ac9fb57a98286b9dcbefaa2b9e3502c3afdfad8e1fd9a99c29e24d76407affc8",
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
