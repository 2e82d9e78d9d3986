"""Golden values for multi-model selection through the two estimators.

Selection scores every candidate with an inner cross-validation and picks
one spec per side, so the per-fold choices and the fitted adjusters depend
on every step of the selection path. These pins were taken from the
per-side implementation (one inner CV per side); any rewrite of selection
or extraction must reproduce them bit for bit.
"""
import hashlib

from dtebounds import DgpSpec, GridSpec, draw_dgp, make_folds, make_split
from dtebounds.crossfit import crossfit_adjusters
from dtebounds.splitfit import estimate_split

CANDIDATES = ["constant", "knn_loc_shift:k=25", "ridge_loc_shift",
              "knn_quantile:k=25"]
GRID = GridSpec("normal", 200)


def golden_sample():
    sample, _ = draw_dgp(DgpSpec(), 300, seed=0)
    return sample


def test_crossfit_selection_golden():
    s = golden_sample()
    lo, hi, meta = crossfit_adjusters(s, make_folds(s, 5, 0), CANDIDATES, 0,
                                      GRID, select_folds=3)
    digest = hashlib.sha256(lo.tobytes() + hi.tobytes())
    assert digest.hexdigest() == (
        "f3941704912cb7ed9a456cf3706a2230c2b26b4738a5a1d90b218718f6851268")
    # three folds pick different specs per side, two pick the same
    assert meta["models_per_fold"] == [
        ("knn_loc_shift:k=25", "knn_quantile:k=25"),
        ("ridge_loc_shift", "knn_loc_shift:k=25"),
        ("knn_quantile:k=25", "knn_quantile:k=25"),
        ("constant", "constant"),
        ("knn_loc_shift:k=25", "knn_quantile:k=25"),
    ]


def test_split_selection_golden():
    s = golden_sample()
    rep = estimate_split(s, make_split(s, 0.5, 0), CANDIDATES, seed=0,
                         grid_spec=GRID, select_folds=3)
    assert rep.estimate.theta_l == 0.025974025974025976
    assert rep.estimate.theta_u == 0.7055684041985412
    assert rep.meta["model_l"] == "ridge_loc_shift"
    assert rep.meta["model_u"] == "constant"


def test_split_single_model_golden():
    s = golden_sample()
    rep = estimate_split(s, make_split(s, 0.5, 0), ["knn_loc_shift:k=25"],
                         seed=0, grid_spec=GRID, select_folds=3)
    assert rep.estimate.theta_l == 0.0491015833481587
    assert rep.estimate.theta_u == 0.722825120085394
    assert rep.estimate.t_l == 0.6935478766207641
    assert rep.estimate.t_u == -2.514354007472746
    assert rep.meta["model_l"] == rep.meta["model_u"] == "knn_loc_shift:k=25"
