"""The outermost cross-fit's folds on every CPU: ``kernels._fork_map``.

The calling process runs the first folds and forked children the rest;
results are taken in fold order, and every fold that warned or failed in a
child runs again in the caller. These tests pin that nothing a caller can
see depends on it: adjusters, meta, warnings, errors and buffered output
equal those of the inline loop, one fork is made per outermost cross-fit,
and none where the map runs inline. Affinity is patched, so the forking
paths run on a host of any CPU count, and the size rule is lowered so
that small samples fork.
"""
import errno
import io
import json
import os
import sys
import time
import warnings

import numpy as np
import pytest

from dtebounds import DgpSpec, condcdf, draw_dgp, kernels
from dtebounds.cli import main
from dtebounds.condcdf import GridSpec, crossfit_adjusters, select_model
from dtebounds.crossfit import estimate
from dtebounds.data import ConfigError, EstimationError, Sample, make_folds

GRID = GridSpec("linear", 50)


def make_sample(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    d = (rng.random(n) < 0.5).astype(int)
    y = x[:, 0] + d + rng.normal(size=n)
    return Sample(y, d, x)


# the real size rule, before ``_fork_any_size`` lowers it
FORK_MIN_WORK = kernels._FORK_MIN_WORK


@pytest.fixture(autouse=True)
def _fork_any_size(monkeypatch):
    """Let the small samples here fork: any fold work that is not all
    ``constant`` reaches the rule (``test_size_rule`` restores it)."""
    monkeypatch.setattr(kernels, "_FORK_MIN_WORK", 1)


@pytest.fixture
def forks(monkeypatch, process_log):
    """Every ``os.fork`` call, from the test's process or any child."""
    real = os.fork

    def fork():
        process_log.append("fork")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return process_log


def _crossfit(sample, k_folds, specs, **kwargs):
    return crossfit_adjusters(sample, make_folds(sample, k_folds, 0), specs,
                              seed=3, grid_spec=GRID, **kwargs)


def _assert_same(got, want):
    (lo, hi, meta), (lo_w, hi_w, meta_w) = got, want
    assert lo.tobytes() == lo_w.tobytes()
    assert hi.tobytes() == hi_w.tobytes()
    assert meta == meta_w


SPECS = [["knn_loc_shift:k=10"], ["knn_quantile:k=12"],
         ["constant", "knn_loc_shift:k=10", "ridge_loc_shift"]]


@pytest.mark.parametrize("k_folds", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("specs", SPECS, ids=["one", "quantile", "select"])
def test_forked_equals_inline(cpus, forks, specs, k_folds):
    sample = make_sample(seed=k_folds)
    cpus(1)
    inline = _crossfit(sample, k_folds, specs)
    assert len(forks) == 0
    cpus(2)
    _assert_same(_crossfit(sample, k_folds, specs), inline)
    assert len(forks) == 1


@pytest.mark.parametrize("w, k_folds", [(3, 3), (3, 5), (4, 6), (8, 5)])
def test_more_cpus_fork_one_child_per_share(cpus, forks, w, k_folds):
    sample = make_sample(seed=1)
    cpus(1)
    inline = _crossfit(sample, k_folds, ["knn_loc_shift:k=10"])
    cpus(w)
    _assert_same(_crossfit(sample, k_folds, ["knn_loc_shift:k=10"]), inline)
    assert len(forks) == min(w, k_folds) - 1


@pytest.mark.parametrize("w", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_caller_runs_the_first_share(cpus, w, n):
    cpus(w)
    got = kernels._fork_map(lambda i: (i * i, os.getpid()), range(n), 1)
    assert [v for v, _ in got] == [i * i for i in range(n)]
    own = -(-n // min(w, n))
    assert [pid == os.getpid() for _, pid in got] == (
        [True] * own + [False] * (n - own))
    # contiguous shares, one process each
    pids = [pid for _, pid in got]
    assert len(set(pids)) == min(w, n)
    assert pids == sorted(pids, key=pids.index)


def _flaky_selection(monkeypatch, warn_in=(), fail_in=None):
    """Make fold k of a cross-fit at ``seed=3`` warn (k in ``warn_in``) or
    fail with a fit error (k == ``fail_in``) when it selects its model."""
    real = condcdf.select_model

    def select(candidates, train, cv_folds=5, seed=0, grid_spec=GridSpec()):
        k = seed - 3
        if k in warn_in:
            warnings.warn(f"fold {k} warns", RuntimeWarning if k % 2
                          else UserWarning)
        if k == fail_in:
            raise ConfigError(f"fold {k} cannot fit")
        return real(candidates, train, cv_folds, seed, grid_spec)

    monkeypatch.setattr(condcdf, "select_model", select)


def _outcome(sample):
    """The result or the error of a 5-fold cross-fit, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = _crossfit(sample, 5, ["knn_loc_shift:k=10"])
        except EstimationError as exc:
            result = (type(exc), str(exc), type(exc.__cause__),
                      str(exc.__cause__))
    return result, [(str(w.message), w.category) for w in caught]


# on 2 CPUs the caller runs folds 1-3 and the child folds 4-5
@pytest.mark.parametrize("warn_in, fail_in", [
    ((2, 4), 5),     # warnings in both shares, a failure in the child's
    ((4,), 2),       # a failure in the caller's share
    ((1, 3, 4, 5), None),
    ((), 4),
])
def test_warnings_and_errors_match_inline(cpus, monkeypatch, warn_in,
                                          fail_in):
    _flaky_selection(monkeypatch, warn_in, fail_in)
    sample = make_sample(seed=4)
    cpus(1)
    (inline, inline_warnings) = _outcome(sample)
    cpus(2)
    (forked, forked_warnings) = _outcome(sample)
    assert forked_warnings == inline_warnings
    assert [m for m, _ in forked_warnings] == [f"fold {k} warns"
                                               for k in warn_in
                                               if fail_in is None
                                               or k <= fail_in]
    if fail_in is None:
        _assert_same(forked, inline)
    else:
        assert forked == inline == (
            EstimationError, f"fold {fail_in}: fold {fail_in} cannot fit",
            ConfigError, f"fold {fail_in} cannot fit")


def test_warnings_as_errors_raise_as_inline(cpus, monkeypatch):
    # under -W error the first warning, here in the child's share, raises
    _flaky_selection(monkeypatch, warn_in=(4,))
    sample = make_sample(seed=4)
    for w in (1, 2):
        cpus(w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="^fold 4 warns$"):
                _crossfit(sample, 5, ["knn_loc_shift:k=10"])


def test_real_fit_failure_names_the_fold(cpus):
    cpus(2)
    with pytest.raises(EstimationError, match="^fold 1: k=5000 exceeds"):
        _crossfit(make_sample(60, seed=2), 3, ["knn_loc_shift:k=5000"])


def test_one_fork_per_outermost_cross_fit(cpus, forks):
    cpus(2)
    sample = make_sample(seed=5)
    estimate(sample, "cross-fit", ["constant", "knn_loc_shift:k=10"],
             grid_spec=GRID)
    # the nested selections' cross-fits run inline, in both processes
    assert len(forks) == 1


def test_no_fork_for_constant_models_or_one_cpu(cpus, forks):
    sample = make_sample(seed=5)
    cpus(2)
    _crossfit(sample, 5, ["constant"])
    _crossfit(sample, 5, ["constant", "constant"])
    cpus(1)
    _crossfit(sample, 5, ["knn_loc_shift:k=10"])
    assert len(forks) == 0


def test_size_rule(cpus, forks, monkeypatch):
    # a map forks from FORK_MIN_WORK; a cross-fit counts rows times the
    # non-constant fits of a fold, six per candidate when it selects
    monkeypatch.setattr(kernels, "_FORK_MIN_WORK", FORK_MIN_WORK)
    cpus(2)
    assert kernels._fork_map(abs, [-1, -2], FORK_MIN_WORK - 1) == [1, 2]
    assert len(forks) == 0
    assert kernels._fork_map(abs, [-1, -2], FORK_MIN_WORK) == [1, 2]
    assert len(forks) == 1
    _crossfit(make_sample(n=FORK_MIN_WORK - 1, seed=5), 5,
              ["knn_loc_shift:k=10"])
    assert len(forks) == 1
    _crossfit(make_sample(n=FORK_MIN_WORK, seed=5), 5,
              ["knn_loc_shift:k=10"])
    assert len(forks) == 2
    selecting = -(-FORK_MIN_WORK // 12)
    _crossfit(make_sample(n=selecting - 1, seed=5), 5,
              ["constant", "knn_loc_shift:k=10", "ridge_loc_shift"])
    assert len(forks) == 2
    _crossfit(make_sample(n=selecting, seed=5), 5,
              ["constant", "knn_loc_shift:k=10", "ridge_loc_shift"])
    assert len(forks) == 3


def test_no_fork_without_blas_control(cpus, forks, monkeypatch):
    sample = make_sample(seed=5)
    cpus(1)
    inline = _crossfit(sample, 4, ["knn_loc_shift:k=10"])
    cpus(2)
    monkeypatch.setattr(kernels, "_BLAS", ())
    _assert_same(_crossfit(sample, 4, ["knn_loc_shift:k=10"]), inline)
    assert len(forks) == 0


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_no_fork_without_os_fork(cpus, monkeypatch, missing):
    # macOS has os.fork but no os.sched_getaffinity
    sample = make_sample(seed=5)
    cpus(1)
    inline = _crossfit(sample, 4, ["knn_loc_shift:k=10"])
    cpus(2)
    monkeypatch.delattr(os, missing)
    _assert_same(_crossfit(sample, 4, ["knn_loc_shift:k=10"]), inline)


def test_direct_selection_forks_per_candidate_cross_fit(cpus, forks):
    cpus(2)
    sample = make_sample(seed=6)
    got = select_model(["constant", "knn_loc_shift:k=10",
                        "knn_quantile:k=10"], sample, cv_folds=4,
                       grid_spec=GRID)
    # the constant candidate's folds run inline
    assert len(forks) == 2
    cpus(1)
    assert select_model(["constant", "knn_loc_shift:k=10",
                         "knn_quantile:k=10"], sample, cv_folds=4,
                        grid_spec=GRID) == got


def test_nested_map_runs_inline(cpus, forks):
    cpus(2)
    got = kernels._fork_map(
        lambda i: kernels._fork_map(lambda j: (i, j), range(3), 1), range(2),
        1)
    assert got == [[(i, j) for j in range(3)] for i in range(2)]
    assert len(forks) == 1
    assert not kernels._MAPPING


def test_multi_block_call_in_a_map_equals_the_call_outside(cpus):
    # a shift-kernel call of several blocks, in the caller's share and in a
    # child's
    rng = np.random.default_rng(11)
    args = (rng.normal(size=400), rng.normal(size=400), rng.normal(size=50),
            rng.normal(size=60), np.linspace(-4, 4, 301))
    assert 400 > kernels._SHIFT_BLOCK_EVENTS // 110
    want = kernels.shift_cdf_argopt(*args)
    cpus(2)
    for lo, hi in kernels._fork_map(
            lambda i: kernels.shift_cdf_argopt(*args), range(2), 1):
        assert lo.tobytes() == want[0].tobytes()
        assert hi.tobytes() == want[1].tobytes()


def test_buffered_output_is_written_once(cpus, capfd, monkeypatch):
    # text left in a Python buffer when the children fork must not be
    # flushed by them too
    stdout = io.TextIOWrapper(open(1, "wb", closefd=False))
    monkeypatch.setattr(sys, "stdout", stdout)
    cpus(2)
    print("before the estimate", end="")
    _crossfit(make_sample(seed=7), 5, ["knn_loc_shift:k=10"])
    stdout.flush()
    assert capfd.readouterr().out == "before the estimate"
    stdout.close()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_children_are_killed_when_the_caller_raises(cpus, error):
    # the child's share would run for a minute; the caller's first item
    # raises, and the map returns at once with every child reaped
    def item(i):
        if i == 0:
            raise error("caller fails")
        time.sleep(60)

    cpus(2)
    t0 = time.monotonic()
    with pytest.raises(error, match="caller fails"):
        kernels._fork_map(item, range(2), 1)
    assert time.monotonic() - t0 < 10
    assert not kernels._MAPPING


def test_items_of_a_child_that_dies_run_in_the_caller(cpus):
    # a child that exits before it sends anything leaves its items to the
    # caller, whose results are those of the plain loop
    caller = os.getpid()

    def item(i):
        if os.getpid() != caller:
            os._exit(3)
        return i * i

    cpus(3)
    assert kernels._fork_map(item, range(5), 1) == [i * i for i in range(5)]


def _failing_fork(monkeypatch, ok):
    """``os.fork`` that forks ``ok`` times, then raises EAGAIN, as under a
    process limit."""
    real = os.fork
    calls = []

    def fork():
        calls.append(None)
        if len(calls) > ok:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.mark.parametrize("w, ok", [(2, 0), (3, 0), (3, 1), (4, 1), (4, 2)])
def test_shares_of_a_failed_fork_run_in_the_caller(cpus, monkeypatch, w, ok):
    calls = _failing_fork(monkeypatch, ok)
    cpus(w)
    n = 7
    got = kernels._fork_map(lambda i: (i * i, os.getpid()), range(n), 1)
    assert [v for v, _ in got] == [i * i for i in range(n)]
    assert len(calls) == ok + 1
    # the children that forked run their shares; the caller runs its own
    # and every share from the failed fork on
    own = -(-n // w)
    failed_at = own + (n - own) * ok // (w - 1)
    assert [pid == os.getpid() for _, pid in got] == (
        [True] * own + [False] * (failed_at - own)
        + [True] * (n - failed_at))
    assert not kernels._MAPPING


def test_analyze_runs_on_when_a_fork_fails(cpus, monkeypatch, tmp_path):
    sample, _ = draw_dgp(DgpSpec(), 400, seed=8)
    csv = tmp_path / "data.csv"
    p = sample.x.shape[1]
    csv.write_text("\n".join(
        [",".join(["y", "d"] + [f"x{j}" for j in range(p)])]
        + [",".join([repr(y), str(d)] + [repr(v) for v in x])
           for y, d, x in zip(sample.y.tolist(), sample.d.tolist(),
                              sample.x.tolist())]) + "\n")

    def report(name):
        out = tmp_path / name
        assert main(["analyze", "--input", str(csv), "--x-prefix", "x",
                     "--method", "cross-fit", "--models",
                     "knn_loc_shift:k=10", "--grid", "normal:500",
                     "--output", str(out)]) == 0
        return json.loads((tmp_path / f"{name}.json").read_text())["report"]

    cpus(2)
    want = report("forked")
    calls = _failing_fork(monkeypatch, 0)
    assert report("failed") == want
    assert calls
