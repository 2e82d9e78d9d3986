"""The fitting loop's BLAS thread limit, ``kernels._one_blas_thread``.

``condcdf.fit_adjusters`` holds every OpenBLAS in the process to one thread
while it fits and extracts: the fits' small products gain no wall time from
more, idle BLAS threads only spin and burn CPU, and in a forked cross-fit
they would take the other processes' CPUs. The limit is process-global
state: these tests pin that
the previous count comes back on every exit path, under nesting, across
threads and in a forked child, and that no report depends on it.
"""
import json
import os
import random
import signal
import sys
import threading
import time

import numpy as np
import pytest

from dtebounds import DgpSpec, GridSpec, condcdf, draw_dgp, kernels, make_folds
from dtebounds.crossfit import estimate
from dtebounds.data import EstimationError

# above 1 and above any default on a small machine, so that a restore to
# the wrong value shows
RAISED = 3


def _counts(pairs):
    return [get() for get, _ in pairs]


@pytest.fixture()
def blas():
    """The resolved (get, set) pairs, each set to ``RAISED`` threads for the
    test and put back afterwards."""
    with kernels._one_blas_thread():
        pass
    pairs = kernels._BLAS
    if not pairs:
        pytest.skip("no OpenBLAS thread-count functions in this process")
    before = _counts(pairs)
    for _, put in pairs:
        put(RAISED)
    yield pairs
    for (_, put), n in zip(pairs, before):
        put(n)
    assert kernels._blas_depth == 0


def test_numpy_openblas_is_resolved():
    """With numpy on scipy-openblas the scope must find numpy's own set
    function (64-bit integer builds suffix their symbols with ``64_``, which
    tells numpy's library from scipy's); otherwise it would silently leave
    numpy's threads on."""
    with kernels._one_blas_thread():
        pass
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if config["name"] == "scipy-openblas":
        ilp64 = "USE64BITINT" in config.get("openblas configuration", "")
        want = "scipy_openblas_set_num_threads" + ("64_" if ilp64 else "")
        names = [put.__name__ for _, put in kernels._BLAS]
        assert want in names, names


def test_one_thread_inside_and_restored_after(blas):
    with kernels._one_blas_thread():
        assert _counts(blas) == [1] * len(blas)
    assert _counts(blas) == [RAISED] * len(blas)


def test_nested_scopes_restore_at_the_last_exit(blas):
    with kernels._one_blas_thread():
        with kernels._one_blas_thread():
            assert _counts(blas) == [1] * len(blas)
        assert _counts(blas) == [1] * len(blas)
    assert _counts(blas) == [RAISED] * len(blas)


def _fit_recording(monkeypatch, blas, error=None):
    """Make ``fit_arm_model`` record the BLAS counts it runs under, then
    raise ``error`` if given."""
    seen = []
    real = condcdf.fit_arm_model

    def fit(*args, **kwargs):
        seen.append(_counts(blas))
        if error is not None:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(condcdf, "fit_arm_model", fit)
    return seen


def _small_sample():
    sample, _ = draw_dgp(DgpSpec(), 200, seed=3)
    return sample


def test_restored_after_a_fold_fit_error(blas, monkeypatch):
    # k above the arm size is a ConfigError, one of FIT_ERRORS
    seen = _fit_recording(monkeypatch, blas)
    sample = _small_sample()
    with pytest.raises(EstimationError, match="fold 1"):
        condcdf.crossfit_adjusters(sample, make_folds(sample, 5, 0),
                                   ["knn_loc_shift:k=1000"])
    assert seen == [[1] * len(blas)]
    assert _counts(blas) == [RAISED] * len(blas)


def test_restored_after_any_other_exception(blas, monkeypatch):
    seen = _fit_recording(monkeypatch, blas, RuntimeError("boom"))
    sample = _small_sample()
    with pytest.raises(RuntimeError, match="boom"):
        condcdf.crossfit_adjusters(sample, make_folds(sample, 5, 0),
                                   ["ridge_loc_shift"])
    assert seen == [[1] * len(blas)]
    assert _counts(blas) == [RAISED] * len(blas)


def test_overlapping_scopes_in_two_threads(blas):
    # the first thread leaves while the second is still inside
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with kernels._one_blas_thread():
            first_in.set()
            second_in.wait(10)
        first_out.set()

    def second():
        first_in.wait(10)
        with kernels._one_blas_thread():
            second_in.set()
            first_out.wait(10)
            seen["after_first_left"] = _counts(blas)

    threads = [threading.Thread(target=f) for f in (first, second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
        assert not t.is_alive()
    assert first_out.is_set()
    assert seen["after_first_left"] == [1] * len(blas)
    assert _counts(blas) == [RAISED] * len(blas)


def test_scopes_from_many_threads_lose_no_update(blas):
    """More threads than CPUs enter and leave nested scopes while the
    interpreter switches threads as often as it can: every reading inside
    is 1, and the count is restored once all have left."""
    workers = 2 * len(os.sched_getaffinity(0)) + 2
    bad = []

    def churn(seed):
        rng = random.Random(seed)
        for _ in range(100):
            with kernels._one_blas_thread():
                for _ in range(rng.randrange(2)):
                    with kernels._one_blas_thread():
                        pass
                if _counts(blas) != [1] * len(blas):
                    bad.append(_counts(blas))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(s,))
                   for s in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert bad == []
    assert kernels._blas_depth == 0
    assert _counts(blas) == [RAISED] * len(blas)


def test_child_forked_inside_the_scope(blas):
    """The child inherits the limit and the open scope: it reads 1 inside
    and the saved count after leaving it, reported through a pipe."""
    r, w = os.pipe()
    scope = kernels._one_blas_thread()
    scope.__enter__()
    try:
        pid = os.fork()
        if pid == 0:
            try:
                inside = _counts(blas)
                scope.__exit__(None, None, None)
                os.write(w, json.dumps([inside, _counts(blas)]).encode())
            finally:
                os._exit(0)
        os.close(w)
        with os.fdopen(r) as fh:
            inside, after = json.loads(fh.read())
        assert os.waitpid(pid, 0)[1] == 0
        assert _counts(blas) == [1] * len(blas)
    finally:
        scope.__exit__(None, None, None)
    assert inside == [1] * len(blas)
    assert after == [RAISED] * len(blas)
    assert _counts(blas) == [RAISED] * len(blas)


def _exit_code(pid, timeout):
    """The child's exit code, or None if it has not exited by ``timeout``
    seconds (it is then killed)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


def test_fork_while_another_thread_enters_and_leaves(blas):
    """A fork never lands while another thread is entering or leaving a
    scope, so each child can use the scope itself, and its counts agree
    with the scopes it inherited open."""
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            with kernels._one_blas_thread():
                pass

    thread = threading.Thread(target=churn)
    thread.start()
    codes = []
    try:
        for _ in range(20):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    with kernels._one_blas_thread():
                        inside = _counts(blas)
                    held = kernels._blas_depth > 0
                    after = _counts(blas)
                    if inside == [1] * len(blas) and after == (
                            [1 if held else RAISED] * len(blas)):
                        code = 0
                finally:
                    os._exit(code)
            codes.append(_exit_code(pid, 20))
            if codes[-1] != 0:
                break
    finally:
        stop.set()
        thread.join(20)
    assert not thread.is_alive()
    assert codes == [0] * 20
    assert _counts(blas) == [RAISED] * len(blas)


def test_child_forked_beside_another_threads_scope(blas):
    """A child forked while another thread is held inside a scope, and none
    is open in the forking thread, inherits no open scope: it starts at the
    saved counts and ends at them after a scope of its own."""
    entered, leave = threading.Event(), threading.Event()

    def hold():
        with kernels._one_blas_thread():
            entered.set()
            leave.wait(20)

    thread = threading.Thread(target=hold)
    thread.start()
    try:
        assert entered.wait(10)
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                seen = [kernels._blas_depth, _counts(blas)]
                with kernels._one_blas_thread():
                    seen.append(_counts(blas))
                seen += [kernels._blas_depth, _counts(blas)]
                os.write(w, json.dumps(seen).encode())
            finally:
                os._exit(0)
        os.close(w)
        with os.fdopen(r) as fh:
            seen = json.loads(fh.read())
        assert _exit_code(pid, 20) == 0
        assert _counts(blas) == [1] * len(blas)
    finally:
        leave.set()
        thread.join(20)
    assert not thread.is_alive()
    raised, one = [RAISED] * len(blas), [1] * len(blas)
    assert seen == [0, raised, one, 0, raised]
    assert _counts(blas) == raised


def test_unresolved_library_leaves_counts_alone(blas, monkeypatch):
    monkeypatch.setattr(kernels, "_BLAS", ())
    with kernels._one_blas_thread():
        assert _counts(blas) == [RAISED] * len(blas)
    assert _counts(blas) == [RAISED] * len(blas)


@pytest.mark.parametrize("models", [
    ["ridge_loc_shift"],
    ["knn_loc_shift:k=25"],
    ["constant", "knn_loc_shift:k=25", "ridge_loc_shift"],
])
def test_reports_do_not_depend_on_the_limit(blas, monkeypatch, models):
    """Seed-7 cross-fit reports at n=2000 are byte-identical with BLAS on
    several threads (the scope forced off) and held to one. At this size
    the ridge fits' products are large enough for OpenBLAS to split them
    over threads."""
    sample, _ = draw_dgp(DgpSpec(), 2000, seed=7)
    # one thread per CPU, as numpy starts with: more would oversubscribe
    for _, put in blas:
        put(max(2, len(os.sched_getaffinity(0))))

    def report():
        rep = estimate(sample, "cross-fit", models, seed=7,
                       grid_spec=GridSpec("normal", 2000))
        return json.dumps(rep.to_dict(), sort_keys=True)

    limited = report()
    with monkeypatch.context() as mp:
        mp.setattr(kernels, "_BLAS", ())
        unlimited = report()
    assert unlimited == limited
