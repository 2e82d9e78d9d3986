import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtebounds import kernels
from dtebounds.condcdf import GridSpec, fit_arm_model
from dtebounds.simulate import DgpSpec, draw_dgp


def brute_force_extrema(a, b, w1=None, w0=None, extra_points=()):
    """Independent oracle: evaluate the difference curve pointwise on all
    breakpoints plus a dense grid, via direct indicator means."""
    pts = np.concatenate([a, b, np.asarray(extra_points, dtype=float)])
    if w1 is None:
        f1 = np.array([np.mean(a <= t) for t in pts])
    else:
        f1 = np.array([np.sum(w1 * (a <= t)) for t in pts])
    if w0 is None:
        f0 = np.array([np.mean(b <= t) for t in pts])
    else:
        f0 = np.array([np.sum(w0 * (b <= t)) for t in pts])
    d = f1 - f0
    return max(d.max(), 0.0), min(d.min(), 0.0)


def test_scan_matches_brute_force_on_random_samples():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n1 = rng.integers(2, 60)
        n0 = rng.integers(2, 60)
        a = np.round(rng.normal(size=n1), 1)  # rounding forces ties
        b = np.round(rng.normal(size=n0), 1)
        sup, t_sup, inf, t_inf = kernels.profile_extrema(
            *kernels.delta_profile(a, b))
        grid = np.linspace(min(a.min(), b.min()) - 1,
                           max(a.max(), b.max()) + 1, 1000)
        bf_sup, bf_inf = brute_force_extrema(a, b, extra_points=grid)
        assert sup == bf_sup  # exact: same float operations
        assert inf == bf_inf


def test_scan_weighted_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n1 = rng.integers(3, 40)
        n0 = rng.integers(3, 40)
        a = np.round(rng.normal(size=n1), 1)
        b = np.round(rng.normal(size=n0), 1)
        w1 = rng.random(n1) + 0.1
        w0 = rng.random(n0) + 0.1
        w1 /= w1.sum()
        w0 /= w0.sum()
        sup, _, inf, _ = kernels.profile_extrema(
            *kernels.delta_profile(a, b, w1, w0))
        bf_sup, bf_inf = brute_force_extrema(a, b, w1, w0)
        assert sup == pytest.approx(bf_sup, abs=1e-12)
        assert inf == pytest.approx(bf_inf, abs=1e-12)


def test_scan_argmax_is_smallest_maximizer():
    # two maximizing breakpoints: 0.0 and 2.0 both give delta = 0.5
    a = np.array([0.0, 2.0])
    b = np.array([1.0, 3.0])
    sup, t_sup, inf, t_inf = kernels.profile_extrema(
        *kernels.delta_profile(a, b))
    assert sup == 0.5
    assert t_sup == 0.0


def test_scan_normalized_curves_attain_zero_on_support():
    # a normalized difference curve ends at exactly 0, so the max of an
    # everywhere-negative curve is attained at the top breakpoint
    a = np.array([0.0, 1.0])
    b = np.array([-2.0, -1.0])
    sup, t_sup, inf, t_inf = kernels.profile_extrema(
        *kernels.delta_profile(a, b))
    assert sup == 0.0 and t_sup == 1.0
    assert inf == -1.0 and t_inf == -1.0
    sup, t_sup, inf, t_inf = kernels.profile_extrema(
        *kernels.delta_profile(b, a))
    assert sup == 1.0 and t_sup == -1.0
    assert inf == 0.0 and t_inf == 1.0


def test_scan_sentinels_for_unnormalized_weights():
    # with un-normalized weights the curve can stay strictly negative on
    # support; the sup is then 0 off-support, marked by the -inf sentinel
    a, w1 = np.array([5.0]), np.array([0.5])
    b, w0 = np.array([1.0]), np.array([1.0])
    sup, t_sup, inf, t_inf = kernels.profile_extrema(
        *kernels.delta_profile(a, b, w1, w0))
    assert sup == 0.0 and t_sup == -np.inf
    assert inf == -1.0 and t_inf == 1.0
    sup, t_sup, inf, t_inf = kernels.profile_extrema(
        *kernels.delta_profile(b, a, w0, w1))
    assert sup == 1.0 and t_sup == 1.0
    assert inf == 0.0 and t_inf == np.inf


def test_interp_cdf_row_contract():
    q = np.array([1.0, 2.0, 2.0, 3.0])
    taus = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    t = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    out = kernels.interp_cdf_row(q, taus, t)
    assert out[0] == 0.0                      # below support
    assert out[1] == 0.0                      # exact hit at q[0]
    assert out[2] == pytest.approx(1 / 6)     # linear between 1 and 2
    assert out[3] == pytest.approx(0.5)       # midpoint of zero-width run
    assert out[4] == pytest.approx(2 / 3 + (1 / 3) * 0.5)  # from run top
    assert out[5] == pytest.approx(1.0)
    assert out[6] == 1.0


def test_interp_cdf_row_is_monotone():
    rng = np.random.default_rng(9)
    taus = np.linspace(0, 1, 101)
    for _ in range(200):
        q = np.sort(np.round(rng.normal(size=101), 1))
        t = np.sort(rng.normal(size=50) * 2)
        out = kernels.interp_cdf_row(q, taus, t)
        assert np.all(np.diff(out) >= -1e-12)
        assert out.min() >= 0 and out.max() <= 1


def _fitted_pairs(spec, draws=10):
    """Arm models fitted on half of a simulation draw with outcomes rounded
    to force ties, the covariates of 20 held-out rows, and a rounded grid
    that hits predicted quantiles exactly."""
    for seed in range(draws):
        sample, _ = draw_dgp(DgpSpec(), 120, seed=seed)
        y = np.round(sample.y, 1)
        fit, ev = np.arange(60), np.arange(60, 80)
        d = sample.d[fit]
        m1 = fit_arm_model(y[fit][d == 1], sample.x[fit][d == 1], spec)
        m0 = fit_arm_model(y[fit][d == 0], sample.x[fit][d == 0], spec)
        grid = np.round(GridSpec(size=800).build(
            y.min(), y.max(), np.random.default_rng(seed)), 1)
        yield m1, m0, sample.x[ev], grid


def _dense_argopt(m1, m0, x, grid):
    # the generic path of extract_adjusters: full CDF matrices, row argopt
    d = m1.cdf_matrix(grid, x) - m0.cdf_matrix(grid, x)
    return grid[np.argmax(d, axis=1)], grid[np.argmin(d, axis=1)]


def test_interp_argopt_matches_plain_argmax():
    for m1, m0, x, grid in _fitted_pairs("knn_quantile:k=8"):
        s_lo, s_hi = kernels.interp_cdf_argopt(
            m1.predict_quantiles(x), m0.predict_quantiles(x), m1.taus, grid)
        ref_lo, ref_hi = _dense_argopt(m1, m0, x, grid)
        np.testing.assert_array_equal(s_lo, ref_lo)
        np.testing.assert_array_equal(s_hi, ref_hi)


def _dense_interp_argopt(q1, q0, taus, grid):
    """Reference: the difference evaluated at every grid point, row by row."""
    n = q1.shape[0]
    s_lo = np.empty(n)
    s_hi = np.empty(n)
    for i in range(n):
        d = (kernels.interp_cdf_row(q1[i], taus, grid)
             - kernels.interp_cdf_row(q0[i], taus, grid))
        s_lo[i] = grid[int(np.argmax(d))]
        s_hi[i] = grid[int(np.argmin(d))]
    return s_lo, s_hi


@st.composite
def _interp_inputs(draw):
    """Sorted quantile rows on a lattice of step h, so that knots repeat in
    runs, some treated rows copied into the control rows, sorted levels with
    repeats, and a sorted grid of 1 to 60 points with duplicates, lattice
    points and points on drawn knots or one ulp either side of them."""
    m = draw(st.integers(1, 8))
    taus = np.sort(np.array(draw(st.lists(
        st.integers(0, 4).map(lambda k: k / 4), min_size=m, max_size=m))))
    h = draw(st.sampled_from([0.1, 0.3, 1.0]))
    lattice = st.integers(-6, 6).map(lambda k: k * h)
    n = draw(st.integers(1, 4))
    q1, q0 = (np.sort(np.array(draw(st.lists(
        lattice, min_size=n * m, max_size=n * m))).reshape(n, m), axis=1)
        for _ in range(2))
    for i in range(n):
        if draw(st.booleans()):
            q0[i] = q1[i]
    g = draw(st.integers(1, 8) | st.integers(1, 60))
    knots = np.concatenate([q1.ravel(), q0.ravel()])
    pts = [np.nextafter(knots[k % knots.size], ulp) if ulp else
           knots[k % knots.size]
           for k, ulp in draw(st.lists(st.tuples(
               st.integers(0, 63), st.sampled_from([-np.inf, 0.0, np.inf])),
               max_size=g))]
    pts += [np.nextafter(x, ulp) if ulp else x
            for x, ulp in draw(st.lists(st.tuples(
                lattice | st.floats(-7.0, 7.0),
                st.sampled_from([-np.inf, 0.0, 0.0, np.inf])),
                min_size=1, max_size=g))]
    return q1, q0, taus, np.sort(np.array(pts[:g]))


@settings(max_examples=400, deadline=None)
@given(inputs=_interp_inputs())
# F1 <= F0 everywhere, so the difference is at most 0 and its first
# maximizer is the first grid point, where it is -0.5
@example(inputs=(np.array([[2.0, 3.0]]), np.array([[0.0, 1.0]]),
                 np.array([0.0, 1.0]), np.array([0.5, 1.5, 2.5])))
# F1 is 0 and F0 rises on the one segment, but fl(0.5 + 0.25 * frac) is
# the same at 3 and one ulp above: the first minimizer is the interior
# point 3, not the segment end
@example(inputs=(np.array([[10.0, 11.0, 12.0]]),
                 np.array([[-1.0, 0.0, 4.0]]), np.array([0.0, 0.5, 0.75]),
                 np.array([1.0, 3.0, np.nextafter(3.0, 4.0)])))
def test_interp_argopt_matches_dense_loop(inputs):
    s_lo, s_hi = kernels.interp_cdf_argopt(*inputs)
    ref_lo, ref_hi = _dense_interp_argopt(*inputs)
    assert s_lo.tobytes() == ref_lo.tobytes()
    assert s_hi.tobytes() == ref_hi.tobytes()


def test_interp_argopt_blocks_and_passes(monkeypatch):
    # rows split over several blocks, and interiors over several passes:
    # identical rows flag every segment that is not constant
    rng = np.random.default_rng(3)
    taus = np.linspace(0, 1, 11)
    q1 = np.sort(np.round(rng.normal(size=(9, 11)), 1), axis=1)
    q0 = q1.copy()
    q0[::2] = np.sort(np.round(rng.normal(size=(5, 11)), 1), axis=1)
    grid = np.sort(np.round(rng.normal(size=300) * 2, 2))
    ref = _dense_interp_argopt(q1, q0, taus, grid)
    monkeypatch.setattr(kernels, "_INTERP_BLOCK_POINTS", 100)
    got = kernels.interp_cdf_argopt(q1, q0, taus, grid)
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()


@st.composite
def _one_knot_interval(draw):
    """Sorted knots on a lattice with repeats, sorted levels with repeats,
    and sorted points strictly between two adjacent distinct knots, so that
    every point has the same ``lo``/``hi``; points one ulp inside either
    knot included."""
    m = draw(st.integers(2, 8))
    taus = np.sort(np.array(draw(st.lists(
        st.floats(0.0, 1.0), min_size=m, max_size=m))))
    h = draw(st.sampled_from([0.1, 0.3, 1.0, 1e-300, 1e300]))
    q = np.sort(np.array(draw(st.lists(
        st.integers(-6, 6), min_size=m, max_size=m)))) * h
    distinct = np.flatnonzero(q[1:] > q[:-1])
    if not distinct.size:
        q[-1] = q[-2] + h
        distinct = np.array([m - 2])
    k = distinct[draw(st.integers(0, distinct.size - 1))]
    a, b = q[k], q[k + 1]
    t = draw(st.lists(st.floats(a, b, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=40))
    t += [np.nextafter(a, np.inf), np.nextafter(b, -np.inf)]
    return q, taus, np.sort(np.array(t))


@settings(max_examples=300, deadline=None)
@given(inputs=_one_knot_interval())
def test_interp_cdf_row_is_monotone_inside_one_knot_interval(inputs):
    # the premise of interp_cdf_argopt's segment bounds: with the knot
    # state fixed, the rounded value never decreases, without tolerance
    q, taus, t = inputs
    out = kernels.interp_cdf_row(q, taus, t)
    assert np.all(np.diff(out) >= 0)


def test_shift_argopt_matches_reference():
    for spec in ("knn_loc_shift:k=8", "ridge_loc_shift"):
        for m1, m0, x, grid in _fitted_pairs(spec):
            s_lo, s_hi = kernels.shift_cdf_argopt(
                m1.predict_mu(x), m0.predict_mu(x), m1.residuals,
                m0.residuals, grid)
            ref_lo, ref_hi = _dense_argopt(m1, m0, x, grid)
            np.testing.assert_array_equal(s_lo, ref_lo)
            np.testing.assert_array_equal(s_hi, ref_hi)


def _dense_shift_argopt(mu1, mu0, resid1, resid0, grid):
    """Reference: the difference evaluated at every grid point, row by row."""
    r1 = np.sort(resid1)
    r0 = np.sort(resid0)
    n = mu1.size
    s_lo = np.empty(n)
    s_hi = np.empty(n)
    for i in range(n):
        d = (np.searchsorted(r1, grid - mu1[i], side="right") / r1.size
             - np.searchsorted(r0, grid - mu0[i], side="right") / r0.size)
        s_lo[i] = grid[int(np.argmax(d))]
        s_hi[i] = grid[int(np.argmin(d))]
    return s_lo, s_hi


@st.composite
def _shift_inputs(draw, max_rows=5):
    """Row means, residuals and a sorted grid on a lattice of step h, so
    that values tie, with grid points placed at fl(r + mu), or one ulp off
    it, for drawn (row, residual) pairs: there the guess fl(r + mu) and the
    count's comparison fl(grid - mu) >= r can disagree either way. Residual
    counts run from 1 to 60, and a small grid makes m at least g/4."""
    h = draw(st.sampled_from([0.1, 0.3, 0.5, 1.0]))
    lattice = st.integers(-8, 8).map(lambda k: k * h)
    n = draw(st.integers(1, max_rows))
    g = draw(st.integers(1, 8) | st.integers(1, 60))
    mu1, mu0 = (np.array(draw(st.lists(lattice, min_size=n, max_size=n)))
                for _ in range(2))
    r1, r0 = (np.array(draw(st.lists(lattice, min_size=1, max_size=60)))
              for _ in range(2))
    pts = []
    for i, treated, k, ulp in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.booleans(), st.integers(0, 59),
            st.sampled_from([-np.inf, 0.0, np.inf])), max_size=g)):
        r, mu = (r1, mu1) if treated else (r0, mu0)
        x = r[k % r.size] + mu[i]
        pts.append(x if ulp == 0.0 else np.nextafter(x, ulp))
    pts += draw(st.lists(lattice, min_size=1, max_size=g))
    return mu1, mu0, r1, r0, np.sort(np.array(pts[:g]))


@settings(max_examples=400, deadline=None)
@given(inputs=_shift_inputs())
# fl(-0.8 + -0.4) is a grid point, but fl(grid[0] + 0.4) < -0.8: the
# residual first counts at index 1
@example(inputs=(np.array([-0.4]), np.array([0.0]), np.array([-0.8]),
                 np.array([0.5]), np.array([-1.2000000000000002, 0.0])))
# grid[0] < fl(-0.8 + 0.4), but fl(grid[0] - 0.4) >= -0.8: the residual
# already counts at index 0
@example(inputs=(np.array([0.4]), np.array([0.0]), np.array([-0.8]),
                 np.array([2.0]), np.array([-0.4000000000000001, 1.0])))
def test_shift_argopt_matches_dense_loop(inputs):
    s_lo, s_hi = kernels.shift_cdf_argopt(*inputs)
    ref_lo, ref_hi = _dense_shift_argopt(*inputs)
    assert s_lo.tobytes() == ref_lo.tobytes()
    assert s_hi.tobytes() == ref_hi.tobytes()


@pytest.fixture(scope="module")
def pools():
    """Thread pools of 1 and 3 workers, to stand in for the kernel's own."""
    made = [(ThreadPoolExecutor(w), w) for w in (1, 3)]
    yield made
    for pool, _ in made:
        pool.shutdown()


@settings(max_examples=150, deadline=None)
@given(inputs=_shift_inputs(max_rows=40), events=st.integers(8, 64))
def test_shift_argopt_row_parts_match_dense_loop(pools, inputs, events):
    # blocks of a few events split up to 40 rows into many blocks, and the
    # blocks into one part per worker; no worker count may change a byte,
    # with the threads switching as often as the interpreter allows
    ref_lo, ref_hi = _dense_shift_argopt(*inputs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_SHIFT_BLOCK_EVENTS", events)
            for pool in [kernels._shift_pool()] + pools:
                mp.setattr(kernels, "_POOL", pool)
                s_lo, s_hi = kernels.shift_cdf_argopt(*inputs)
                assert s_lo.tobytes() == ref_lo.tobytes()
                assert s_hi.tobytes() == ref_hi.tobytes()
    finally:
        sys.setswitchinterval(interval)


def _multi_block_call():
    """A ``shift_cdf_argopt`` call of 3 blocks at the default block size."""
    rng = np.random.default_rng(11)
    r1, r0 = rng.normal(size=200), rng.normal(size=210)
    mu1, mu0 = rng.normal(size=100), rng.normal(size=100)
    grid = np.linspace(-4, 4, 301)
    assert mu1.size > kernels._SHIFT_BLOCK_EVENTS // (r1.size + r0.size) * 2
    return kernels.shift_cdf_argopt(mu1, mu0, r1, r0, grid)


def test_single_block_call_starts_no_thread():
    code = (
        "import threading\n"
        "import numpy as np\n"
        "from dtebounds import kernels\n"
        "g = np.linspace(-3, 3, 50)\n"
        "kernels.shift_cdf_argopt(np.zeros(45), np.ones(45), g[::2], g, g)\n"
        "assert kernels._POOL is None\n"
        "assert threading.active_count() == 1, threading.enumerate()\n")
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_forked_child_runs_multi_block_calls():
    # the child inherits the pool, but not its threads
    lo, hi = _multi_block_call()
    assert kernels._POOL is not None
    with multiprocessing.get_context("fork").Pool(1) as child:
        got_lo, got_hi = child.apply_async(_multi_block_call).get(timeout=60)
    assert got_lo.tobytes() == lo.tobytes()
    assert got_hi.tobytes() == hi.tobytes()


def _row_cdf_counts(samples, grid):
    """Rows x grid matrix of counts <= each grid point, per row."""
    b, m = samples.shape
    g = grid.size
    bins = np.searchsorted(grid, samples, side="left")  # 0..g
    counts = np.zeros((b, g + 1), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(b), m), bins.ravel()), 1)
    return np.cumsum(counts[:, :g], axis=1)


def _dense_sample_argopt(y1, y0, grid):
    """Reference: binned counts at every grid point, and the first
    argmax/argmin of the ECDF difference (c1 - c0) / m."""
    d = (_row_cdf_counts(y1, grid) - _row_cdf_counts(y0, grid)) / y1.shape[1]
    return grid[np.argmax(d, axis=1)], grid[np.argmin(d, axis=1)]


@st.composite
def _sample_inputs(draw):
    """Rows of 1 to 40 lattice values per arm, so that values tie, some
    treated rows copied into the control rows, and a sorted grid of 1 to 40
    points on the inner part of the same lattice, with duplicates: values
    fall on grid points and beyond both grid ends."""
    h = draw(st.sampled_from([0.1, 0.5, 1.0]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3) | st.integers(1, 40))
    y1, y0 = (np.array(draw(st.lists(
        st.integers(-6, 6).map(lambda k: k * h), min_size=n * m,
        max_size=n * m))).reshape(n, m) for _ in range(2))
    for i in range(n):
        if draw(st.booleans()):
            y0[i] = y1[i]
    grid = np.sort(np.array(draw(st.lists(
        st.integers(-4, 4).map(lambda k: k * h), min_size=1, max_size=40))))
    return y1, y0, grid


@settings(max_examples=400, deadline=None)
@given(inputs=_sample_inputs())
# equal rows: the difference is 0 everywhere, so both sides pick grid[0]
@example(inputs=(np.array([[0.0, 1.0, 1.0]]), np.array([[0.0, 1.0, 1.0]]),
                 np.array([-1.0, 0.5, 1.0, 1.0, 2.0])))
def test_sample_argopt_matches_dense_counts(inputs):
    s_lo, s_hi = kernels.sample_cdf_argopt(*inputs)
    ref_lo, ref_hi = _dense_sample_argopt(*inputs)
    assert s_lo.tobytes() == ref_lo.tobytes()
    assert s_hi.tobytes() == ref_hi.tobytes()


# tied samples: half-integers in a narrow range, so most values repeat
_tied = st.lists(st.integers(-6, 6).map(lambda k: k / 2), min_size=1,
                 max_size=30).map(np.array)


def _weights(size):
    return st.lists(st.floats(0.1, 10.0), min_size=size,
                    max_size=size).map(np.array)


@settings(max_examples=200, deadline=None)
@given(a=_tied, b=_tied)
def test_profile_unweighted_equals_indicator_means(a, b):
    pts, d = kernels.delta_profile(a, b)
    np.testing.assert_array_equal(pts, np.unique(np.concatenate([a, b])))
    direct = np.array([np.mean(a <= t) - np.mean(b <= t) for t in pts])
    np.testing.assert_array_equal(d, direct)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), a=_tied, b=_tied, weighted=st.booleans())
def test_scan_reads_profile_extrema(data, a, b, weighted):
    # raw (unnormalized) weights let the curve stay off zero on support,
    # which exercises the off-support sentinels
    w1 = data.draw(_weights(a.size)) if weighted else None
    w0 = data.draw(_weights(b.size)) if weighted else None
    pts, d = kernels.delta_profile(a, b, w1, w0)
    if weighted:
        direct = np.array([np.sum(w1 * (a <= t)) - np.sum(w0 * (b <= t))
                           for t in pts])
        np.testing.assert_allclose(d, direct, rtol=0, atol=1e-9)
    sup, t_sup, inf, t_inf = kernels.profile_extrema(pts, d)
    assert sup == max(d.max(), 0.0)
    assert inf == min(d.min(), 0.0)
    assert t_sup == (pts[d == d.max()][0] if d.max() >= 0 else -np.inf)
    assert t_inf == (pts[d == d.min()][0] if d.min() <= 0 else np.inf)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), a=_tied)
def test_step_cdf_heights_are_one_arm_profile(data, a):
    # with an empty second arm the profile is the (weighted) CDF of ``a``
    empty = np.empty(0)
    pts, heights = kernels.delta_profile(a, empty)
    np.testing.assert_array_equal(pts, np.unique(a))
    np.testing.assert_array_equal(heights, [np.mean(a <= t) for t in pts])
    assert heights[-1] == 1.0
    w = data.draw(_weights(a.size))
    pts_w, heights = kernels.delta_profile(a, empty, w, empty)
    np.testing.assert_array_equal(pts_w, pts)
    np.testing.assert_allclose(heights, [np.sum(w * (a <= t)) for t in pts],
                               rtol=1e-12)
    _, heights = kernels.delta_profile(a, empty, w / w.sum(), empty)
    assert np.all(np.diff(heights) > 0)
    assert heights[-1] == pytest.approx(1.0, abs=1e-12)
