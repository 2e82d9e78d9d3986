"""Numpy compute kernels: the exact breakpoint scan and the per-row grid
argmax/argmin of conditional-CDF differences.

Every grid search returns the first argmax and argmin over all grid
points, bit for bit, while it evaluates the difference at only some of
them, with the full scan's expression. The location-shift search
(``shift_cdf_argopt``) has two paths. The event path evaluates a row where
a residual enters a count, the only places where the counts change. The
refine path counts residuals at every 128th grid index, then every 16th,
then every index, each time only inside the segments whose bound can
still reach the row's optimum: the counts are nondecreasing along the
grid and the rounding of c/m and of a difference is monotone, so the
counts at a segment's ends bound it exactly. A call takes the refine path
when its m residuals (both arms) and g grid points satisfy
m >= 128 + g/64, the crossover measured in ``BENCH_shift_refine.json``.

The module also owns the process's CPU budget: the shift kernel's thread
pool, the hold of BLAS to one thread (``_one_blas_thread``) and the
ordered fork map (``_fork_map``) that runs a cross-fit's folds on every
CPU.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
import warnings

import numpy as np

__all__ = [
    "delta_profile",
    "profile_extrema",
    "ecdf_at",
    "interp_cdf_argopt",
    "sample_cdf_argopt",
    "shift_cdf_argopt",
]


# ---------------------------------------------------------------------------
# Breakpoint scan: exact sup/inf of a weighted two-sample CDF difference.
# ---------------------------------------------------------------------------

def delta_profile(a, b, w1=None, w0=None):
    """The step function t -> W1(t) - W0(t) at every distinct breakpoint,
    where Wj(t) is the weighted count of sample-j values <= t.

    The function is right-continuous and 0 left of the smallest breakpoint.
    With no weights, W1 and W0 are plain ECDFs computed from integer
    counts, so each value equals mean(a <= t) - mean(b <= t) to the last
    bit. Otherwise a missing weight vector means 1/len per observation, and
    the values are cumulative sums of the signed weights over the sorted
    merged sample, with exact ties collapsed. ``b`` may be empty, which
    gives the (weighted) CDF of ``a`` alone.

    Returns (breakpoints, difference), breakpoints sorted and distinct.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if w1 is None and w0 is None:
        pts = np.unique(np.concatenate([a, b]))
        d = np.searchsorted(np.sort(a), pts, side="right") / a.size
        if b.size:
            d -= np.searchsorted(np.sort(b), pts, side="right") / b.size
        return pts, d
    if w1 is None:
        w1 = np.full(a.size, 1.0 / a.size)
    if w0 is None:
        w0 = np.full(b.size, 1.0 / b.size)
    values = np.concatenate([a, b])
    signed = np.concatenate([np.asarray(w1, dtype=np.float64),
                             -np.asarray(w0, dtype=np.float64)])
    order = np.argsort(values, kind="mergesort")
    v = values[order]
    keep = np.empty(v.size, dtype=bool)
    keep[:-1] = v[1:] != v[:-1]
    keep[-1] = True
    return v[keep], np.cumsum(signed[order])[keep]


def profile_extrema(pts, d):
    """Exact sup/inf over t of a ``delta_profile`` (breakpoints ``pts``,
    values ``d``).

    Returns
    -------
    (sup, t_sup, inf, t_inf) : floats
        sup >= 0 and inf <= 0, because the value 0 is attained for any t
        below the support; t_sup and t_inf are the smallest optimizing
        breakpoints. When the extremum 0 is attained only off-support, the
        sentinel -inf (sup) or +inf (inf) marks its location.
    """
    imax = int(np.argmax(d))
    imin = int(np.argmin(d))
    sup, inf = float(d[imax]), float(d[imin])
    t_sup = float(pts[imax]) if sup >= 0.0 else -np.inf
    t_inf = float(pts[imin]) if inf <= 0.0 else np.inf
    return max(sup, 0.0), t_sup, min(inf, 0.0), t_inf


def ecdf_at(sample_sorted, t):
    """Right-continuous ECDF of a pre-sorted sample evaluated at points t."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    return np.searchsorted(sample_sorted, t, side="right") / sample_sorted.size


# ---------------------------------------------------------------------------
# Per-row argmax/argmin of conditional-CDF differences over a shared grid.
# ---------------------------------------------------------------------------

def interp_cdf_row(q, taus, t):
    """Piecewise-linear CDF from sorted quantile predictions, evaluated at
    sorted points t (vectorized over t).

    Contract: 0 below q[0], 1 above q[-1]; an exact hit on a run of equal
    quantiles returns the midpoint of the run's tau range; between distinct
    quantiles, linear interpolation from the run-top tau below to the
    run-bottom tau above.
    """
    lo = np.searchsorted(q, t, side="right") - 1
    hi = np.searchsorted(q, t, side="left")
    return _interp_values(q, taus, t, lo, hi)


def _interp_values(q, taus, t, lo, hi, off=0):
    """The ``interp_cdf_row`` values at points ``t`` of the row whose knots
    are ``q[off:off + len(taus)]`` (``off`` a scalar or one per point),
    given each point's knot state: ``lo``, the last knot index <= t (-1 if
    none), and ``hi``, the first knot index >= t (len(taus) if none).
    """
    m = taus.size
    out = np.empty(t.size)
    below = lo < 0
    above = hi >= m
    out[below] = 0.0
    out[above] = 1.0
    mid = ~below & ~above
    k_lo = np.clip(lo, 0, m - 1) + off
    exact = mid & (q[k_lo] == t)
    out[exact] = 0.5 * (taus[hi[exact]] + taus[lo[exact]])
    interp = mid & ~exact
    li, hi_i = lo[interp], hi[interp]
    # no knot equals t here, so the knot above is at lo + 1 = hi
    q_lo, q_hi = q[k_lo[interp]], q[k_lo[interp] + 1]
    frac = (t[interp] - q_lo) / (q_hi - q_lo)
    out[interp] = taus[li] + frac * (taus[hi_i] - taus[li])
    return out


# knot cuts per block of rows in ``interp_cdf_argopt``, and segment-interior
# points per pass over a block: bounds the temporaries (~64 KB per array),
# so that freeing them does not trim the allocator's heap, which would
# page-fault them in again on the next block
_INTERP_BLOCK_POINTS = 1 << 13


def interp_cdf_argopt(q1, q0, taus, grid):
    """Per-row argmax and argmin over ``grid`` of F1(t|x) - F0(t|x), where
    each conditional CDF is the linear interpolation of per-row sorted
    quantile predictions ``q1``/``q0`` at levels ``taus``.

    Ties are broken toward the smallest grid point; the grid must be sorted
    and ``taus`` nondecreasing in [0, 1]. Returns (s_lower, s_upper), each
    of length q1.shape[0].

    The grid indices where some knot of either row enters ``lo`` or ``hi``
    of ``interp_cdf_row`` cut each row into segments of fixed knot state.
    Inside one, each side's value is nondecreasing in the grid index (every
    step of its expression is a monotone rounding of a monotone function),
    so fl(F1(e) - F0(s)) bounds the difference from above on the segment
    [s, e] and fl(F1(s) - F0(e)) from below. The difference is evaluated,
    with the ``interp_cdf_row`` expression, at every segment end and inside
    every segment whose bound reaches the row's best end value, unless both
    sides are constant on it. The first maximizer lies among those points,
    so the result equals the argmax/argmin over every grid point, ties
    included.
    """
    q1 = np.asarray(q1, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    n, m = q1.shape
    j_lo = np.empty(n, dtype=np.intp)
    j_hi = np.empty(n, dtype=np.intp)
    step = max(1, _INTERP_BLOCK_POINTS // (4 * m + 2))
    for a in range(0, n, step):
        rows = slice(a, a + step)
        j_lo[rows], j_hi[rows] = _interp_block_argopt(
            q1[rows], q0[rows], taus, grid)
    return grid[j_lo], grid[j_hi]


def _interp_block_argopt(q1, q0, taus, grid):
    """First grid argmax and argmin indices of F1 - F0 for a block of rows."""
    b, m = q1.shape
    g = grid.size
    stride = g + 1
    base = np.arange(b)[:, None] * stride
    # knot k of a row counts in lo from grid index L[k] on, in hi from R[k]
    L1, R1, L0, R0 = (np.searchsorted(grid, q, side=side) + base
                      for q in (q1, q0) for side in ("left", "right"))
    cuts = np.sort(np.concatenate([L1, R1, L0, R0, base, base + g],
                                  axis=1), axis=None)
    row, j = np.divmod(cuts, stride)
    # a segment runs from a cut up to the next larger cut of the same row
    opens = (cuts[1:] > cuts[:-1]) & (row[1:] == row[:-1])
    seg_row, s, e = row[:-1][opens], j[:-1][opens], j[1:][opens] - 1
    # knot state of each segment: ``lo``/``hi`` as in ``interp_cdf_row``
    key = cuts[:-1][opens]
    off = seg_row * m
    lo1, hi1, lo0, hi0 = (np.searchsorted(K.ravel(), key, side="right") - off
                          for K in (L1, R1, L0, R0))
    lo1 -= 1
    lo0 -= 1
    q1f, q0f = q1.ravel(), q0.ravel()

    def values_at(seg, t):
        return (_interp_values(q1f, taus, t, lo1[seg], hi1[seg], off[seg]),
                _interp_values(q0f, taus, t, lo0[seg], hi0[seg], off[seg]))

    # both ends of every segment, in grid order within each row
    both = np.repeat(np.arange(s.size), 2)
    ends = np.stack([s, e], axis=1).ravel()
    f1, f0 = values_at(both, grid[ends])
    d = f1 - f0
    recs_hi = [_first_max(seg_row[both], ends, d)]
    recs_lo = [_first_max(seg_row[both], ends, -d)]
    best_hi = recs_hi[0][1]
    best_lo = -recs_lo[0][1]
    f1s, f1e, f0s, f0e = f1[0::2], f1[1::2], f0[0::2], f0[1::2]
    reach = ((f1e - f0s >= best_hi[seg_row])
             | (f1s - f0e <= best_lo[seg_row]))
    flag = reach & ((f1s != f1e) | (f0s != f0e)) & (e - s >= 2)
    cnt = np.where(flag, e - s - 1, 0)
    cum = np.cumsum(cnt)
    total = int(cum[-1])
    for a in range(0, total, _INTERP_BLOCK_POINTS):
        p = np.arange(a, min(a + _INTERP_BLOCK_POINTS, total))
        seg = np.searchsorted(cum, p, side="right")
        jj = s[seg] + 1 + p - (cum[seg] - cnt[seg])
        f1, f0 = values_at(seg, grid[jj])
        d = f1 - f0
        recs_hi.append(_first_max(seg_row[seg], jj, d))
        recs_lo.append(_first_max(seg_row[seg], jj, -d))
    return _merge_first_max(recs_hi), _merge_first_max(recs_lo)


def _first_max(rows, j, v):
    """Per run of equal ``rows`` (nondecreasing), the run's row, the max of
    ``v`` and the smallest ``j`` attaining it."""
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    vmax = np.maximum.reduceat(v, starts)
    at_max = v == np.repeat(vmax, np.diff(np.r_[starts, v.size]))
    jmin = np.minimum.reduceat(np.where(at_max, j, np.iinfo(np.intp).max),
                               starts)
    return rows[starts], vmax, jmin


def _merge_first_max(recs):
    """Fold ``_first_max`` records into each row's first argmax; the first
    record holds every row in order."""
    rows, v, j = (np.concatenate(x) for x in zip(*recs))
    order = np.argsort(rows, kind="stable")
    return _first_max(rows[order], j[order], v[order])[2]


# events per block of rows in ``shift_cdf_argopt``: bounds its temporaries
# (at most 128 KB per array), so that freeing them does not trim the
# allocator's heap, which would page-fault them in again on the next block
_SHIFT_BLOCK_EVENTS = 1 << 14

# the refine path of ``shift_cdf_argopt``: rows per block, grid strides
# from coarse to fine (the last is 1), and cuts evaluated per pass over one
# level of a block, which bound its temporaries (~128 KB per array) as
# ``_INTERP_BLOCK_POINTS`` does. The blocks are large because the path's
# numpy calls are short and hold the GIL between them: on 2 CPUs, the
# 320-row calls of a cross-fit at n=2000 ran slower as parts of 128 to 256
# rows on the pool than as one block on one thread, while a call of four
# 512-row blocks ran faster on the pool (``BENCH_shift_refine.json``)
_SHIFT_REFINE_ROWS = 512
_SHIFT_STRIDES = (128, 16, 1)
_SHIFT_REFINE_POINTS = 1 << 13

# (thread pool, worker count) for the row parts of ``shift_cdf_argopt``,
# made on its first call with more than one block
_POOL = None


def _shift_pool():
    global _POOL
    if _POOL is None:
        # imported on first use: a single-block call never needs it
        from concurrent.futures import ThreadPoolExecutor
        workers = len(os.sched_getaffinity(0))
        _POOL = ThreadPoolExecutor(workers), workers
    return _POOL


def _drop_pool():
    # a forked child inherits the pool but not its threads
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=_drop_pool)


# (get, set) thread-count functions of each OpenBLAS mapped into the process,
# found on the first entry of ``_one_blas_thread``
_BLAS = None
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")
_BLAS_LOCK = threading.Lock()
# open ``_one_blas_thread`` scopes in the process and in each thread, and the
# counts the process's first entry saved
_blas_depth = 0
_blas_local = threading.local()
_blas_saved = ()


def _blas_after_fork_in_child():
    """A child runs only the forking thread, so the scopes other threads held
    open will never close in it: keep the forking thread's own, and restore
    the saved counts if it held none."""
    global _blas_depth
    own = getattr(_blas_local, "depth", 0)
    if own == 0 and _blas_depth > 0:
        for (_, put), n in zip(_BLAS, _blas_saved):
            put(n)
    _blas_depth = own
    _BLAS_LOCK.release()


# a fork waits until no scope is being entered or left, so that a child
# inherits a depth that matches its thread counts
os.register_at_fork(before=_BLAS_LOCK.acquire,
                    after_in_parent=_BLAS_LOCK.release,
                    after_in_child=_blas_after_fork_in_child)


def _find_blas():
    """The (get, set) pair of every mapped shared object whose name holds
    ``openblas`` and that exports one; none off Linux or with another BLAS.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {f[5].strip() for f in (line.split(None, 5) for line in fh)
                     if len(f) == 6}
    except OSError:
        return ()
    pairs = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SYMBOLS:
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pairs.append((get, put))
                break
    return tuple(pairs)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS in the process to one thread while any scope is
    open, then restore the counts it had.

    The shift kernel's pool already runs a thread per CPU; BLAS threads
    spinning beside it only take CPUs from its workers. The limit is
    process-global, so BLAS calls from other threads also run on one thread
    meanwhile. Nested and concurrent scopes share it: the first entry saves
    the counts and the last exit restores them, on every exit path. A
    forked child keeps only the scopes its forking thread had open.
    """
    global _BLAS, _blas_depth, _blas_saved
    with _BLAS_LOCK:
        if _BLAS is None:
            _BLAS = _find_blas()
        if _blas_depth == 0:
            _blas_saved = tuple(get() for get, _ in _BLAS)
            for _, put in _BLAS:
                put(1)
        _blas_depth += 1
        _blas_local.depth = getattr(_blas_local, "depth", 0) + 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_depth -= 1
            _blas_local.depth -= 1
            if _blas_depth == 0:
                for (_, put), n in zip(_BLAS, _blas_saved):
                    put(n)


# set while an ordered fork map runs, in its process and in its children:
# the map's processes already use every CPU, so a map started inside it
# runs inline and the shift kernel adds no threads
_MAPPING = False

# the least work, in row fits, for which a map forks; see ``_fork_map``
_FORK_MIN_WORK = 700


def _fork_map(fn, items, work):
    """``[fn(item) for item in items]``, with the items shared among the
    CPUs, one process each, when ``work`` (the caller's measure of the
    map's size; for a cross-fit, its rows times the model fits of one fold)
    is worth a fork.

    On w CPUs the calling process runs the first ceil(n / w) of n items, and
    w - 1 forked children run the rest in contiguous shares. A child keeps
    an item's result only if ``fn`` returned it with no warning, stops at its
    first item that warns or raises, and sends what it kept through a pipe.
    The caller takes the results in item order and runs every item that has
    none itself, so results, warnings and exceptions are those of the plain
    loop; an item that warns or raises in a child only runs twice. Results
    must pickle.

    The whole map holds BLAS to one thread (``_one_blas_thread``): BLAS
    threads left to spin in the caller, or re-created in a child, take the
    CPUs of the other processes. With BLAS on 2 threads, a 3-model estimate
    at n = 2000 took 0.76-2.35 s forked on a 2-CPU Xeon VM, against 0.57 s
    inline. So the map runs inline when that scope finds no BLAS to hold,
    and also on one CPU, without ``os.fork`` or ``os.sched_getaffinity``,
    for one item, inside a running map, and below ``_FORK_MIN_WORK``.

    A fork and its child's exit cost 5-20 ms, more the larger the caller's
    memory, so small maps lose by forking. On a 2-CPU Xeon VM, in a 100 MB
    and a 1 GB process, 5-fold cross-fits gained from forking at every
    size whose work reached 700 row fits (times 0.61-0.98 of inline), and
    lost at 300 rows of one ``knn_loc_shift`` or ``ridge_loc_shift`` model
    (1.23-1.29x) and at 40 rows of a 3-model selection (1.25x)
    (``BENCH_fold_fork.json``, ``size_rule``).

    A child leaves only through ``os._exit``, so it never flushes the
    caller's stdio buffers or runs its exit handlers, and the caller kills
    and reaps every child on every exit path.
    """
    global _MAPPING
    items = list(items)
    n = len(items)
    w = 1
    if not (_MAPPING or work < _FORK_MIN_WORK) and all(
            hasattr(os, f) for f in ("fork", "sched_getaffinity")):
        w = min(len(os.sched_getaffinity(0)), n)
    if w < 2:
        return [fn(item) for item in items]
    children = []  # (pid, read end of its pipe, its first item, its end)
    with _one_blas_thread():
        if not _BLAS:
            return [fn(item) for item in items]
        own = -(-n // w)
        parts = min(w - 1, n - own)
        cuts = [own + (n - own) * p // parts for p in range(parts + 1)]
        _MAPPING = True
        try:
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                children.append((*_fork_share(fn, items[lo:hi]), lo, hi))
            out = [fn(item) for item in items[:own]]
            for _, reader, lo, hi in children:
                try:
                    kept = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    kept = []  # the child died before it sent them all
                out += kept
                out += [fn(item) for item in items[lo + len(kept):hi]]
            return out
        finally:
            _MAPPING = False
            for pid, reader, _, _ in children:
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_share(fn, items):
    """Fork a child that sends ``_kept_results(fn, items)`` through a pipe;
    returns its pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of a fork beside threads; the shift pool's
            # threads are idle whenever a map forks
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                with open(w, "wb") as fh:
                    pickle.dump(_kept_results(fn, items), fh,
                                pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, open(r, "rb")


def _kept_results(fn, items):
    """``fn`` over ``items``, up to the first item that warns or raises.
    An interrupt or exit propagates, and the child then sends nothing."""
    out = []
    for item in items:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = fn(item)
            except Exception:
                break
        if caught:
            break
        out.append(result)
    return out


def shift_cdf_argopt(mu1, mu0, resid1, resid0, grid):
    """Per-row argmax/argmin over ``grid`` of Fe1(t - mu1) - Fe0(t - mu0),
    the location-shift conditional CDF difference built from residual ECDFs.

    Ties break toward the smallest grid point; grid must be sorted. The
    value at grid index j is ``c1/m1 - c0/m0`` with cj the number of arm-j
    residuals r satisfying r <= fl(grid[j] - mu). Row by row, fl(grid[j] -
    mu) is nondecreasing in j, so both counts are too. Two paths evaluate
    that expression at a subset of the grid that holds the first optimizer,
    so both return the argmax/argmin over every grid point, ties included:

    - the event path (``_event_block``) evaluates index 0 and the indices
      where a residual enters a count, where alone the counts change (see
      ``_merged_argopt``);
    - the refine path (``_refine_block``) evaluates the counts at every
      ``_SHIFT_STRIDES[0]``-th index, then, level by level, at the finer
      strides inside the segments that can still hold an optimum.

    The event path costs a binary search over the grid and a merge per
    residual, the refine path a search over the residuals per evaluated
    point, and neither wins everywhere; ``_refines`` picks one per call from
    the residual counts and the grid size alone.

    A call of more than one block of rows (``_SHIFT_BLOCK_EVENTS`` events
    on the event path, ``_SHIFT_REFINE_ROWS`` rows on the refine path) cuts
    its rows into one contiguous part per CPU, and runs the parts on a
    thread pool, except inside a ``_fork_map``, whose processes already use
    every CPU. Each row's result depends only on that row, so it does not
    depend on the number of parts. The pool counts on having the CPUs to
    itself: ``condcdf.fit_adjusters``, which makes every estimate's calls,
    holds BLAS to one thread around them (``_one_blas_thread``), so that
    BLAS threads do not spin on the CPUs of its workers.
    """
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu0 = np.asarray(mu0, dtype=np.float64)
    r1 = np.sort(np.asarray(resid1, dtype=np.float64))
    r0 = np.sort(np.asarray(resid0, dtype=np.float64))
    grid = np.asarray(grid, dtype=np.float64)
    n = mu1.size
    s_lo = np.empty(n)
    s_hi = np.empty(n)
    if _refines(r1.size + r0.size, grid.size):
        block, step = _refine_block, _SHIFT_REFINE_ROWS
    else:
        block = _event_block
        step = max(1, _SHIFT_BLOCK_EVENTS // (r1.size + r0.size))
    args = (block, mu1, mu0, r1, r0, grid, s_lo, s_hi, step)
    if n <= step or _MAPPING:
        _shift_rows(*args, 0, n)
    else:
        pool, workers = _shift_pool()
        blocks = -(-n // step)
        parts = min(workers, blocks)
        cuts = [blocks * p // parts * step for p in range(parts)] + [n]
        # each part writes only its own rows of s_lo and s_hi
        futures = [pool.submit(_shift_rows, *args, a, b)
                   for a, b in zip(cuts[:-1], cuts[1:])]
        for f in futures:
            f.result()
    return s_lo, s_hi


def _refines(m, g):
    """Whether ``shift_cdf_argopt`` takes the refine path for rows of ``m``
    residuals, both arms together, over a grid of ``g`` points.

    The event path's cost grows with m, the refine path's with g (its first
    stride alone counts at about g/64 points per row, both arms together).
    Their crossover, measured over 320 rows (``BENCH_shift_refine.json``),
    lies near m = 128 + g/64: 143 residuals at g = 1000, 284 at g = 10000.
    """
    return m >= 128 + g // 64


def _shift_rows(block, mu1, mu0, r1, r0, grid, s_lo, s_hi, step, start,
                stop):
    """``shift_cdf_argopt`` for rows [start, stop), in blocks of ``step``
    rows run by ``block``, written into ``s_lo`` and ``s_hi``."""
    for a in range(start, stop, step):
        rows = slice(a, min(a + step, stop))
        k_max, k_min = block(mu1[rows], mu0[rows], r1, r0, grid)
        s_lo[rows] = grid[k_max]
        s_hi[rows] = grid[k_min]


def _event_block(mu1, mu0, r1, r0, grid):
    """First grid argmax and argmin indices of a block of rows, from the
    grid indices where each residual enters its count."""
    r = np.concatenate([r1, r0])
    # both arms' entries side by side: each row's mean, once per residual
    mu = np.repeat(np.stack([mu1, mu0], axis=1), [r1.size, r0.size], axis=1)
    return _merged_argopt(_entry_index(grid, mu, r), r1.size, r1.size,
                          r0.size, grid.size)


def _refine_block(mu1, mu0, r1, r0, grid):
    """First grid argmax and argmin indices of a block of rows, by counting
    residuals only where a grid segment can hold the row's optimum.

    Each row starts as one segment [0, g - 1], evaluated at both ends. Both
    counts are nondecreasing in the grid index, and fl(c/m) and fl(a - b)
    are monotone in each argument, so fl(c1(e)/m1) - fl(c0(s)/m0) bounds
    the value on a segment [s, e] from above and fl(c1(s)/m1) - fl(c0(e)/m0)
    from below, with no tolerance. Per stride of ``_SHIFT_STRIDES``, a
    segment is cut at that stride, and the cuts evaluated, only if a bound
    reaches the row's best value so far and its counts differ at its ends:
    where they are equal at both ends the value is constant, and its left
    end, already evaluated, is the smaller index. The last stride is 1, so
    the first optimizer is among the evaluated points, and ties keep the
    smallest index.
    """
    m1, m0, g = r1.size, r0.size, grid.size
    b = mu1.size
    # per row i, the largest d so far at best[i] and the largest -d at
    # best[b + i], each with the smallest index attaining it
    best = np.full(2 * b, -np.inf)
    at = np.zeros(2 * b, dtype=np.intp)

    def evaluate(row, j):
        """Both arms' fl(c/m) at the sorted grid indices of each line of
        ``j``, whose row is ``row``; each line's first optimum is folded
        into its row's. The lines of a row are consecutive."""
        f1 = np.searchsorted(r1, grid[j] - mu1[row, None], side="right") / m1
        f0 = np.searchsorted(r0, grid[j] - mu0[row, None], side="right") / m0
        d = f1 - f0
        v = np.concatenate([d, -d])
        lines = np.arange(v.shape[0])
        col = np.argmax(v, axis=1)
        rows, vmax, jmin = _first_max(np.concatenate([row, row + b]),
                                      j[lines % row.size, col],
                                      v[lines, col])
        cur = best[rows]
        win = (vmax > cur) | ((vmax == cur) & (jmin < at[rows]))
        best[rows[win]] = vmax[win]
        at[rows[win]] = jmin[win]
        return f1, f0

    def segments(row, j, f1, f0):
        """The segments between neighbouring points of each line that can
        still hold an optimum, as [row, then the (left, right) ends of j,
        f1 and f0]."""
        s, e = np.s_[:, :-1], np.s_[:, 1:]
        reach = ((f1[e] - f0[s] >= best[row, None])
                 | (f0[e] - f1[s] >= best[row + b, None]))
        line, col = np.nonzero(reach & ((f1[s] != f1[e]) | (f0[s] != f0[e]))
                               & (j[e] - j[s] >= 2))
        ends = (line[:, None], col[:, None] + np.arange(2))
        return [row[line], j[ends], f1[ends], f0[ends]]

    row = np.arange(b)
    j = np.stack([np.zeros_like(row), np.full_like(row, g - 1)], axis=1)
    seg = [row, j, *evaluate(row, j)]
    span = g - 1
    for stride in _SHIFT_STRIDES:
        # the best values may have grown since the segments were kept
        row, j, f1, f0 = seg = segments(*seg)
        if not row.size:
            break
        # at most k cuts inside a segment no longer than ``span``
        k = -(-span // stride) - 1
        span = min(span, stride)
        if k < 1:
            continue
        out = []
        # whole segments per pass, at most _SHIFT_REFINE_POINTS cuts
        step = max(1, _SHIFT_REFINE_POINTS // k)
        for a in range(0, row.size, step):
            p = slice(a, a + step)
            # a cut past a segment's end falls on the end, which is
            # evaluated already
            cut = np.minimum(j[p, :1] + stride * np.arange(1, k + 1),
                             j[p, 1:])
            cut1, cut0 = evaluate(row[p], cut)
            if stride > 1:
                out.append(segments(row[p], *(
                    np.concatenate([x[p, :1], y, x[p, 1:]], axis=1)
                    for x, y in ((j, cut), (f1, cut1), (f0, cut0)))))
        if out:
            seg = [np.concatenate(x) for x in zip(*out)]
    return at[:b], at[b:]


def sample_cdf_argopt(y1, y0, grid):
    """Per-row argmax/argmin over ``grid`` of the difference of the ECDFs
    of the rows of ``y1`` and ``y0``.

    Rows of ``y1`` and ``y0`` must have equal sample sizes, and ``grid``
    must be sorted. Ties break toward the smallest grid point. A value y
    counts from its entry index on, the first grid index j with
    ``grid[j] >= y``. With equal sample sizes the difference is compared
    as the integer count difference, which orders the grid exactly as the
    ECDF difference does. Returns (s_lower, s_upper).
    """
    grid = np.asarray(grid, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    j = np.searchsorted(grid, np.concatenate(
        [y1, np.asarray(y0, dtype=np.float64)], axis=1), side="left")
    k_max, k_min = _merged_argopt(j, y1.shape[1], 1, 1, grid.size)
    return grid[k_max], grid[k_min]


def _entry_index(grid, mu, r):
    """J[i, k], the first grid index j with fl(grid[j] - mu[i, k]) >= r[k]
    (len(grid) if none): residual k counts in row i from index J[i, k] on.
    ``mu`` holds one mean per row and residual.
    """
    m = r.size
    # the grid between sentinels: ``below[j]`` is grid[j - 1] and ``at[j]``
    # grid[j], so that no guess needs a bounds check
    ext = np.concatenate([[-np.inf], grid, [np.inf]])
    below, at = ext[:-1], ext[1:]
    j = np.searchsorted(grid, r + mu)
    # the guess compares grid with fl(r + mu); repair it against the
    # comparison the count makes, jumping whole runs of tied grid values
    flat = j.reshape(-1)
    pos, jp, mu_p, r_p = None, j, mu, r
    while True:
        down = (below[jp] - mu_p >= r_p).reshape(-1)
        up = (at[jp] - mu_p < r_p).reshape(-1)
        fix = down | up
        if not fix.any():
            return j
        pos = np.flatnonzero(fix) if pos is None else pos[fix]
        down, up = down[fix], up[fix]
        jp = flat[pos]
        jp[down] = np.searchsorted(grid, below[jp[down]], side="left")
        jp[up] = np.searchsorted(grid, at[jp[up]], side="right")
        flat[pos] = jp
        mu_p, r_p = mu.reshape(-1)[pos], r[pos % m]


def _merged_argopt(j, u, m1, m0, g):
    """Per row of entry indices ``j``, whose first ``u`` columns are the
    treated arm's and the others the control arm's, the first grid indices
    in [0, g) maximizing and minimizing c1/m1 - c0/m0, where each count is
    the number of its arm's entry indices <= the grid index.

    Each row is merged once, as keys 2j + 1 (treated) and 2j (control): the
    last entry of each run of equal index holds the counts at that index,
    and the counts change nowhere else. So the first optimizer is index 0
    or the index of such a run end, and the value is evaluated only there
    (and at index 0), with the same expression as at any grid point.
    32-bit keys and counts halve the sort's and the scan's traffic.
    Returns (argmax, argmin).
    """
    rows = np.arange(j.shape[0])
    at0 = j == 0
    d0 = at0[:, :u].sum(axis=1) / m1 - at0[:, u:].sum(axis=1) / m0
    key = np.empty(j.shape, dtype=np.int32 if g < 2**30 else np.intp)
    np.left_shift(j, 1, out=key)
    key[:, :u] += 1
    key.sort(axis=1)
    c1 = np.cumsum(key & 1, axis=1, dtype=key.dtype)
    c0 = np.arange(1, key.shape[1] + 1, dtype=key.dtype) - c1
    merged = np.right_shift(key, 1, out=key)
    # entries that do not end a run of equal index, or lie past the grid
    off = merged >= g
    off[:, :-1] |= merged[:, 1:] == merged[:, :-1]
    d = c1 / m1
    d -= c0 / m0
    d_max = np.where(off, -np.inf, d)
    d_min = np.where(off, np.inf, d)
    k_max = np.argmax(d_max, axis=1)
    k_min = np.argmin(d_min, axis=1)
    return (np.where(d_max[rows, k_max] > d0, merged[rows, k_max], 0),
            np.where(d_min[rows, k_min] < d0, merged[rows, k_min], 0))
