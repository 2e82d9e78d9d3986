"""Numpy compute kernels: the exact breakpoint scan and the per-row grid
argmax/argmin of conditional-CDF differences.
"""
from __future__ import annotations

import os

import numpy as np

__all__ = [
    "delta_profile",
    "profile_extrema",
    "scan_extrema",
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


def scan_extrema(a, b, w1=None, w0=None):
    """``profile_extrema`` of ``delta_profile(a, b, w1, w0)``: the exact
    sup/inf of the difference of the treated-arm values ``a`` and the
    control-arm values ``b``, weighted as in ``delta_profile``."""
    return profile_extrema(*delta_profile(a, b, w1, w0))


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


def shift_cdf_argopt(mu1, mu0, resid1, resid0, grid):
    """Per-row argmax/argmin over ``grid`` of Fe1(t - mu1) - Fe0(t - mu0),
    the location-shift conditional CDF difference built from residual ECDFs.

    Ties break toward the smallest grid point; grid must be sorted. The
    value at grid index j is ``c1/m1 - c0/m0`` with cj the number of arm-j
    residuals r satisfying r <= fl(grid[j] - mu). Row by row, the counts
    only change at the grid indices where a residual enters them, so only
    index 0 and those indices are evaluated (see ``_merged_argopt``), with
    the same expression, and the result equals the argmax/argmin over every
    grid point, ties included.

    A call of more than one block of ``_SHIFT_BLOCK_EVENTS`` events cuts
    its rows into one contiguous part per CPU, and runs the parts on a
    thread pool. Each row's result depends only on that row, so it does not
    depend on the number of parts.
    """
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu0 = np.asarray(mu0, dtype=np.float64)
    r1 = np.sort(np.asarray(resid1, dtype=np.float64))
    r0 = np.sort(np.asarray(resid0, dtype=np.float64))
    grid = np.asarray(grid, dtype=np.float64)
    n = mu1.size
    s_lo = np.empty(n)
    s_hi = np.empty(n)
    step = max(1, _SHIFT_BLOCK_EVENTS // (r1.size + r0.size))
    args = (mu1, mu0, r1, r0, grid, s_lo, s_hi, step)
    if n <= step:
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


def _shift_rows(mu1, mu0, r1, r0, grid, s_lo, s_hi, step, start, stop):
    """``shift_cdf_argopt`` for rows [start, stop), in blocks of ``step``
    rows, written into ``s_lo`` and ``s_hi``."""
    r = np.concatenate([r1, r0])
    for a in range(start, stop, step):
        rows = slice(a, min(a + step, stop))
        # both arms' entries side by side: each row's mean, once per residual
        mu = np.repeat(np.stack([mu1[rows], mu0[rows]], axis=1),
                       [r1.size, r0.size], axis=1)
        k_max, k_min = _merged_argopt(_entry_index(grid, mu, r), r1.size,
                                      r1.size, r0.size, grid.size)
        s_lo[rows] = grid[k_max]
        s_hi[rows] = grid[k_min]


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
