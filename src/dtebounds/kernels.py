"""Numpy compute kernels: the exact breakpoint scan and the per-row grid
argmax/argmin of conditional-CDF differences.
"""
from __future__ import annotations

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
# points per pass over a block: bounds the temporaries (~1 MB per array)
_INTERP_BLOCK_POINTS = 1 << 16


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


def shift_cdf_argopt(mu1, mu0, resid1, resid0, grid):
    """Per-row argmax/argmin over ``grid`` of Fe1(t - mu1) - Fe0(t - mu0),
    the location-shift conditional CDF difference built from residual ECDFs.

    Ties break toward the smallest grid point; grid must be sorted. The
    value at grid index j is ``c1/m1 - c0/m0`` with cj the number of arm-j
    residuals r satisfying r <= fl(grid[j] - mu). Row by row, c1 only steps
    up where a treated residual enters the count and c0 where a control
    residual does, so the first maximizer is index 0 or a treated entry
    index, and the first minimizer index 0 or a control entry index. Only
    those candidates are evaluated, with the same expression, so the result
    equals the argmax/argmin over every grid point, ties included.
    """
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu0 = np.asarray(mu0, dtype=np.float64)
    r1 = np.sort(np.asarray(resid1, dtype=np.float64))
    r0 = np.sort(np.asarray(resid0, dtype=np.float64))
    grid = np.asarray(grid, dtype=np.float64)
    n, m1, m0 = mu1.size, r1.size, r0.size
    s_lo = np.empty(n)
    s_hi = np.empty(n)
    step = max(1, _SHIFT_BLOCK_EVENTS // (m1 + m0))
    for a in range(0, n, step):
        rows = slice(a, a + step)
        j1 = _entry_index(grid, mu1[rows], r1)
        j0 = _entry_index(grid, mu0[rows], r0)
        s_lo[rows] = grid[_first_argmax(j1, j0, m1, m0, grid.size)]
        # fl(a - b) == -fl(b - a), so the argmin of c1/m1 - c0/m0 is the
        # argmax of c0/m0 - c1/m1, first index included
        s_hi[rows] = grid[_first_argmax(j0, j1, m0, m1, grid.size)]
    return s_lo, s_hi


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
    j1 = np.searchsorted(grid, np.asarray(y1, dtype=np.float64), side="left")
    j0 = np.searchsorted(grid, np.asarray(y0, dtype=np.float64), side="left")
    return (grid[_first_argmax(j1, j0, 1, 1, grid.size)],
            grid[_first_argmax(j0, j1, 1, 1, grid.size)])


def _entry_index(grid, mu, r):
    """J[i, k], the first grid index j with fl(grid[j] - mu[i]) >= r[k]
    (len(grid) if none): residual k counts in row i from index J[i, k] on.
    ``r`` is sorted, so each row of J is sorted.
    """
    g, m = grid.size, r.size
    j = np.searchsorted(grid, r + mu[:, None])
    # the guess compares grid with fl(r + mu); repair it against the
    # comparison the count makes, jumping whole runs of tied grid values
    flat = j.reshape(-1)
    pos = np.arange(flat.size)
    jp, mu_p, r_p = j, mu[:, None], r
    while True:
        down = (jp > 0) & (grid[jp - 1] - mu_p >= r_p)
        up = (jp < g) & (grid[np.minimum(jp, g - 1)] - mu_p < r_p)
        fix = (down | up).reshape(-1)
        if not fix.any():
            return j
        pos, down, up = pos[fix], down.reshape(-1)[fix], up.reshape(-1)[fix]
        jp = flat[pos]
        jp[down] = np.searchsorted(grid, grid[jp[down] - 1], side="left")
        jp[up] = np.searchsorted(grid, grid[jp[up]], side="right")
        flat[pos] = jp
        mu_p, r_p = mu[pos // m], r[pos % m]


def _first_argmax(j_up, j_down, m_up, m_down, g):
    """Per row, the first grid index in [0, g) maximizing
    c_up/m_up - c_down/m_down, where c_x counts the entry indices of
    ``j_x``'s row that are <= the grid index.
    """
    rows = np.arange(j_up.shape[0])
    u = j_up.shape[1]
    # merge each row's entries as keys 2j + 1 (up) and 2j (down); at a tied
    # index the down entries sort first, so a run holding any up entry ends
    # with one, and that entry's running counts are the counts at its
    # index. 32-bit keys and counts halve the sort's and the scan's traffic
    key = np.empty((rows.size, u + j_down.shape[1]),
                   dtype=np.int32 if g < 2**30 else np.intp)
    np.multiply(j_up, 2, out=key[:, :u])
    key[:, :u] += 1
    np.multiply(j_down, 2, out=key[:, u:])
    key.sort(axis=1)
    j = key >> 1
    cand = (key & 1).astype(bool)
    c_up = np.cumsum(cand, axis=1, dtype=key.dtype)
    c_down = np.arange(1, key.shape[1] + 1, dtype=key.dtype) - c_up
    cand[:, :-1] &= j[:, 1:] != j[:, :-1]
    cand &= j < g
    d = c_up / m_up
    d -= c_down / m_down
    d[~cand] = -np.inf
    k = np.argmax(d, axis=1)
    d0 = (j_up == 0).sum(axis=1) / m_up - (j_down == 0).sum(axis=1) / m_down
    return np.where(d[rows, k] > d0, j[rows, k], 0)
