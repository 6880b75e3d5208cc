"""Numeric kernels: walk loop, lattice decode, firing rate, place-cell
ensemble, autocorrelogram.

Each computation has exactly one implementation.  The scalar helpers
(:func:`wrap_angle`, :func:`walk_step`) serve the per-tick controller, and
:func:`walk_step` is the reference for :func:`walk_loop`, which computes a
tick that stays inside the disk itself and hands every tick that leaves
it to :func:`walk_step`.  The batch kernels write into caller-provided
output arrays and are vectorized with numpy wherever the computation is
not inherently sequential.  The scalar spatial-cell API
(``nearest_center``, ``firing_rate``) runs the batch kernels on one-point
arrays, and the firing formula is written once, in :func:`firing_raw` and
:func:`firing_normalized`.

The lattice decode checks the 4 corners of the basis parallelogram that
holds a point (Conway & Sloane, IEEE Trans. IT 1982).  Its independent
oracle, an exhaustive scan that uses distances only, lives with the
tests (``tests/oracles.py``), since nothing in the package runs it.  The
corner arithmetic is written once, in :func:`_corners`, which works in
rows of one scratch array.  :func:`nearest_batch` keeps the winning node and index of each
point; :func:`rates_batch` keeps only the smallest squared distance and
scans the points in sub-blocks of :data:`SCAN_BLOCK`, so one scratch
array of 448 KiB serves every call, whatever its length, and stays in a
2 MiB per-core L2 cache with the sub-block's inputs and outputs (every
sub-block size gives the same bits).  The ``ratemap`` pipeline walks,
decodes and bins a run in blocks of :data:`BLOCK` ticks, so a run's
memory does not grow with its ticks.

The place-cell ensemble, :func:`ensemble_batch`, is an exact attentional
cascade: each grid input is decoded, through :func:`rates_batch`, only on
the points whose partial sum can still reach the threshold.  With m
inputs left, a partial total below ``threshold * (1 - m * 2**-50)``
minus the remaining inputs' caps is dropped; :data:`DROP_SLACK` derives
that slack from the rounding of in-order sums of non-negative floats
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
section 4.2).  The cascade rests on one premise, that no computed rate
exceeds the input's rate at distance 0 by more than
:data:`RATE_CAP_SLACK`, and gives the bits of the plain sum.

The autocorrelogram is the masked normalized cross-correlation of
Padfield (IEEE TIP 2012), computed with ``numpy.fft`` one spectrum at a
time.  The terms that depend only on the visited mask are computed once
per mask, in :func:`autocorr_mask`, and shared by every map with that mask.
An overlap counts as constant, and its lag as NaN, when its variance term
is at most :data:`DEGENERATE_RTOL` times ``n * sum(a**2)`` of the whole
centred map.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Read by the benchmark manifest; there is no compiled backend.
HAVE_NUMBA = False

# An autocorrelogram overlap whose variance term falls at or below this
# fraction of n * sum(a**2 over the whole centred map) counts as constant
# (NaN); it absorbs the FFT roundoff where the exact value is 0.
DEGENERATE_RTOL = 1e-10


def wrap_angle(a: float) -> float:
    """Wrap an angle to the half-open interval [-pi, pi)."""
    r = a - TWO_PI * math.floor((a + math.pi) / TWO_PI)
    # just below pi, a + pi rounds up to 2*pi and r lands one step below -pi
    if r < -math.pi:
        r += TWO_PI
    return r


def walk_step(x, y, h, step, turn_sigma, radius, z_turn, z_retry):
    """One bounded random-walk step.

    Turn by ``turn_sigma * z_turn``, advance ``step`` along the new
    heading; if that leaves the disk of ``radius``, reflect toward the
    center (plus ``turn_sigma * z_retry``) and retry once.  Should the
    retry still exit - possible only for extreme noise draws - the step
    falls back to a noise-free toward-center move, which provably lands
    inside for step < radius.
    """
    h = h + turn_sigma * z_turn
    # wrap_angle returns an angle already in [-pi, pi) unchanged; skipping
    # the call there keeps the per-tick walk as fast as an inlined wrap
    if not -math.pi <= h < math.pi:
        h = wrap_angle(h)
    cx = x + step * math.cos(h)
    cy = y + step * math.sin(h)
    if cx * cx + cy * cy >= radius * radius:
        h = wrap_angle(math.atan2(-y, -x) + turn_sigma * z_retry)
        cx = x + step * math.cos(h)
        cy = y + step * math.sin(h)
        if cx * cx + cy * cy >= radius * radius:
            h = math.atan2(-y, -x)
            cx = x + step * math.cos(h)
            cy = y + step * math.sin(h)
    return cx, cy, h


def walk_loop(x0, y0, h0, step, turn_sigma, radius, z_turn, z_retry, out):
    """Sequential walk: row 0 of ``out`` (ticks, 3) is the start pose, row t
    the pose at tick t; ``z_turn`` / ``z_retry`` have length ticks - 1 and
    may be strided views.

    :func:`walk_step` is the reference.  A tick whose move stays inside
    the disk (about 99% of them at the defaults) is computed here, with
    no function call unless the heading needs wrapping, by the operations
    :func:`walk_step` performs in the same order.  A tick whose move
    leaves the disk is handed to :func:`walk_step` from the previous
    pose, which recomputes it bit for bit and is the only code for the
    retry and the fallback.  The draws are read and the poses written
    through memoryviews, which hand out and take plain Python floats and
    copy nothing.
    """
    xs = memoryview(out[:, 0])
    ys = memoryview(out[:, 1])
    hs = memoryview(out[:, 2])
    x = xs[0] = x0
    y = ys[0] = y0
    h = hs[0] = h0
    cos, sin, pi = math.cos, math.sin, math.pi
    neg_pi = -pi
    r2 = radius * radius
    retry = memoryview(z_retry)
    t = 0
    for zt in memoryview(z_turn):
        hn = h + turn_sigma * zt
        if not neg_pi <= hn < pi:
            hn = wrap_angle(hn)
        cx = x + step * cos(hn)
        cy = y + step * sin(hn)
        if cx * cx + cy * cy >= r2:
            cx, cy, hn = walk_step(x, y, h, step, turn_sigma, radius, zt, retry[t])
        t += 1
        x = xs[t] = cx
        y = ys[t] = cy
        h = hs[t] = hn


# Rows of the scratch array _corners works in.
SCRATCH_ROWS = 14

# Ticks per block of the ratemap pipeline's walk, decode and binning; a
# block this long amortizes the fixed cost of each numpy call: blocks of
# SCAN_BLOCK ticks ran ratemap-long 13% slower (perfbench, 2-CPU VM).
BLOCK = 16384

# Points per sub-block of the 4-corner scan in rates_batch: the
# SCRATCH_ROWS rows of 4096 points (448 KiB) stay in a 2 MiB per-core L2
# cache beside the sub-block's inputs and outputs, where a whole block's
# 1.75 MiB did not.  A process running three 200k-tick ratemaps peaked at
# 38.4, 38.9 and 40.0 MB resident with sub-blocks of 4096, 8192 and 16384
# points; 2048 saved 0.3 MB more for twice the calls.
SCAN_BLOCK = 4096


def _corners(px, py, b1x, b1y, b2x, b2y, offx, offy, s):
    """Yield ``(fm, fn, nx, ny, d2)`` for the 4 corners of each point's basis
    parallelogram, in lexicographic (m, n) order.

    Solves real-valued lattice coordinates (tm, tn) through the basis
    inverse; the corners are (m0..m0+1) x (n0..n0+1) with m0 = floor(tm),
    n0 = floor(tn).  ``fm``, ``fn`` are the corner's node indices as floats,
    (nx, ny) = (fm*b1x + fn*b2x) + offx, (fm*b1y + fn*b2y) + offy its
    position and ``d2`` its squared distance ``dx*dx + dy*dy``.  Every step
    writes into a row of the scratch array ``s``, shape (SCRATCH_ROWS,
    len(px)), so the yielded arrays are overwritten by the next corner.
    The products fm*b1 and fn*b2 are formed once per fm and per fn.
    """
    det = b1x * b2y - b1y * b2x
    qx = np.subtract(px, offx, out=s[0])
    qy = np.subtract(py, offy, out=s[1])
    t = s[2]
    fm = np.multiply(qx, b2y, out=s[3])
    np.subtract(fm, np.multiply(qy, b2x, out=t), out=fm)
    fn = np.multiply(qx, -b1y, out=s[4])
    np.add(fn, np.multiply(qy, b1x, out=t), out=fn)
    for f in (fm, fn):
        np.divide(f, det, out=f)
        np.floor(f, out=f)
    # + 0.0 maps a floor of -0.0 to 0.0; an integer node index has no -0.0
    n0 = np.add(fn, 0.0, out=fn)
    n1 = np.add(n0, 1.0, out=s[5])
    ns = (
        (n0, np.multiply(n0, b2x, out=s[6]), np.multiply(n0, b2y, out=s[7])),
        (n1, np.multiply(n1, b2x, out=s[8]), np.multiply(n1, b2y, out=s[9])),
    )
    mx, my, nx, ny = s[10], s[11], s[12], s[13]
    dx, dy = qx, qy
    for step in (0.0, 1.0):  # fm = m0 (+ 0.0 as for n0), then m0 + 1
        np.add(fm, step, out=fm)
        np.multiply(fm, b1x, out=mx)
        np.multiply(fm, b1y, out=my)
        for f, ax, ay in ns:
            np.add(np.add(mx, ax, out=nx), offx, out=nx)
            np.add(np.add(my, ay, out=ny), offy, out=ny)
            np.subtract(px, nx, out=dx)
            np.subtract(py, ny, out=dy)
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            yield fm, f, nx, ny, np.add(dx, dy, out=t)


def nearest_batch(px, py, b1x, b1y, b2x, b2y, offx, offy, cx, cy, d, mi, ni):
    """Nearest lattice node (cx, cy), its distance d and index (mi, ni) per point.

    Scans only the 4 corners of the basis parallelogram that holds the
    point (see :func:`_corners`).  That is exact for the hexagonal (A2)
    lattice: the basis vectors have equal length and meet at 60 degrees,
    so a diagonal splits the parallelogram into two equilateral Delaunay
    triangles, and the Voronoi cells of a triangle's corners cover it
    (Conway & Sloane, "Fast quantizing and decoding algorithms for lattice
    quantizers and codes", IEEE Trans. IT 1982).  A point that floor rounds
    into the neighbouring parallelogram lies on their shared edge, whose
    two end nodes are corners of both.  The corners are scanned in
    lexicographic order with a strict ``<`` and a running minimum, so ties
    on squared distance keep the lexicographically smallest (m, n), as an
    exhaustive scan does.
    """
    best = np.full(px.shape, np.inf)
    bm = np.zeros(px.shape)
    bn = np.zeros(px.shape)
    s = np.empty((SCRATCH_ROWS, px.shape[0]))
    take = np.empty(px.shape, dtype=bool)
    # the node (0, 0) with bm = bn = 0, kept where every corner's squared
    # distance overflows to inf (finite points beyond about 1e154)
    cx.fill(offx)
    cy.fill(offy)
    for fm, fn, nx, ny, d2 in _corners(px, py, b1x, b1y, b2x, b2y, offx, offy, s):
        np.less(d2, best, out=take)
        np.copyto(best, d2, where=take)
        np.copyto(bm, fm, where=take)
        np.copyto(bn, fn, where=take)
        np.copyto(cx, nx, where=take)
        np.copyto(cy, ny, where=take)
    d[:] = np.sqrt(best)
    mi[:] = bm
    ni[:] = bn


def firing_raw(d, spacing, kappa, zeta):
    """Raw firing value arctan(kappa * (d / spacing - zeta)) at node
    distance ``d``; negative near nodes."""
    return np.arctan(kappa * (d / spacing - zeta))


def firing_normalized(raw):
    """A raw firing value mapped to (0, 1), increasing toward lattice nodes."""
    return 0.5 - raw / np.pi


def rates_batch(px, py, b1x, b1y, b2x, b2y, offx, offy, spacing, kappa, zeta, out):
    """Normalized firing rate at each point's nearest-node distance.

    Walks the points in sub-blocks of :data:`SCAN_BLOCK`, running the
    4-corner scan of :func:`_corners` in one scratch array for all of them
    and keeping only the smallest squared distance.  Tied squared
    distances have equal bits, so this minimum is the one the strict-``<``
    scan of :func:`nearest_batch` returns; ``fmin`` skips a NaN as that
    scan does.  ``px``, ``py`` may be strided views.
    """
    n = px.shape[0]
    s = np.empty((SCRATCH_ROWS, min(n, SCAN_BLOCK)))
    for lo in range(0, n, SCAN_BLOCK):
        hi = min(lo + SCAN_BLOCK, n)
        d = out[lo:hi]
        d.fill(np.inf)
        corners = _corners(px[lo:hi], py[lo:hi], b1x, b1y, b2x, b2y, offx, offy, s[:, : hi - lo])
        for *_, d2 in corners:
            np.fmin(d, d2, out=d)
        np.sqrt(d, out=d)
        d[:] = firing_normalized(firing_raw(d, spacing, kappa, zeta))


# Added to each input's rate at distance 0 to cap every rate it can take.
# For d >= 0 the argument kappa * (d / spacing - zeta) is at least its
# d = 0 value, since every rounded operation is monotone, and the true
# arctan is increasing; numpy's arctan is within a few ulp of the true
# one (about 1e-15 of rate, as arctan lies in [-pi/2, pi/2]), and the
# steps 0.5 - t / pi are monotone again.  2**-30 (about 9.3e-10) exceeds
# that error by about six orders of magnitude.
RATE_CAP_SLACK = 2.0**-30


def rate_cap(spacing, kappa, zeta) -> float:
    """An upper bound on every normalized rate of one grid cell: its rate
    at distance 0 plus :data:`RATE_CAP_SLACK`."""
    return float(firing_normalized(firing_raw(0.0, spacing, kappa, zeta))) + RATE_CAP_SLACK


# ensemble_batch drops a partial total x after input j, with m inputs
# left, when x < theta * (1 - m * DROP_SLACK) - S, where theta is the
# threshold and S the float sum of the remaining inputs' caps; at m = 0
# the bound is theta itself.  Write u = 2**-53.  Every rate lies in
# [0, 1] and every cap is at least 0, so every partial total is too, and
# a float add of non-negative terms is at most (1 + u) times their exact
# sum: the remaining adds of caps take x to at most (x + S') * (1 + u)**m,
# S' the exact cap sum, and by monotony the rates take x no higher.  S,
# summed with m - 1 adds, is at least S' * (1 - u)**(m - 1); 1 - m *
# DROP_SLACK is exact; the product and the difference each round up by at
# most a factor 1 + u, and x >= 0 is dropped only when S is below the
# product.  So a dropped x ends below theta * (1 - 8 m u) times a factor
# of 1 + (2m + 1) u to first order and below exp(3 m u) for every m >= 1,
# while 1 - 8 m u < exp(-8 m u): it ends below theta, for every input
# count below 2**50.  Where the product is at most 2**-1022, S and every
# partial total below it are subnormal, and adds and differences there
# are exact, so x + S' < theta directly.  The bound lies about 8 m u
# theta (4e-14 for the default place cell) below the least partial total
# that can still fire, so it keeps hardly any point that cannot.
DROP_SLACK = 2.0**-50


def _drop_bounds(caps, threshold) -> list[float]:
    """Per stage j, the least partial total after inputs 0..j-1 that the
    cascade keeps (:data:`DROP_SLACK`); element 0 comes before any input,
    and the last element, after every input, is ``threshold`` itself."""
    bound = [threshold]
    tail = 0.0  # the caps of the inputs left, summed from the last one back
    for left, cap in enumerate(reversed(caps), 1):
        tail = cap + tail
        bound.append(threshold * (1.0 - left * DROP_SLACK) - tail)
    return bound[::-1]


def ensemble_batch(px, py, cells, threshold, total, out):
    """1 where the summed normalized rates of ``cells`` reach ``threshold``.

    ``cells`` lists each grid input as ``(b1x, b1y, b2x, b2y, offx, offy,
    spacing, kappa, zeta)``; ``total`` is a scratch array of len(px)
    floats; ``out`` (int8, zeroed here) gets 1 at each point whose total,
    the rates added left to right from 0.0 in the given order, is ``>=
    threshold``.

    An attentional cascade with a sound reject rule (Viola & Jones, CVPR
    2001).  Input j is decoded with :func:`rates_batch` only on the points
    that survived inputs 0..j-1.  After adding input j, with m inputs
    left, a point is dropped when its partial total is below ``threshold
    * (1 - m * DROP_SLACK) - S_j``, where ``S_j`` sums the caps
    (:func:`rate_cap`) of the remaining inputs from the last one back;
    the bounds depend on no point and are computed once per call, so the
    test is one compare per point, and the survivors' coordinates and
    totals are then compacted over the whole array.  Every rate is at
    most its cap, so a dropped point cannot fire (the derivation is at
    :data:`DROP_SLACK`); a bound above 0 before the first input means no
    point can.  The survivors get the same adds in the same order as a
    plain sum, so their totals are bit-identical to it, and after the last
    input the compare is exactly ``total >= threshold``.  Never reorder
    the inputs: the rounding of the sum depends on their order.

    Once the survivors times the remaining inputs are at most
    :data:`SCAN_BLOCK`, read on each call, the remaining inputs are decoded
    in one :func:`rates_batch` call, each on its own copy of the survivors
    (the same operations per element, so the same bits), and added in
    order.  That call is one sub-block of the scan, so each point's lattice
    arguments line up with it.  One call costs about 45-100 us of numpy
    overhead, as much as decoding about 1000 points, and saves a call per
    remaining input; a 16384-tick block of the default place cell keeps
    18 to 48 points after its second input.
    """
    start, *least = _drop_bounds([rate_cap(*cell[6:]) for cell in cells], threshold)
    out.fill(0)
    if px.shape[0] == 0 or start > 0.0:  # no point can fire
        return
    idx = None  # the survivors' indices into px, once one is dropped
    for j, (cell, t) in enumerate(zip(cells, least)):
        if j == 0:  # 0.0 + r is r for every rate, so input 0 is the total
            rates_batch(px, py, *cell, total)
        else:
            rate = np.empty(total.shape[0])
            rates_batch(px, py, *cell, rate)
            np.add(total, rate, out=total)
        sel = np.flatnonzero(total >= t)
        if sel.size == total.shape[0]:
            continue
        if sel.size == 0:
            return
        idx = sel if idx is None else idx[sel]
        px = px[sel]
        py = py[sel]
        total = np.take(total, sel, out=total[: sel.size])
        rest = cells[j + 1 :]
        m, k = px.shape[0], len(rest)
        if 0 < m * k <= SCAN_BLOCK:
            # the survivors tiled once per remaining input, each copy with
            # its input's arguments, in one sub-block of the scan
            args = np.repeat(np.asarray(rest, dtype=np.float64).T, m, axis=1)
            rate = np.empty(k * m)
            rates_batch(np.tile(px, k), np.tile(py, k), *args, rate)
            for r in rate.reshape(k, m):
                np.add(total, r, out=total)
            idx = idx[total >= threshold]
            break
    out[slice(None) if idx is None else idx] = 1


def _fft_size(n: int) -> int:
    """Smallest 5-smooth integer (prime factors 2, 3, 5 only) >= n."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


class AutocorrMask(NamedTuple):
    """The terms of :func:`autocorr` that depend only on the visited mask,
    built by :func:`autocorr_mask`."""

    visited: np.ndarray  # (h, w) bool
    count: int  # visited bins
    shape: tuple[int, int]  # the padded FFT shape
    rows: np.ndarray  # lag d at index d mod shape: the lags -(h-1)..h-1
    cols: np.ndarray  # and -(w-1)..w-1
    cm: np.ndarray  # conj(rfft2(mask)), the padded half-spectrum
    n: np.ndarray  # the rounded overlap counts of the lags dy >= 0


def _lags(spectrum, shape, rows, cols):
    """The lags ``rows`` x ``cols`` of the cross-correlation whose spectrum
    is ``spectrum``.  Rows, then columns: two 1-d gathers run faster than
    one 2-d one."""
    return np.fft.irfft2(spectrum, s=shape)[rows][:, cols]


def autocorr_mask(visited) -> AutocorrMask:
    """The terms of :func:`autocorr` that depend only on ``visited``: one
    forward and one inverse transform, which every map with this mask
    shares (every map of one ``analysis.Binning``)."""
    visited = np.ascontiguousarray(visited, dtype=bool)
    h, w = visited.shape
    shape = (_fft_size(2 * h - 1), _fft_size(2 * w - 1))
    rows = np.arange(-(h - 1), h) % shape[0]
    cols = np.arange(-(w - 1), w) % shape[1]
    fm = np.fft.rfft2(visited.astype(np.float64), s=shape)
    cm = np.conj(fm)
    n = np.rint(_lags(fm * cm, shape, rows[h - 1 :], cols))
    return AutocorrMask(visited, int(visited.sum()), shape, rows, cols, cm, n)


def autocorr(vals, mask, min_overlap, out):
    """Pearson correlation of the map with itself at every integer-bin lag.

    ``mask`` is :func:`autocorr_mask` of the map's visited bins.
    ``out[h - 1 + dy, w - 1 + dx]`` correlates the bins p + (dy, dx) with
    the bins p over the p where both are visited.  The six overlap sums of
    each lag (count, two sums, two sums of squares, cross sum) come from
    FFT cross-correlations of the zero-padded visited mask ``m``, the
    centred map ``a`` (mean of the visited bins subtracted, 0 where
    unvisited) and ``a**2``: the masked normalized cross-correlation of
    Padfield, "Masked Object Registration in the Fourier Domain", IEEE TIP
    2012.  The mask's conjugate spectrum and the overlap counts depend on
    the mask alone and come with ``mask`` (one forward and one inverse real
    FFT, shared by every map with that mask); each map adds two forward and
    three inverse real FFTs, which replace the O(h^2 w^2) direct sum.  The
    sums of the unshifted side are the lag-negated sums of the shifted
    side, so they need no transform of their own.  The transforms run one
    spectrum at a time, and each sum's lags
    are gathered as soon as it is inverted, so no temporary outgrows one
    padded half-spectrum: a stack of them, over 1 MB for a 104 x 104 map,
    sits above glibc's mmap threshold and would be mapped and faulted in
    page by page on every map.  Centring keeps the roundoff of near-flat maps
    small (Pearson itself does not change under a shift).  Whatever an
    unvisited bin of ``vals`` holds (NaN, inf or any number) changes no bit
    of ``out``.

    A lag with fewer than ``min_overlap`` shared bins is NaN, and so is a
    degenerate one whose overlap is constant on either side.  Because the
    FFT leaves roundoff of order 1e-16 where a direct sum gives exactly 0,
    an overlap counts as constant when its variance term
    ``n * sum(a**2) - sum(a)**2`` is at most ``DEGENERATE_RTOL * n *
    sum(a**2 over the whole map)``.  The zero lag is 1 iff at least
    ``min_overlap`` bins are visited.  Only the rows dy >= 0 are computed
    from the sums, and only the dy > 0 (plus dy == 0, dx >= 0) half is
    kept; the mirrored lag gets the identical value so the symmetry under
    lag negation is exact by construction.
    """
    visited, nv, shape, rows, cols, cm, n = mask
    h, w = vals.shape
    mean = float(vals[visited].mean()) if nv else 0.0
    a = np.where(visited, vals - mean, 0.0)
    # only the rows dy >= 0 (index h-1 on) are written from the sums; sa and
    # saa also give the unshifted side of lag d: the shifted side of -d.
    # Each product keeps its operands in this order: above 256 KiB numpy
    # evaluates `fa * np.conj(fa)` in place in the conj temporary, and with
    # fused multiply-adds the other order rounds differently.
    fa = np.fft.rfft2(a, s=shape)
    sa = _lags(fa * cm, shape, rows, cols)
    sab = _lags(fa * np.conj(fa), shape, rows[h - 1 :], cols)
    del fa
    aa = a * a
    saa = _lags(np.fft.rfft2(aa, s=shape) * cm, shape, rows, cols)
    sb = sa[h - 1 :: -1, ::-1]
    sbb = saa[h - 1 :: -1, ::-1]
    sa, saa = sa[h - 1 :], saa[h - 1 :]
    va = n * saa - sa * sa
    vb = n * sbb - sb * sb
    floor = DEGENERATE_RTOL * n * float(aa.sum())
    ok = (n >= min_overlap) & (va > floor) & (vb > floor)
    r = (n * sab - sa * sb) / np.sqrt(np.where(ok, va * vb, 1.0))
    out[h - 1 :] = np.where(ok, r, np.nan)
    out[h - 1, w - 1] = 1.0 if nv >= min_overlap else np.nan
    out[: h - 1] = out[h:][::-1, ::-1]
    out[h - 1, : w - 1] = out[h - 1, w:][::-1]


# Read by the benchmark manifest, which records the kernel backend.
def get_kernels() -> SimpleNamespace:
    """The kernel backend, ``backend="numpy"``: there is only one."""
    return SimpleNamespace(backend="numpy")
