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
the points whose partial sum can still reach the threshold.  It rests on
one premise, that no computed rate exceeds the input's rate at distance
0 by more than :data:`RATE_CAP_SLACK`, and gives the bits of the plain
sum.

The autocorrelogram is the masked normalized cross-correlation of
Padfield (IEEE TIP 2012), computed with ``numpy.fft`` one spectrum at a
time; an overlap counts as constant, and its lag as NaN, when its
variance term is at most :data:`DEGENERATE_RTOL` times ``n * sum(a**2)``
of the whole centred map.
"""

from __future__ import annotations

import math
import struct
from types import SimpleNamespace

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


_INF_BITS = 0x7FF0000000000000  # the bit pattern of +inf


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _least_reaching(c, t) -> float:
    """The least double x >= 0 whose rounded sum ``x + c`` is ``>= t``.

    A bisection over the bit patterns of the non-negative doubles, whose
    integer order is their order as floats; ``x + c`` is nondecreasing in
    x, and at x = inf it is inf.
    """
    lo, hi = -1, _INF_BITS  # x + c < t at bits lo (or lo is below 0.0); >= t at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _from_bits(mid) + c >= t:
            hi = mid
        else:
            lo = mid
    return _from_bits(hi)


def survival_thresholds(caps, threshold) -> list[float]:
    """Per input j, the least partial total after inputs 0..j that can
    still reach ``threshold``, with inputs j+1.. at their caps.

    Element j + 1 corresponds to input j; element 0, the least value the
    total may start from, is 0.0 exactly when some point can fire.  A
    partial total x survives input j iff the caps of the remaining
    inputs, added to x one float add at a time in input order, reach
    ``threshold``.  That sum is nondecreasing in x, because IEEE addition
    is monotone in each operand, so it holds iff x is at least the least
    double for which it holds.  Going backwards, x + caps[j+1] must reach
    element j + 2, so each element is one bisection of one add.
    """
    out = [float(threshold)]
    for c in reversed(caps):
        out.append(_least_reaching(c, out[-1]))
    return out[::-1]


def ensemble_batch(px, py, cells, thresholds, total, out):
    """1 where the summed normalized rates of ``cells`` reach a threshold.

    ``cells`` lists each grid input as ``(b1x, b1y, b2x, b2y, offx, offy,
    spacing, kappa, zeta)``; ``thresholds`` is
    ``survival_thresholds([rate_cap(*cell[6:]) for cell in cells],
    threshold)``, which depends on no point and so is computed once per
    run by the caller; ``total`` is a scratch array of len(px) floats;
    ``out`` (int8, zeroed here) gets 1 at each point whose total, the rates
    added left to right from 0.0 in the given order, is ``>= threshold``.

    An attentional cascade with an exact reject rule (Viola & Jones,
    CVPR 2001).  Input j is decoded with :func:`rates_batch` only on the
    points that survived inputs 0..j-1.  After adding input j, a point is
    dropped once its partial total plus the caps (:func:`rate_cap`) of
    the remaining inputs, added one float add at a time in input order,
    falls below ``threshold``; that test is one compare against a
    per-input bound from ``thresholds``, and the survivors' coordinates
    and totals are then compacted over the whole array.  IEEE
    addition is monotone in each operand and every rate is at most its
    cap, so that sum bounds the final total from above: a dropped point
    cannot fire.  The survivors get the same adds in the same order as a
    plain sum, so their totals are bit-identical to it, and after the last
    input they are exactly the points that fire.  Never reorder the
    inputs: the rounding of the sum depends on their order.

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
    out.fill(0)
    start, *least = thresholds
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
            idx = idx[total >= least[-1]]
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


def autocorr(vals, visited, min_overlap, out):
    """Pearson correlation of the map with itself at every integer-bin lag.

    ``out[h - 1 + dy, w - 1 + dx]`` correlates the bins p + (dy, dx) with
    the bins p over the p where both are visited.  The six overlap sums of
    each lag (count, two sums, two sums of squares, cross sum) come from
    FFT cross-correlations of the zero-padded visited mask ``m``, the
    centred map ``a`` (mean of the visited bins subtracted, 0 where
    unvisited) and ``a**2``: the masked normalized cross-correlation of
    Padfield, "Masked Object Registration in the Fourier Domain", IEEE TIP
    2012.  Three forward and four inverse real FFTs replace the O(h^2 w^2)
    direct sum; the sums of the unshifted side are the lag-negated sums of
    the shifted side.  They run one spectrum at a time, and each sum's lags
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
    h, w = vals.shape
    nv = int(visited.sum())
    mean = float(vals[visited].mean()) if nv else 0.0
    a = np.where(visited, vals - mean, 0.0)
    shape = (_fft_size(2 * h - 1), _fft_size(2 * w - 1))
    # lag d sits at index d mod shape; gather the lags -(h-1)..h-1, -(w-1)..w-1
    rows = np.arange(-(h - 1), h) % shape[0]
    cols = np.arange(-(w - 1), w) % shape[1]
    # only the rows dy >= 0 (index h-1 on) are written from the sums; sa and
    # saa also give the unshifted side of lag d: the shifted side of -d.
    # Rows, then columns: two 1-d gathers run faster than one 2-d one.
    def lags(spectrum, kept_rows):
        return np.fft.irfft2(spectrum, s=shape)[kept_rows][:, cols]

    # Each product keeps its operands in this order: above 256 KiB numpy
    # evaluates `fa * np.conj(fa)` in place in the conj temporary, and with
    # fused multiply-adds the other order rounds differently.
    fm = np.fft.rfft2(visited.astype(np.float64), s=shape)
    cm = np.conj(fm)
    n = lags(fm * cm, rows[h - 1 :])
    del fm
    fa = np.fft.rfft2(a, s=shape)
    sa = lags(fa * cm, rows)
    sab = lags(fa * np.conj(fa), rows[h - 1 :])
    del fa
    aa = a * a
    saa = lags(np.fft.rfft2(aa, s=shape) * cm, rows)
    del cm
    sb = sa[h - 1 :: -1, ::-1]
    sbb = saa[h - 1 :: -1, ::-1]
    n, sa, saa = np.rint(n), sa[h - 1 :], saa[h - 1 :]
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
