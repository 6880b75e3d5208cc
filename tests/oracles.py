"""Slow, plain references that the package's kernels are checked against.

Exhaustive nearest-node scans are the oracle of the 4-corner lattice
decode.  Both scans return what ``_kernels.nearest_batch`` returns, (cx, cy, d, m,
n) per point, over the nodes m * b1 + n * b2 + off with |m|, |n| <=
``max_index``, and neither uses a basis inverse or a floor: only each
node's distance to each point, so they stay independent of the decode
they check.  The nodes are scanned in lexicographic (m, n) order and the
first minimum of the squared distance ``dx * dx + dy * dy`` wins, so a tie
keeps the lexicographically smallest index, as the decode's does.

:func:`full_scan` visits every node for every point.  :func:`pruned_scan`
visits, for each small box of points, only the nodes that can win there,
and returns the same bits (see :data:`PRUNE_SLACK`).  Inputs must be
finite.

:func:`nearest_peaks_loop`, a Python loop over every lag bin, is the
oracle of ``analysis._lattice_peaks``.
"""

import math

import numpy as np

from mazecells.analysis import AnalysisError
from mazecells.spatialcells import lattice_basis, phase_offset

# Points per box of pruned_scan: a box holds too few points to pay its
# per-box numpy calls below about 100, and keeps too many nodes above a
# few hundred.
BOX_POINTS = 128

# pruned_scan keeps a node q for a box B when gap2(B, q) <= U2 * (1 +
# PRUNE_SLACK) + PRUNE_FLOOR, where U2 is the largest squared distance
# from a reference node r to B's corners and gap2(B, q) the squared
# distance from q to B (0 inside it).  For exact arithmetic: every point p
# of B has E(p, r) <= U2, since a squared distance is convex and B the
# hull of its corners, and the winner k of p has E(p, k) <= E(p, r), so
# gap2(B, k) <= E(p, k) <= U2.  In floating point, with u = 2**-53, each
# squared distance dx * dx + dy * dy takes 4 roundings (a difference, a
# square and the sum, each relative u, the difference entering squared),
# so it lies within a factor (1 +- u)**4 of the exact one; the scan picks
# k by computed values, and gap2 and U2 are computed the same way.  The
# chain therefore holds up to a factor (1 + u)**8 / (1 - u)**8, about 1 +
# 16u = 1 + 1.8e-15, and one more rounding in the product.  2**-40
# (9.1e-13) is about 500 times that.  Products that underflow add an
# absolute error of a few 2**-1074 each; PRUNE_FLOOR (2**-1000) covers it.
PRUNE_SLACK = 2.0**-40
PRUNE_FLOOR = 2.0**-1000


def _nodes(b1x, b1y, b2x, b2y, offx, offy, max_index):
    """Node indices (m, n) as floats and positions (nx, ny), lexicographic."""
    idx = np.arange(-max_index, max_index + 1, dtype=np.float64)
    mm, nn = np.meshgrid(idx, idx, indexing="ij")  # m-major => lexicographic ravel
    m = mm.ravel()
    n = nn.ravel()
    return m, n, m * b1x + n * b2x + offx, m * b1y + n * b2y + offy


def _first_nearest(px, py, rows, m, n, nx, ny, cx, cy, d, mi, ni):
    """Write, for the points ``rows``, the first nearest of the given nodes."""
    dx = np.subtract(px[rows, None], nx[None, :])
    dy = np.subtract(py[rows, None], ny[None, :])
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    d2 = np.add(dx, dy, out=dx)
    k = np.argmin(d2, axis=1)  # first minimum = lexicographic smallest
    cx[rows] = nx[k]
    cy[rows] = ny[k]
    d[rows] = np.sqrt(d2[np.arange(k.size), k])
    mi[rows] = m[k].astype(np.int64)
    ni[rows] = n[k].astype(np.int64)


def full_scan(px, py, b1x, b1y, b2x, b2y, offx, offy, max_index, cx, cy, d, mi, ni):
    """Exhaustive scan of every node with |m|, |n| <= max_index, in
    lexicographic order, for every point."""
    m, n, nx, ny = _nodes(b1x, b1y, b2x, b2y, offx, offy, max_index)
    chunk = max(1, 2_000_000 // nx.size)
    for lo in range(0, px.shape[0], chunk):
        rows = np.arange(lo, min(lo + chunk, px.shape[0]))
        _first_nearest(px, py, rows, m, n, nx, ny, cx, cy, d, mi, ni)


def _boxes(px, py):
    """Index arrays of at most BOX_POINTS points that together hold every
    point once: slabs of neighbouring x, each cut into runs of neighbouring y."""
    per_slab = BOX_POINTS * max(1, round(math.sqrt(px.shape[0] / BOX_POINTS)))
    by_x = np.argsort(px, kind="stable")
    for lo in range(0, by_x.size, per_slab):
        slab = by_x[lo : lo + per_slab]
        slab = slab[np.argsort(py[slab], kind="stable")]
        for k in range(0, slab.size, BOX_POINTS):
            yield slab[k : k + BOX_POINTS]


def pruned_scan(px, py, b1x, b1y, b2x, b2y, offx, offy, max_index, cx, cy, d, mi, ni):
    """:func:`full_scan`, bit for bit, visiting per box of points only the
    nodes that can win there.

    The box is the bounding box of its points.  Its reference node r is the
    node nearest the box's centre, and U2 its largest squared distance to
    the box's corners, which bounds every point's squared distance to its
    nearest node.  The nodes within U2 of the box, plus :data:`PRUNE_SLACK`,
    keep their lexicographic order, so the first minimum among them is the
    full scan's.
    """
    m, n, nx, ny = _nodes(b1x, b1y, b2x, b2y, offx, offy, max_index)
    for rows in _boxes(px, py):
        x0, x1 = float(px[rows].min()), float(px[rows].max())
        y0, y1 = float(py[rows].min()), float(py[rows].max())
        ex = nx - 0.5 * (x0 + x1)
        ey = ny - 0.5 * (y0 + y1)
        r = int(np.argmin(ex * ex + ey * ey))
        rx, ry = float(nx[r]), float(ny[r])
        u2 = max((x - rx) * (x - rx) + (y - ry) * (y - ry) for x in (x0, x1) for y in (y0, y1))
        gx = np.maximum(np.maximum(x0 - nx, nx - x1), 0.0)
        gy = np.maximum(np.maximum(y0 - ny, ny - y1), 0.0)
        keep = np.flatnonzero(gx * gx + gy * gy <= u2 * (1.0 + PRUNE_SLACK) + PRUNE_FLOOR)
        _first_nearest(px, py, rows, m[keep], n[keep], nx[keep], ny[keep], cx, cy, d, mi, ni)


def scan_grid(points, g, max_index):
    """(cx, cy, d, m, n) of :func:`full_scan` for the (N, 2) ``points`` and
    grid cell ``g``, as arrays."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    b = lattice_basis(g)
    off = phase_offset(g)
    k = pts.shape[0]
    out = [np.empty(k), np.empty(k), np.empty(k), np.empty(k, np.int64), np.empty(k, np.int64)]
    full_scan(pts[:, 0], pts[:, 1], b[0, 0], b[1, 0], b[0, 1], b[1, 1], off.x, off.y, max_index, *out)
    return out


def nearest_peaks_loop(ac):
    """(distance, angle) of the six nearest autocorrelogram peaks, nearest
    first: a defined bin at a nonzero lag, strictly greater than its
    defined neighbors (at least 5 of them) and with positive correlation."""
    count = 6
    vals = ac.values
    ny, nx = vals.shape
    cy, cx = ac.center
    peaks = []
    for i in range(1, ny - 1):
        for j in range(1, nx - 1):
            v = vals[i, j]
            if not np.isfinite(v) or v <= 0.0:
                continue
            lx = (j - cx) * ac.bin_size
            ly = (i - cy) * ac.bin_size
            d = math.hypot(lx, ly)
            if d == 0.0:
                continue
            neigh = np.delete(vals[i - 1 : i + 2, j - 1 : j + 2].ravel(), 4)
            neigh = neigh[np.isfinite(neigh)]
            if neigh.size < 5:
                continue
            if v > neigh.max():
                peaks.append((d, math.degrees(math.atan2(ly, lx))))
    if len(peaks) < count:
        raise AnalysisError(f"found only {len(peaks)} peaks, need {count}")
    peaks.sort(key=lambda p: p[0])
    return peaks[:count]


def nearest_peak_angles_loop(ac):
    """Sorted angles of :func:`nearest_peaks_loop`, as ``nearest_peak_angles``
    returns them."""
    return np.asarray(sorted(a for _, a in nearest_peaks_loop(ac)), dtype=np.float64)
