"""Numeric kernels: walk loop, lattice decode, brute-force scan, autocorrelogram.

Each computation has exactly one implementation.  The scalar helpers
(:func:`wrap_angle`, :func:`walk_step`, :func:`nearest_node`) serve the
per-tick controller and the scalar API; the batch kernels write into
caller-provided output arrays and are vectorized with numpy wherever the
computation is not inherently sequential.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

TWO_PI = 2.0 * math.pi

# Read by the benchmark manifest; there is no compiled backend.
HAVE_NUMBA = False


def wrap_angle(a: float) -> float:
    """Wrap an angle to the half-open interval [-pi, pi)."""
    return a - TWO_PI * math.floor((a + math.pi) / TWO_PI)


def walk_step(x, y, h, step, turn_sigma, radius, z_turn, z_retry):
    """One bounded random-walk step.

    Turn by ``turn_sigma * z_turn``, advance ``step`` along the new
    heading; if that leaves the disk of ``radius``, reflect toward the
    center (plus ``turn_sigma * z_retry``) and retry once.  Should the
    retry still exit - possible only for extreme noise draws - the step
    falls back to a noise-free toward-center move, which provably lands
    inside for step < radius.

    The angle wrap is inlined (rather than calling wrap_angle) to keep the
    per-tick walk loop free of extra calls.
    """
    h = h + turn_sigma * z_turn
    h = h - TWO_PI * math.floor((h + math.pi) / TWO_PI)
    cx = x + step * math.cos(h)
    cy = y + step * math.sin(h)
    if cx * cx + cy * cy >= radius * radius:
        h = math.atan2(-y, -x) + turn_sigma * z_retry
        h = h - TWO_PI * math.floor((h + math.pi) / TWO_PI)
        cx = x + step * math.cos(h)
        cy = y + step * math.sin(h)
        if cx * cx + cy * cy >= radius * radius:
            h = math.atan2(-y, -x)
            cx = x + step * math.cos(h)
            cy = y + step * math.sin(h)
    return cx, cy, h


def nearest_node(px, py, b1x, b1y, b2x, b2y, offx, offy):
    """Nearest lattice node to (px, py); returns (cx, cy, d, m, n).

    Solves real-valued lattice coordinates through the basis inverse and
    scans a 6x6 integer window around them.  Ties on squared distance keep
    the lexicographically smallest (m, n).
    """
    det = b1x * b2y - b1y * b2x
    qx = px - offx
    qy = py - offy
    tm = (b2y * qx - b2x * qy) / det
    tn = (-b1y * qx + b1x * qy) / det
    m0 = int(math.floor(tm))
    n0 = int(math.floor(tn))
    best = np.inf
    bm = 0
    bn = 0
    bx = 0.0
    by = 0.0
    for m in range(m0 - 2, m0 + 4):
        fm = float(m)
        for n in range(n0 - 2, n0 + 4):
            fn = float(n)
            cx = fm * b1x + fn * b2x + offx
            cy = fm * b1y + fn * b2y + offy
            dx = px - cx
            dy = py - cy
            d2 = dx * dx + dy * dy
            if d2 < best:
                best = d2
                bm = m
                bn = n
                bx = cx
                by = cy
    return bx, by, math.sqrt(best), bm, bn


def walk_loop(x0, y0, h0, step, turn_sigma, radius, z_turn, z_retry, out):
    """Sequential walk: row 0 of ``out`` (ticks, 3) is the start pose, row t
    the pose at tick t; ``z_turn`` / ``z_retry`` have length ticks - 1."""
    out[0, 0] = x0
    out[0, 1] = y0
    out[0, 2] = h0
    x = x0
    y = y0
    h = h0
    for t in range(z_turn.shape[0]):
        x, y, h = walk_step(x, y, h, step, turn_sigma, radius, z_turn[t], z_retry[t])
        out[t + 1, 0] = x
        out[t + 1, 1] = y
        out[t + 1, 2] = h


_WINDOW = [(dm, dn) for dm in range(-2, 4) for dn in range(-2, 4)]


def nearest_batch(px, py, b1x, b1y, b2x, b2y, offx, offy, cx, cy, d, mi, ni):
    """:func:`nearest_node` over arrays, bitwise identical per point."""
    det = b1x * b2y - b1y * b2x
    qx = px - offx
    qy = py - offy
    m0 = np.floor((b2y * qx - b2x * qy) / det)
    n0 = np.floor((-b1y * qx + b1x * qy) / det)
    best = np.full(px.shape, np.inf)
    bm = np.zeros(px.shape, dtype=np.int64)
    bn = np.zeros(px.shape, dtype=np.int64)
    for dm, dn in _WINDOW:  # lexicographic candidate order mirrors nearest_node
        fm = m0 + float(dm)
        fn = n0 + float(dn)
        nx = fm * b1x + fn * b2x + offx
        ny = fm * b1y + fn * b2y + offy
        dx = px - nx
        dy = py - ny
        d2 = dx * dx + dy * dy
        take = d2 < best
        best[take] = d2[take]
        bm[take] = fm[take].astype(np.int64)
        bn[take] = fn[take].astype(np.int64)
    fm = bm.astype(np.float64)
    fn = bn.astype(np.float64)
    cx[:] = fm * b1x + fn * b2x + offx
    cy[:] = fm * b1y + fn * b2y + offy
    d[:] = np.sqrt(best)
    mi[:] = bm
    ni[:] = bn


def rates_batch(px, py, b1x, b1y, b2x, b2y, offx, offy, spacing, kappa, zeta, out):
    """Normalized arctangent firing rate at each point's nearest-node distance."""
    cx = np.empty_like(px)
    cy = np.empty_like(px)
    d = np.empty_like(px)
    mi = np.empty(px.shape, dtype=np.int64)
    ni = np.empty(px.shape, dtype=np.int64)
    nearest_batch(px, py, b1x, b1y, b2x, b2y, offx, offy, cx, cy, d, mi, ni)
    out[:] = 0.5 - np.arctan(kappa * (d / spacing - zeta)) / np.pi


def brute_force(px, py, b1x, b1y, b2x, b2y, offx, offy, max_index, cx, cy, d, mi, ni):
    """Exhaustive scan over |m|, |n| <= max_index in lexicographic order.

    The first minimum keeps the lexicographically smallest index on ties.
    Deliberately independent of the windowed search in nearest_node.
    """
    idx = np.arange(-max_index, max_index + 1, dtype=np.float64)
    mm, nn = np.meshgrid(idx, idx, indexing="ij")  # m-major => lexicographic ravel
    m = mm.ravel()
    n = nn.ravel()
    nx = m * b1x + n * b2x + offx
    ny = m * b1y + n * b2y + offy
    chunk = max(1, int(2_000_000 // max(1, nx.size)))
    for lo in range(0, px.shape[0], chunk):
        hi = min(lo + chunk, px.shape[0])
        dx = px[lo:hi, None] - nx[None, :]
        dy = py[lo:hi, None] - ny[None, :]
        d2 = dx * dx + dy * dy
        k = np.argmin(d2, axis=1)  # first minimum = lexicographic smallest
        rows = np.arange(lo, hi)
        cx[rows] = nx[k]
        cy[rows] = ny[k]
        d[rows] = np.sqrt(d2[rows - lo, k])
        mi[rows] = m[k].astype(np.int64)
        ni[rows] = n[k].astype(np.int64)


def autocorr(vals, visited, min_overlap, out):
    """Pearson correlation of the map with itself at every integer-bin lag.

    Only mutually visited bins count.  Only the dy > 0 (plus dy == 0,
    dx >= 0) half is computed; the mirrored lag gets the identical value so
    the symmetry under lag negation is exact by construction.
    """
    h, w = vals.shape
    nv = int(visited.sum())
    safe = np.where(visited, vals, 0.0)
    for dy in range(0, h):
        for dx in range(-(w - 1), w):
            if dy == 0 and dx < 0:
                continue
            y0, y1 = dy, h
            x0 = dx if dx > 0 else 0
            x1 = w if dx > 0 else w + dx
            a = safe[y0:y1, x0:x1]
            b = safe[y0 - dy : y1 - dy, x0 - dx : x1 - dx]
            m = visited[y0:y1, x0:x1] & visited[y0 - dy : y1 - dy, x0 - dx : x1 - dx]
            n = int(m.sum())
            if dy == 0 and dx == 0:
                r = 1.0 if nv >= min_overlap else np.nan
            elif n < min_overlap:
                r = np.nan
            else:
                am = np.where(m, a, 0.0)
                bm = np.where(m, b, 0.0)
                sa = am.sum()
                sb = bm.sum()
                saa = (am * am).sum()
                sbb = (bm * bm).sum()
                sab = (am * bm).sum()
                va = n * saa - sa * sa
                vb = n * sbb - sb * sb
                if va <= 0.0 or vb <= 0.0:
                    r = np.nan
                else:
                    r = (n * sab - sa * sb) / math.sqrt(va * vb)
            out[h - 1 + dy, w - 1 + dx] = r
            out[h - 1 - dy, w - 1 - dx] = r


# Read by the benchmark manifest, which records the kernel backend.
def get_kernels() -> SimpleNamespace:
    """The single kernel set, tagged ``backend="numpy"``."""
    return SimpleNamespace(
        backend="numpy",
        walk_loop=walk_loop,
        nearest_batch=nearest_batch,
        rates_batch=rates_batch,
        brute_force=brute_force,
        autocorr=autocorr,
    )
