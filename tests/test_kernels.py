"""Batch kernels against their scalar oracles.

The sequential walk matches the scalar ``walk_step`` bitwise (identical
floating-point operation order) on walks that wrap, leave the disk, land
exactly on its edge and fall back to the noise-free move, and the firing
rate matches the scalar formula bitwise at the exhaustive scan's node
distances.  The 4-corner decode is
checked bitwise against the exhaustive scan of ``oracles.full_scan`` at
exact nodes, edge midpoints and triangle circumcentres (2- and 3-way
ties) and at points a few ulps off them, and the pruned scan that
criterion 2 runs, ``oracles.pruned_scan``, against the full one.  The
firing-rate scan equals the firing formula at the exhaustive scan's
distances across the seams of the ratemap
block and of the corner scan's sub-blocks, on strided position views,
and in a bounded amount of scratch memory.  The
place-cell cascade is checked against a plain left-to-right sum bit for
bit; its drop bounds against the in-order sum of the remaining caps, for
input counts well above a config's; and its premise, that no computed
rate exceeds the cell's rate at distance 0 plus a slack, over the whole
parameter range.  The
FFT autocorrelogram is checked at every lag against a per-lag, two-pass,
long-double masked Pearson oracle, including which lags are NaN, bit
for bit against stacked transforms and the Pearson step evaluated over
the whole lag grid, up to 208 x 208 maps, and bit for bit whatever its
unvisited bins hold.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_grid, walk_cases
from oracles import full_scan, pruned_scan

from mazecells._kernels import (
    BLOCK,
    DEGENERATE_RTOL,
    RATE_CAP_SLACK,
    SCAN_BLOCK,
    TWO_PI,
    _drop_bounds,
    _fft_size,
    autocorr,
    autocorr_mask,
    ensemble_batch,
    firing_normalized,
    firing_raw,
    nearest_batch,
    rate_cap,
    rates_batch,
    walk_loop,
    walk_step,
    wrap_angle,
)
from mazecells.arena import MAX_HEADING_SIGMA, Pose, check_walk_step
from mazecells.config import MAX_PLACE_COUNT
from mazecells.spatialcells import (
    MAX_SPACING,
    MIN_SPACING,
    FiringParams,
    GridCellParams,
    PlaceCellParams,
    anchored_ensemble,
    lattice_basis,
    normalized_rate,
    phase_offset,
    place_activity_at,
    rates_at,
    raw_firing,
)


def test_wrap_angle_range_and_periodicity():
    for a in np.linspace(-50.0, 50.0, 4001):
        w = wrap_angle(float(a))
        assert -math.pi <= w < math.pi
        assert abs(wrap_angle(float(a) + TWO_PI) - w) < 1e-9


def _doubles_around(c: float, n: int = 2000) -> list[float]:
    lo = hi = c
    out = [c]
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_wrap_angle_range_at_every_double_near_the_seams():
    # just below pi, a + pi rounds up to 2*pi: the wrap must still land in
    # [-pi, pi), and an angle already there must come back unchanged
    seams = (math.pi, -math.pi, 3 * math.pi, -3 * math.pi)
    for a in itertools.chain.from_iterable(_doubles_around(c) for c in seams):
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi, a
        if -math.pi <= a < math.pi:
            assert w == a


def test_walk_step_wraps_like_wrap_angle_in_both_branches():
    targets = _doubles_around(math.pi) + _doubles_around(-math.pi)
    for t in targets:
        # first branch: heading 0 turned by 1.0 * t, a step that stays inside
        _, _, h = walk_step(0.0, 0.0, 0.0, 0.1, 1.0, 1.3, t, 0.0)
        assert h == wrap_angle(t) and -math.pi <= h < math.pi, t
    # retry branch: the first step leaves the disk, and the retry heading
    # atan2(-y, -x) + z_retry is exactly t (the sum of two nearby doubles)
    x = 0.9
    for t in targets:
        y = math.copysign(1e-3, -t)
        toward_center = math.atan2(-y, -x)
        z_retry = t - toward_center
        assert toward_center + z_retry == t
        _, _, h = walk_step(x, y, 0.0, 0.5, 1.0, 1.0, 0.0, z_retry)
        assert h == wrap_angle(t) and -math.pi <= h < math.pi, t


def test_walk_loop_bitwise_deterministic():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((1000, 2))
    a = np.empty((1001, 3))
    b = np.empty((1001, 3))
    walk_loop(0.0, 0.0, 0.0, 0.02, 0.2, 1.3, z[:, 0].copy(), z[:, 1].copy(), a)
    walk_loop(0.0, 0.0, 0.0, 0.02, 0.2, 1.3, z[:, 0].copy(), z[:, 1].copy(), b)
    assert np.array_equal(a, b)


def _replay(x, y, h, step, turn_sigma, radius, z_turn, z_retry):
    """The poses ``walk_step`` gives tick by tick, as ``walk_loop``'s ``out``,
    and how many ticks wrapped the heading, left the disk and fell back to
    the noise-free move after the retry also left it."""
    out = np.empty((z_turn.shape[0] + 1, 3))
    out[0] = x, y, h
    wraps = exits = fallbacks = 0
    r2 = radius * radius
    for t, (zt, zr) in enumerate(zip(z_turn.tolist(), z_retry.tolist()), 1):
        hn = h + turn_sigma * zt
        wraps += not -math.pi <= hn < math.pi
        hn = wrap_angle(hn)
        cx, cy = x + step * math.cos(hn), y + step * math.sin(hn)
        if cx * cx + cy * cy >= r2:
            exits += 1
            hr = wrap_angle(math.atan2(-y, -x) + turn_sigma * zr)
            cx, cy = x + step * math.cos(hr), y + step * math.sin(hr)
            fallbacks += cx * cx + cy * cy >= r2
        x, y, h = walk_step(x, y, h, step, turn_sigma, radius, zt, zr)
        out[t] = x, y, h
    return out, (wraps, exits, fallbacks)


def _check_walk_loop(x0, y0, h0, step, turn_sigma, radius, z_turn, z_retry):
    """Run ``walk_loop``, assert its bits equal the scalar replay's and
    return the replay's branch counts."""
    out = np.full((z_turn.shape[0] + 1, 3), np.nan)
    walk_loop(x0, y0, h0, step, turn_sigma, radius, z_turn, z_retry, out)
    ref, counts = _replay(x0, y0, h0, step, turn_sigma, radius, z_turn, z_retry)
    assert out.tobytes() == ref.tobytes()
    return counts


def test_walk_loop_matches_scalar_walk_step():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((200, 2))
    wide = rng.standard_normal((400, 5))
    layouts = {
        "contiguous": (z[:, 0].copy(), z[:, 1].copy()),
        "strided columns": (z[:, 0], z[:, 1]),
        "strided rows and columns": (wide[::2, 3], wide[::-2, 1]),
        "ticks == 1": (z[:0, 0], z[:0, 1]),
    }
    for name, (z_turn, z_retry) in layouts.items():
        _check_walk_loop(0.1, -0.2, 0.3, 0.02, 0.2, 1.3, z_turn, z_retry)
    # the first move lands exactly on the wall, (1.0, 0.0) with radius 1.0,
    # which counts as leaving the disk
    assert _check_walk_loop(0.5, 0.0, 0.0, 0.5, 0.0, 1.0, z[:1, 0], z[:1, 1])[1] == 1
    # the walks of golden_bytes.json, on walk_trajectory's draws
    totals = np.zeros(3, dtype=int)
    for arena, walk, ticks, start in walk_cases().values():
        z = np.random.default_rng(walk.seed).standard_normal((ticks - 1, 2))
        start = start or Pose(0.0, 0.0, 0.0)
        totals += _check_walk_loop(
            start.x, start.y, start.heading, check_walk_step(walk, arena), walk.turn_sigma,
            arena.radius, z[:, 0], z[:, 1],
        )
    wraps, exits, fallbacks = totals
    assert wraps > 0 and exits > 0 and fallbacks > 0


@given(
    radius=st.floats(1e-3, 1e3),
    step_frac=st.floats(1e-3, 0.999),
    turn_sigma=st.one_of(st.floats(0.0, 4.0), st.floats(0.0, MAX_HEADING_SIGMA)),
    r_frac=st.floats(0.0, 0.999),
    angle=st.floats(-math.pi, math.pi),
    h0=st.floats(-math.pi, math.pi, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_walk_loop_matches_walk_step_property(radius, step_frac, turn_sigma, r_frac, angle, h0, seed):
    z = np.random.default_rng(seed).standard_normal((64, 2))
    r = radius * r_frac
    _check_walk_loop(
        r * math.cos(angle), r * math.sin(angle), h0, radius * step_frac, turn_sigma, radius,
        z[:, 0], z[:, 1],
    )


def _lattice(spacing, t, f1, f2):
    """A 60-degree basis at any orientation ``t`` and its offset f1*b1 + f2*b2,
    as the 6-tuple the decode kernels take."""
    b1x, b1y = spacing * math.cos(t), spacing * math.sin(t)
    b2x, b2y = spacing * math.cos(t + math.pi / 3.0), spacing * math.sin(t + math.pi / 3.0)
    return (b1x, b1y, b2x, b2y, f1 * b1x + f2 * b2x, f1 * b1y + f2 * b2y)


def _decode_outputs(n):
    """Empty (cx, cy, d, m, n) arrays for ``n`` points."""
    return [np.empty(n), np.empty(n), np.empty(n), np.empty(n, np.int64), np.empty(n, np.int64)]


def _decode_all(px, py, b, max_index):
    """(cx, cy, d, m, n) from nearest_batch and from the full scan."""
    got = _decode_outputs(px.size)
    want = _decode_outputs(px.size)
    nearest_batch(px, py, *b, *got)
    full_scan(px, py, *b, max_index, *want)
    return got, want


def _assert_decode_exact(px, py, b, max_index):
    got, want = _decode_all(px, py, b, max_index)
    for g, w in zip(got, want):  # bitwise, sign of zero included
        assert np.array_equal(g.view(np.uint8), w.view(np.uint8))


# lattice-coordinate fractions: node, the three edge midpoints, the two
# triangle circumcentres of the basis parallelogram
_TIE_FRACTIONS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5), (1 / 3, 1 / 3), (2 / 3, 2 / 3))
_SHIFTS = (1e-16, -1e-16, 1e-13)


def _tie_points(b, spacing, rng, count):
    """Nodes, edge midpoints and circumcentres of ``count`` random cells,
    each also shifted by +-1e-16 and 1e-13 spacings along x, y and both,
    and by one ulp either way in x."""
    m = rng.integers(-12, 12, count).astype(np.float64)
    n = rng.integers(-12, 12, count).astype(np.float64)
    xs, ys = [], []
    for fa, fb in _TIE_FRACTIONS:
        x = (m + fa) * b[0] + (n + fb) * b[2] + b[4]
        y = (m + fa) * b[1] + (n + fb) * b[3] + b[5]
        xs += [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]
        ys += [y, y, y]
        for eps in _SHIFTS:
            e = eps * spacing
            xs += [x + e, x, x + e]
            ys += [y, y + e, y + e]
    return np.concatenate(xs), np.concatenate(ys)


def test_nearest_decode_exact_at_ties_on_random_lattices():
    rng = np.random.default_rng(17)
    for _ in range(16):
        spacing = rng.uniform(0.2, 9.0)
        b = _lattice(spacing, rng.uniform(0.0, TWO_PI), rng.uniform(), rng.uniform())
        px, py = _tie_points(b, spacing, rng, 20)
        _assert_decode_exact(px, py, b, 16)


def _two_way_ties(px, py, b, max_index):
    """How many points are exactly as far from two nodes as from the nearest."""
    idx = np.arange(-float(max_index), max_index + 1.0)
    m, n = (a.ravel() for a in np.meshgrid(idx, idx, indexing="ij"))
    dx = px[:, None] - (m * b[0] + n * b[2] + b[4])
    dy = py[:, None] - (m * b[1] + n * b[3] + b[5])
    d2 = dx * dx + dy * dy
    return int(((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) == 2).sum())


@pytest.mark.parametrize("t", [0.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi])
def test_nearest_decode_exact_ties_keep_lexicographic_smallest(t):
    # with an edge along the x axis and a dyadic spacing and offset, the
    # distances to the two ends of that edge are exactly equal, so the tie
    # rule decides
    rng = np.random.default_rng(23)
    b = _lattice(2.0, t, 0.25, 0.5)
    px, py = _tie_points(b, 2.0, rng, 20)
    assert _two_way_ties(px, py, b, 16) > 50  # exact 2-way ties really occur
    _assert_decode_exact(px, py, b, 16)


def test_nearest_batch_matches_scalar_on_signed_zeros():
    # one-point decodes, as the scalar API runs them: a floor of -0.0 must
    # not leak into cx, cy as a -0.0 the exhaustive scan (integer-valued
    # index grid) never returns
    for t in np.linspace(0.0, TWO_PI, 25):
        for px, py, offx, offy in itertools.product((0.0, -0.0), repeat=4):
            b = _lattice(1.0, t, 0.0, 0.0)[:4] + (offx, offy)
            _assert_decode_exact(np.array([px]), np.array([py]), b, 2)


def _scan_cases(kind):
    """(lattice, px, py, max_index) cases on which to compare the scans."""
    rng = np.random.default_rng(31)
    if kind == "random":
        # boxes of points smaller than a lattice cell, and larger
        for reach in (1.5, 12.0) * 4:
            spacing = rng.uniform(0.2, 3.0)
            b = _lattice(spacing, rng.uniform(0.0, TWO_PI), rng.uniform(), rng.uniform())
            reach *= spacing
            yield b, rng.uniform(-reach, reach, 3000), rng.uniform(-reach, reach, 3000), 16
    elif kind == "ties":
        # on the unit grid: (0.5, 0), +-0.0 points and offsets, and the
        # nodes, edge midpoints and Voronoi vertices (triangle
        # circumcentres) of nearby cells, also a few ulps off; then the
        # same on random lattices
        zx, zy = np.array(list(itertools.product((0.0, -0.0), repeat=2))).T
        for offx, offy in itertools.product((0.0, -0.0), repeat=2):
            b = _lattice(1.0, 0.0, 0.0, 0.0)[:4] + (offx, offy)
            px, py = _tie_points(b, 1.0, rng, 20)
            yield b, np.concatenate(([0.5], zx, px)), np.concatenate(([0.0], zy, py)), 16
        for _ in range(4):
            spacing = rng.uniform(0.2, 9.0)
            b = _lattice(spacing, rng.uniform(0.0, TWO_PI), rng.uniform(), rng.uniform())
            yield b, *_tie_points(b, spacing, rng, 20), 16
    else:
        # a lattice whose node (0, 0) lies 1e5 spacings out, with points
        # among its nodes, then points 1e6 away from every node scanned
        for f in (1e5, -3.3e5):
            spacing = rng.uniform(0.2, 3.0)
            b = _lattice(spacing, rng.uniform(0.0, TWO_PI), f, 0.7 * f)
            px = b[4] + rng.uniform(-2.0, 2.0, 2000) * spacing
            py = b[5] + rng.uniform(-2.0, 2.0, 2000) * spacing
            yield b, px, py, 16
        for a in rng.uniform(0.0, TWO_PI, 3):
            b = _lattice(1.0, rng.uniform(0.0, TWO_PI), rng.uniform(), rng.uniform())
            px = 1e6 * math.cos(a) + rng.uniform(-20.0, 20.0, 1000)
            py = 1e6 * math.sin(a) + rng.uniform(-20.0, 20.0, 1000)
            yield b, px, py, 8


@pytest.mark.parametrize("kind", ["random", "ties", "far"])
def test_pruned_scan_matches_full_scan(kind):
    # criterion 2's oracle visits only the nodes that can win for each box
    # of points; it must return the full scan's bits, sign of zero included
    for b, px, py, max_index in _scan_cases(kind):
        full = _decode_outputs(px.size)
        pruned = _decode_outputs(px.size)
        full_scan(px, py, *b, max_index, *full)
        pruned_scan(px, py, *b, max_index, *pruned)
        for f, p in zip(full, pruned):
            assert f.tobytes() == p.tobytes()


@given(
    spacing=st.floats(0.2, 9.0),
    t=st.floats(0.0, TWO_PI),
    f1=st.floats(0.0, 1.0),
    f2=st.floats(0.0, 1.0),
    u=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_nearest_decode_property_matches_brute_force(spacing, t, f1, f2, u):
    b = _lattice(spacing, t, f1, f2)
    # points within 6 basis steps of the origin node, in lattice coordinates
    px = np.array([a * b[0] + c * b[2] + b[4] for a, c in u])
    py = np.array([a * b[1] + c * b[3] + b[5] for a, c in u])
    _assert_decode_exact(px, py, b, 9)


def _basis(g):
    """The 6-tuple lattice argument of the decode kernels for cell ``g``."""
    bm = lattice_basis(g)
    off = phase_offset(g)
    return (bm[0, 0], bm[1, 0], bm[0, 1], bm[1, 1], off.x, off.y)


def test_rates_batch_matches_scalar_firing_formula():
    rng = np.random.default_rng(5)
    px = rng.uniform(-2, 2, 1500)
    py = rng.uniform(-2, 2, 1500)
    g = GridCellParams(0.7, 0.4, 1.1, 2.9)
    fp = FiringParams(5.0, 0.3)
    b = _basis(g)
    out = np.empty(1500)
    rates_batch(px, py, *b, g.spacing, fp.kappa, fp.zeta, out)
    _, want = _decode_all(px, py, b, 16)
    for i, d in enumerate(want[2].tolist()):
        assert out[i] == normalized_rate(raw_firing(d, g, fp))


def test_rates_exact_across_block_boundaries():
    # spacing 2, orientation 0 and phases (pi/2, pi) give the dyadic lattice
    # of the lexicographic tie test, so exact 2-way ties occur
    g = GridCellParams(2.0, 0.0, math.pi / 2.0, math.pi)
    fp = FiringParams(5.0, 0.3)
    b = _basis(g)
    assert b == _lattice(2.0, 0.0, 0.25, 0.5)
    rng = np.random.default_rng(29)
    tx, ty = _tie_points(b, 2.0, rng, 200)
    assert _two_way_ties(tx, ty, b, 16) > 500
    total = 2 * BLOCK + 7
    u = rng.uniform(-12.0, 12.0, (2, total - tx.size))
    px = np.concatenate([tx, u[0] * b[0] + u[1] * b[2] + b[4]])
    py = np.concatenate([ty, u[0] * b[1] + u[1] * b[3] + b[5]])
    order = rng.permutation(total)
    px, py = px[order], py[order]
    _, want = _decode_all(px, py, b, 16)
    expected = firing_normalized(firing_raw(want[2], g.spacing, fp.kappa, fp.zeta))
    # the seams of the corner scan's sub-blocks and of the ratemap block
    seams = (SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + SCAN_BLOCK + 1)
    for n in (0, 1) + seams + (total,):
        out = np.full(n, np.nan)
        rates_batch(px[:n], py[:n], *b, g.spacing, fp.kappa, fp.zeta, out)
        at = rates_at(np.column_stack([px[:n], py[:n]]), g, fp)
        assert at.shape == (n,)
        for got in (out, at):
            assert np.array_equal(got.view(np.uint8), expected[:n].view(np.uint8)), n


def test_rates_at_strided_views_match_contiguous_copy():
    rng = np.random.default_rng(31)
    poses = rng.uniform(-1.3, 1.3, (BLOCK + 100, 3))
    g = GridCellParams(0.7, 0.4, 1.1, 2.9)
    fp = FiringParams(5.0, 0.3)
    for view in (poses[:, :2], poses[::-2, 1:]):
        got = rates_at(view, g, fp)
        want = rates_at(np.ascontiguousarray(view), g, fp)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_rates_at_peak_memory_is_a_few_outputs():
    # the corner scan runs SCAN_BLOCK points at a time in one scratch array,
    # so the peak is the output plus a scratch that does not grow with the
    # call: a ratemap block of BLOCK points peaks near 0.66 MiB, where a
    # whole block's scratch peaked at 2.25 MiB
    g = GridCellParams(0.7, 0.4, 1.1, 2.9)

    def peak(n):
        poses = np.random.default_rng(37).uniform(-1.3, 1.3, (n, 3))
        tracemalloc.start()
        try:
            rates_at(poses[:, :2], g, FiringParams(5.0, 0.3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200_000) < 3 * 200_000 * 8
    assert peak(BLOCK) < 2**20


# ---------------------------------------------------------------------------
# place-cell ensemble cascade
# ---------------------------------------------------------------------------


def _cap_premise_distances(spacing, zeta, extra):
    """Distances >= 0 around every regime of the rate curve: 0, the
    subnormals, the field edge d = spacing * zeta, the node spacing and
    far beyond it, up to the largest double."""
    edge = spacing * zeta
    near = [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return np.concatenate([
        [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-30, 1e308, 1.7976931348623157e308],
        near,
        np.linspace(0.0, 2.0 * spacing, 61),
        np.geomspace(5e-324, 1e308, 61),
        np.asarray(extra, dtype=np.float64),
    ])


@given(
    spacing=st.floats(MIN_SPACING, MAX_SPACING),
    log_kappa=st.floats(-3.0, 300.0),
    zeta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    extra=st.lists(st.floats(0.0, allow_infinity=False, allow_subnormal=True), max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_rate_cap_premise(spacing, log_kappa, zeta, extra):
    # the cascade drops a point only if no rate can exceed its cap; check
    # that on the vectorized arctan (whole arrays) and on single values
    kappa = 10.0**log_kappa
    cap = rate_cap(spacing, kappa, zeta)
    d = _cap_premise_distances(spacing, zeta, extra)
    with np.errstate(over="ignore"):  # d / spacing overflows to inf for huge d
        rates = firing_normalized(firing_raw(d, spacing, kappa, zeta))
        ones = [firing_normalized(firing_raw(v, spacing, kappa, zeta)) for v in d[:12]]
    assert np.all(rates <= cap)
    assert all(r <= cap for r in ones)
    assert cap <= 1.0 + RATE_CAP_SLACK


def test_rate_cap_premise_dense_at_the_place_defaults():
    # a million distances per cell of the default place ensemble: the cap
    # holds with margin, and is the d = 0 rate plus the slack
    fp = FiringParams(5.0, 0.3)
    for g in anchored_ensemble(np.geomspace(0.3, 1.2, 8), (0.35, 0.2)):
        d = np.linspace(0.0, 1.5 * g.spacing, 1_000_000)
        rates = firing_normalized(firing_raw(d, g.spacing, fp.kappa, fp.zeta))
        cap = rate_cap(g.spacing, fp.kappa, fp.zeta)
        assert rates.max() <= cap - RATE_CAP_SLACK / 2.0
        assert cap == float(firing_normalized(firing_raw(0.0, g.spacing, fp.kappa, fp.zeta))) + RATE_CAP_SLACK


def _sequential_bound(x, caps, threshold):
    for c in caps:
        x = x + c
    return x >= threshold


@given(
    values=st.lists(st.floats(0.0, 1.0 + 2.0**-30), min_size=1, max_size=16),
    count=st.one_of(st.integers(1, 16), st.integers(1, 4 * MAX_PLACE_COUNT)),
    seed=st.integers(0, 2**32 - 1),
    frac=st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([5e-324, 2.0**-1022, 1.0])),
    probes=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_drop_bounds_drop_no_partial_that_can_reach_the_threshold(values, count, seed, frac, probes):
    # a partial total below a stage's bound cannot reach the threshold even
    # with every remaining input at its cap, added in order: caps anywhere
    # in [0, the largest rate_cap], any input count the API accepts (a
    # PlaceCellParams has no count bound, a config at most MAX_PLACE_COUNT)
    # and thresholds down to subnormal.  The cap sum is nondecreasing in
    # the partial, so the bound's predecessor is the strongest probe.
    rng = np.random.default_rng(seed)
    caps = [values[i] for i in rng.integers(len(values), size=count)]
    threshold = frac * count
    bounds = _drop_bounds(caps, threshold)
    assert len(bounds) == count + 1 and bounds[-1] == threshold
    stages = range(count + 1) if count <= 32 else {0, count, *rng.integers(count + 1, size=16).tolist()}
    for j in stages:
        b, tail = bounds[j], caps[j:]
        if b <= 0.0:  # no partial total is below it
            continue
        below = [x for x in [p * b for p in probes] if x < b]
        for x in [0.0, math.nextafter(b, -math.inf), *below]:
            assert not _sequential_bound(x, tail, threshold)


def _reference_activity(px, py, cells, threshold):
    """The plain sum: every input on every point, added left to right."""
    total = np.zeros(px.shape[0])
    rate = np.empty(px.shape[0])
    for cell in cells:
        rates_batch(px, py, *cell, rate)
        total += rate
    return (total >= threshold).astype(np.int8), total


def _ensemble_cells(grids, fp):
    return [_basis(g) + (g.spacing, fp.kappa, fp.zeta) for g in grids]


def _run_ensemble(px, py, cells, threshold):
    out = np.full(px.shape[0], 7, dtype=np.int8)
    ensemble_batch(px, py, cells, threshold, np.full(px.shape[0], np.nan), out)
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 16),
    anchored=st.booleans(),
    size=st.sampled_from([0, 1, 2, 37, BLOCK - 1, BLOCK, BLOCK + 1]),
    kind=st.sampled_from(["fraction", "tiny", "count", "a point's total", "the anchor's total"]),
    frac=st.floats(0.0, 1.0, exclude_min=True),
    kappa=st.floats(0.5, 40.0),
    zeta=st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_ensemble_matches_plain_sum_bitwise(seed, count, anchored, size, kind, frac, kappa, zeta):
    rng = np.random.default_rng(seed)
    fp = FiringParams(kappa, zeta)
    anchor = rng.uniform(-1.0, 1.0, 2)
    if anchored:
        # lattices sharing a node at the anchor, in random order: points
        # near it fire at high thresholds
        grids = list(anchored_ensemble(rng.uniform(0.2, 1.5, count), anchor))
        rng.shuffle(grids)
    else:
        grids = [random_grid(rng) for _ in range(count)]
    px = anchor[0] + rng.normal(0.0, 0.3, size)
    py = anchor[1] + rng.normal(0.0, 0.3, size)
    if size:
        # where an anchored ensemble peaks, every rate is near its cap
        px[-1], py[-1] = anchor
    cells = _ensemble_cells(grids, fp)
    _, total = _reference_activity(px, py, cells, 1.0)
    threshold = {
        "fraction": frac * count,
        "tiny": 5e-324,
        "count": float(count),
        "a point's total": float(total[rng.integers(size)]) if size else 0.5,
        "the anchor's total": float(total[-1]) if size else 0.5,
    }[kind]
    want, _ = _reference_activity(px, py, cells, threshold)
    assert np.array_equal(_run_ensemble(px, py, cells, threshold), want)


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_ensemble_every_point_fires_and_exact_threshold(n):
    rng = np.random.default_rng(41)
    fp = FiringParams(5.0, 0.3)
    grids = anchored_ensemble(np.geomspace(0.3, 1.2, 8), (0.35, 0.2))
    px = rng.uniform(-1.3, 1.3, n)
    py = rng.uniform(-1.3, 1.3, n)
    cells = _ensemble_cells(grids, fp)
    assert np.all(_run_ensemble(px, py, cells, 5e-324) == 1)
    if n:
        # at the anchor every rate peaks; a threshold equal to its total
        # keeps it, and so checks both the caps (which must not fall below
        # a peak rate) and that the compare is inclusive at every stage
        i = n // 2
        px[i], py[i] = 0.35, 0.2
        _, total = _reference_activity(px, py, cells, 1.0)
        assert total[i] == total.max()
        got = _run_ensemble(px, py, cells, float(total[i]))
        assert got[i] == 1
        assert np.array_equal(got, (total >= total[i]).astype(np.int8))


def test_ensemble_drops_points_early(monkeypatch):
    # at the default place parameters the caps (about 0.81) leave little
    # room below the threshold 6.4: after its first input a point far from
    # the anchor is out, so the eight inputs cost about one decode pass
    from mazecells import _kernels

    evaluated = []
    real = _kernels.rates_batch

    def counting(px, *args):
        evaluated.append(px.shape[0])
        real(px, *args)

    monkeypatch.setattr(_kernels, "rates_batch", counting)
    rng = np.random.default_rng(43)
    r = 1.3 * np.sqrt(rng.uniform(0.0, 1.0, 100_000))
    a = rng.uniform(-math.pi, math.pi, 100_000)
    px, py = r * np.cos(a), r * np.sin(a)
    fp = FiringParams(5.0, 0.3)
    cells = _ensemble_cells(anchored_ensemble(np.geomspace(0.3, 1.2, 8), (0.35, 0.2)), fp)
    got = _run_ensemble(px, py, cells, 6.4)
    assert 0 < sum(evaluated) < 1.5 * px.shape[0]
    monkeypatch.undo()
    assert np.array_equal(got, _reference_activity(px, py, cells, 6.4)[0])
    assert got.sum() > 0


def _arena_block_ensemble():
    """A block of BLOCK points spread over the arena and the default place
    cell's inputs."""
    rng = np.random.default_rng(44)
    r = 1.3 * np.sqrt(rng.uniform(0.0, 1.0, BLOCK))
    a = rng.uniform(-math.pi, math.pi, BLOCK)
    fp = FiringParams(5.0, 0.3)
    cells = _ensemble_cells(anchored_ensemble(np.geomspace(0.3, 1.2, 8), (0.35, 0.2)), fp)
    return r * np.cos(a), r * np.sin(a), cells


def test_ensemble_finishes_few_survivors_in_one_decode(monkeypatch):
    # of the block, the default place cell keeps 1304 points after its
    # first input and 29 after its second; their six remaining inputs are
    # then decoded in one call, not one call per input
    from mazecells import _kernels

    sizes = []
    real = _kernels.rates_batch

    def counting(px, *args):
        sizes.append(px.shape[0])
        real(px, *args)

    px, py, cells = _arena_block_ensemble()
    monkeypatch.setattr(_kernels, "rates_batch", counting)
    got = _run_ensemble(px, py, cells, 6.4)
    monkeypatch.undo()
    assert len(sizes) == 3 and sizes[0] == BLOCK and sizes[2] % 6 == 0
    assert 0 < sizes[2] <= _kernels.SCAN_BLOCK
    assert np.array_equal(got, _reference_activity(px, py, cells, 6.4)[0])
    assert got.sum() > 0


def test_ensemble_finish_fits_a_small_scan_sub_block(monkeypatch):
    # the finish tiles the survivors once per remaining input, and their
    # per-point lattice arguments line up with the scan only inside one
    # sub-block; at 37 points per sub-block the finish above (29 x 6 = 174
    # decodes) waits for fewer survivors
    from mazecells import _kernels

    px, py, cells = _arena_block_ensemble()
    want = _reference_activity(px, py, cells, 6.4)[0]
    monkeypatch.setattr(_kernels, "SCAN_BLOCK", 37)
    assert np.array_equal(_run_ensemble(px, py, cells, 6.4), want)


def test_ensemble_no_input_evaluated_when_nothing_can_fire(monkeypatch):
    from mazecells import _kernels

    monkeypatch.setattr(_kernels, "rates_batch", None)  # any call would fail
    fp = FiringParams(5.0, 0.3)
    cells = _ensemble_cells(anchored_ensemble(np.geomspace(0.3, 1.2, 8), (0.35, 0.2)), fp)
    px = np.zeros(10)
    # every rate is at most about 0.81 here, so the sum cannot reach 8
    assert np.all(_run_ensemble(px, px, cells, 8.0) == 0)


def test_place_activity_at_peak_memory_is_a_few_outputs():
    # the cascade keeps its running total in the position check's scratch
    # and compacts it in place; at the default place cell most points drop
    # after the first input, so the peak is the bound rates_at keeps
    rng = np.random.default_rng(47)
    r = 1.3 * np.sqrt(rng.uniform(0.0, 1.0, 200_000))
    a = rng.uniform(-math.pi, math.pi, 200_000)
    poses = np.stack([r * np.cos(a), r * np.sin(a), a], axis=1)
    pc = PlaceCellParams(anchored_ensemble(np.geomspace(0.3, 1.2, 8), (0.35, 0.2)), 6.4)
    tracemalloc.start()
    try:
        out = place_activity_at(poses[:, :2], pc, FiringParams(5.0, 0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.sum() > 0
    assert peak < 3 * out.shape[0] * 8


def _pairs(vals, visited, dy, dx):
    """Values at the bins p + (dy, dx) and at the bins p, over the p where
    both are visited."""
    h, w = vals.shape
    ys = slice(max(0, -dy), min(h, h - dy))
    xs = slice(max(0, -dx), min(w, w - dx))
    ys2 = slice(ys.start + dy, ys.stop + dy)
    xs2 = slice(xs.start + dx, xs.stop + dx)
    both = visited[ys, xs] & visited[ys2, xs2]
    return vals[ys2, xs2][both], vals[ys, xs][both]


def _masked_pearson(vals, visited, dy, dx, min_overlap):
    """Per-lag oracle: centred two-pass sums in long double, NaN below
    ``min_overlap`` shared bins or when either side is exactly constant."""
    a, b = _pairs(vals, visited, dy, dx)
    if a.size < min_overlap:
        return math.nan
    if dy == 0 and dx == 0:
        return 1.0
    if a.max() == a.min() or b.max() == b.min():
        return math.nan
    a = a.astype(np.longdouble) - a.astype(np.longdouble).mean()
    b = b.astype(np.longdouble) - b.astype(np.longdouble).mean()
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))


def _autocorr_vs_oracle(vals, visited, min_overlap):
    """Kernel output and the oracle at every lag, as two arrays."""
    h, w = vals.shape
    got = np.empty((2 * h - 1, 2 * w - 1))
    autocorr(np.where(visited, vals, 0.0), autocorr_mask(visited), min_overlap, got)
    want = np.array(
        [
            [_masked_pearson(vals, visited, dy, dx, min_overlap) for dx in range(1 - w, w)]
            for dy in range(1 - h, h)
        ]
    )
    return got, want


def _assert_matches(got, want, tol):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    fin = ~np.isnan(want)
    assert np.abs(got[fin] - want[fin]).max(initial=0.0) <= tol
    # mirror symmetry is exact, NaN pattern included
    assert np.array_equal(got[fin], got[::-1, ::-1][fin])


def test_autocorr_every_lag_matches_oracle_on_random_masked_maps():
    rng = np.random.default_rng(21)
    for shape, min_overlap in (((14, 11), 20), ((1, 9), 3), ((9, 1), 3)):
        vals = rng.normal(size=shape)
        visited = rng.uniform(size=shape) > 0.25
        got, want = _autocorr_vs_oracle(vals, visited, min_overlap)
        assert np.isfinite(want).sum() > 1, shape
        _assert_matches(got, want, 1e-12)


def test_autocorr_binary_map_constant_overlaps_are_nan():
    # a single place field of ones on zeros: far lags overlap only zeros on
    # one side, which the FFT sums leave at roundoff instead of exactly 0
    rng = np.random.default_rng(3)
    yy, xx = np.mgrid[0:20, 0:20]
    vals = (np.hypot(yy - 6.0, xx - 13.0) < 4.0).astype(np.float64)
    visited = rng.uniform(size=vals.shape) > 0.1
    got, want = _autocorr_vs_oracle(vals, visited, 20)
    n = np.array(
        [[_pairs(vals, visited, dy, dx)[0].size for dx in range(-19, 20)] for dy in range(-19, 20)]
    )
    assert ((n >= 20) & np.isnan(want)).sum() > 100  # the case is really exercised
    _assert_matches(got, want, 1e-12)


def test_autocorr_near_flat_map():
    rng = np.random.default_rng(8)
    vals = 0.5 + 1e-4 * rng.normal(size=(20, 20))
    visited = rng.uniform(size=vals.shape) > 0.2
    got, want = _autocorr_vs_oracle(vals, visited, 20)
    _assert_matches(got, want, 1e-9)


def test_autocorr_overlap_of_exactly_min_overlap_is_defined():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(8, 10))
    visited = np.ones(vals.shape, dtype=bool)
    # lag (3, 6) overlaps (8 - 3) * (10 - 6) = 20 bins
    for min_overlap, defined in ((20, True), (21, False)):
        got, want = _autocorr_vs_oracle(vals, visited, min_overlap)
        _assert_matches(got, want, 1e-12)
        for dy, dx in ((3, 6), (-3, -6), (3, -6), (-3, 6)):
            assert np.isfinite(got[7 + dy, 9 + dx]) == defined


@given(
    h=st.integers(1, 16),
    w=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    visit_p=st.floats(0.3, 1.0),
    levels=st.integers(2, 10),
    min_overlap=st.integers(1, 20),
)
@settings(max_examples=40, deadline=None)
def test_autocorr_property_matches_oracle(h, w, seed, visit_p, levels, min_overlap):
    # values on a few levels: many overlaps are exactly constant, and every
    # other one has a variance far above the kernel's roundoff tolerance
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0) + rng.uniform(0.1, 10.0) * rng.integers(0, levels, (h, w))
    visited = rng.uniform(size=(h, w)) < visit_p
    got, want = _autocorr_vs_oracle(vals, visited, min_overlap)
    _assert_matches(got, want, 1e-9)


def _autocorr_full_grid(vals, visited, min_overlap):
    """The kernel's Pearson step evaluated at every lag, both halves, before
    the mirrored half is copied over: the reference for computing only the
    rows the kernel keeps."""
    h, w = vals.shape
    nv = int(visited.sum())
    m = visited.astype(np.float64)
    mean = float(vals[visited].mean()) if nv else 0.0
    a = np.where(visited, vals - mean, 0.0)
    shape = (_fft_size(2 * h - 1), _fft_size(2 * w - 1))
    fm, fa, fa2 = np.fft.rfft2(np.stack([m, a, a * a]), s=shape)
    cm = np.conj(fm)
    c = np.fft.irfft2(np.stack([fm * cm, fa * cm, fa2 * cm, fa * np.conj(fa)]), s=shape)
    rows = np.arange(-(h - 1), h) % shape[0]
    cols = np.arange(-(w - 1), w) % shape[1]
    n, sa, saa, sab = c[:, rows[:, None], cols[None, :]]
    n = np.rint(n)
    sb = sa[::-1, ::-1]
    sbb = saa[::-1, ::-1]
    va = n * saa - sa * sa
    vb = n * sbb - sb * sb
    floor = DEGENERATE_RTOL * n * float((a * a).sum())
    ok = (n >= min_overlap) & (va > floor) & (vb > floor)
    r = (n * sab - sa * sb) / np.sqrt(np.where(ok, va * vb, 1.0))
    out = np.empty((2 * h - 1, 2 * w - 1))
    out[h - 1 :] = np.where(ok[h - 1 :], r[h - 1 :], np.nan)
    out[h - 1, w - 1] = 1.0 if nv >= min_overlap else np.nan
    out[: h - 1] = out[h:][::-1, ::-1]
    out[h - 1, : w - 1] = out[h - 1, w:][::-1]
    return out


def _assert_autocorr_bits_equal_full_grid(vals, visited, min_overlap):
    h, w = vals.shape
    got = np.empty((2 * h - 1, 2 * w - 1))
    autocorr(np.where(visited, vals, 0.0), autocorr_mask(visited), min_overlap, got)
    want = _autocorr_full_grid(np.where(visited, vals, 0.0), visited, min_overlap)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_autocorr_bits_equal_full_grid_on_random_masked_maps():
    # the maps of the oracle tests above
    rng = np.random.default_rng(21)
    for shape, min_overlap in (((14, 11), 20), ((1, 9), 3), ((9, 1), 3)):
        vals = rng.normal(size=shape)
        visited = rng.uniform(size=shape) > 0.25
        _assert_autocorr_bits_equal_full_grid(vals, visited, min_overlap)
    rng = np.random.default_rng(3)
    yy, xx = np.mgrid[0:20, 0:20]
    vals = (np.hypot(yy - 6.0, xx - 13.0) < 4.0).astype(np.float64)
    _assert_autocorr_bits_equal_full_grid(vals, rng.uniform(size=vals.shape) > 0.1, 20)
    rng = np.random.default_rng(8)
    vals = 0.5 + 1e-4 * rng.normal(size=(20, 20))
    _assert_autocorr_bits_equal_full_grid(vals, rng.uniform(size=vals.shape) > 0.2, 20)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(8, 10))
    for min_overlap in (20, 21):
        _assert_autocorr_bits_equal_full_grid(vals, np.ones(vals.shape, dtype=bool), min_overlap)
    # Maps of real size.  The kernel inverts one spectrum at a time where
    # the reference inverts a stack; the bits match only while every
    # spectrum product keeps its operands in the same order.  Above 256 KiB
    # numpy evaluates `fa * np.conj(fa)` in place in the conj temporary, and
    # with fused multiply-adds the imaginary part of conj(fa) * fa rounds
    # differently.  A 52 x 52 map's half-spectra sit below that size, a
    # 104 x 104 map's above it; 37 x 61 is not square and 13 x 13 pads
    # to an odd side, 25.
    rng = np.random.default_rng(29)
    for shape in ((52, 52), (104, 104), (208, 208), (37, 61), (13, 13)):
        vals = rng.normal(size=shape)
        _assert_autocorr_bits_equal_full_grid(vals, rng.uniform(size=shape) > 0.2, 20)


@given(
    h=st.integers(1, 16),
    w=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    visit_p=st.floats(0.3, 1.0),
    levels=st.integers(2, 10),
    min_overlap=st.integers(1, 20),
)
@settings(max_examples=40, deadline=None)
def test_autocorr_property_bits_equal_full_grid(h, w, seed, visit_p, levels, min_overlap):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0) + rng.uniform(0.1, 10.0) * rng.integers(0, levels, (h, w))
    visited = rng.uniform(size=(h, w)) < visit_p
    _assert_autocorr_bits_equal_full_grid(vals, visited, min_overlap)


@pytest.mark.parametrize("fill", ["nan", "inf", "-inf", "random"])
def test_autocorr_ignores_what_unvisited_bins_hold(fill):
    # the kernel alone keeps unvisited bins out of every sum:
    # spatial_autocorrelogram hands it a rate map's NaNs as they are
    rng = np.random.default_rng(13)
    for shape, min_overlap in (((14, 11), 20), ((20, 20), 20), ((1, 9), 3)):
        vals = rng.normal(size=shape)
        visited = rng.uniform(size=shape) > 0.25
        if fill == "random":
            other = 1e308 * rng.uniform(-1.0, 1.0, size=shape)
        else:
            other = np.full(shape, float(fill))
        h, w = shape
        want = np.empty((2 * h - 1, 2 * w - 1))
        got = np.empty_like(want)
        autocorr(np.where(visited, vals, 0.0), autocorr_mask(visited), min_overlap, want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            autocorr(np.where(visited, vals, other), autocorr_mask(visited), min_overlap, got)
        assert np.isfinite(want).sum() > 1, shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
