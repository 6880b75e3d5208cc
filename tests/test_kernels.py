"""Batch kernels against their scalar oracles.

The sequential walk matches the scalar ``walk_step`` bitwise (identical
floating-point operation order), and the firing rate matches the scalar
formula bitwise at the brute-force node distances.  The 4-corner decode is
checked bitwise against the exhaustive ``brute_force`` scan at exact
nodes, edge midpoints and triangle circumcentres (2- and 3-way ties) and
at points a few ulps off them.  The blocked firing-rate scan equals the
firing formula at the brute-force distances across block boundaries, on
strided position views, and in a bounded amount of scratch memory.  The
place-cell cascade is checked against a plain left-to-right sum bit for
bit, and its premise, that no computed rate exceeds the cell's rate at
distance 0 plus a slack, over the whole parameter range.  The
FFT autocorrelogram is checked at every lag against a per-lag, two-pass,
long-double masked Pearson oracle, including which lags are NaN.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_grid

from mazecells._kernels import (
    BLOCK,
    RATE_CAP_SLACK,
    TWO_PI,
    autocorr,
    brute_force,
    ensemble_batch,
    firing_normalized,
    firing_raw,
    nearest_batch,
    rate_cap,
    rates_batch,
    survival_thresholds,
    walk_loop,
    walk_step,
    wrap_angle,
)
from mazecells.spatialcells import (
    MAX_SPACING,
    MIN_SPACING,
    FiringParams,
    GridCellParams,
    anchored_ensemble,
    lattice_basis,
    normalized_rate,
    phase_offset,
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
        n = z_turn.shape[0]
        out = np.full((n + 1, 3), np.nan)
        walk_loop(0.1, -0.2, 0.3, 0.02, 0.2, 1.3, z_turn, z_retry, out)
        assert out[0].tolist() == [0.1, -0.2, 0.3], name
        x, y, h = 0.1, -0.2, 0.3
        for t in range(n):
            x, y, h = walk_step(x, y, h, 0.02, 0.2, 1.3, z_turn[t], z_retry[t])
            assert out[t + 1, 0] == x and out[t + 1, 1] == y and out[t + 1, 2] == h, name


def _lattice(spacing, t, f1, f2):
    """A 60-degree basis at any orientation ``t`` and its offset f1*b1 + f2*b2,
    as the 6-tuple the decode kernels take."""
    b1x, b1y = spacing * math.cos(t), spacing * math.sin(t)
    b2x, b2y = spacing * math.cos(t + math.pi / 3.0), spacing * math.sin(t + math.pi / 3.0)
    return (b1x, b1y, b2x, b2y, f1 * b1x + f2 * b2x, f1 * b1y + f2 * b2y)


def _decode_all(px, py, b, max_index):
    """(cx, cy, d, m, n) from nearest_batch and from brute_force."""
    n = px.size
    got = [np.empty(n), np.empty(n), np.empty(n), np.empty(n, np.int64), np.empty(n, np.int64)]
    want = [np.empty(n), np.empty(n), np.empty(n), np.empty(n, np.int64), np.empty(n, np.int64)]
    nearest_batch(px, py, *b, *got)
    brute_force(px, py, *b, max_index, *want)
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
    for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, total):
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
    # the decode runs in blocks with one scratch array, so its peak does
    # not grow with a dozen full-length temporaries per call
    poses = np.random.default_rng(37).uniform(-1.3, 1.3, (200_000, 3))
    g = GridCellParams(0.7, 0.4, 1.1, 2.9)
    tracemalloc.start()
    try:
        out = rates_at(poses[:, :2], g, FiringParams(5.0, 0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.nbytes


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
    caps=st.lists(st.floats(0.0, 1.0 + 2.0**-30), min_size=1, max_size=16),
    frac=st.floats(0.0, 1.0, exclude_min=True),
    probes=st.lists(st.floats(0.0, 16.0), max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_survival_thresholds_match_the_sequential_cap_sum(caps, frac, probes):
    threshold = frac * len(caps)
    least = survival_thresholds(caps, threshold)
    assert len(least) == len(caps) + 1 and least[-1] == threshold
    for j, t in enumerate(least):
        tail = caps[j:]
        # the least survivor survives, its predecessor and 0.0 do not
        # (unless the least survivor is 0.0 itself)
        assert _sequential_bound(t, tail, threshold)
        if t > 0.0:
            assert not _sequential_bound(math.nextafter(t, -math.inf), tail, threshold)
            assert not _sequential_bound(0.0, tail, threshold)
        for x in probes:
            assert (x >= t) == _sequential_bound(x, tail, threshold)


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
    ensemble_batch(px, py, cells, threshold, out)
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
    real = _kernels._block_rates

    def counting(px, *args):
        evaluated.append(px.shape[0])
        real(px, *args)

    monkeypatch.setattr(_kernels, "_block_rates", counting)
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


def test_ensemble_no_input_evaluated_when_nothing_can_fire(monkeypatch):
    from mazecells import _kernels

    monkeypatch.setattr(_kernels, "_block_rates", None)  # any call would fail
    fp = FiringParams(5.0, 0.3)
    cells = _ensemble_cells(anchored_ensemble(np.geomspace(0.3, 1.2, 8), (0.35, 0.2)), fp)
    px = np.zeros(10)
    # every rate is at most about 0.81 here, so the sum cannot reach 8
    assert np.all(_run_ensemble(px, px, cells, 8.0) == 0)


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
    autocorr(np.where(visited, vals, 0.0), visited, min_overlap, got)
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
