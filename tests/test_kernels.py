"""Batch kernels against their scalar oracles.

The sequential walk and the nearest-node decode must match the scalar
functions bitwise (identical floating-point operation order); the firing
rate matches the scalar formula to roundoff.  The FFT autocorrelogram is
checked at every lag against a per-lag, two-pass, long-double masked
Pearson oracle, including which lags are NaN.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mazecells._kernels import (
    TWO_PI,
    autocorr,
    nearest_batch,
    nearest_node,
    rates_batch,
    walk_loop,
    walk_step,
    wrap_angle,
)
from mazecells.spatialcells import (
    FiringParams,
    GridCellParams,
    lattice_basis,
    normalized_rate,
    phase_offset,
    raw_firing,
)


def test_wrap_angle_range_and_periodicity():
    for a in np.linspace(-50.0, 50.0, 4001):
        w = wrap_angle(float(a))
        assert -math.pi <= w < math.pi
        assert abs(wrap_angle(float(a) + TWO_PI) - w) < 1e-9


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
    out = np.empty((201, 3))
    walk_loop(0.0, 0.0, 0.0, 0.02, 0.2, 1.3, z[:, 0].copy(), z[:, 1].copy(), out)
    x, y, h = 0.0, 0.0, 0.0
    for t in range(200):
        x, y, h = walk_step(x, y, h, 0.02, 0.2, 1.3, z[t, 0], z[t, 1])
        assert out[t + 1, 0] == x and out[t + 1, 1] == y and out[t + 1, 2] == h


def test_nearest_batch_matches_scalar():
    rng = np.random.default_rng(11)
    px = rng.uniform(-2, 2, 300)
    py = rng.uniform(-2, 2, 300)
    b = (1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0, 0.13, 0.27)
    cx = np.empty(300)
    cy = np.empty(300)
    d = np.empty(300)
    mi = np.empty(300, dtype=np.int64)
    ni = np.empty(300, dtype=np.int64)
    nearest_batch(px, py, *b, cx, cy, d, mi, ni)
    for i in range(300):
        sx, sy, sd, sm, sn = nearest_node(px[i], py[i], *b)
        assert (cx[i], cy[i], d[i], mi[i], ni[i]) == (sx, sy, sd, sm, sn)


def test_rates_batch_matches_scalar_firing_formula():
    rng = np.random.default_rng(5)
    px = rng.uniform(-2, 2, 1500)
    py = rng.uniform(-2, 2, 1500)
    g = GridCellParams(0.7, 0.4, 1.1, 2.9)
    fp = FiringParams(5.0, 0.3)
    bm = lattice_basis(g)
    off = phase_offset(g)
    b = (bm[0, 0], bm[1, 0], bm[0, 1], bm[1, 1], off.x, off.y)
    out = np.empty(1500)
    rates_batch(px, py, *b, g.spacing, fp.kappa, fp.zeta, out)
    for i in range(1500):
        d = nearest_node(px[i], py[i], *b)[2]
        assert abs(out[i] - normalized_rate(raw_firing(d, g, fp))) <= 1e-12


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
