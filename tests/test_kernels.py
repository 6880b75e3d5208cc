"""Batch kernels against their scalar oracles.

The sequential walk and the nearest-node decode must match the scalar
functions bitwise (identical floating-point operation order); the firing
rate matches the scalar formula to roundoff.
"""

import math

import numpy as np

from mazecells._kernels import (
    TWO_PI,
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
