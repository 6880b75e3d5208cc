"""Lattice geometry, firing curves, frames, place cells.

The nearest-node search is checked against an exhaustive brute-force
oracle; everything with a closed form is checked against hand-evaluated
literals.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazecells.spatialcells import (
    MAX_SPACING,
    MAX_SPACINGS_FROM_ORIGIN,
    MAX_TICK_COUNT,
    MIN_SPACING,
    ConfigurationError,
    FiringParams,
    FrameTransform,
    GridCellParams,
    PlaceCellParams,
    Position2,
    anchored_ensemble,
    change_frame,
    change_frame_inverse,
    check_tick_count,
    firing_rate,
    lattice_basis,
    nearest_center,
    nearest_center_bruteforce,
    normalized_rate,
    phase_offset,
    place_activity_at,
    rates_at,
    raw_firing,
)

from conftest import random_grid

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# lattice construction
# ---------------------------------------------------------------------------


def test_basis_vectors_are_60_degrees_apart(unit_grid):
    b = lattice_basis(unit_grid)
    b1, b2 = b[:, 0], b[:, 1]
    assert np.allclose(b1, [1.0, 0.0])
    assert np.allclose(b2, [0.5, SQRT3 / 2.0])
    cosang = b1 @ b2 / (np.linalg.norm(b1) * np.linalg.norm(b2))
    assert abs(cosang - 0.5) < 1e-12


def test_basis_scales_with_spacing_and_rotates_with_orientation():
    g = GridCellParams(spacing=0.75, orientation=0.3, phase1=0.0, phase2=0.0)
    b = lattice_basis(g)
    assert abs(np.linalg.norm(b[:, 0]) - 0.75) < 1e-12
    assert abs(np.linalg.norm(b[:, 1]) - 0.75) < 1e-12
    assert abs(math.atan2(b[1, 0], b[0, 0]) - 0.3) < 1e-12
    assert abs(math.atan2(b[1, 1], b[0, 1]) - (0.3 + math.pi / 3.0)) < 1e-12


def test_phase_offset_is_phase_fraction_of_each_basis_vector(unit_grid):
    g = GridCellParams(spacing=1.0, orientation=0.0, phase1=math.pi, phase2=math.pi / 2.0)
    off = phase_offset(g)
    b = lattice_basis(g)
    expect = (math.pi / (2.0 * math.pi)) * b[:, 0] + (math.pi / 2.0 / (2.0 * math.pi)) * b[:, 1]
    assert np.allclose([off.x, off.y], expect)
    # zero phases -> origin is a node
    zero = phase_offset(unit_grid)
    assert (zero.x, zero.y) == (0.0, 0.0)


def test_full_parameter_validation():
    with pytest.raises(ConfigurationError):
        GridCellParams(spacing=0.0, orientation=0.0, phase1=0.0, phase2=0.0)
    with pytest.raises(ConfigurationError):
        GridCellParams(spacing=1.0, orientation=1.1, phase1=0.0, phase2=0.0)
    with pytest.raises(ConfigurationError):
        GridCellParams(spacing=1.0, orientation=0.0, phase1=-0.1, phase2=0.0)
    with pytest.raises(ConfigurationError):
        FiringParams(kappa=0.0, zeta=0.3)
    with pytest.raises(ConfigurationError):
        FiringParams(kappa=5.0, zeta=1.0)


def test_lattice_invariant_under_60_degree_rotation():
    """Rotating any node about the phase offset by pi/3 lands on a node."""
    rng = np.random.default_rng(123)
    c, s = math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)
    for _ in range(20):
        g = random_grid(rng)
        b = lattice_basis(g)
        off = phase_offset(g)
        binv = np.linalg.inv(b)
        for _ in range(10):
            mn = rng.integers(-6, 7, size=2)
            v = b @ mn
            rot = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])
            coords = binv @ rot
            assert np.allclose(coords, np.round(coords), atol=1e-9)


# ---------------------------------------------------------------------------
# nearest node: 4-corner decode vs exhaustive oracle
# ---------------------------------------------------------------------------


def test_nearest_center_matches_bruteforce_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        g = random_grid(rng)
        pts = rng.uniform(-3.0, 3.0, size=(200, 2))
        for p in pts:
            pos = Position2(p[0], p[1])
            c1, d1 = nearest_center(pos, g)
            c2, d2 = nearest_center_bruteforce(pos, g, max_index=30)
            assert (c1.x, c1.y, d1) == (c2.x, c2.y, d2)


def test_nearest_center_tie_prefers_lexicographic_smallest(unit_grid):
    # (0.5, 0) is equidistant from nodes (0,0) and (1,0); both searches must
    # settle on the lexicographically smaller integer pair, i.e. the origin.
    c, d = nearest_center(Position2(0.5, 0.0), unit_grid)
    cb, db = nearest_center_bruteforce(Position2(0.5, 0.0), unit_grid)
    assert (c.x, c.y) == (0.0, 0.0)
    assert (cb.x, cb.y) == (0.0, 0.0)
    assert d == db == 0.5


def test_nearest_center_at_node_is_zero(demo_grid):
    b = lattice_basis(demo_grid)
    off = phase_offset(demo_grid)
    node = b @ np.array([2, -1]) + np.array([off.x, off.y])
    c, d = nearest_center(Position2(node[0], node[1]), demo_grid)
    assert d < 1e-12
    assert math.hypot(c.x - node[0], c.y - node[1]) < 1e-12


def test_phase_two_pi_equals_phase_zero_distances(unit_grid):
    """phases 0 and 2*pi generate the same node set (shifted indexing)."""
    g2 = GridCellParams(1.0, 0.0, 2.0 * math.pi, 2.0 * math.pi)
    rng = np.random.default_rng(8)
    for p in rng.uniform(-2, 2, size=(100, 2)):
        _, d0 = nearest_center(Position2(p[0], p[1]), unit_grid)
        _, d1 = nearest_center(Position2(p[0], p[1]), g2)
        assert abs(d0 - d1) < 1e-9


# ---------------------------------------------------------------------------
# firing curves
# ---------------------------------------------------------------------------


def test_raw_firing_zero_at_zeta_spacing(firing):
    g = GridCellParams(spacing=0.8, orientation=0.0, phase1=0.0, phase2=0.0)
    # at distance zeta * s the arctan argument is exactly zero
    assert raw_firing(0.3 * 0.8, g, firing) == 0.0


def test_raw_firing_literal_values(firing):
    g = GridCellParams(spacing=1.0, orientation=0.0, phase1=0.0, phase2=0.0)
    assert raw_firing(0.0, g, firing) == math.atan(-1.5)
    assert raw_firing(1.0, g, firing) == math.atan(5.0 * 0.7)


def test_normalized_rate_range_and_node_peak(firing):
    # peak value at a node for kappa=5, zeta=0.3
    peak = normalized_rate(math.atan(-1.5))
    assert abs(peak - (0.5 + math.atan(1.5) / math.pi)) < 1e-15
    assert abs(peak - 0.8128329581890012) < 1e-12
    for raw in np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 101):
        assert 0.0 < normalized_rate(raw) < 1.0


def test_firing_rate_decreases_away_from_node(demo_grid, firing):
    off = phase_offset(demo_grid)
    node = np.array([off.x, off.y])
    r0 = firing_rate(Position2(node[0], node[1]), demo_grid, firing)
    r1 = firing_rate(Position2(node[0] + 0.2, node[1]), demo_grid, firing)
    r2 = firing_rate(Position2(node[0] + 0.45, node[1]), demo_grid, firing)
    assert r0 > r1 > r2


def test_rates_at_matches_scalar_loop(demo_grid, firing):
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, size=(128, 2))
    batch = rates_at(pts, demo_grid, firing)
    for i, p in enumerate(pts):
        assert batch[i] == firing_rate(Position2(p[0], p[1]), demo_grid, firing)


def test_firing_rate_is_rates_at_bitwise():
    # one-point calls run the batch kernel, so they reproduce every entry
    # of a batch exactly, however numpy dispatches its arctan
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = random_grid(rng)
        fp = FiringParams(float(rng.uniform(0.5, 30.0)), float(rng.uniform(0.05, 0.9)))
        pts = rng.uniform(-4.0, 4.0, size=(4000, 2))
        batch = rates_at(pts, g, fp)
        one = np.array([firing_rate((x, y), g, fp) for x, y in pts.tolist()])
        assert one.tobytes() == batch.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_position_rejected(demo_grid, firing, bad):
    with pytest.raises(ConfigurationError, match="must be finite"):
        nearest_center((0.5, bad), demo_grid)
    with pytest.raises(ConfigurationError, match="must be finite"):
        nearest_center_bruteforce((bad, 0.5), demo_grid)
    with pytest.raises(ConfigurationError, match="must be finite"):
        firing_rate((bad, 0.5), demo_grid, firing)
    with pytest.raises(ConfigurationError, match="must be finite"):
        rates_at(np.array([[0.0, 0.0], [0.5, bad]]), demo_grid, firing)


def test_far_position_repro_rejected(firing):
    # 1e200 used to decode to the phase-offset node at distance inf, rate 0
    g = GridCellParams(0.7, 0.4, 1.1, 2.9)
    with pytest.raises(ConfigurationError, match="2\\*\\*52 spacings"):
        nearest_center((1e200, 0.0), g)
    with pytest.raises(ConfigurationError, match="2\\*\\*52 spacings"):
        rates_at(np.array([[1e200, 0.0]]), g, firing)
    # 1e150 used to warn "invalid value encountered in cast"
    with pytest.raises(ConfigurationError, match="2\\*\\*52 spacings"):
        rates_at(np.array([[0.0, 0.0], [0.0, 1e150]]), g, firing)


@pytest.mark.parametrize("spacing", [MIN_SPACING, 0.7, MAX_SPACING])
def test_position_bound_is_warning_free_and_inclusive(spacing, firing):
    g = GridCellParams(spacing, 0.4, 1.1, 2.9)
    bound = MAX_SPACINGS_FROM_ORIGIN * spacing
    corners = [(bound, 0.0), (-bound, bound), (bound, -bound), (-bound, -bound), (0.0, bound)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # at this magnitude one ulp is about a spacing, so the distances
        # are coarse, but finite: no overflow, no invalid cast
        rates = rates_at(np.array(corners), g, firing)
        assert np.all((rates > 0.0) & (rates < 1.0))
        for pos in corners:
            _, d = nearest_center(pos, g)
            assert 0.0 <= d < 2.0 * spacing
    above = math.nextafter(bound, math.inf)
    for pos in ((above, 0.0), (0.0, above), (-above, 0.0), (0.0, -above)):
        with pytest.raises(ConfigurationError, match="within"):
            rates_at(np.array([[0.0, 0.0], pos]), g, firing)
        with pytest.raises(ConfigurationError, match="within"):
            nearest_center(pos, g)


def test_spacing_range_rejected():
    for bad in (0.0, math.nextafter(MIN_SPACING, 0.0), math.nextafter(MAX_SPACING, math.inf), 1e200, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="spacing must lie in"):
            GridCellParams(bad, 0.4, 1.1, 2.9)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_change_frame_literal_quarter_turn():
    t = FrameTransform(phi=math.pi / 2.0, tx=1.0, ty=2.0)
    out = change_frame(Position2(3.0, 4.0), t)
    assert abs(out.x - 5.0) < 1e-12
    assert abs(out.y - (-1.0)) < 1e-12


@given(
    phi=st.floats(-math.pi, math.pi - 1e-9),
    tx=st.floats(-10, 10),
    ty=st.floats(-10, 10),
    px=st.floats(-10, 10),
    py=st.floats(-10, 10),
)
@settings(max_examples=200, deadline=None)
def test_change_frame_round_trip(phi, tx, ty, px, py):
    t = FrameTransform(phi=phi, tx=tx, ty=ty)
    p = Position2(px, py)
    q = change_frame_inverse(change_frame(p, t), t)
    assert math.hypot(q.x - px, q.y - py) < 1e-9


# ---------------------------------------------------------------------------
# place cells
# ---------------------------------------------------------------------------


def test_place_activity_threshold_is_inclusive(demo_grid, firing):
    p = np.array([[0.3, -0.2]])
    inputs = (demo_grid, GridCellParams(0.7, 0.2, 1.0, 2.0))
    total = rates_at(p, inputs[0], firing)[0] + rates_at(p, inputs[1], firing)[0]
    assert place_activity_at(p, PlaceCellParams(inputs, total), firing)[0] == 1
    above = float(np.nextafter(total, np.inf))
    assert place_activity_at(p, PlaceCellParams(inputs, above), firing)[0] == 0


@pytest.mark.parametrize(
    "pos, offender",
    [
        # beyond only the third input's bound: it is named
        ((6e9, 0.0), 2),
        # beyond the second and third inputs' bounds: the second is named
        ((0.0, -6e12), 1),
        # beyond every bound, or not finite: the first input is named
        ((1e200, 0.0), 0),
        ((math.nan, 0.0), 0),
        ((0.0, math.inf), 0),
    ],
)
def test_place_activity_out_of_range_names_first_offending_input(firing, pos, offender):
    # every input's position bound is checked on every point before the
    # cascade drops any; the error is the one rates_at raises for the
    # first input, in input order, whose bound a coordinate exceeds
    inputs = (
        GridCellParams(1.0, 0.4, 1.1, 2.9),
        GridCellParams(1e-3, 0.4, 1.1, 2.9),
        GridCellParams(MIN_SPACING, 0.4, 1.1, 2.9),
    )
    pc = PlaceCellParams(inputs, 0.5)
    positions = np.array([[0.0, 0.0]] * 40000 + [pos])
    with pytest.raises(ConfigurationError) as want:
        rates_at(positions, inputs[offender], firing)
    bound = MAX_SPACINGS_FROM_ORIGIN * inputs[offender].spacing
    assert str(want.value) == (
        f"positions must be finite and within {bound:g} m (2**52 spacings) of the origin"
    )
    with pytest.raises(ConfigurationError) as got:
        place_activity_at(positions, pc, firing)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [np.zeros(4), np.zeros((3, 3)), np.zeros((2, 2, 2)), np.float64(1.0)])
def test_place_activity_rejects_bad_shapes(demo_grid, firing, bad):
    pc = PlaceCellParams((demo_grid,), 0.5)
    with pytest.raises(ConfigurationError, match=r"^positions must have shape \(N, 2\)$"):
        place_activity_at(bad, pc, firing)


def test_place_activity_empty_positions(demo_grid, firing):
    out = place_activity_at(np.empty((0, 2)), PlaceCellParams((demo_grid,), 0.5), firing)
    assert out.shape == (0,) and out.dtype == np.int8


def test_anchored_ensemble_shares_node_at_anchor(firing):
    cells = anchored_ensemble(np.geomspace(0.3, 1.2, 8), (0.35, 0.2))
    assert len(cells) == 8
    for g in cells:
        _, d = nearest_center(Position2(0.35, 0.2), g)
        assert d < 1e-9


def test_place_cell_fires_at_anchor_only_nearby(firing):
    cells = anchored_ensemble(np.geomspace(0.3, 1.2, 8), (0.35, 0.2))
    pc = PlaceCellParams(inputs=cells, threshold=0.8 * 8)
    assert place_activity_at(np.array([[0.35, 0.2]]), pc, firing)[0] == 1
    assert place_activity_at(np.array([[-0.6, -0.6]]), pc, firing)[0] == 0


@pytest.mark.parametrize("ticks", [0, -1, MAX_TICK_COUNT + 1, 10**12, 2.0, "10", None])
def test_check_tick_count_rejects_by_name(ticks):
    with pytest.raises(ConfigurationError, match=r"^ticks must be an integer in \[1, "):
        check_tick_count(ticks, "ticks")


def test_check_tick_count_accepts_up_to_the_bound():
    assert check_tick_count(1) == 1
    assert check_tick_count(np.int64(MAX_TICK_COUNT)) == MAX_TICK_COUNT
    # the bound is the documented budget: 512 B per tick, 32 GiB in all
    assert MAX_TICK_COUNT * 512 == 32 * 2**30
