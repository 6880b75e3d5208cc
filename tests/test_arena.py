"""Arena geometry, sensors, and the bounded random walk.

color_sample's exact interval algebra is validated against an independent
dense ray-casting oracle; the walk against containment and determinism
properties.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazecells.arena import (
    GRAVITY,
    Arena,
    CameraParams,
    Pose,
    WalkParams,
    WallArc,
    ZoneDisc,
    color_sample,
    random_walk_step,
    vibration_magnitude,
    vibration_sample,
    walk_trajectory,
)
from mazecells.spatialcells import ConfigurationError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# vibration
# ---------------------------------------------------------------------------


def test_vibration_magnitude_rest_is_zero():
    assert vibration_magnitude((0.0, 0.0, GRAVITY)) == 0.0


def test_vibration_magnitude_three_four_five():
    # (3, 4, g) deviates from rest by the 3-4-5 triangle
    assert vibration_magnitude((3.0, 4.0, GRAVITY)) == 5.0


def test_vibration_magnitude_vertical_axis():
    assert vibration_magnitude((0.0, 0.0, GRAVITY + 2.5)) == 2.5
    assert vibration_magnitude((0.0, 0.0, GRAVITY - 2.5)) == 2.5


def test_noise_free_zone_impulse_has_zone_amplitude():
    arena = Arena(radius=1.3, zones=(ZoneDisc(0.5, 0.0, 0.2, 8.0),))
    rng = np.random.default_rng(0)
    inside = vibration_sample(Pose(0.5, 0.0, 0.0), arena, 0.0, rng)
    outside = vibration_sample(Pose(-0.5, 0.0, 0.0), arena, 0.0, rng)
    assert abs(inside.vibration - 8.0) < 1e-12
    assert outside.vibration == 0.0


def test_overlapping_zones_share_one_impulse_direction():
    # two coincident zones push in the same uniform direction, so their
    # amplitudes add exactly
    arena = Arena(
        radius=1.3,
        zones=(ZoneDisc(0.0, 0.0, 0.5, 3.0), ZoneDisc(0.0, 0.0, 0.5, 4.0)),
    )
    s = vibration_sample(Pose(0.0, 0.0, 0.0), arena, 0.0, np.random.default_rng(1))
    assert abs(s.vibration - 7.0) < 1e-12


def test_vibration_sample_consumes_fixed_rng_budget():
    arena = Arena(radius=1.3)
    r1 = np.random.default_rng(7)
    vibration_sample(Pose(0.1, 0.1, 0.0), arena, 0.3, r1)
    r2 = np.random.default_rng(7)
    r2.standard_normal(3)
    r2.uniform(-math.pi, math.pi)
    assert r1.standard_normal() == r2.standard_normal()


def test_zone_containment_boundary_inclusive():
    z = ZoneDisc(0.0, 0.0, 0.25, 8.0)
    assert z.contains(0.25, 0.0)
    assert not z.contains(0.2500001, 0.0)


# ---------------------------------------------------------------------------
# camera: exact interval algebra vs ray casting
# ---------------------------------------------------------------------------


def _raycast_fraction(pose, arena, cam, rays=20001):
    """Independent oracle: dense bearing sampling with explicit ray-circle
    intersection, counting rays whose forward boundary hit is in range and
    on some wall arc."""
    hits = 0
    for t in np.linspace(-0.5 * cam.fov, 0.5 * cam.fov, rays):
        b = pose.heading + t
        dx, dy = math.cos(b), math.sin(b)
        # forward intersection of p + s*d with the boundary circle
        pd = pose.x * dx + pose.y * dy
        disc = pd * pd - (pose.x**2 + pose.y**2 - arena.radius**2)
        s = -pd + math.sqrt(disc)
        if s > cam.max_range:
            continue
        ang = math.atan2(pose.y + s * dy, pose.x + s * dx)
        for arc in arena.walls:
            if (ang - arc.start_angle) % TWO_PI <= arc.extent:
                hits += 1
                break
    return hits / rays


def test_color_center_facing_wall_covers_half_fov():
    # 45-degree red arc dead ahead, 90-degree fov -> exactly half covered
    arena = Arena(radius=1.0, walls=(WallArc(-math.pi / 8, math.pi / 8, "red"),))
    cam = CameraParams(fov=math.pi / 2, max_range=2.0)
    assert abs(color_sample(Pose(0.0, 0.0, 0.0), arena, cam) - 0.5) < 1e-12


def test_color_center_wall_out_of_range_is_zero():
    arena = Arena(radius=1.0, walls=(WallArc(-1.0, 1.0, "red"),))
    cam = CameraParams(fov=math.pi / 2, max_range=0.5)
    assert color_sample(Pose(0.0, 0.0, 0.0), arena, cam) == 0.0


def test_color_facing_away_is_zero():
    arena = Arena(radius=1.0, walls=(WallArc(-0.5, 0.5, "red"),))
    cam = CameraParams(fov=math.pi / 2, max_range=2.0)
    assert color_sample(Pose(0.0, 0.0, math.pi), arena, cam) == 0.0


def test_color_full_red_circle_from_center_is_one():
    arena = Arena(radius=1.0, walls=(WallArc(0.0, 2 * math.pi - 1e-9, "red"),))
    cam = CameraParams(fov=1.0, max_range=2.0)
    assert abs(color_sample(Pose(0.0, 0.0, 2.5), arena, cam) - 1.0) < 1e-9


def test_color_no_walls_is_zero():
    arena = Arena(radius=1.0)
    assert color_sample(Pose(0.2, 0.1, 0.3), arena, CameraParams()) == 0.0


def test_color_outside_arena_rejected():
    arena = Arena(radius=1.0, walls=(WallArc(-0.5, 0.5, "red"),))
    with pytest.raises(ConfigurationError):
        color_sample(Pose(1.5, 0.0, 0.0), arena, CameraParams())


def test_color_monotone_on_head_on_approach():
    arena = Arena(radius=1.3, walls=(WallArc(-math.pi / 3, math.pi / 3, "red"),))
    cam = CameraParams(fov=math.pi / 2, max_range=1.5)
    vals = [color_sample(Pose(x, 0.0, 0.0), arena, cam) for x in np.linspace(0.0, 1.25, 40)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.9


def test_color_matches_raycast_oracle_randomized():
    rng = np.random.default_rng(77)
    for trial in range(40):
        radius = rng.uniform(0.8, 2.0)
        n_arcs = rng.integers(1, 4)
        starts = rng.uniform(-math.pi, math.pi, n_arcs)
        extents = rng.uniform(0.2, 2.0, n_arcs)
        arena = Arena(
            radius=radius,
            walls=tuple(
                WallArc(s, s + e, "red") for s, e in zip(starts, extents)
            ),
        )
        cam = CameraParams(
            fov=float(rng.uniform(0.5, 2 * math.pi - 0.1)),
            max_range=float(rng.uniform(0.3 * radius, 2.5 * radius)),
        )
        r = radius * math.sqrt(rng.uniform(0.0, 0.98))
        a = rng.uniform(-math.pi, math.pi)
        pose = Pose(r * math.cos(a), r * math.sin(a), float(rng.uniform(-math.pi, math.pi)))
        exact = color_sample(pose, arena, cam)
        approx = _raycast_fraction(pose, arena, cam)
        assert abs(exact - approx) < 2e-3, (trial, exact, approx)


def test_color_near_wall_pose_is_clamped_not_rejected():
    arena = Arena(radius=1.0, walls=(WallArc(-0.5, 0.5, "red"),))
    cam = CameraParams(fov=math.pi / 2, max_range=1.5)
    v = color_sample(Pose(0.99999, 0.0, 0.0), arena, cam)
    assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# bounded random walk
# ---------------------------------------------------------------------------


def test_walk_stays_strictly_inside():
    arena = Arena(radius=1.3)
    tr = walk_trajectory(arena, WalkParams(), 20000, seed=5)
    r = np.hypot(tr[:, 0], tr[:, 1])
    assert r.max() < 1.3


def test_walk_row_zero_is_start_pose():
    arena = Arena(radius=1.3)
    tr = walk_trajectory(arena, WalkParams(), 50, start=Pose(0.2, -0.1, 0.4), seed=1)
    assert tuple(tr[0]) == (0.2, -0.1, 0.4)


def test_walk_is_seed_deterministic():
    arena = Arena(radius=1.3)
    a = walk_trajectory(arena, WalkParams(), 3000, seed=9)
    b = walk_trajectory(arena, WalkParams(), 3000, seed=9)
    c = walk_trajectory(arena, WalkParams(), 3000, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_walk_zero_noise_goes_straight_until_wall():
    arena = Arena(radius=1.0)
    walk = WalkParams(speed=0.2, dt=0.1, turn_sigma=0.0)
    tr = walk_trajectory(arena, walk, 30, start=Pose(0.0, 0.0, 0.0), seed=0)
    # 0.02 m per tick along +x, no turning
    for t in range(30):
        assert abs(tr[t, 0] - 0.02 * t) < 1e-12
        assert tr[t, 1] == 0.0


def test_walk_zero_noise_reflects_toward_center():
    arena = Arena(radius=1.0)
    walk = WalkParams(speed=0.2, dt=0.1, turn_sigma=0.0)
    tr = walk_trajectory(arena, walk, 120, start=Pose(0.0, 0.0, 0.0), seed=0)
    r = np.hypot(tr[:, 0], tr[:, 1])
    assert r.max() < 1.0
    # after the wall contact the heading flips to point at the center
    assert abs(abs(tr[-1, 2]) - math.pi) < 1e-9 or abs(tr[-1, 2]) < 1e-9


def test_step_must_be_smaller_than_radius():
    arena = Arena(radius=0.01)
    with pytest.raises(ConfigurationError):
        walk_trajectory(arena, WalkParams(speed=0.2, dt=0.1), 10, seed=0)


def test_random_walk_step_matches_trajectory_stream():
    """The public single-step op consumes the same two normals per tick as
    the walk loop, so stepping manually reproduces the trajectory."""
    arena = Arena(radius=1.3)
    walk = WalkParams()
    tr = walk_trajectory(arena, walk, 200, seed=33)
    rng = np.random.default_rng(33)
    rng.standard_normal((199, 2))  # the loop pre-draws its budget
    rng2 = np.random.default_rng(33)
    pose = Pose(0.0, 0.0, 0.0)
    for t in range(1, 200):
        pose = random_walk_step(pose, walk, arena, rng2)
        assert abs(pose.x - tr[t, 0]) < 1e-12
        assert abs(pose.y - tr[t, 1]) < 1e-12


@given(seed=st.integers(0, 10_000), ticks=st.integers(2, 300))
@settings(max_examples=50, deadline=None)
def test_walk_containment_property(seed, ticks):
    arena = Arena(radius=0.6)
    tr = walk_trajectory(arena, WalkParams(turn_sigma=0.8), ticks, seed=seed)
    assert np.hypot(tr[:, 0], tr[:, 1]).max() < 0.6


def test_wall_arc_extent_and_midpoint():
    arc = WallArc(math.pi - 0.5, -math.pi + 0.5, "red")  # crosses the seam
    assert abs(arc.extent - 1.0) < 1e-12
    assert abs(abs(arc.mid_angle) - math.pi) < 1e-12 or abs(arc.mid_angle + math.pi) < 1e-12


def test_zone_validation():
    with pytest.raises(ConfigurationError):
        ZoneDisc(0.0, 0.0, -0.1, 8.0)
    with pytest.raises(ConfigurationError):
        Arena(radius=1.0, zones=(ZoneDisc(2.0, 0.0, 0.1, 8.0),))
