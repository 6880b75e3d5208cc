"""Arena geometry, sensors, and the bounded random walk.

color_sample's exact interval algebra is validated against an independent
dense ray-casting oracle; the walk against containment and determinism
properties.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import accel_at

from mazecells.arena import (
    GRAVITY,
    MAX_ANGLE,
    Arena,
    CameraParams,
    Pose,
    WalkParams,
    WallArc,
    ZoneDisc,
    color_sample,
    vibration_magnitude,
    walk_trajectory,
)
from mazecells._kernels import wrap_angle
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
    for u in rng.uniform(-math.pi, math.pi, 20):
        z = rng.standard_normal(3)
        *inside, inside_hit = accel_at(0.5, 0.0, arena, 0.0, *z, u)
        *outside, outside_hit = accel_at(-0.5, 0.0, arena, 0.0, *z, u)
        assert abs(vibration_magnitude(inside) - 8.0) < 1e-12
        assert outside == [0.0, 0.0, GRAVITY]
        assert inside_hit and not outside_hit


def test_overlapping_zones_share_one_impulse_direction():
    # two coincident zones push in the same uniform direction, so their
    # amplitudes add exactly
    arena = Arena(
        radius=1.3,
        zones=(ZoneDisc(0.0, 0.0, 0.5, 3.0), ZoneDisc(0.0, 0.0, 0.5, 4.0)),
    )
    for u in np.random.default_rng(1).uniform(-math.pi, math.pi, 20):
        *a, hit = accel_at(0.0, 0.0, arena, 0.0, 0.0, 0.0, 0.0, u)
        assert abs(vibration_magnitude(a) - 7.0) < 1e-12
        assert hit


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
    assert abs(color_sample(0.0, 0.0, 0.0, arena, cam) - 0.5) < 1e-12


def test_color_center_wall_out_of_range_is_zero():
    arena = Arena(radius=1.0, walls=(WallArc(-1.0, 1.0, "red"),))
    cam = CameraParams(fov=math.pi / 2, max_range=0.5)
    assert color_sample(0.0, 0.0, 0.0, arena, cam) == 0.0


def test_color_facing_away_is_zero():
    arena = Arena(radius=1.0, walls=(WallArc(-0.5, 0.5, "red"),))
    cam = CameraParams(fov=math.pi / 2, max_range=2.0)
    assert color_sample(0.0, 0.0, math.pi, arena, cam) == 0.0


def test_color_full_red_circle_from_center_is_one():
    arena = Arena(radius=1.0, walls=(WallArc(0.0, 2 * math.pi - 1e-9, "red"),))
    cam = CameraParams(fov=1.0, max_range=2.0)
    assert abs(color_sample(0.0, 0.0, 2.5, arena, cam) - 1.0) < 1e-9


def test_color_no_walls_is_zero():
    arena = Arena(radius=1.0)
    assert color_sample(0.2, 0.1, 0.3, arena, CameraParams()) == 0.0


def test_color_outside_arena_rejected():
    arena = Arena(radius=1.0, walls=(WallArc(-0.5, 0.5, "red"),))
    with pytest.raises(ConfigurationError):
        color_sample(1.5, 0.0, 0.0, arena, CameraParams())


def test_color_monotone_on_head_on_approach():
    arena = Arena(radius=1.3, walls=(WallArc(-math.pi / 3, math.pi / 3, "red"),))
    cam = CameraParams(fov=math.pi / 2, max_range=1.5)
    vals = [color_sample(x, 0.0, 0.0, arena, cam) for x in np.linspace(0.0, 1.25, 40)]
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
        exact = color_sample(pose.x, pose.y, pose.heading, arena, cam)
        approx = _raycast_fraction(pose, arena, cam)
        assert abs(exact - approx) < 2e-3, (trial, exact, approx)


def test_color_near_wall_pose_is_clamped_not_rejected():
    arena = Arena(radius=1.0, walls=(WallArc(-0.5, 0.5, "red"),))
    cam = CameraParams(fov=math.pi / 2, max_range=1.5)
    v = color_sample(0.99999, 0.0, 0.0, arena, cam)
    assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("walls", [(), (WallArc(-0.5, 0.5, "red"),)])
def test_color_sample_rejects_non_finite_pose(walls):
    arena = Arena(radius=1.0, walls=walls)
    cam = CameraParams()
    for bad in (math.nan, math.inf, -math.inf):
        for x, y, h, what in ((bad, 0.0, 0.0, "position"), (0.0, bad, 0.0, "position"), (0.0, 0.0, bad, "heading")):
            with pytest.raises(ConfigurationError, match=what):
                color_sample(x, y, h, arena, cam)


@pytest.mark.parametrize("walls", [(), (WallArc(-0.5, 0.5, "red"),)])
def test_color_sample_rejects_pose_outside_arena(walls):
    arena = Arena(radius=1.0, walls=walls)
    for x, y in ((1.0, 0.0), (0.0, -1.0), (0.8, 0.8), (-1.5, 0.2)):
        with pytest.raises(ConfigurationError, match="outside the arena"):
            color_sample(x, y, 0.0, arena, CameraParams())


def test_color_sample_wraps_heading_like_pose():
    # a finite heading outside [-pi, pi) gives the result of its wrap
    arena = Arena(radius=1.3, walls=(WallArc(-math.pi / 3, math.pi / 3, "red"),))
    cam = CameraParams()
    for h in (math.pi, 7.5, -9.25, 2.5 + 4 * math.pi):
        assert color_sample(0.9, 0.1, h, arena, cam) == color_sample(0.9, 0.1, wrap_angle(h), arena, cam)


@pytest.mark.parametrize("walls", [(), (WallArc(-0.5, 0.5, "red"),)])
def test_color_sample_heading_magnitude_bound(walls):
    # beyond MAX_ANGLE wrap_angle loses every digit: 1e17 + 48 would be
    # read as heading 0
    arena = Arena(radius=1.0, walls=walls)
    cam = CameraParams()
    for bad in (1e17 + 48, -(1e17 + 48), math.nextafter(MAX_ANGLE, math.inf), 1e300):
        with pytest.raises(ConfigurationError, match=r"pose heading must be at most 1e\+06 rad"):
            color_sample(0.5, 0.0, bad, arena, cam)
    for h in (MAX_ANGLE, -MAX_ANGLE):
        assert color_sample(0.5, 0.0, h, arena, cam) == color_sample(0.5, 0.0, wrap_angle(h), arena, cam)


@pytest.mark.parametrize(
    "walls, cam",
    [
        ((), CameraParams()),
        ((WallArc(-math.pi / 3, math.pi / 3, "red"),), CameraParams()),
        # one arc straddles the +-pi seam; the range gate is partial
        ((WallArc(2.7, -2.9, "red"), WallArc(-0.6, 0.9, "red")), CameraParams(fov=1.9, max_range=0.8)),
    ],
)
def test_color_sample_int_and_numpy_inputs_match_floats(walls, cam):
    # int and np.float64 coordinates and headings, inside and outside
    # [-pi, pi), give a Python float with the bits of the float inputs
    arena = Arena(radius=1.3, walls=walls)
    poses = [(0, 0, 0), (1, 0, 2), (0, -1, -3), (1, 0, 4), (0, 1, -7), (-1, 0, 10)]
    poses += [(0.4, -0.7, h) for h in (0.3, -math.pi, math.pi, 3.5, -20.25, 1e3)]
    poses += [(0.01, 1.2995, h) for h in (-1.5, 7.25)]  # inside the wall clearance
    for pose in poses:
        want = color_sample(*map(float, pose), arena, cam)
        assert type(want) is float
        variants = [[float(v), np.float64(v)] + ([int(v)] if v == int(v) else []) for v in pose]
        for args in itertools.product(*variants):
            got = color_sample(*args, arena, cam)
            assert type(got) is float, (pose, args)
            assert got.hex() == want.hex(), (pose, args)


def test_wall_arc_extent_stays_out_of_repr():
    arc = WallArc(-1.0, 1.0, "red")
    assert "extent" not in repr(arc)
    assert arc == WallArc(-1.0, 1.0, "red")


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


def test_negative_seed_rejected():
    arena = Arena(radius=1.3)
    with pytest.raises(ConfigurationError, match="non-negative"):
        WalkParams(seed=-1)
    with pytest.raises(ConfigurationError, match="non-negative"):
        walk_trajectory(arena, WalkParams(), 10, seed=-1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="non-negative"):
            WalkParams(seed=bad)
        with pytest.raises(ConfigurationError, match="non-negative"):
            walk_trajectory(arena, WalkParams(), 10, seed=bad)


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


def test_non_finite_geometry_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="heading"):
            Pose(0.0, 0.0, bad)
        with pytest.raises(ConfigurationError, match="wall arc"):
            WallArc(bad, 0.5, "red")
        with pytest.raises(ConfigurationError, match="max_range"):
            CameraParams(max_range=bad)
        for args in ((bad, 0.0, 0.1, 8.0), (0.0, 0.0, bad, 8.0), (0.0, 0.0, 0.1, bad)):
            with pytest.raises(ConfigurationError, match="zone"):
                ZoneDisc(*args)


# pi far past double precision, for exact remainders
PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")


def _wrap_error(a: float) -> float:
    """Distance, modulo 2*pi, from wrap_angle(a) to a's exact remainder."""
    d = Fraction(wrap_angle(a)) - Fraction(a)
    return abs(float(d - 2 * PI * round(d / (2 * PI))))


def test_wrap_angle_error_stays_below_1e_10_up_to_max_angle():
    # the derivation beside MAX_ANGLE, checked on angles up to the bound
    rng = np.random.default_rng(53)
    angles = [MAX_ANGLE, -MAX_ANGLE, math.nextafter(MAX_ANGLE, 0.0), 0.5 * MAX_ANGLE]
    angles += rng.uniform(-MAX_ANGLE, MAX_ANGLE, 2000).tolist()
    angles += (10.0 ** rng.uniform(-3.0, 6.0, 2000)).tolist()
    assert max(_wrap_error(a) for a in angles) < 1e-10
    # far beyond it the reduction loses every digit
    assert wrap_angle(1e17) == 0.0 and _wrap_error(1e17) > 1.0


def test_angle_magnitude_bound():
    for bad in (math.nextafter(MAX_ANGLE, math.inf), -2 * MAX_ANGLE, 1e17, 1e300):
        with pytest.raises(ConfigurationError, match=r"pose heading must be at most 1e\+06 rad"):
            Pose(0.0, 0.0, bad)
        with pytest.raises(ConfigurationError, match=r"wall arc start_angle must be at most 1e\+06"):
            WallArc(bad, 0.5, "red")
        with pytest.raises(ConfigurationError, match=r"wall arc end_angle must be at most 1e\+06"):
            WallArc(0.5, bad, "red")
    assert Pose(0.0, 0.0, MAX_ANGLE).heading == wrap_angle(MAX_ANGLE)
    assert WallArc(-MAX_ANGLE, MAX_ANGLE, "red").start_angle == wrap_angle(-MAX_ANGLE)


def test_huge_walk_rejected_before_any_draw(monkeypatch):
    import mazecells.arena as arena_module

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"walk_trajectory reached np.{name} with a huge tick count")

    monkeypatch.setattr(arena_module, "np", NoNumpy())
    with pytest.raises(ConfigurationError, match="ticks must be an integer in"):
        walk_trajectory(Arena(radius=1.3), WalkParams(), 10**12, seed=0)
