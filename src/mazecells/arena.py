"""Circular arena, bumper zones, colored wall arcs, and the agent's sensors.

The arena is a disk.  Bumper zones are discs that inject a horizontal
vibration impulse into the accelerometer while the agent is inside them.
Colored wall arcs live on the boundary circle; the camera reports the
fraction of its angular field of view covered by in-range wall, computed
exactly through angular-interval intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import TWO_PI, walk_loop, walk_step, wrap_angle
from .spatialcells import ConfigurationError, Position2, _as_xy

GRAVITY = 9.81


@dataclass(frozen=True)
class Pose:
    """Agent position (m) and heading (rad, wrapped to [-pi, pi))."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConfigurationError("pose position must be finite")
        object.__setattr__(self, "heading", wrap_angle(float(self.heading)))

    @property
    def position(self) -> Position2:
        return Position2(self.x, self.y)


@dataclass(frozen=True)
class ZoneDisc:
    """A circular bumper zone with a vibration amplitude."""

    center_x: float
    center_y: float
    radius: float
    amplitude: float = 8.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ConfigurationError(f"zone radius must be positive, got {self.radius}")
        if self.amplitude < 0.0:
            raise ConfigurationError("zone amplitude must be >= 0")

    def contains(self, x: float, y: float) -> bool:
        dx = x - self.center_x
        dy = y - self.center_y
        return dx * dx + dy * dy <= self.radius * self.radius


@dataclass(frozen=True)
class WallArc:
    """A colored arc of the boundary circle, start -> end counterclockwise."""

    start_angle: float
    end_angle: float
    color: str = "red"

    def __post_init__(self):
        object.__setattr__(self, "start_angle", wrap_angle(float(self.start_angle)))
        object.__setattr__(self, "end_angle", wrap_angle(float(self.end_angle)))
        if self.extent <= 0.0:
            raise ConfigurationError("wall arc must have nonzero angular extent")

    @property
    def extent(self) -> float:
        e = (self.end_angle - self.start_angle) % TWO_PI
        return e

    @property
    def mid_angle(self) -> float:
        return wrap_angle(self.start_angle + 0.5 * self.extent)


@dataclass(frozen=True)
class Arena:
    """Disk arena with bumper zones and colored wall arcs."""

    radius: float = 1.3
    zones: tuple[ZoneDisc, ...] = ()
    walls: tuple[WallArc, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "zones", tuple(self.zones))
        object.__setattr__(self, "walls", tuple(self.walls))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ConfigurationError(f"arena radius must be positive, got {self.radius}")
        for z in self.zones:
            if math.hypot(z.center_x, z.center_y) > self.radius:
                raise ConfigurationError(
                    f"zone center ({z.center_x}, {z.center_y}) lies outside the arena"
                )

    def zone_index_at(self, x: float, y: float) -> int:
        """Index of the first zone containing the point, or -1."""
        for i, z in enumerate(self.zones):
            if z.contains(x, y):
                return i
        return -1

    def wall_point(self, angle: float) -> Position2:
        return Position2(self.radius * math.cos(angle), self.radius * math.sin(angle))


@dataclass(frozen=True)
class WalkParams:
    """Bounded random-walk parameters."""

    speed: float = 0.2
    dt: float = 0.1
    turn_sigma: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name, v in (("speed", self.speed), ("dt", self.dt)):
            if not (v > 0.0 and math.isfinite(v)):
                raise ConfigurationError(f"{name} must be positive and finite, got {v}")
        if not (self.turn_sigma >= 0.0 and math.isfinite(self.turn_sigma)):
            raise ConfigurationError(f"turn_sigma must be finite and >= 0, got {self.turn_sigma}")
        if int(self.seed) != self.seed:
            raise ConfigurationError("seed must be an integer")


@dataclass(frozen=True)
class CameraParams:
    """Angular field of view (rad) and maximum sensing range (m)."""

    fov: float = math.pi / 2.0
    max_range: float = 1.5

    def __post_init__(self):
        if not (0.0 < self.fov < TWO_PI):
            raise ConfigurationError(f"fov must lie in (0, 2*pi), got {self.fov}")
        if self.max_range <= 0.0:
            raise ConfigurationError("max_range must be positive")


@dataclass(frozen=True)
class SensorSample:
    """One tick of sensor data: accelerometer triple plus derived values."""

    accel_x: float
    accel_y: float
    accel_z: float
    vibration: float
    color_fraction: float


# ---------------------------------------------------------------------------
# vibration channel
# ---------------------------------------------------------------------------


def vibration_magnitude(accel) -> float:
    """Deviation of an accelerometer reading from rest: |a - (0, 0, g)|."""
    ax, ay, az = (float(accel[0]), float(accel[1]), float(accel[2]))
    dz = az - GRAVITY
    return math.sqrt(ax * ax + ay * ay + dz * dz)


def vibration_sample(pose: Pose, arena: Arena, noise_sigma: float, rng) -> SensorSample:
    """Accelerometer reading at a pose: rest + noise + in-zone impulses.

    Gaussian noise of scale ``noise_sigma`` on each axis around rest
    (0, 0, g); every zone containing the position adds a horizontal
    impulse of its amplitude at a uniformly random direction (one shared
    direction draw per call).
    """
    if noise_sigma < 0.0:
        raise ConfigurationError("noise_sigma must be >= 0")
    z = rng.standard_normal(3)
    u = rng.uniform(-math.pi, math.pi)
    ax, ay, az = _accel_at(pose.x, pose.y, arena, noise_sigma, z[0], z[1], z[2], u)
    return SensorSample(ax, ay, az, vibration_magnitude((ax, ay, az)), 0.0)


def _accel_at(x, y, arena: Arena, noise_sigma, zx, zy, zz, u):
    ax = noise_sigma * zx
    ay = noise_sigma * zy
    az = GRAVITY + noise_sigma * zz
    for z in arena.zones:
        if z.contains(x, y):
            ax += z.amplitude * math.cos(u)
            ay += z.amplitude * math.sin(u)
    return ax, ay, az


# ---------------------------------------------------------------------------
# color channel: exact angular-interval geometry
# ---------------------------------------------------------------------------

# Observers are clamped 0.1% of the radius off the wall; this bounds the
# bearing-map derivative and keeps the interval endpoints numerically sane.
_WALL_CLEARANCE = 1e-3
_MIN_ARC = 1e-12


def _circ_intersect(s1: float, l1: float, s2: float, l2: float):
    """Intersection of two circular intervals (start, length), length <= 2*pi.

    Returns up to two (start, length) pieces expressed relative to the
    circle, not merged across the 2*pi seam.
    """
    out = []
    d = (s2 - s1) % TWO_PI
    for base in (d, d - TWO_PI):
        lo = max(0.0, base)
        hi = min(l1, base + l2)
        if hi > lo:
            out.append((s1 + lo, hi - lo))
    return out


def _bearing_to_boundary(px: float, py: float, radius: float, alpha: float) -> float:
    return math.atan2(radius * math.sin(alpha) - py, radius * math.cos(alpha) - px)


def color_sample(pose: Pose, arena: Arena, cam: CameraParams) -> float:
    """Fraction of the camera FOV covered by in-range colored wall, in [0, 1].

    For each wall arc: intersect, in boundary-angle space, the arc with
    the set of boundary points within ``max_range`` of the observer; map
    the resulting pieces through the (monotone) boundary-angle-to-bearing
    function; clip against the FOV interval.  The covered length summed
    over arcs, divided by the FOV width.
    """
    r = math.hypot(pose.x, pose.y)
    radius = arena.radius
    if r >= radius:
        raise ConfigurationError("pose lies outside the arena")
    if not arena.walls:
        return 0.0
    # clamp observers hugging the wall slightly inward (sub-mm at 1.3 m)
    limit = radius * (1.0 - _WALL_CLEARANCE)
    px, py = pose.x, pose.y
    if r > limit:
        px *= limit / r
        py *= limit / r
        r = limit

    # boundary-angle interval within sensing range
    if r < radius * 1e-12:
        gate = (0.0, TWO_PI) if radius <= cam.max_range else None
    else:
        c = (radius * radius + r * r - cam.max_range * cam.max_range) / (2.0 * radius * r)
        if c <= -1.0:
            gate = (0.0, TWO_PI)
        elif c >= 1.0:
            gate = None
        else:
            half = math.acos(c)
            gate = (math.atan2(py, px) - half, 2.0 * half)
    if gate is None:
        return 0.0

    fov_start = pose.heading - 0.5 * cam.fov
    covered: list[tuple[float, float]] = []
    for arc in arena.walls:
        pieces = (
            [(arc.start_angle, arc.extent)]
            if gate[1] >= TWO_PI - 1e-15
            else _circ_intersect(arc.start_angle, arc.extent, gate[0], gate[1])
        )
        for a0, alen in pieces:
            if alen <= _MIN_ARC:
                continue
            b0 = _bearing_to_boundary(px, py, radius, a0)
            b1 = _bearing_to_boundary(px, py, radius, a0 + alen)
            blen = (b1 - b0) % TWO_PI
            # map into FOV-relative coordinates and clip to [0, fov]
            t0 = (b0 - fov_start) % TWO_PI
            for lo, hi in ((t0, min(t0 + blen, TWO_PI)), (0.0, t0 + blen - TWO_PI)):
                lo = max(lo, 0.0)
                hi = min(hi, cam.fov)
                if hi > lo:
                    covered.append((lo, hi))
    if not covered:
        return 0.0
    covered.sort()
    total = 0.0
    cur_lo, cur_hi = covered[0]
    for lo, hi in covered[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return min(1.0, total / cam.fov)


# ---------------------------------------------------------------------------
# bounded random walk
# ---------------------------------------------------------------------------


def random_walk_step(pose: Pose, walk: WalkParams, arena: Arena, rng) -> Pose:
    """One random-walk step; the returned pose is strictly inside the arena.

    Draws exactly two normals per call (the second is consumed only by the
    wall-contact retry) so a run's randomness usage is data-independent.
    """
    step = walk.speed * walk.dt
    if step >= arena.radius:
        raise ConfigurationError("speed * dt must be smaller than the arena radius")
    z = rng.standard_normal(2)
    x, y, h = walk_step(
        pose.x, pose.y, pose.heading, step, walk.turn_sigma, arena.radius, z[0], z[1]
    )
    return Pose(x, y, h)


def walk_trajectory(
    arena: Arena,
    walk: WalkParams,
    ticks: int,
    start: Pose | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Poses of a bounded random walk, shape (ticks, 3): x, y, heading.

    Row 0 is the start pose (arena center, heading 0 by default); row t the
    pose at tick t.  Seed defaults to ``walk.seed``.
    """
    if ticks <= 0:
        raise ConfigurationError(f"ticks must be positive, got {ticks}")
    step = walk.speed * walk.dt
    if step >= arena.radius:
        raise ConfigurationError("speed * dt must be smaller than the arena radius")
    if start is None:
        start = Pose(0.0, 0.0, 0.0)
    if math.hypot(start.x, start.y) >= arena.radius:
        raise ConfigurationError("start pose must lie strictly inside the arena")
    if seed is None:
        seed = walk.seed
    rng = np.random.default_rng(int(seed))
    z = rng.standard_normal((max(ticks - 1, 0), 2))
    out = np.empty((ticks, 3), dtype=np.float64)
    walk_loop(
        start.x, start.y, start.heading, step, walk.turn_sigma, arena.radius,
        np.ascontiguousarray(z[:, 0]), np.ascontiguousarray(z[:, 1]), out,
    )
    return out
