"""Circular arena, bumper zones, colored wall arcs, and the agent's sensors.

The arena is a disk.  Bumper zones are discs that inject a horizontal
vibration impulse into the accelerometer while the agent is inside them.
Colored wall arcs live on the boundary circle; the camera reports the
fraction of its angular field of view covered by in-range wall, computed
exactly through angular-interval intersection.  Each arc leaves a gap of
at least 2**-29 rad, wide enough that rounding cannot close it in the
camera's bearings.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import TWO_PI, walk_loop, wrap_angle
from .spatialcells import ConfigurationError, check_finite, check_seed, check_tick_count

GRAVITY = 9.81

# The largest magnitude (rad) of a pose heading or a wall arc endpoint.
# wrap_angle subtracts k = floor((a + pi) / TWO_PI) turns of TWO_PI, which
# is 2*pi to within 2.5e-16, and rounds k * TWO_PI to half an ulp of |a|:
# for |a| <= 1e6 (k <= 159155) the wrapped angle stays within
# 159155 * 2.5e-16 + 2**-34 < 1e-10 rad of a's exact remainder.  The error
# grows with |a|; from about 1e17, where an ulp of a exceeds 2*pi,
# wrap_angle returns 0.0.
MAX_ANGLE = 1e6
# The largest turn or escape-jitter sigma (rad) a walk or an episode
# accepts.  A walk turns a heading in [-pi, pi) by sigma * z; a wall retry
# or an escape adds sigma * z to an angle within 2*pi of 0 (a bearing from
# atan2, plus pi for an escape).  Standard normal draws z stay below 13.71
# in magnitude (see MAX_NOISE_SIGMA), so every angle wrap_angle is given
# stays within 2*pi + 13.71 * sigma, which is at most MAX_ANGLE for sigma
# up to (1e6 - 2*pi) / 13.71 = 72939.  Far beyond it wrap_angle returns
# 0.0: at sigma = 1e20, 45% of a walk's headings were exactly 0.0.
MAX_HEADING_SIGMA = 7e4


def check_angle(a: float, name: str) -> None:
    """Raise ConfigurationError unless the angle ``a`` is finite and at most
    MAX_ANGLE in magnitude."""
    if not abs(a) <= MAX_ANGLE:
        check_finite(a, name)
        raise ConfigurationError(
            f"{name} must be at most {MAX_ANGLE:g} rad in magnitude, got {a}"
        )


@dataclass(frozen=True)
class Pose:
    """Agent position (m) and heading (rad, wrapped to [-pi, pi))."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConfigurationError("pose position must be finite")
        check_angle(self.heading, "pose heading")
        object.__setattr__(self, "heading", wrap_angle(float(self.heading)))


@dataclass(frozen=True)
class ZoneDisc:
    """A circular bumper zone with a vibration amplitude."""

    center_x: float
    center_y: float
    radius: float
    amplitude: float = 8.0

    def __post_init__(self):
        if not (math.isfinite(self.center_x) and math.isfinite(self.center_y)):
            raise ConfigurationError("zone center must be finite")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ConfigurationError(f"zone radius must be positive and finite, got {self.radius}")
        if not (self.amplitude >= 0.0 and math.isfinite(self.amplitude)):
            raise ConfigurationError(f"zone amplitude must be finite and >= 0, got {self.amplitude}")

    def contains(self, x: float, y: float) -> bool:
        dx = x - self.center_x
        dy = y - self.center_y
        return dx * dx + dy * dy <= self.radius * self.radius


@dataclass(frozen=True)
class WallArc:
    """A colored arc of the boundary circle, start -> end counterclockwise.

    The camera senses one color, so ``color`` must be ``"red"``.  An arc
    must leave a gap of at least 2**-29 rad to a full turn.
    """

    start_angle: float
    end_angle: float
    color: str = "red"
    # Angular length, computed once from the wrapped endpoints; kept out of
    # repr (and so out of config_hash) and out of comparisons.
    extent: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.color != "red":
            raise ConfigurationError(
                f"wall arc color must be 'red', the one color the camera senses, got {self.color!r}"
            )
        for key in ("start_angle", "end_angle"):
            check_angle(getattr(self, key), f"wall arc {key}")
            object.__setattr__(self, key, wrap_angle(float(getattr(self, key))))
        object.__setattr__(self, "extent", (self.end_angle - self.start_angle) % TWO_PI)
        if self.extent <= 0.0:
            raise ConfigurationError("wall arc must have nonzero angular extent")
        # An observer inside the circle sees an arc's gap of g rad under an
        # angle of at least g / 2 (the inscribed angle), so a gap of at
        # least 2 * _BEARING_SLACK keeps the arc's end bearings apart by far
        # more than the camera's rounding; a narrower gap can round to none,
        # and a view all wall then reads as all gap.
        if self.extent > TWO_PI - 2.0 * _BEARING_SLACK:
            raise ConfigurationError(
                f"wall arc must fall short of a full turn by at least 2**-29 rad, "
                f"got extent {self.extent!r}"
            )

    @property
    def mid_angle(self) -> float:
        return wrap_angle(self.start_angle + 0.5 * self.extent)


@dataclass(frozen=True)
class Arena:
    """Disk arena with bumper zones and colored wall arcs."""

    radius: float = 1.3
    zones: tuple[ZoneDisc, ...] = ()
    walls: tuple[WallArc, ...] = ()
    # color_sample's early-out operands, computed once from the fields above
    # (see _arc_ends); kept out of repr (and so out of config_hash) and out
    # of comparisons.
    arc_ends: tuple[tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )

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
        # every zone that contains a point adds its impulse to the reading
        amplitude_sum = sum(z.amplitude for z in self.zones)
        if amplitude_sum > MAX_ZONE_AMPLITUDE_SUM:
            raise ConfigurationError(
                f"zone amplitudes must sum to at most {MAX_ZONE_AMPLITUDE_SUM:g} "
                f"(so that accelerometer readings stay finite), got {amplitude_sum}"
            )
        object.__setattr__(self, "arc_ends", _arc_ends(self.radius, self.walls))

    def zone_index_at(self, x: float, y: float) -> int:
        """Index of the first zone containing the point, or -1."""
        for i, z in enumerate(self.zones):
            if z.contains(x, y):
                return i
        return -1


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
        check_heading_sigma(self.turn_sigma, "turn_sigma")
        check_seed(self.seed)


def check_walk_step(walk: WalkParams, arena: Arena) -> float:
    """The walk's step ``speed * dt``, which must be smaller than the arena radius."""
    step = walk.speed * walk.dt
    if step >= arena.radius:
        raise ConfigurationError("speed * dt must be smaller than the arena radius")
    return step


@dataclass(frozen=True)
class CameraParams:
    """Angular field of view (rad) and maximum sensing range (m)."""

    fov: float = math.pi / 2.0
    max_range: float = 1.5

    def __post_init__(self):
        if not (0.0 < self.fov < TWO_PI):
            raise ConfigurationError(f"fov must lie in (0, 2*pi), got {self.fov}")
        if not (self.max_range > 0.0 and math.isfinite(self.max_range)):
            raise ConfigurationError(f"max_range must be positive and finite, got {self.max_range}")


# ---------------------------------------------------------------------------
# vibration channel
# ---------------------------------------------------------------------------


def vibration_magnitude(accel) -> float:
    """Deviation of an accelerometer reading from rest: |a - (0, 0, g)|."""
    ax, ay, az = (float(accel[0]), float(accel[1]), float(accel[2]))
    dz = az - GRAVITY
    return math.sqrt(ax * ax + ay * ay + dz * dz)


# The largest accelerometer noise sigma (m/s^2) a run accepts.  numpy's
# standard normal draws (ziggurat) stay below 14 in magnitude: a tail draw
# is r - log1p(-U) / r with r = 3.654 and U a multiple of 2**-53 below 1,
# so at most 3.654 + 53 * ln(2) / 3.654 < 13.71.  Each noise term of a
# reading then stays below 14 * 1e150, and the three squared axes that
# vibration_magnitude sums below 3 * (1.4e151)**2 = 5.9e302, under the
# float maximum 1.8e308 with room for zone impulses up to about 7e153.
# The noise arithmetic runs on Python floats, so an overflow to inf
# would pass without a warning.
MAX_NOISE_SIGMA = 1e150
# The largest sum of an arena's zone amplitudes (m/s^2).  A point inside
# every zone gets all their impulses, along one shared direction, so each
# horizontal axis stays below 1.4e151 + 1e153 < 1.02e153 in magnitude, and
# vibration_magnitude's sum of squares below 2 * (1.02e153)**2 +
# (1.4e151)**2 < 2.1e306, under the float maximum by a factor of 85 (which
# also covers the rounding of the impulse sums).
MAX_ZONE_AMPLITUDE_SUM = 1e153


def _check_sigma(v: float, name: str, bound: float, why: str) -> None:
    """Raise ConfigurationError unless ``v`` is finite, at most ``bound`` in magnitude and >= 0."""
    check_finite(v, name)
    if abs(v) > bound:
        raise ConfigurationError(f"{name} must be at most {bound:g} in magnitude ({why}), got {v}")
    if v < 0.0:
        raise ConfigurationError(f"{name} must be >= 0, got {v}")


def check_noise_sigma(v: float) -> None:
    """The accelerometer noise sigma rule: finite, >= 0, at most MAX_NOISE_SIGMA."""
    _check_sigma(v, "noise_sigma", MAX_NOISE_SIGMA, "so that accelerometer readings stay finite")


def check_heading_sigma(v: float, name: str) -> None:
    """The turn and escape-jitter sigma rule: finite, >= 0, at most MAX_HEADING_SIGMA."""
    _check_sigma(v, name, MAX_HEADING_SIGMA, f"so that headings stay within {MAX_ANGLE:g} rad")


# ---------------------------------------------------------------------------
# color channel: exact angular-interval geometry
# ---------------------------------------------------------------------------

# Observers are clamped 0.1% of the radius off the wall; this bounds the
# bearing-map derivative and keeps the interval endpoints numerically sane.
_WALL_CLEARANCE = 1e-3
_MIN_ARC = 1e-12
# The margin (rad) by which the field of view must miss an arc's bearing
# span for color_sample to return 0.0 without the interval algebra.  The
# boundary-angle-to-bearing map is monotone, so every point of the arc has
# a bearing inside the span between its end points' bearings, and the
# margin need only cover rounding.  The algebra's piece ends (s1 + lo,
# a0 + alen) lie inside the arc or within a few ulps of 2*pi (< 4e-15 rad)
# outside it, and cos, sin and the products by the radius round to
# 2**-53, so each boundary point either path maps sits within radius *
# 5e-15 of a point of the arc.  The clamp keeps every wall point at least
# radius * 1e-3 from the observer, so a bearing is off by at most 5e-12
# rad, plus a few ulps of pi from atan2, the subtractions and the
# `% TWO_PI` of both paths.  2**-30 (9.3e-10) is about 180 times that.
_BEARING_SLACK = 2.0**-30


def _arc_ends(radius: float, walls: tuple[WallArc, ...]):
    """The boundary points ``(x0, y0, x1, y1)`` of each arc's start and end.

    Every arc leaves a gap of at least 2 * _BEARING_SLACK (``WallArc``
    rejects a nearer-full one), so the gap between an arc's two end
    bearings cannot round to a whole turn and read as the arc's
    complement."""
    return tuple(
        (
            radius * math.cos(arc.start_angle),
            radius * math.sin(arc.start_angle),
            radius * math.cos(arc.end_angle),
            radius * math.sin(arc.end_angle),
        )
        for arc in walls
    )


def color_sample(x: float, y: float, heading: float, arena: Arena, cam: CameraParams) -> float:
    """Fraction of the camera FOV covered by in-range colored wall, in [0, 1].

    The observer stands at (x, y), strictly inside the arena, facing
    ``heading`` (rad; finite and at most MAX_ANGLE in magnitude, wrapped
    to [-pi, pi)).  For each wall arc: intersect, in boundary-angle
    space, the arc with the set of boundary points within ``max_range``
    of the observer; map the resulting pieces through the (monotone)
    boundary-angle-to-bearing function; clip against the FOV interval.
    The covered length summed over arcs, divided by the FOV width.

    Most poses see no wall, so an exact early-out comes first: the
    bearings of each arc's two end points (``Arena.arc_ends``) bound the
    bearings of every piece of it, and when the FOV misses each arc's
    bearing span by more than ``_BEARING_SLACK`` (2**-30 rad, far above
    the rounding of either path) the result is 0.0, which the interval
    algebra (:func:`_interval_fraction`) also returns there.
    """
    radius = arena.radius
    r = math.hypot(x, y)
    if not r < radius:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigurationError("pose position must be finite")
        raise ConfigurationError("pose lies outside the arena")
    if not abs(heading) <= MAX_ANGLE:
        check_angle(heading, "pose heading")
    heading = float(heading)
    # wrap_angle returns an angle already in [-pi, pi) unchanged
    if not -math.pi <= heading < math.pi:
        heading = wrap_angle(heading)
    # clamp observers hugging the wall slightly inward (sub-mm at 1.3 m)
    limit = radius * (1.0 - _WALL_CLEARANCE)
    if r > limit:
        x *= limit / r
        y *= limit / r
        r = limit
    fov = cam.fov
    fov_start = heading - 0.5 * fov
    for x0, y0, x1, y1 in arena.arc_ends:
        # counterclockwise from the arc's end bearing: the FOV's start, and
        # the arc's gap, which the whole FOV must lie inside
        b1 = math.atan2(y1 - y, x1 - x)
        u = (fov_start - b1) % TWO_PI
        gap = (math.atan2(y0 - y, x0 - x) - b1) % TWO_PI
        if not (u > _BEARING_SLACK and u + fov < gap - _BEARING_SLACK):
            break
    else:
        return 0.0  # also for an arena without walls
    return _interval_fraction(x, y, r, heading, arena, cam)


def _interval_fraction(x, y, r, heading, arena: Arena, cam: CameraParams) -> float:
    """:func:`color_sample`'s interval algebra, for an observer at (x, y),
    at distance ``r`` from the centre, already clamped off the wall, facing
    ``heading`` in [-pi, pi)."""
    radius = arena.radius
    walls = arena.walls
    # boundary-angle interval [g0, g0 + glen] within sensing range
    max_range = cam.max_range
    if r < radius * 1e-12:
        if radius > max_range:
            return 0.0
        glen = TWO_PI
    else:
        c = (radius * radius + r * r - max_range * max_range) / (2.0 * radius * r)
        if c >= 1.0:
            return 0.0
        if c <= -1.0:
            glen = TWO_PI
        else:
            half = math.acos(c)
            g0 = math.atan2(y, x) - half
            glen = 2.0 * half
    all_in_range = glen >= TWO_PI - 1e-15

    fov = cam.fov
    fov_start = heading - 0.5 * fov
    covered: list[tuple[float, float]] = []
    for arc in walls:
        # the arc's in-range pieces (start, length), not merged across the
        # seam: the whole arc, or up to two pieces cut by the range interval
        s1 = arc.start_angle
        l1 = arc.extent
        if all_in_range:
            bases = (None,)  # one piece, the whole arc
        else:
            d = (g0 - s1) % TWO_PI
            bases = (d, d - TWO_PI)
        for base in bases:
            if all_in_range:
                a0 = s1
                alen = l1
            else:
                lo = base if base > 0.0 else 0.0
                hi = base + glen
                if hi > l1:
                    hi = l1
                if not hi > lo:
                    continue
                a0 = s1 + lo
                alen = hi - lo
            if alen <= _MIN_ARC:
                continue
            a1 = a0 + alen
            b0 = math.atan2(radius * math.sin(a0) - y, radius * math.cos(a0) - x)
            b1 = math.atan2(radius * math.sin(a1) - y, radius * math.cos(a1) - x)
            # map into FOV-relative coordinates [t0, t0 + blen] and clip to
            # [0, fov]; the part past 2*pi wraps round to [0, end - 2*pi]
            t0 = (b0 - fov_start) % TWO_PI
            end = t0 + (b1 - b0) % TWO_PI
            if t0 < fov and end > t0:
                covered.append((t0, end if end < fov else fov))
            end -= TWO_PI
            if end > 0.0:
                covered.append((0.0, end if end < fov else fov))
    if not covered:
        return 0.0
    if len(covered) == 1:
        # every covered interval has hi > lo, so 0.0 + (hi - lo) == hi - lo
        lo, hi = covered[0]
        return min(1.0, (hi - lo) / fov)
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
    return min(1.0, total / fov)


# ---------------------------------------------------------------------------
# bounded random walk
# ---------------------------------------------------------------------------


def walk_blocks(
    arena: Arena,
    walk: WalkParams,
    ticks: int,
    start: Pose | None = None,
    seed: int | None = None,
    block: int | None = None,
) -> Iterator[np.ndarray]:
    """The poses of a bounded random walk in consecutive blocks of at most
    ``block`` ticks, each a (rows, 3) array of x, y, heading; ``block``
    defaults to :data:`mazecells._kernels.BLOCK`, read on each call.

    Row 0 of the first block is the start pose (arena center, heading 0 by
    default); the blocks together are the rows of
    :func:`walk_trajectory`, bit for bit.  Seed defaults to ``walk.seed``.
    Every block is a view of one buffer that the next block overwrites, so
    a caller keeps only what it copies.  The arguments are checked here,
    before the first block is asked for.

    Each block draws its normals from where the previous one stopped,
    which gives the values of one whole-walk draw, and continues
    ``walk_loop`` from the previous block's last pose.
    """
    check_tick_count(ticks, "ticks")
    if block is None:
        block = _kernels.BLOCK
    if not isinstance(block, (int, np.integer)) or block < 1:
        raise ConfigurationError(f"block must be a positive integer, got {block!r}")
    step = check_walk_step(walk, arena)
    if start is None:
        start = Pose(0.0, 0.0, 0.0)
    if math.hypot(start.x, start.y) >= arena.radius:
        raise ConfigurationError("start pose must lie strictly inside the arena")
    rng = np.random.default_rng(check_seed(walk.seed if seed is None else seed))
    return _walk_blocks(rng, start, step, walk.turn_sigma, arena.radius, ticks, block)


def _walk_blocks(rng, start: Pose, step, turn_sigma, radius, ticks, block):
    rows = min(block, ticks)
    # row 0 holds the pose a block starts from, rows 1.. the block's poses
    poses = np.empty((rows + 1, 3), dtype=np.float64)
    z = np.empty((rows, 2), dtype=np.float64)
    x, y, h = start.x, start.y, start.heading
    for lo in range(0, ticks, block):
        n = min(block, ticks - lo)
        # the first block's row 0 is the start pose itself, which takes no draw
        first = 1 if lo == 0 else 0
        zs = rng.standard_normal(out=z[: n - first])
        walk_loop(x, y, h, step, turn_sigma, radius, zs[:, 0], zs[:, 1], poses[first : n + 1])
        x, y, h = poses[n].tolist()
        yield poses[1 : n + 1]


def walk_trajectory(
    arena: Arena,
    walk: WalkParams,
    ticks: int,
    start: Pose | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Poses of a bounded random walk, shape (ticks, 3): x, y, heading.

    Row 0 is the start pose (arena center, heading 0 by default); row t the
    pose at tick t.  Seed defaults to ``walk.seed``.  The whole walk is the
    one block of :func:`walk_blocks`.
    """
    return next(walk_blocks(arena, walk, ticks, start, seed, block=ticks))
