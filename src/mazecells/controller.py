"""Closed-loop episode controller.

An episode runs in one of the paper's two phases.  In train mode the
vibration reflex co-occurs with the color cue and the color synapse
learns; in test mode the accelerometer is not sensed and the weight is
fixed, so the learned color pathway alone can drive avoidance.

Each tick the agent senses at its current pose, evaluates the motion
circuit, learns (in train mode), then acts: a rising edge of the motion
output triggers a turn-in-place away from the nearest active cue, the
following tick steps straight along the escape heading, and any other
tick takes a bounded random-walk step.  The accelerometer's rest
readings come from one numpy pass before the loop; the bumper contact
and the in-zone readings from one scan per tick, in both modes, over a
tuple of plain-float zones, skipped outside the zones' bounding box; the
escape's cues are that tuple and one of wall-arc midpoints (see
:func:`run_episode`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import BLOCK, wrap_angle, walk_step
from .arena import (
    GRAVITY,
    Arena,
    CameraParams,
    WalkParams,
    check_angle,
    check_heading_sigma,
    check_noise_sigma,
    check_walk_step,
    color_sample,
)
from .learning import CircuitParams, motion_output, oja_update
from .spatialcells import check_finite, check_seed, check_tick_count

# Not called here: perfbench's tracer patches these two names on this module.
from .spatialcells import place_activity_at, rates_at


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything one seeded episode depends on.

    ``train`` selects the phase.  True (train): the accelerometer is
    sensed and the color weight follows Oja's rule every tick.  False
    (test): the vibration reading is exactly 0.0, so only the color
    pathway can fire, and the weight stays ``initial_w_color``.  The
    bumper contact is counted in both.
    """

    arena: Arena
    walk: WalkParams
    camera: CameraParams
    circuit: CircuitParams
    tick_count: int
    seed: int
    train: bool = True
    initial_w_color: float = 0.0
    noise_sigma: float = 0.3
    jitter_sigma: float = 0.3
    start_heading: float = 0.0

    def __post_init__(self):
        check_tick_count(self.tick_count)
        check_seed(self.seed)
        check_finite(self.initial_w_color, "initial_w_color")
        check_noise_sigma(self.noise_sigma)
        check_heading_sigma(self.jitter_sigma, "jitter_sigma")
        check_angle(self.start_heading, "start_heading")
        check_walk_step(self.walk, self.arena)


@dataclass
class EpisodeLog:
    """Per-tick record arrays of one episode plus event counters; row t
    of each array is tick t."""

    xs: np.ndarray
    ys: np.ndarray
    headings: np.ndarray
    vibration: np.ndarray
    x_color: np.ndarray
    y_out: np.ndarray
    w_color: np.ndarray
    bumper_contacts: int
    avoidance_events: int

    @property
    def positions(self) -> np.ndarray:
        return np.column_stack([self.xs, self.ys])

    def __len__(self) -> int:
        return int(self.xs.shape[0])


def _trigger_bearing(x, y, heading, zones, wall_mids, vib_active: bool, color_active: bool) -> float:
    """Bearing toward the nearest active cue: a zone center for the
    vibration pathway, a wall-arc midpoint for the color pathway, a wall
    winning only when strictly nearer.  Falls back to the current heading
    (pure turnaround) if no cue exists."""
    best = None
    best_d2 = math.inf
    if vib_active:
        for cx, cy, _, _ in zones:
            d2 = (cx - x) ** 2 + (cy - y) ** 2
            if d2 < best_d2:
                best_d2 = d2
                best = (cx, cy)
    if color_active:
        for px, py in wall_mids:
            d2 = (px - x) ** 2 + (py - y) ** 2
            if d2 < best_d2:
                best_d2 = d2
                best = (px, py)
    if best is None:
        return heading
    return math.atan2(best[1] - y, best[0] - x)


# A zone's box half-width is its radius r widened by this factor.  Take a
# point beyond the box edge fl(cx + w), w = fl(r * _BOX_WIDEN): as a float
# above the rounded sum, x exceeds cx + w exactly, so dx = fl(x - cx) >= w
# (rounding is monotone and w is a float) and fl(dx * dx) >= fl(w * w);
# adding dy * dy >= 0 cannot lower the sum.  So dx*dx + dy*dy <= r**2
# fails wherever fl(w * w) > fl(r * r), and likewise beyond the other three
# edges.  _zone_box checks that inequality; while r * r is a normal float
# it holds: fl(w * w) >= r**2 (1 + 2**-20)**2 (1 - 2**-53)**3 >
# r**2 (1 + 2**-53) >= fl(r * r).  Where r * r underflows or overflows the
# check can fail, and that zone's box is then unbounded.
_BOX_WIDEN = 1.0 + 2.0**-20


def _zone_box(zones) -> tuple[float, float, float, float]:
    """``(x_lo, x_hi, y_lo, y_hi)`` of a box that holds every point any of
    the ``zones`` (``ZoneDisc``s) contains; empty for no zones."""
    x_lo = y_lo = math.inf
    x_hi = y_hi = -math.inf
    for z in zones:
        w = z.radius * _BOX_WIDEN
        if not w * w > z.radius * z.radius:
            w = math.inf
        x_lo = min(x_lo, z.center_x - w)
        x_hi = max(x_hi, z.center_x + w)
        y_lo = min(y_lo, z.center_y - w)
        y_hi = max(y_hi, z.center_y + w)
    return x_lo, x_hi, y_lo, y_hi


def _rest_vibration(g_ax, g_ay, g_az, noise_sigma: float, out: np.ndarray) -> None:
    """Write to ``out`` the vibration magnitude of readings at rest plus
    noise: ``sqrt(ax*ax + ay*ay + dz*dz)`` with ``ax = noise_sigma * g_ax``,
    ``ay = noise_sigma * g_ay`` and ``dz = (GRAVITY + noise_sigma * g_az) -
    GRAVITY``, by numpy ufuncs in the order of operations of
    :func:`~mazecells.arena.vibration_magnitude`.  Each ufunc rounds
    correctly, as Python's float operations do, so the bits are the same.
    The ticks go BLOCK at a time through one scratch array."""
    scratch = np.empty(min(BLOCK, len(out)))
    for lo in range(0, len(out), BLOCK):
        hi = lo + BLOCK
        o = out[lo:hi]
        s = scratch[: len(o)]
        np.multiply(g_ax[lo:hi], noise_sigma, out=o)
        np.multiply(o, o, out=o)
        np.multiply(g_ay[lo:hi], noise_sigma, out=s)
        np.multiply(s, s, out=s)
        np.add(o, s, out=o)
        np.multiply(g_az[lo:hi], noise_sigma, out=s)
        np.add(s, GRAVITY, out=s)
        np.subtract(s, GRAVITY, out=s)
        np.multiply(s, s, out=s)
        np.add(o, s, out=o)
        np.sqrt(o, out=o)


def run_episode(cfg: EpisodeConfig) -> EpisodeLog:
    """Run one seeded episode and return its complete log.

    Identical configs and seeds reproduce bit-identical logs: all
    randomness is drawn up front from one PCG64 stream in a fixed layout
    (per tick: turn, wall-retry, three accelerometer axes, avoidance
    jitter as standard normals, then one uniform impulse direction), and
    every tick consumes by index whether or not a value is used.  The last
    tick moves too; nothing reads the pose after the loop.

    The loop reads the draws and writes the log columns through
    memoryviews of the numpy arrays: they hand out and take plain Python
    floats, so no per-tick value is a numpy scalar, and they copy nothing.

    In train mode a tick outside every zone reads rest plus noise, whose
    magnitude does not depend on the pose: :func:`_rest_vibration` writes
    it for every tick into the vibration column before the loop, by the
    operations of :func:`~mazecells.arena.vibration_magnitude` in the same
    order, each correctly rounded in numpy as in Python, so the bits are
    those of the scalar reading.  Test mode reads 0.0 on every tick.

    The bumper contact and the impulses come from a tuple of plain-float
    zones ``(cx, cy, r**2, amplitude)`` built once per episode, scanned
    by the operations ``ZoneDisc.contains`` performs.  A tick outside the
    zones' bounding box (:func:`_zone_box`), where that test cannot hold
    for any zone, skips the scan.  A train tick inside a zone overwrites
    its rest reading with the scalar one: the noise plus every containing
    zone's impulse, summed in zone order, then the magnitude, as before.
    An escape's cues are the zones and a tuple of wall-arc midpoints, also
    built once.  ``color_sample``, ``motion_output`` and ``oja_update``
    stay one call per tick through this module's globals, which
    perfbench's tracer rebinds to time them.
    """
    T = cfg.tick_count
    rng = np.random.default_rng(int(cfg.seed))
    gauss = rng.standard_normal((T, 6))
    u_dir = rng.uniform(-math.pi, math.pi, T)

    # Everything the loop reads that does not change from tick to tick.
    arena = cfg.arena
    cam = cfg.camera
    circuit = cfg.circuit
    step = cfg.walk.speed * cfg.walk.dt
    turn_sigma = cfg.walk.turn_sigma
    radius = arena.radius
    train = cfg.train
    noise_sigma = cfg.noise_sigma
    jitter_sigma = cfg.jitter_sigma
    eta = circuit.eta
    vibration_threshold = circuit.vibration_threshold
    color_threshold = circuit.color_activation_threshold

    xs = np.empty(T)
    ys = np.empty(T)
    headings = np.empty(T)
    vibration = np.zeros(T)
    if train:
        _rest_vibration(gauss[:, 2], gauss[:, 3], gauss[:, 4], noise_sigma, vibration)
    x_color = np.empty(T)
    y_out = np.zeros(T, dtype=np.int8)
    w_trace = np.empty(T)

    g_turn, g_retry, g_ax, g_ay, g_az, g_jitter = (memoryview(gauss[:, k]) for k in range(6))
    u = memoryview(u_dir)
    log_x, log_y, log_h = memoryview(xs), memoryview(ys), memoryview(headings)
    log_vib, log_xc = memoryview(vibration), memoryview(x_color)
    log_yt, log_w = memoryview(y_out), memoryview(w_trace)

    # the operands of ZoneDisc.contains and of the impulse, in zone order
    zones = tuple((z.center_x, z.center_y, z.radius * z.radius, z.amplitude) for z in arena.zones)
    x_lo, x_hi, y_lo, y_hi = _zone_box(arena.zones)
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    wall_mids = tuple((radius * cos(arc.mid_angle), radius * sin(arc.mid_angle)) for arc in arena.walls)

    x, y, h = 0.0, 0.0, wrap_angle(cfg.start_heading)
    w = float(cfg.initial_w_color)
    y_prev = 0
    escaping = False
    bumper = 0
    events = 0

    for t in range(T):
        # One zone scan gives both the bumper contact and, in train mode, an
        # in-zone reading: rest (0, 0, g) plus noise, and every zone
        # containing the point adds its impulse in the tick's one direction.
        in_zone = False
        if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
            ax = noise_sigma * g_ax[t]
            ay = noise_sigma * g_ay[t]
            for cx, cy, r2, amplitude in zones:
                dx = x - cx
                dy = y - cy
                if dx * dx + dy * dy <= r2:
                    in_zone = True
                    ax += amplitude * cos(u[t])
                    ay += amplitude * sin(u[t])
            if in_zone and train:
                dz = (GRAVITY + noise_sigma * g_az[t]) - GRAVITY
                log_vib[t] = sqrt(ax * ax + ay * ay + dz * dz)
        vib = log_vib[t]
        xc = color_sample(x, y, h, arena, cam)
        # The escape below reads the weight from before this tick's update.
        w_prev = w
        yt = motion_output(vib, xc, w_prev, circuit)
        rising = yt == 1 and y_prev == 0

        if in_zone:
            bumper += 1
        if rising:
            events += 1

        log_x[t] = x
        log_y[t] = y
        log_h[t] = h
        log_xc[t] = xc
        log_yt[t] = yt

        if train:
            w = oja_update(w_prev, xc, yt, eta)
        log_w[t] = w

        if rising:
            vib_active = vib >= vibration_threshold
            color_active = xc * w_prev >= color_threshold
            tb = _trigger_bearing(x, y, h, zones, wall_mids, vib_active, color_active)
            h = wrap_angle(tb + math.pi + jitter_sigma * g_jitter[t])
            escaping = True
        else:
            # The step right after a turn-in-place holds the commanded
            # heading; wobbling it would let the walk linger in the
            # zone it just turned away from.
            x, y, h = walk_step(
                x, y, h, step, 0.0 if escaping else turn_sigma, radius,
                g_turn[t], g_retry[t],
            )
            escaping = False
        y_prev = yt

    return EpisodeLog(
        xs=xs,
        ys=ys,
        headings=headings,
        vibration=vibration,
        x_color=x_color,
        y_out=y_out,
        w_color=w_trace,
        bumper_contacts=bumper,
        avoidance_events=events,
    )
