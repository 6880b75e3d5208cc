"""Closed-loop episode controller.

Each tick the agent senses at its current pose, evaluates the motion
circuit, learns (in train mode), then acts: a rising edge of the motion
output triggers a turn-in-place away from the nearest active cue, the
following tick steps straight along the escape heading, and any other
tick takes a bounded random-walk step.  The accelerometer and the bumper
contact come from one scan per tick over a tuple of plain-float zones
(see :func:`run_episode`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import wrap_angle, walk_step
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
    """Everything one seeded episode depends on."""

    arena: Arena
    walk: WalkParams
    camera: CameraParams
    circuit: CircuitParams
    tick_count: int
    seed: int
    vibration_enabled: bool = True
    learning_enabled: bool = True
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


def _trigger_bearing(x, y, heading, arena: Arena, vib_active: bool, color_active: bool) -> float:
    """Bearing toward the nearest active cue: a zone center for the
    vibration pathway, a wall-arc midpoint for the color pathway.  Falls
    back to the current heading (pure turnaround) if no cue exists."""
    best = None
    best_d2 = math.inf
    if vib_active:
        for z in arena.zones:
            d2 = (z.center_x - x) ** 2 + (z.center_y - y) ** 2
            if d2 < best_d2:
                best_d2 = d2
                best = (z.center_x, z.center_y)
    if color_active:
        for arc in arena.walls:
            p = arena.wall_point(arc.mid_angle)
            d2 = (p.x - x) ** 2 + (p.y - y) ** 2
            if d2 < best_d2:
                best_d2 = d2
                best = (p.x, p.y)
    if best is None:
        return heading
    return math.atan2(best[1] - y, best[0] - x)


def run_episode(cfg: EpisodeConfig) -> EpisodeLog:
    """Run one seeded episode and return its complete log.

    Identical configs and seeds reproduce bit-identical logs: all
    randomness is drawn up front from one PCG64 stream in a fixed layout
    (per tick: turn, wall-retry, three accelerometer axes, avoidance
    jitter as standard normals, then one uniform impulse direction), and
    every tick consumes by index whether or not a value is used.

    The loop reads the draws and writes the log columns through
    memoryviews of the numpy arrays: they hand out and take plain Python
    floats, so no per-tick value is a numpy scalar, and they copy nothing.

    The accelerometer is read inline, from a tuple of plain-float zones
    ``(cx, cy, r**2, amplitude)`` built once per episode: each tick scans
    it once, by the operations ``ZoneDisc.contains``, the impulse sum in
    zone order and :func:`~mazecells.arena.vibration_magnitude` perform,
    in the same order, so the readings keep their bits.  With vibration
    off only the bumper contact is computed.  ``color_sample``,
    ``motion_output`` and ``oja_update`` stay one call per tick through
    this module's globals, which perfbench's tracer rebinds to time them.
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
    vibration_on = cfg.vibration_enabled
    learning_on = cfg.learning_enabled
    noise_sigma = cfg.noise_sigma
    jitter_sigma = cfg.jitter_sigma
    eta = circuit.eta
    vibration_threshold = circuit.vibration_threshold
    color_threshold = circuit.color_activation_threshold
    last = T - 1

    xs = np.empty(T)
    ys = np.empty(T)
    headings = np.empty(T)
    vibration = np.empty(T)
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
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    x, y, h = 0.0, 0.0, wrap_angle(cfg.start_heading)
    w = float(cfg.initial_w_color)
    y_prev = 0
    escaping = False
    bumper = 0
    events = 0

    for t in range(T):
        # One zone scan gives both the reading and the bumper contact: rest
        # (0, 0, g) plus noise, and every zone containing the point adds its
        # impulse in the tick's one direction.  With vibration off the
        # sensor reads rest, of magnitude 0.0.
        in_zone = False
        if vibration_on:
            ax = noise_sigma * g_ax[t]
            ay = noise_sigma * g_ay[t]
            az = GRAVITY + noise_sigma * g_az[t]
            for cx, cy, r2, amplitude in zones:
                dx = x - cx
                dy = y - cy
                if dx * dx + dy * dy <= r2:
                    ax += amplitude * cos(u[t])
                    ay += amplitude * sin(u[t])
                    in_zone = True
            dz = az - GRAVITY
            vib = sqrt(ax * ax + ay * ay + dz * dz)
        else:
            for cx, cy, r2, _ in zones:
                dx = x - cx
                dy = y - cy
                if dx * dx + dy * dy <= r2:
                    in_zone = True
                    break
            vib = 0.0
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
        log_vib[t] = vib
        log_xc[t] = xc
        log_yt[t] = yt

        if learning_on:
            w = oja_update(w_prev, xc, yt, eta)
        log_w[t] = w

        if t < last:
            if rising:
                vib_active = vib >= vibration_threshold
                color_active = xc * w_prev >= color_threshold
                tb = _trigger_bearing(x, y, h, arena, vib_active, color_active)
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
