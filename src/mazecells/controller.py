"""Closed-loop episode controller.

Each tick the agent senses at its current pose, evaluates the motion
circuit, learns (in train mode), then acts: a rising edge of the motion
output triggers a turn-in-place away from the nearest active cue, the
following tick steps straight along the escape heading, and any other
tick takes a bounded random-walk step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import wrap_angle, walk_step
from .arena import (
    MAX_NOISE_SIGMA,
    Arena,
    CameraParams,
    WalkParams,
    _accel_at,
    color_sample,
    vibration_magnitude,
)
from .learning import CircuitParams, motion_output, oja_update
from .spatialcells import ConfigurationError, check_seed, check_tick_count

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
        if not math.isfinite(self.initial_w_color):
            raise ConfigurationError(f"initial_w_color must be finite, got {self.initial_w_color}")
        for name, v in (("noise_sigma", self.noise_sigma), ("jitter_sigma", self.jitter_sigma)):
            if not (v >= 0.0 and math.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite and >= 0, got {v}")
        if self.noise_sigma > MAX_NOISE_SIGMA:
            raise ConfigurationError(
                f"noise_sigma must be at most {MAX_NOISE_SIGMA:g} "
                f"(so that accelerometer readings stay finite), got {self.noise_sigma}"
            )
        if not math.isfinite(self.start_heading):
            raise ConfigurationError(f"start_heading must be finite, got {self.start_heading}")
        if self.walk.speed * self.walk.dt >= self.arena.radius:
            raise ConfigurationError("speed * dt must be smaller than the arena radius")


@dataclass
class EpisodeLog:
    """Per-tick record arrays of one episode plus event counters."""

    ticks: np.ndarray
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
        return int(self.ticks.shape[0])


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
    zone_index_at = arena.zone_index_at
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

    x, y, h = 0.0, 0.0, wrap_angle(cfg.start_heading)
    w = float(cfg.initial_w_color)
    y_prev = 0
    escaping = False
    bumper = 0
    events = 0

    for t in range(T):
        if vibration_on:
            ax, ay, az, in_zone = _accel_at(
                x, y, arena, noise_sigma,
                g_ax[t], g_ay[t], g_az[t], u[t],
            )
            vib = vibration_magnitude((ax, ay, az))
        else:
            # the magnitude of the rest reading (0, 0, g), exactly
            vib = 0.0
            in_zone = zone_index_at(x, y) >= 0
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
        ticks=np.arange(T, dtype=np.int64),
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
