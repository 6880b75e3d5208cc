"""Closed-loop episode behavior: determinism, reflexes, learning hygiene."""

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import accel_at

from mazecells import controller
from mazecells.arena import (
    MAX_ANGLE,
    MAX_NOISE_SIGMA,
    MAX_ZONE_AMPLITUDE_SUM,
    Arena,
    CameraParams,
    WalkParams,
    WallArc,
    ZoneDisc,
    color_sample,
    vibration_magnitude,
)
from mazecells.config import episode_config, parse_config
from mazecells.controller import EpisodeConfig, run_episode
from mazecells.learning import CircuitParams
from mazecells.spatialcells import ConfigurationError


def make_config(arena, **kw):
    base = dict(
        arena=arena,
        walk=WalkParams(),
        camera=CameraParams(),
        circuit=CircuitParams(),
        tick_count=500,
        seed=0,
        train=True,
        initial_w_color=0.0,
        noise_sigma=0.3,
        jitter_sigma=0.3,
    )
    base.update(kw)
    return EpisodeConfig(**base)


@pytest.fixture
def quiet_arena():
    return Arena(radius=1.3)


@pytest.fixture
def reflex_arena():
    # noise-free shuttle: zone on the +x axis, no walls, all noise zero
    return Arena(radius=1.3, zones=(ZoneDisc(0.8, 0.0, 0.25, 8.0),))


@pytest.fixture
def reflex_log(reflex_arena):
    """The noise-free shuttle in train mode.  With no wall x_color is 0.0,
    so the weight stays 0.0 and only the reflex fires; the log is pinned
    as ``reflex_noise_free`` in golden_bytes.json."""
    return run_episode(
        make_config(
            reflex_arena,
            tick_count=4000,
            seed=0,
            walk=WalkParams(speed=0.2, dt=0.1, turn_sigma=0.0),
            noise_sigma=0.0,
            jitter_sigma=0.0,
        )
    )


def test_episode_bitwise_deterministic(quiet_arena):
    cfg = make_config(quiet_arena, tick_count=800, seed=14)
    a = run_episode(cfg)
    b = run_episode(cfg)
    for name in ("xs", "ys", "headings", "vibration", "x_color", "w_color"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.bumper_contacts == b.bumper_contacts
    assert a.avoidance_events == b.avoidance_events


def test_episode_length_and_first_row(quiet_arena):
    log = run_episode(make_config(quiet_arena, tick_count=64, start_heading=0.25))
    assert len(log) == 64
    assert log.xs[0] == 0.0 and log.ys[0] == 0.0
    assert abs(log.headings[0] - 0.25) < 1e-12


def test_no_stimuli_keeps_weight_at_zero(quiet_arena):
    log = run_episode(make_config(quiet_arena, tick_count=400, seed=3))
    assert np.all(log.w_color == 0.0)
    assert log.avoidance_events == 0
    assert log.bumper_contacts == 0
    assert np.all(log.y_out == 0)


def test_learning_disabled_freezes_weight(quiet_arena):
    """Test mode does not learn."""
    arena = Arena(
        radius=1.3,
        zones=(ZoneDisc(0.8, 0.0, 0.25, 8.0),),
        walls=(WallArc(-0.8, 0.8, "red"),),
    )
    log = run_episode(
        make_config(arena, tick_count=600, seed=5, train=False, initial_w_color=0.7)
    )
    assert np.all(log.w_color == 0.7)


def test_vibration_disabled_forces_exact_zero(quiet_arena):
    """Test mode does not sense the accelerometer."""
    arena = Arena(radius=1.3, zones=(ZoneDisc(0.3, 0.0, 0.4, 8.0),))
    log = run_episode(
        make_config(arena, tick_count=300, seed=2, train=False, noise_sigma=0.3)
    )
    assert np.all(log.vibration == 0.0)


def test_reflex_every_vibration_spike_fires_output(reflex_log):
    log = reflex_log
    spikes = log.vibration >= 5.0
    assert spikes.any()
    assert np.all(log.y_out[spikes] == 1)


def test_reflex_never_more_than_two_consecutive_zone_ticks(reflex_arena, reflex_log):
    log = reflex_log
    inside = np.array(
        [reflex_arena.zone_index_at(x, y) >= 0 for x, y in zip(log.xs, log.ys)]
    )
    assert inside.sum() == log.bumper_contacts
    run = best = 0
    for v in inside:
        run = run + 1 if v else 0
        best = max(best, run)
    assert 0 < best <= 2


def test_avoidance_event_counts_rising_edges(reflex_log):
    log = reflex_log
    y = log.y_out.astype(int)
    edges = int(y[0] == 1) + int(((y[1:] == 1) & (y[:-1] == 0)).sum())
    assert log.avoidance_events == edges > 0


def test_turn_tick_keeps_position(reflex_log):
    log = reflex_log
    y = log.y_out.astype(int)
    rising = np.where((y[1:] == 1) & (y[:-1] == 0))[0] + 1
    for t in rising:
        if t + 1 < len(log):
            assert log.xs[t + 1] == log.xs[t]
            assert log.ys[t + 1] == log.ys[t]
            # and the new heading points away from the zone center
            away = math.atan2(0.0 - log.ys[t], 0.8 - log.xs[t]) + math.pi
            d = (log.headings[t + 1] - away + math.pi) % (2 * math.pi) - math.pi
            assert abs(d) < 1e-9


@pytest.mark.parametrize(
    "vib_active, color_active, expected",
    [(True, True, math.pi / 2), (True, False, math.pi / 2), (False, True, 0.0), (False, False, 0.25)],
)
def test_trigger_bearing_takes_the_zone_when_a_wall_is_as_near(vib_active, color_active, expected):
    # From the origin, a zone centered at (0, 1.3) and the midpoint (1.3, 0)
    # of the wall arc (-0.5, 0.5) on a 1.3 m boundary are equally near.
    # Zones are scanned first and a wall wins only when strictly nearer;
    # with no active cue the escape turns around from the heading.
    mid = WallArc(-0.5, 0.5).mid_angle
    zones = ((0.0, 1.3, 0.25**2, 8.0),)
    wall_mids = ((1.3 * math.cos(mid), 1.3 * math.sin(mid)),)
    assert wall_mids == ((1.3, 0.0),)
    bearing = controller._trigger_bearing(0.0, 0.0, 0.25, zones, wall_mids, vib_active, color_active)
    assert bearing == expected


def test_weight_trace_never_drops_more_than_eta(paired_cue_arena):
    cfg = make_config(paired_cue_arena, tick_count=6000, seed=21)
    log = run_episode(cfg)
    drops = np.diff(log.w_color)
    assert drops.min() >= -cfg.circuit.eta - 1e-12
    assert log.w_color[-1] > 0.0


def test_transfer_round_trip(paired_cue_arena):
    train = run_episode(make_config(paired_cue_arena, tick_count=10000, seed=100))
    w = float(train.w_color[-1])
    assert w >= 0.3
    test = run_episode(
        make_config(
            paired_cue_arena,
            tick_count=10000,
            seed=200,
            train=False,
            initial_w_color=w,
        )
    )
    assert test.bumper_contacts == 0
    assert test.avoidance_events > 0
    assert np.all(test.w_color == w)


def test_config_validation(quiet_arena):
    with pytest.raises(ConfigurationError):
        make_config(quiet_arena, tick_count=0)
    with pytest.raises(ConfigurationError, match="tick_count"):
        make_config(quiet_arena, tick_count=10**12)
    with pytest.raises(ConfigurationError):
        make_config(quiet_arena, seed=0.5)
    with pytest.raises(ConfigurationError, match="non-negative"):
        make_config(quiet_arena, seed=-1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="non-negative"):
            make_config(quiet_arena, seed=bad)
    with pytest.raises(ConfigurationError):
        make_config(quiet_arena, jitter_sigma=-1.0)
    with pytest.raises(ConfigurationError):
        make_config(Arena(radius=0.01))
    for key in ("initial_w_color", "noise_sigma", "jitter_sigma", "start_heading"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match=key):
                make_config(quiet_arena, **{key: bad})


def test_start_heading_magnitude_bound(quiet_arena):
    for bad in (math.nextafter(MAX_ANGLE, math.inf), -1e17, 1e300):
        with pytest.raises(ConfigurationError, match=r"^start_heading must be at most 1e\+06 rad"):
            make_config(quiet_arena, start_heading=bad)
    make_config(quiet_arena, start_heading=-MAX_ANGLE)


def test_noise_sigma_bound_keeps_readings_finite(quiet_arena):
    # the bound is checked when the config is built; no episode runs here
    with pytest.raises(ConfigurationError, match="noise_sigma must be at most 1e\\+150"):
        make_config(quiet_arena, noise_sigma=math.nextafter(MAX_NOISE_SIGMA, math.inf))
    make_config(quiet_arena, noise_sigma=MAX_NOISE_SIGMA)
    # the derivation: standard normal draws stay below 14 in magnitude, and
    # at that draw on every axis, inside three overlapping zones, the
    # reading and its vibration magnitude are finite
    assert np.abs(np.random.default_rng(3).standard_normal(1_000_000)).max() < 14.0
    zones = tuple(ZoneDisc(0.0, 0.0, 0.5, 1e150) for _ in range(3))
    arena = Arena(radius=1.3, zones=zones)
    for z in (14.0, -14.0):
        ax, ay, az, in_zone = accel_at(0.0, 0.0, arena, MAX_NOISE_SIGMA, z, z, z, math.pi / 4)
        assert in_zone
        assert math.isfinite(vibration_magnitude((ax, ay, az)))


def test_zone_amplitude_sum_bound_keeps_readings_finite():
    # the bound is checked when the arena is built; no episode runs here
    def arena(*amplitudes):
        return Arena(radius=1.3, zones=tuple(ZoneDisc(0.0, 0.0, 0.5, a) for a in amplitudes))

    with pytest.raises(ConfigurationError, match="zone amplitudes must sum to at most 1e\\+153"):
        arena(math.nextafter(MAX_ZONE_AMPLITUDE_SUM, math.inf))
    # each zone is under the bound, their sum is not
    half = MAX_ZONE_AMPLITUDE_SUM / 2
    with pytest.raises(ConfigurationError, match="zone amplitudes"):
        arena(half, half, half)
    # at the bound, inside every zone, with the largest noise and draws on
    # every axis, the reading and its vibration magnitude are finite
    widest = arena(half, half)
    for z in (14.0, -14.0):
        for u in (0.0, math.pi / 4, -3 * math.pi / 4):
            ax, ay, az, in_zone = accel_at(0.0, 0.0, widest, MAX_NOISE_SIGMA, z, z, z, u)
            assert in_zone
            assert math.isfinite(vibration_magnitude((ax, ay, az)))


@given(
    # (center distance, center bearing, radius, amplitude)
    zones=st.lists(
        st.tuples(
            st.floats(0.0, 0.9), st.floats(-math.pi, math.pi), st.floats(0.05, 0.8), st.floats(0.0, 20.0)
        ),
        max_size=4,
    ),
    # (start angle, extent)
    arcs=st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(0.05, 6.2)), max_size=3),
    fov=st.floats(0.1, 2 * math.pi - 0.1),
    max_range=st.floats(0.2, 3.0),
    noise_sigma=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    train=st.booleans(),
    seed=st.integers(0, 2**32),
    ticks=st.integers(1, 300),
)
@settings(max_examples=60, deadline=None)
def test_logged_sensor_columns_replay_through_reference_sensors(
    zones, arcs, fov, max_range, noise_sigma, train, seed, ticks
):
    """Regenerate the documented draw layout and replay every logged pose
    through the reference sensors: the accelerometer oracle plus
    vibration_magnitude, and color_sample.  The vibration and x_color
    columns must match bit for bit, and the in-zone ticks must number
    bumper_contacts.  Zones may overlap and may cover the start pose."""
    arena = Arena(
        radius=1.3,
        zones=tuple(ZoneDisc(r * math.cos(a), r * math.sin(a), zr, amp) for r, a, zr, amp in zones),
        walls=tuple(WallArc(s, s + e, "red") for s, e in arcs),
    )
    cfg = make_config(
        arena,
        camera=CameraParams(fov=fov, max_range=max_range),
        tick_count=ticks,
        seed=seed,
        train=train,
        initial_w_color=0.6,
        noise_sigma=noise_sigma,
    )
    log = run_episode(cfg)
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((ticks, 6)).tolist()
    u_dir = rng.uniform(-math.pi, math.pi, ticks).tolist()
    vib = np.empty(ticks)
    xc = np.empty(ticks)
    contacts = 0
    for t, (x, y, h) in enumerate(zip(log.xs.tolist(), log.ys.tolist(), log.headings.tolist())):
        _, _, g_ax, g_ay, g_az, _ = gauss[t]
        ax, ay, az, in_zone = accel_at(x, y, arena, noise_sigma, g_ax, g_ay, g_az, u_dir[t])
        vib[t] = vibration_magnitude((ax, ay, az)) if train else 0.0
        xc[t] = color_sample(x, y, h, arena, cfg.camera)
        contacts += in_zone
    assert vib.tobytes() == log.vibration.tobytes()
    assert xc.tobytes() == log.x_color.tobytes()
    assert contacts == log.bumper_contacts


@pytest.mark.parametrize("train", [True, False])
def test_per_tick_callees_run_once_per_tick(monkeypatch, paired_cue_arena, train):
    """perfbench's tracer counts these calls by rebinding the controller's
    module globals; inlining one would zero its per-layer metrics.  Test
    mode starts from a learned weight, so that the color pathway fires."""
    counts = collections.Counter()

    def counting(name):
        fn = getattr(controller, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name in ("color_sample", "motion_output", "oja_update"):
        monkeypatch.setattr(controller, name, counting(name))
    ticks = 700
    cfg = make_config(
        paired_cue_arena, tick_count=ticks, seed=9, train=train, initial_w_color=0.0 if train else 0.6
    )
    log = run_episode(cfg)
    assert log.avoidance_events > 0
    assert counts["color_sample"] == ticks
    assert counts["motion_output"] == ticks
    assert counts["oja_update"] == (ticks if train else 0)


def test_default_train_episode_golden():
    """Pins the closed loop on the default arena.  The escape turn must
    read the color weight from before the tick's Oja update; reading the
    updated weight changes the avoidance count."""
    rc = parse_config("[run]\nseed = 1\ntick_count = 10000\n")
    log = run_episode(episode_config(rc, "train"))
    assert log.avoidance_events == 42
    assert log.bumper_contacts == 15
    assert log.w_color[-1] == pytest.approx(0.5732227877446676, rel=1e-12)
