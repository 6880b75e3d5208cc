"""Byte pins for the closed loop, the color channel and the random walk.

The SHA-256 digests in ``golden_bytes.json`` were recorded before the
per-tick loop was rewritten: every ``EpisodeLog`` array and both event
counters for the first three episode configs, and ``color_sample`` over 5,000
seeded random (arena, camera, pose) triples.  Three more episode configs
(overlapping zones over the start pose, an empty arena, noise-free
vibration) were recorded before the zone scan moved into
``run_episode``'s loop, and the reflex tests' noise-free shuttle before
the episode's two switches became one mode.  The x, y and heading
columns of ``walk_trajectory`` for the five walks of ``conftest.walk_cases``
were recorded before ``walk_loop`` stopped calling ``walk_step`` on every
tick, and those of a noisy walk before the ratemap pipeline walked in
blocks, at lengths that cross none, one and two seams of today's 16384-tick
walk blocks (``SEAM_TICKS``).  Any change to the bits of an output fails
here, not only a change beyond a tolerance.
"""

import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from conftest import walk_cases

from mazecells.arena import (
    Arena,
    CameraParams,
    Pose,
    WalkParams,
    WallArc,
    ZoneDisc,
    color_sample,
    walk_blocks,
    walk_trajectory,
)
from mazecells.config import episode_config, parse_config
from mazecells.controller import EpisodeConfig, run_episode
from mazecells.learning import CircuitParams

with open(os.path.join(os.path.dirname(__file__), "golden_bytes.json")) as fh:
    GOLDEN = json.load(fh)


def array_digest(a: np.ndarray) -> str:
    """SHA-256 over dtype, shape and the C-order bytes of an array."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def episode_digests(log) -> dict:
    out = {}
    for f in dataclasses.fields(log):
        v = getattr(log, f.name)
        out[f.name] = array_digest(v) if isinstance(v, np.ndarray) else int(v)
    return out


def _train(seed: int):
    return episode_config(parse_config(f"[run]\nseed = {seed}\ntick_count = 6000\n"), "train")


def episode_configs() -> dict:
    train = _train(1)
    return {
        "train_default": train,
        "test_initial_weight": episode_config(
            parse_config("[run]\nseed = 2\ntick_count = 6000\n\n[circuit]\ninitial_w_color = 0.58\n"),
            "test",
        ),
        # one arc straddles the +-pi seam; max_range < radius, so the
        # range gate is partial away from the center and empty near it
        "two_arcs_partial_range": dataclasses.replace(
            _train(5),
            arena=Arena(
                radius=train.arena.radius,
                zones=train.arena.zones,
                walls=(WallArc(2.7, -2.9, "red"), WallArc(-0.6, 0.9, "red")),
            ),
            camera=CameraParams(fov=1.9, max_range=0.8),
        ),
        # zones of unequal amplitude overlap, the first over the start
        # pose: the bits of the reading depend on the order the impulses
        # of the zones containing a point are summed in
        "overlapping_zones_at_start": dataclasses.replace(
            _train(6),
            arena=Arena(
                radius=train.arena.radius,
                zones=(
                    ZoneDisc(0.0, 0.0, 0.35, 8.0),
                    ZoneDisc(0.25, 0.1, 0.3, 5.5),
                    ZoneDisc(-0.2, 0.15, 0.3, 3.25),
                    ZoneDisc(0.9, -0.5, 0.3, 7.0),
                ),
                walls=train.arena.walls,
            ),
        ),
        "no_zones_no_walls": dataclasses.replace(_train(7), arena=Arena(radius=train.arena.radius)),
        "noise_free_vibration": dataclasses.replace(_train(8), noise_sigma=0.0),
        # the reflex tests' shuttle in train mode: one zone on the +x axis,
        # no walls, no noise; with no wall x_color is 0.0, so the Oja step
        # leaves the weight at 0.0 (recorded with learning switched off)
        "reflex_noise_free": EpisodeConfig(
            arena=Arena(radius=1.3, zones=(ZoneDisc(0.8, 0.0, 0.25, 8.0),)),
            walk=WalkParams(speed=0.2, dt=0.1, turn_sigma=0.0),
            camera=CameraParams(),
            circuit=CircuitParams(),
            tick_count=4000,
            seed=0,
            noise_sigma=0.0,
            jitter_sigma=0.0,
        ),
    }


def color_triples(n_arenas: int = 500, per_arena: int = 10, seed: int = 20261018):
    """Seeded (arena, camera, x, y, heading) triples for ``color_sample``.

    Each arena gets 0-3 arcs (some straddle the +-pi seam) and a random
    camera.  Poses mix the interior, the exact center, wall-hugging
    points inside the clearance band (which ``color_sample`` clamps) and
    headings outside [-pi, pi).
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_arenas):
        radius = float(rng.uniform(0.5, 2.5))
        n_arcs = int(rng.integers(0, 4))
        walls = tuple(
            WallArc(s, s + e, "red")
            for s, e in zip(rng.uniform(-math.pi, math.pi, n_arcs), rng.uniform(0.05, 6.2, n_arcs))
        )
        arena = Arena(radius=radius, walls=walls)
        cam = CameraParams(
            fov=float(rng.uniform(0.1, 2 * math.pi - 0.1)),
            max_range=float(rng.uniform(0.1 * radius, 2.5 * radius)),
        )
        for _ in range(per_arena):
            kind = int(rng.integers(0, 10))
            a = float(rng.uniform(-math.pi, math.pi))
            if kind == 0:
                r = 0.0
            elif kind <= 2:
                r = radius * (1.0 - 1e-3 * float(rng.uniform(0.0, 1.0)))
            else:
                r = radius * math.sqrt(float(rng.uniform(0.0, 0.999)))
            if kind == 9:
                heading = float(rng.uniform(-20.0, 20.0))
            else:
                heading = float(rng.uniform(-math.pi, math.pi))
            yield arena, cam, r * math.cos(a), r * math.sin(a), heading


@pytest.mark.parametrize("name", sorted(GOLDEN["episodes"]))
def test_episode_log_bytes(name):
    got = episode_digests(run_episode(episode_configs()[name]))
    assert got == GOLDEN["episodes"][name]


def test_color_sample_bytes():
    vals = np.array(
        [color_sample(x, y, h, arena, cam) for arena, cam, x, y, h in color_triples()],
        dtype=np.float64,
    )
    assert vals.shape == (5000,)
    assert array_digest(vals) == GOLDEN["color_sample"]


def walk_digests(poses: np.ndarray) -> dict:
    return {name: array_digest(poses[:, i]) for i, name in enumerate(("x", "y", "heading"))}


@pytest.mark.parametrize("name", sorted(walk_cases()))
def test_walk_trajectory_bytes(name):
    assert walk_digests(walk_trajectory(*walk_cases()[name])) == GOLDEN["walks"][name]


# Walk lengths on both sides of one and two seams of today's 16384-tick
# walk blocks; golden_bytes.json keys their digests by these counts, so
# they stay fixed if the block size moves.
SEAM_TICKS = (1, 16383, 16384, 16385, 32769)


def seam_walk(ticks: int) -> tuple:
    """A noisy walk from off the center, as ``walk_trajectory``'s (arena,
    walk, ticks, start): it wraps its heading and leaves the disk often."""
    return Arena(), WalkParams(turn_sigma=3.0, seed=12), ticks, Pose(0.3, -0.2, 1.0)


@pytest.mark.parametrize("ticks", SEAM_TICKS)
def test_walk_bytes_around_block_seams(ticks):
    # every block is a view of one buffer, so each is copied before the next
    blocks = np.concatenate([b.copy() for b in walk_blocks(*seam_walk(ticks))])
    assert walk_digests(blocks) == GOLDEN["seam_walks"][str(ticks)]
    assert walk_digests(walk_trajectory(*seam_walk(ticks))) == GOLDEN["seam_walks"][str(ticks)]
