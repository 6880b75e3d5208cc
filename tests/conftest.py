import math

import numpy as np
import pytest

from mazecells.arena import Arena, Pose, WallArc, WalkParams, ZoneDisc
from mazecells.spatialcells import FiringParams, GridCellParams


@pytest.fixture
def unit_grid():
    """Axis-aligned unit-spacing lattice, zero phases."""
    return GridCellParams(spacing=1.0, orientation=0.0, phase1=0.0, phase2=0.0)


@pytest.fixture
def demo_grid():
    return GridCellParams(spacing=1.0, orientation=math.pi / 4.0, phase1=0.5, phase2=0.0)


@pytest.fixture
def firing():
    return FiringParams(kappa=5.0, zeta=0.3)


@pytest.fixture
def paired_cue_arena():
    """The default training layout: red sector plus three bumper zones."""
    return Arena(
        radius=1.3,
        zones=(
            ZoneDisc(1.04, 0.44, 0.2, 8.0),
            ZoneDisc(1.04, -0.44, 0.2, 8.0),
            ZoneDisc(1.13, 0.0, 0.2, 8.0),
        ),
        walls=(WallArc(-math.pi / 3.0, math.pi / 3.0, "red"),),
    )


def random_grid(rng) -> GridCellParams:
    return GridCellParams(
        spacing=float(rng.uniform(0.3, 1.5)),
        orientation=float(rng.uniform(0.0, math.pi / 3.0)),
        phase1=float(rng.uniform(0.0, 2.0 * math.pi)),
        phase2=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def walk_cases() -> dict:
    """Seeded walks, as ``walk_trajectory``'s (arena, walk, ticks, start),
    that between them reach every branch of the walk step.

    ``default`` exits the disk on 182 of its 20k ticks; ``turn_sigma_3``
    wraps the heading on 38% of its ticks and falls back on 46 of its 145
    exits; ``fallback``, a 0.09 m step in a 0.1 m disk, falls back to the
    noise-free move on about a quarter of its ticks; ``turn_sigma_0`` turns by ``0.0 * z``,
    which is -0.0 for a negative draw; ``start_near_wall`` starts 1 mm
    from the wall facing out, at the double just below pi.
    """
    return {
        "default": (Arena(), WalkParams(seed=1), 20_000, None),
        "turn_sigma_3": (Arena(), WalkParams(turn_sigma=3.0, seed=2), 20_000, None),
        "fallback": (
            Arena(radius=0.1), WalkParams(speed=0.09, dt=1.0, turn_sigma=3.0, seed=3), 5_000, None,
        ),
        "turn_sigma_0": (Arena(), WalkParams(turn_sigma=0.0, seed=4), 20_000, None),
        "start_near_wall": (
            Arena(), WalkParams(seed=5), 5_000, Pose(-1.299, 0.0, math.nextafter(math.pi, 0.0)),
        ),
    }
