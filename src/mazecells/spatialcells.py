"""Hexagonal-lattice spatial cells: firing fields, frames, and readouts.

A grid cell is parameterized by a lattice spacing, an orientation and a
pair of phases.  Its firing rate at a point depends only on the distance
to the nearest lattice node, so rate maps inherit the hexagonal symmetry
of the node set.  Place cells threshold the summed rates of a small grid
ensemble.  The one-point functions (``nearest_center``, ``firing_rate``)
run the same batch kernels as their array counterparts.  The package
ships no second, test-only decode: the exhaustive nearest-node scan that
checks the lattice decode lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import (
    TWO_PI,
    ensemble_batch,
    firing_normalized,
    firing_raw,
    nearest_batch,
    rates_batch,
)

# Lattice spacings outside this range (m) are rejected: at 1e200 m the
# basis determinant already overflows.
MIN_SPACING = 1e-6
MAX_SPACING = 1e6
# A coordinate may lie at most this many spacings from the origin.  Up to
# 2**52 the integer node indices of neighbouring nodes are exact in
# float64; beyond it the decode rounds them together, and near 1e154 the
# squared distances overflow to inf.
MAX_SPACINGS_FROM_ORIGIN = 2.0**52
# The largest anchor coordinate (m) of a place-cell ensemble.  The phases
# put a node of each lattice at the anchor through cm - floor(cm), where
# cm is the anchor's coordinate in basis units: of cm's 53 bits, only
# those below the units place are left.  Measured in exact arithmetic over
# the default ensemble, the nearest node misses the anchor by up to about
# |anchor| * 3e-16 m: 3e-10 m (3e-4 of MIN_SPACING) at the bound,
# 1.9e-4 m at 1e12 m and 0.2 m at 1e15 m.  From about 1e17 m nearly every
# phase is 0.0, whatever the anchor.
MAX_ANCHOR = 1e6
# The largest firing sharpness.  No point lies farther from its nearest
# node than a Voronoi vertex, at spacing / sqrt(3), so with zeta > 0 the
# arctan argument is below kappa / sqrt(3), and the least normalized rate,
# 0.5 - arctan(a) / pi, is about 1 / (pi * a): 5.5e-7 at the bound.  It
# rounds to exactly 0.0 once 1 / (pi * a) falls under half an ulp of 0.5
# (2**-54), from a = 5.8e15 or kappa = 1e16; a map of such zeros has no
# positive mean, and its peak-to-mean ratio is undefined.
MAX_KAPPA = 1e6
# The smallest firing sharpness.  As d goes from a node to a Voronoi
# vertex, the arctan argument kappa * (d / spacing - zeta) sweeps an
# interval of width kappa / sqrt(3), so for small kappa a map's rates span
# about kappa / (pi * sqrt(3)) around 0.5: 1.8e-7 at the bound, about
# 1.7e9 ulps of 0.5 (2**-53), and rounding moves a rate by under 1e-9 of
# that span.  Once the span falls under an ulp, from kappa = 6e-16, every
# rate can round to exactly 0.5: at kappa = 1e-300 a map was constant, its
# gridness NaN and its peak-to-mean ratio 1.0.
MIN_KAPPA = 1e-6


class ConfigurationError(ValueError):
    """Raised for invalid parameter values or mismatched inputs."""


def check_seed(seed, name: str = "seed") -> int:
    """``seed`` as an int; a non-integer (inf and nan included) or negative
    seed (which ``np.random.default_rng`` rejects) raises ConfigurationError."""
    try:
        ok = int(seed) == seed and seed >= 0
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {seed}")
    return int(seed)


def check_finite(v: float, name: str) -> None:
    """Raise ConfigurationError if ``v`` is NaN or infinite."""
    if not math.isfinite(v):
        raise ConfigurationError(f"{name} must be finite, got {v}")


def check_spacing(v: float, name: str) -> None:
    """Raise ConfigurationError unless the lattice spacing ``v`` lies in [MIN_SPACING, MAX_SPACING]."""
    if not MIN_SPACING <= v <= MAX_SPACING:
        raise ConfigurationError(f"{name} must lie in [{MIN_SPACING:g}, {MAX_SPACING:g}] m, got {v}")


# Peak memory of a run grows by about 128 B per tick at most, and only an
# episode still holds per-tick arrays: 7 float64 random draws (56 B)
# beside its 6 float64 log columns and the int8 motion output (49 B).
# trajectory.csv is formatted and written artifacts.ROWS_PER_PIECE rows at
# a time, so its text adds no per-tick memory.  tracemalloc peaks at 105 B
# per tick for `episode` at 400k and at 1M ticks.  `ratemap` and each
# `sweep` point walk, decode and bin _kernels.BLOCK ticks at a time, so
# their peak does not grow with the tick count: 1.78 MiB at 50k and at
# 400k ticks, 2.26 MiB with a place threshold_fraction of 0.4.  The bound caps
# an episode near 2**26 ticks * 128 B = 8 GiB.
MAX_TICK_COUNT = 2**26


def check_tick_count(ticks, name: str = "tick_count") -> int:
    """``ticks`` as an int in [1, MAX_TICK_COUNT]; anything else raises
    ConfigurationError before any per-tick array is allocated.  The message
    for a run's or an episode's ``tick_count`` names the episode's memory
    per tick, which sets the bound; a walk (``ticks``) holds one block of
    poses whatever its length."""
    if not isinstance(ticks, (int, np.integer)) or not 0 < ticks <= MAX_TICK_COUNT:
        why = " (an episode needs about 128 B of memory per tick)" if name == "tick_count" else ""
        raise ConfigurationError(f"{name} must be an integer in [1, {MAX_TICK_COUNT}]{why}, got {ticks}")
    return int(ticks)


@dataclass(frozen=True)
class Position2:
    """A point in the arena plane, meters."""

    x: float
    y: float


def _as_xy(pos) -> tuple[float, float]:
    if isinstance(pos, Position2):
        return pos.x, pos.y
    return float(pos[0]), float(pos[1])


@dataclass(frozen=True)
class GridCellParams:
    """Lattice parameters: spacing (m), orientation (rad), two phases (rad).

    The orientation lives in [0, pi/3] (the lattice has six-fold symmetry)
    and each phase in [0, 2*pi].
    """

    spacing: float
    orientation: float
    phase1: float
    phase2: float
    # The kernels' lattice arguments (b1x, b1y, b2x, b2y, offx, offy),
    # computed once from the fields above rather than on every decode call;
    # kept out of repr (and so out of config_hash) and out of comparisons.
    lattice_args: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_spacing(self.spacing, "spacing")
        if not (0.0 <= self.orientation <= math.pi / 3.0):
            raise ConfigurationError(
                f"orientation must lie in [0, pi/3], got {self.orientation}"
            )
        for name, v in (("phase1", self.phase1), ("phase2", self.phase2)):
            if not (0.0 <= v <= TWO_PI):
                raise ConfigurationError(f"{name} must lie in [0, 2*pi], got {v}")
        b = lattice_basis(self)
        off = phase_offset(self)
        object.__setattr__(self, "lattice_args", (b[0, 0], b[1, 0], b[0, 1], b[1, 1], off.x, off.y))


@dataclass(frozen=True)
class FiringParams:
    """Sharpness (kappa) and field-size (zeta) parameters of the rate profile."""

    kappa: float = 5.0
    zeta: float = 0.3

    def __post_init__(self):
        if not MIN_KAPPA <= self.kappa <= MAX_KAPPA:
            raise ConfigurationError(f"kappa must lie in [{MIN_KAPPA:g}, {MAX_KAPPA:g}], got {self.kappa}")
        if not (0.0 < self.zeta < 1.0):
            raise ConfigurationError(f"zeta must lie in (0, 1), got {self.zeta}")


@dataclass(frozen=True)
class FrameTransform:
    """Planar rotation angle phi in [-pi, pi) plus a translation."""

    phi: float
    tx: float
    ty: float

    def __post_init__(self):
        if not (-math.pi <= self.phi < math.pi):
            raise ConfigurationError(f"phi must lie in [-pi, pi), got {self.phi}")
        if not (math.isfinite(self.tx) and math.isfinite(self.ty)):
            raise ConfigurationError("translation must be finite")


@dataclass(frozen=True)
class PlaceCellParams:
    """A place cell: thresholded sum over an ensemble of grid cells."""

    inputs: tuple[GridCellParams, ...]
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) == 0:
            raise ConfigurationError("place cell needs at least one grid input")
        if not (0.0 < self.threshold <= len(self.inputs)):
            raise ConfigurationError(
                f"threshold must lie in (0, {len(self.inputs)}], got {self.threshold}"
            )


# ---------------------------------------------------------------------------
# lattice geometry
# ---------------------------------------------------------------------------


def lattice_basis(g: GridCellParams) -> np.ndarray:
    """Basis vectors of the firing lattice as columns of a 2x2 matrix.

    b1 = spacing * (cos t, sin t), b2 = spacing * (cos(t + pi/3),
    sin(t + pi/3)) with t the cell orientation; the two span 60 degrees.
    """
    t = g.orientation
    u = g.orientation + math.pi / 3.0
    return np.array(
        [
            [g.spacing * math.cos(t), g.spacing * math.cos(u)],
            [g.spacing * math.sin(t), g.spacing * math.sin(u)],
        ],
        dtype=np.float64,
    )


def phase_offset(g: GridCellParams) -> Position2:
    """Translation of the lattice: (phase / 2*pi) in units of each basis vector."""
    b = lattice_basis(g)
    f1 = g.phase1 / TWO_PI
    f2 = g.phase2 / TWO_PI
    return Position2(
        f1 * b[0, 0] + f2 * b[0, 1],
        f1 * b[1, 0] + f2 * b[1, 1],
    )


def nearest_center(pos, g: GridCellParams) -> tuple[Position2, float]:
    """Nearest lattice node to ``pos`` and the distance to it.

    Runs the batch decode :func:`~mazecells._kernels.nearest_batch` on a
    one-point array.  Exact ties are broken toward the lexicographically
    smallest integer node index (m, n).
    """
    px, py, d = _xy_columns([_as_xy(pos)], (g.spacing,))
    cx = np.empty(1)
    cy = np.empty(1)
    mi = np.empty(1, dtype=np.int64)
    ni = np.empty(1, dtype=np.int64)
    nearest_batch(px, py, *g.lattice_args, cx, cy, d, mi, ni)
    return Position2(float(cx[0]), float(cy[0])), float(d[0])


# ---------------------------------------------------------------------------
# firing model
# ---------------------------------------------------------------------------


def raw_firing(distance: float, g: GridCellParams, fp: FiringParams) -> float:
    """Raw firing value arctan(kappa * (d / spacing - zeta)); negative near nodes."""
    if distance < 0.0:
        raise ConfigurationError(f"distance must be >= 0, got {distance}")
    return float(firing_raw(distance, g.spacing, fp.kappa, fp.zeta))


def normalized_rate(raw: float) -> float:
    """Map a raw firing value to (0, 1), increasing toward lattice nodes."""
    return float(firing_normalized(raw))


def firing_rate(pos, g: GridCellParams, fp: FiringParams) -> float:
    """Normalized firing rate at a position: peak at nodes, floor far away."""
    return float(rates_at(np.array([_as_xy(pos)]), g, fp)[0])


def _xy_columns(positions, spacings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strided x and y column views of an (N, 2) position array, and a
    scratch array of N floats.

    Raises ConfigurationError for any other shape, and for the first of
    ``spacings`` whose bound of MAX_SPACINGS_FROM_ORIGIN spacings some
    coordinate exceeds.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ConfigurationError("positions must have shape (N, 2)")
    px = positions[:, 0]
    py = positions[:, 1]
    scratch = np.empty(px.shape[0], dtype=np.float64)
    if px.shape[0]:
        # The largest |coordinate| per column, through a contiguous
        # scratch: a max of a contiguous array is 4-6x faster than a min
        # or max of a strided column.  A NaN propagates through max and
        # fails the comparison, so it is rejected with the out-of-range
        # points.
        ax = np.abs(px, out=scratch).max()
        ay = np.abs(py, out=scratch).max()
        for spacing in spacings:
            bound = MAX_SPACINGS_FROM_ORIGIN * spacing
            if not (ax <= bound and ay <= bound):
                raise ConfigurationError(
                    f"positions must be finite and within {bound:g} m (2**52 spacings) "
                    "of the origin"
                )
    return px, py, scratch


def rates_at(positions: np.ndarray, g: GridCellParams, fp: FiringParams) -> np.ndarray:
    """Normalized firing rates for an (N, 2) array of positions."""
    px, py, out = _xy_columns(positions, (g.spacing,))
    rates_batch(px, py, *g.lattice_args, g.spacing, fp.kappa, fp.zeta, out)
    return out


# ---------------------------------------------------------------------------
# frame transforms
# ---------------------------------------------------------------------------


def change_frame(pos, t: FrameTransform) -> Position2:
    """Express a point in a rotated/translated frame: rot(phi)^T * pos + t."""
    px, py = _as_xy(pos)
    c = math.cos(t.phi)
    s = math.sin(t.phi)
    return Position2(c * px + s * py + t.tx, -s * px + c * py + t.ty)


def change_frame_inverse(pos, t: FrameTransform) -> Position2:
    """Inverse of change_frame: rot(phi) * (pos - t)."""
    px, py = _as_xy(pos)
    qx = px - t.tx
    qy = py - t.ty
    c = math.cos(t.phi)
    s = math.sin(t.phi)
    return Position2(c * qx - s * qy, s * qx + c * qy)


# ---------------------------------------------------------------------------
# place cells
# ---------------------------------------------------------------------------


def place_activity_at(positions: np.ndarray, pc: PlaceCellParams, fp: FiringParams) -> np.ndarray:
    """Binary place-cell outputs for an (N, 2) array of positions.

    A point fires where the normalized rates of ``pc.inputs``, added left
    to right from 0.0, reach ``pc.threshold``.  Every point is checked
    against every input's position bound first; then an exact cascade
    (:func:`mazecells._kernels.ensemble_batch`) evaluates each input only
    on the points that can still fire.  It rests on one premise: no
    input's computed rate exceeds its rate at distance 0 by more than
    ``_kernels.RATE_CAP_SLACK``.  The outputs are the same bits as the
    plain sum's.
    """
    px, py, total = _xy_columns(positions, [g.spacing for g in pc.inputs])
    cells = [g.lattice_args + (g.spacing, fp.kappa, fp.zeta) for g in pc.inputs]
    out = np.empty(px.shape[0], dtype=np.int8)
    ensemble_batch(px, py, cells, pc.threshold, total, out)
    return out


def anchored_ensemble(spacings, anchor=(0.0, 0.0)) -> tuple[GridCellParams, ...]:
    """Grid cells whose lattices all share a node at ``anchor``.

    Orientations spread evenly over [0, pi/3).  Phases are solved so that
    the anchor is a lattice node of every cell, which makes the
    thresholded ensemble sum a compact bump around the anchor.  Each
    anchor coordinate may be at most MAX_ANCHOR in magnitude.
    """
    spacings = [float(s) for s in spacings]
    ax, ay = _as_xy(anchor)
    if not (abs(ax) <= MAX_ANCHOR and abs(ay) <= MAX_ANCHOR):
        if not (math.isfinite(ax) and math.isfinite(ay)):
            raise ConfigurationError(f"anchor must be finite, got ({ax}, {ay})")
        raise ConfigurationError(
            f"anchor must lie within {MAX_ANCHOR:g} m of the origin in x and y, got ({ax}, {ay})"
        )
    n = len(spacings)
    cells = []
    for i, s in enumerate(spacings):
        orient = (i * math.pi / 3.0) / n
        base = GridCellParams(s, orient, 0.0, 0.0)
        b = lattice_basis(base)
        det = b[0, 0] * b[1, 1] - b[1, 0] * b[0, 1]
        cm = (b[1, 1] * ax - b[0, 1] * ay) / det
        cn = (-b[1, 0] * ax + b[0, 0] * ay) / det
        p1 = TWO_PI * (cm - math.floor(cm))
        p2 = TWO_PI * (cn - math.floor(cn))
        cells.append(GridCellParams(s, orient, p1, p2))
    return tuple(cells)
