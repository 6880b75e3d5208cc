"""Hexagonal-lattice spatial cells: firing fields, frames, and readouts.

A grid cell is parameterized by a lattice spacing, an orientation and a
pair of phases.  Its firing rate at a point depends only on the distance
to the nearest lattice node, so rate maps inherit the hexagonal symmetry
of the node set.  Place cells threshold the summed rates of a small grid
ensemble; landmark cells score the match between current and remembered
boundary observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import brute_force, nearest_node, rates_batch, wrap_angle

TWO_PI = 2.0 * math.pi


class ConfigurationError(ValueError):
    """Raised for invalid parameter values or mismatched inputs."""


def check_seed(seed, name: str = "seed") -> int:
    """``seed`` as an int; a non-integer or negative seed (which
    ``np.random.default_rng`` rejects) raises ConfigurationError."""
    if int(seed) != seed or seed < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {seed}")
    return int(seed)


# Peak memory of a run grows by about 512 B per tick at most.  An episode,
# the largest, holds per tick 7 float64 random draws (56 B); 9 float64 log
# columns, the int8 motion output and the int64 tick index (81 B); the
# positions, grid rates and place flags (~60 B); and, while it writes
# trajectory.csv, the row (~113 B of text, +57 B of str header and list
# slot) and the joined file text (~113 B per copy).  Measured over 1.2M
# ticks: 478 B per tick for `episode`, 206 B for `ratemap`.  The bound caps
# a run near 2**26 ticks * 512 B = 32 GiB.
MAX_TICK_COUNT = 2**26


def check_tick_count(ticks, name: str = "tick_count") -> int:
    """``ticks`` as an int in [1, MAX_TICK_COUNT]; anything else raises
    ConfigurationError before any per-tick array is allocated."""
    if not isinstance(ticks, (int, np.integer)) or not 0 < ticks <= MAX_TICK_COUNT:
        raise ConfigurationError(
            f"{name} must be an integer in [1, {MAX_TICK_COUNT}] "
            f"(about 512 B of memory per tick), got {ticks}"
        )
    return int(ticks)


@dataclass(frozen=True)
class Position2:
    """A point in the arena plane, meters."""

    x: float
    y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Position2":
        return Position2(float(a[0]), float(a[1]))


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

    def __post_init__(self):
        if not (self.spacing > 0.0 and math.isfinite(self.spacing)):
            raise ConfigurationError(f"spacing must be positive, got {self.spacing}")
        if not (0.0 <= self.orientation <= math.pi / 3.0):
            raise ConfigurationError(
                f"orientation must lie in [0, pi/3], got {self.orientation}"
            )
        for name, v in (("phase1", self.phase1), ("phase2", self.phase2)):
            if not (0.0 <= v <= TWO_PI):
                raise ConfigurationError(f"{name} must lie in [0, 2*pi], got {v}")


@dataclass(frozen=True)
class FiringParams:
    """Sharpness (kappa) and field-size (zeta) parameters of the rate profile."""

    kappa: float = 5.0
    zeta: float = 0.3

    def __post_init__(self):
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ConfigurationError(f"kappa must be positive, got {self.kappa}")
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


@dataclass(frozen=True)
class LandmarkObservation:
    """Distance and bearing to a landmark; bearing wrapped to [-pi, pi)."""

    distance: float
    bearing: float

    def __post_init__(self):
        if not (self.distance >= 0.0 and math.isfinite(self.distance)):
            raise ConfigurationError(f"distance must be >= 0, got {self.distance}")
        object.__setattr__(self, "bearing", wrap_angle(float(self.bearing)))


@dataclass(frozen=True)
class LandmarkParams:
    """Gaussian tuning widths for distance (m) and bearing (rad) mismatch."""

    sigma_d: float = 0.3
    sigma_theta: float = 0.5

    def __post_init__(self):
        if not all(v > 0.0 and math.isfinite(v) for v in (self.sigma_d, self.sigma_theta)):
            raise ConfigurationError("tuning widths must be positive and finite")


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

    Exact ties are broken toward the lexicographically smallest integer
    node index (m, n).
    """
    px, py = _as_xy(pos)
    b = lattice_basis(g)
    off = phase_offset(g)
    cx, cy, d, _, _ = nearest_node(
        px, py, b[0, 0], b[1, 0], b[0, 1], b[1, 1], off.x, off.y
    )
    return Position2(cx, cy), d


def nearest_center_bruteforce(
    pos, g: GridCellParams, max_index: int = 50
) -> tuple[Position2, float]:
    """Exhaustive nearest-node search over |m|, |n| <= max_index.

    Independent reference implementation for validating nearest_center;
    the caller is responsible for max_index covering the query point.
    """
    px, py = _as_xy(pos)
    b = lattice_basis(g)
    off = phase_offset(g)
    ax = np.array([px], dtype=np.float64)
    ay = np.array([py], dtype=np.float64)
    cx = np.empty(1)
    cy = np.empty(1)
    d = np.empty(1)
    mi = np.empty(1, dtype=np.int64)
    ni = np.empty(1, dtype=np.int64)
    brute_force(
        ax, ay, b[0, 0], b[1, 0], b[0, 1], b[1, 1], off.x, off.y, max_index,
        cx, cy, d, mi, ni,
    )
    return Position2(float(cx[0]), float(cy[0])), float(d[0])


def lattice_nodes(g: GridCellParams, m_range, n_range) -> np.ndarray:
    """All lattice nodes with integer indices in the given ranges, (N, 2)."""
    b = lattice_basis(g)
    off = phase_offset(g)
    mm, nn = np.meshgrid(
        np.arange(m_range[0], m_range[1] + 1, dtype=np.float64),
        np.arange(n_range[0], n_range[1] + 1, dtype=np.float64),
        indexing="ij",
    )
    xs = mm * b[0, 0] + nn * b[0, 1] + off.x
    ys = mm * b[1, 0] + nn * b[1, 1] + off.y
    return np.column_stack([xs.ravel(), ys.ravel()])


# ---------------------------------------------------------------------------
# firing model
# ---------------------------------------------------------------------------


def raw_firing(distance: float, g: GridCellParams, fp: FiringParams) -> float:
    """Raw firing value arctan(kappa * (d / spacing - zeta)); negative near nodes."""
    if distance < 0.0:
        raise ConfigurationError(f"distance must be >= 0, got {distance}")
    return math.atan(fp.kappa * (distance / g.spacing - fp.zeta))


def normalized_rate(raw: float) -> float:
    """Map a raw firing value to (0, 1), increasing toward lattice nodes."""
    return 0.5 - raw / math.pi


def firing_rate(pos, g: GridCellParams, fp: FiringParams) -> float:
    """Normalized firing rate at a position: peak at nodes, floor far away."""
    _, d = nearest_center(pos, g)
    return normalized_rate(raw_firing(d, g, fp))


def rates_at(positions: np.ndarray, g: GridCellParams, fp: FiringParams) -> np.ndarray:
    """Normalized firing rates for an (N, 2) array of positions."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ConfigurationError("positions must have shape (N, 2)")
    b = lattice_basis(g)
    off = phase_offset(g)
    px = np.ascontiguousarray(positions[:, 0])
    py = np.ascontiguousarray(positions[:, 1])
    out = np.empty(px.shape[0], dtype=np.float64)
    rates_batch(
        px, py, b[0, 0], b[1, 0], b[0, 1], b[1, 1], off.x, off.y,
        g.spacing, fp.kappa, fp.zeta, out,
    )
    return out


# ---------------------------------------------------------------------------
# frame transforms
# ---------------------------------------------------------------------------


def grid_frame_coords(pos, g: GridCellParams) -> np.ndarray:
    """Projection of a position onto the lattice basis, minus the phases.

    Literally M^T * pos - (phase1, phase2) with M the basis matrix.  Note
    the phases are subtracted as plain numbers, not scaled into basis
    units; firing-field computations go through nearest_center instead.
    """
    px, py = _as_xy(pos)
    b = lattice_basis(g)
    return np.array(
        [
            b[0, 0] * px + b[1, 0] * py - g.phase1,
            b[0, 1] * px + b[1, 1] * py - g.phase2,
        ],
        dtype=np.float64,
    )


def rotation_matrix(phi: float) -> np.ndarray:
    c = math.cos(phi)
    s = math.sin(phi)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


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


def place_activity(rates, pc: PlaceCellParams) -> int:
    """Binary place-cell output: 1 iff the summed input rates reach threshold."""
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape != (len(pc.inputs),):
        raise ConfigurationError(
            f"expected {len(pc.inputs)} rates, got shape {rates.shape}"
        )
    return 1 if float(rates.sum()) >= pc.threshold else 0


def place_activity_at(positions: np.ndarray, pc: PlaceCellParams, fp: FiringParams) -> np.ndarray:
    """Binary place-cell outputs for an (N, 2) array of positions."""
    positions = np.asarray(positions, dtype=np.float64)
    total = np.zeros(positions.shape[0], dtype=np.float64)
    for g in pc.inputs:
        total += rates_at(positions, g, fp)
    return (total >= pc.threshold).astype(np.int8)


def anchored_ensemble(
    spacings,
    anchor=(0.0, 0.0),
    orientations=None,
) -> tuple[GridCellParams, ...]:
    """Grid cells whose lattices all share a node at ``anchor``.

    Orientations default to an even spread over [0, pi/3).  Phases are
    solved so that the anchor is a lattice node of every cell, which makes
    the thresholded ensemble sum a compact bump around the anchor.
    """
    spacings = [float(s) for s in spacings]
    ax, ay = _as_xy(anchor)
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise ConfigurationError(f"anchor must be finite, got ({ax}, {ay})")
    n = len(spacings)
    if orientations is None:
        orientations = [(i * math.pi / 3.0) / n for i in range(n)]
    cells = []
    for s, orient in zip(spacings, orientations):
        base = GridCellParams(s, orient, 0.0, 0.0)
        b = lattice_basis(base)
        det = b[0, 0] * b[1, 1] - b[1, 0] * b[0, 1]
        cm = (b[1, 1] * ax - b[0, 1] * ay) / det
        cn = (-b[1, 0] * ax + b[0, 0] * ay) / det
        p1 = TWO_PI * (cm - math.floor(cm))
        p2 = TWO_PI * (cn - math.floor(cn))
        cells.append(GridCellParams(s, orient, p1, p2))
    return tuple(cells)


# ---------------------------------------------------------------------------
# landmark memory
# ---------------------------------------------------------------------------


def landmark_response(observed, remembered, lp: LandmarkParams) -> float:
    """Summed Gaussian match between observed and remembered landmark views.

    ``remembered`` holds K stored observations.  ``observed`` is either a
    single current observation (broadcast against every stored one) or a
    list of K observations paired index-wise.  Bearing differences are
    wrapped to [-pi, pi) before squaring, so the response never exceeds K
    and equals K only for exact matches.
    """
    if isinstance(observed, LandmarkObservation):
        observed = [observed]
    observed = list(observed)
    remembered = list(remembered)
    if not observed or not remembered:
        raise ConfigurationError("landmark lists must be non-empty")
    if len(observed) == 1:
        observed = observed * len(remembered)
    if len(observed) != len(remembered):
        raise ConfigurationError(
            f"got {len(observed)} observations against {len(remembered)} memories"
        )
    total = 0.0
    for o, r in zip(observed, remembered):
        dd = o.distance - r.distance
        dt = wrap_angle(o.bearing - r.bearing)
        total += math.exp(
            -(dd * dd) / (lp.sigma_d**2) - (dt * dt) / (lp.sigma_theta**2)
        )
    return total
