"""Spatial analysis: occupancy-normalized maps, autocorrelograms, gridness.

A run adds its positions, block by block, to one ``Binning``, which counts
them per bin and sums each map's values per bin as they arrive; every rate
map and the coverage read it, and a map carries unvisited bins as NaN.  The
autocorrelogram is the Pearson correlation of a map with itself at every
integer-bin lag over mutually visited bins, computed for all lags at once
from FFT cross-correlations of the visited mask and the centred map (the
masked normalized cross-correlation of Padfield, "Masked Object
Registration in the Fourier Domain", IEEE TIP 2012; see
``_kernels.autocorr``), one spectrum at a time so that no temporary
outgrows one padded half-spectrum.  The mask's spectrum and the overlap
counts depend on the visited bins alone: ``autocorr_mask`` computes them
once, for every map of one ``Binning``.  A lag whose overlap is constant
up to FFT roundoff (variance term at most ``_kernels.DEGENERATE_RTOL``
times ``n * sum(a**2)`` of the whole centred map) is NaN.  The autocorrelogram
is its own mirror under lag negation, so only the lags dy >= 0 are
computed; the other half is copied, and ``artifacts.write_autocorr_csv``
reuses the text of each row's mirror.  Gridness compares annulus
correlations at 60-degree-family rotations against the 30/90/150 family
(Sargolini et al., Science 2006), resampling only the annulus lags at
each rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import AutocorrMask, autocorr, autocorr_mask
from .spatialcells import ConfigurationError

MIN_OVERLAP_BINS = 20

# Peak memory of a map analysis grows by under 1 KiB per bin of the map.
# The (2n-1) x (2n-1) lag grid of an n x n map has 4 lags per bin.  The
# autocorrelogram peaks near 250 B per map bin: it transforms one spectrum
# at a time, so beside its output, the gathered lag sums and the half-grid
# Pearson step it holds only a few arrays the size of one padded
# half-spectrum.  Gridness peaks near 55 B at ratemap's default annulus
# (the lag-grid distances and annulus masks) and near 260 B when the
# annulus spans the whole lag grid (its lags, samples and their pairs; the
# rotations resample ROTATE_LAGS lags at a time).  The rate map itself is
# near 40 B (tracemalloc peaks on a 128 x 128 map).  A run's Binning adds
# 8 B per bin for the counts and for each map's sums.  A whole `ratemap`
# run at 100k ticks peaks about 390 B per bin higher at 256 x 256 than at
# 128 x 128, with ratemap's default annulus or one that spans the lag grid
# (resident set size).  The bound caps a map near 2**24 bins * 1 KiB =
# 16 GiB.
MAX_MAP_SIDE = 2**12

# Lags per slice of the rotated resampling in gridness: the two dozen
# temporaries of one slice take under 1 MiB, however large the annulus.
ROTATE_LAGS = 4096


class AnalysisError(ValueError):
    """Raised when a map is too degenerate for the requested statistic."""


@dataclass(frozen=True)
class RateMap:
    """Binned mean values over visited bins (NaN where unvisited)."""

    bin_size: float
    origin_x: float
    origin_y: float
    values: np.ndarray  # (ny, nx), values[iy, ix]
    occupancy: np.ndarray  # (ny, nx) visit counts

    @property
    def visited(self) -> np.ndarray:
        return self.occupancy > 0


@dataclass(frozen=True)
class Autocorrelogram:
    """Correlation at integer-bin lags; center index = zero lag."""

    bin_size: float
    values: np.ndarray  # (2*ny-1, 2*nx-1)

    @property
    def center(self) -> tuple[int, int]:
        return (self.values.shape[0] - 1) // 2, (self.values.shape[1] - 1) // 2


def check_map_side(extent: float, bin_size: float, extent_source: str | None = None) -> None:
    """Reject a ``bin_size`` that splits ``extent`` into more than
    MAX_MAP_SIDE bins, before any map is allocated.  ``extent_source``, if
    given, says in the message where the extent comes from."""
    # compared as a float: a subnormal bin_size makes the quotient inf
    if extent / bin_size > MAX_MAP_SIDE:
        source = f" ({extent_source})" if extent_source else ""
        raise ConfigurationError(
            f"bin_size = {bin_size!r} splits {extent!r} m{source} into {extent / bin_size:.6g} bins; "
            f"at most {MAX_MAP_SIDE} fit (about 1 KiB of memory per map bin)"
        )


def check_bin_size(bin_size: float, radius: float, radius_name: str = "radius") -> None:
    """Reject a ``bin_size`` that is not positive and finite, is wider than
    the diameter of a disc of ``radius``, or splits it into more than
    MAX_MAP_SIDE bins."""
    if not (bin_size > 0.0 and math.isfinite(bin_size)):
        raise ConfigurationError(f"bin_size must be positive and finite, got {bin_size}")
    diameter = 2.0 * radius
    source = f"twice {radius_name} = {radius!r}"
    # a wider bin puts bin centers outside the disc; near 1e154 their
    # squares overflow
    if bin_size > diameter:
        raise ConfigurationError(f"bin_size must be at most {diameter!r} m ({source}), got {bin_size}")
    check_map_side(diameter, bin_size, source)


def _bin_index(coords: np.ndarray, origin: float, bin_size: float, nbins: int) -> np.ndarray:
    """Bin of each coordinate; one outside the bounds goes to the nearer
    edge bin.

    Clipped while still float: a scaled coordinate beyond the int64 range
    would cast to INT64_MIN, the low edge.  One whose scaling overflows
    to +-inf clips to its edge like any other.
    """
    with np.errstate(over="ignore"):
        idx = np.floor((coords - origin) / bin_size)
    return np.clip(idx, 0, nbins - 1, out=idx).astype(np.int64)


class Binning:
    """Square bins of ``bin_size`` over ``bounds`` that count positions and
    sum ``maps`` per-position values, one block of positions at a time.

    ``bounds`` is (xmin, xmax, ymin, ymax), finite, with xmin <= xmax and
    ymin <= ymax.  Samples on the top edges fall into the last bin.  Each
    bin's sum adds its values in position order from 0.0, block after
    block (``np.add.at`` adds in element order, as ``np.bincount`` with
    weights does), so a map has the same bits however its positions are
    split into blocks.
    """

    def __init__(self, bin_size: float, bounds, maps: int = 0):
        if not (bin_size > 0.0 and math.isfinite(bin_size)):
            raise ConfigurationError(f"bin_size must be positive and finite, got {bin_size}")
        xmin, xmax, ymin, ymax = (float(b) for b in bounds)
        if not all(math.isfinite(b) for b in (xmin, xmax, ymin, ymax)):
            raise ConfigurationError(f"bounds must be finite, got {(xmin, xmax, ymin, ymax)}")
        if xmax < xmin or ymax < ymin:
            raise ConfigurationError(f"bounds must not be inverted, got {(xmin, xmax, ymin, ymax)}")
        check_map_side(xmax - xmin, bin_size)
        check_map_side(ymax - ymin, bin_size)
        self.bin_size = bin_size
        self.origin_x = xmin
        self.origin_y = ymin
        nx = max(1, int(math.ceil((xmax - xmin) / bin_size - 1e-9)))
        ny = max(1, int(math.ceil((ymax - ymin) / bin_size - 1e-9)))
        self._shape = (ny, nx)
        self._counts = np.zeros(ny * nx, dtype=np.int64)
        self._sums = np.zeros((maps, ny * nx), dtype=np.float64)

    def add(self, positions, *values) -> None:
        """Add a non-empty (N, 2) block of finite ``positions`` and, for each
        map, one finite value per position.  A rejected block adds nothing."""
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2 or positions.shape[0] == 0:
            raise ConfigurationError("positions must be a non-empty (N, 2) array")
        # a non-finite sample would land in an edge bin (inf) or poison one
        # (nan); checked per column, twice as fast on a strided (N, 2) view
        xs, ys = positions[:, 0], positions[:, 1]
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ConfigurationError("positions must be finite")
        maps = self._sums.shape[0]
        if len(values) != maps:
            raise ConfigurationError(f"need {maps} value arrays, one per map, got {len(values)}")
        values = [np.asarray(v, dtype=np.float64) for v in values]
        for v in values:
            if v.shape != xs.shape:
                raise ConfigurationError("values must match positions in length")
            if not np.isfinite(v).all():
                raise ConfigurationError("values must be finite")
        ny, nx = self._shape
        flat = _bin_index(ys, self.origin_y, self.bin_size, ny) * nx
        flat += _bin_index(xs, self.origin_x, self.bin_size, nx)
        np.add.at(self._counts, flat, 1)
        for sums, v in zip(self._sums, values):
            np.add.at(sums, flat, v)

    @property
    def occupancy(self) -> np.ndarray:
        """(ny, nx) visit counts so far, as a copy."""
        return self._counts.reshape(self._shape).copy()

    def mean_map(self, index: int = 0) -> RateMap:
        """Mean per bin of the values added for map ``index``."""
        counts = self.occupancy
        sums = self._sums[index].reshape(self._shape)
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        return RateMap(self.bin_size, self.origin_x, self.origin_y, means, counts)

    def disc_coverage(self, radius: float) -> float:
        """Fraction of the bins centred inside the disk of ``radius`` about (0, 0) holding a position."""
        ny, nx = self._shape
        cxs = self.origin_x + (np.arange(nx) + 0.5) * self.bin_size
        cys = self.origin_y + (np.arange(ny) + 0.5) * self.bin_size
        inside = (cxs[None, :] ** 2 + cys[:, None] ** 2) < radius * radius
        total = int(inside.sum())
        if total == 0:
            return 0.0
        return float(((self._counts.reshape(self._shape) > 0) & inside).sum() / total)


def rate_map(positions, values, bin_size: float, bounds) -> RateMap:
    """Mean of ``values`` per square bin: the one map of a one-block :class:`Binning`."""
    binning = Binning(bin_size, bounds, 1)
    binning.add(positions, values)
    return binning.mean_map()


def spatial_autocorrelogram(rm: RateMap, mask: AutocorrMask | None = None) -> Autocorrelogram:
    """Pearson autocorrelation at every integer-bin lag.

    Lags with fewer than MIN_OVERLAP_BINS mutually visited bins, or with a
    degenerate (constant) overlap, carry NaN.  The zero lag is 1 whenever
    the map has at least MIN_OVERLAP_BINS visited bins.  ``mask``, if
    given, is :func:`autocorr_mask` of ``rm.visited``, built once for every
    map with these visited bins (every map of one :class:`Binning`); the
    result has the same bits either way.
    """
    visited = rm.visited
    if mask is None:
        mask = autocorr_mask(visited)
    elif not np.array_equal(mask.visited, visited):
        raise ValueError("mask holds the terms of other visited bins than the map's")
    if mask.count < 2:
        raise AnalysisError("autocorrelogram needs at least 2 visited bins")
    ny, nx = rm.values.shape
    out = np.empty((2 * ny - 1, 2 * nx - 1), dtype=np.float64)
    # the kernel ignores whatever the unvisited bins hold (NaN here)
    autocorr(np.ascontiguousarray(rm.values), mask, MIN_OVERLAP_BINS, out)
    return Autocorrelogram(rm.bin_size, out)


def _rotated_samples(ac: Autocorrelogram, angle_deg: float, lags) -> np.ndarray:
    """Autocorrelogram resampled after rotation at the lags ``(rows, cols)``
    of its own grid, as a 1-D array in the order of ``lags``.

    Bilinear interpolation; a sample is NaN unless all four surrounding
    source bins are defined and in bounds.  The lags are resampled
    :data:`ROTATE_LAGS` at a time, so the temporaries of the interpolation
    do not grow with the annulus.
    """
    vals = ac.values
    ny, nx = vals.shape
    cy, cx = ac.center
    flat = vals.ravel()
    a = math.radians(angle_deg)
    cos, sin = math.cos(a), math.sin(a)
    rows, cols = lags
    out = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], ROTATE_LAGS):
        hi = lo + ROTATE_LAGS
        x = (cols[lo:hi] - cx).astype(np.float64)
        y = (rows[lo:hi] - cy).astype(np.float64)
        # sample the source at the back-rotated lag
        gx = cos * x + sin * y + cx
        gy = -sin * x + cos * y + cy
        x0 = np.floor(gx).astype(np.int64)
        y0 = np.floor(gy).astype(np.int64)
        fx = gx - x0
        fy = gy - y0
        ok = (x0 >= 0) & (y0 >= 0) & (x0 + 1 <= nx - 1) & (y0 + 1 <= ny - 1)
        # the four source bins by one flat index k of the top-left bin into
        # the raveled grid: k + 1 is the bin to its right, k + nx the one below
        k = np.clip(y0, 0, ny - 2) * nx + np.clip(x0, 0, nx - 2)
        v00 = flat.take(k)
        v01 = flat.take(k + 1)
        v10 = flat.take(k + nx)
        v11 = flat.take(k + nx + 1)
        interp = v00 * (1 - fx) * (1 - fy) + v01 * fx * (1 - fy)
        interp = interp + v10 * (1 - fx) * fy + v11 * fx * fy
        good = ok & np.isfinite(v00) & np.isfinite(v01) & np.isfinite(v10) & np.isfinite(v11)
        out[lo:hi] = np.where(good, interp, np.nan)
    return out


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    n = a.size
    sa = a.sum()
    sb = b.sum()
    va = n * (a * a).sum() - sa * sa
    vb = n * (b * b).sum() - sb * sb
    if va <= 0.0 or vb <= 0.0:
        raise AnalysisError("degenerate (constant) annulus")
    return float((n * (a * b).sum() - sa * sb) / math.sqrt(va * vb))


def gridness(ac: Autocorrelogram, inner_radius: float, outer_radius: float) -> float:
    """Hexagonality score of an autocorrelogram.

    Correlate the annulus between the two radii (meters, lag space) with
    itself rotated by 30/60/90/120/150 degrees:
    min(corr60, corr120) - max(corr30, corr90, corr150).  The annulus,
    and its overlap with each rotation, needs MIN_OVERLAP_BINS defined
    bins.
    """
    if not (0.0 < inner_radius < outer_radius):
        raise ConfigurationError("need 0 < inner_radius < outer_radius")
    vals = ac.values
    ny, nx = vals.shape
    cy, cx = ac.center
    dist = np.hypot(np.arange(nx) - cx, (np.arange(ny) - cy)[:, None]) * ac.bin_size
    annulus = (dist >= inner_radius) & (dist <= outer_radius) & np.isfinite(vals)
    if int(annulus.sum()) < MIN_OVERLAP_BINS:
        raise AnalysisError(
            f"annulus has {int(annulus.sum())} defined bins, need {MIN_OVERLAP_BINS}"
        )
    # resample only the annulus; np.nonzero is row-major, the order in
    # which a boolean mask over the whole grid would gather the same lags
    lags = np.nonzero(annulus)
    ring = vals[lags]
    corr = {}
    for ang in (30, 60, 90, 120, 150):
        rot = _rotated_samples(ac, ang, lags)
        pair = np.isfinite(rot)
        if int(pair.sum()) < MIN_OVERLAP_BINS:
            raise AnalysisError(f"too few defined bins after {ang}-degree rotation")
        corr[ang] = _pearson(ring[pair], rot[pair])
    return min(corr[60], corr[120]) - max(corr[30], corr[90], corr[150])


def coverage(positions, bin_size: float, radius: float) -> float:
    """Fraction of in-arena bins visited by a trajectory.

    Counts square bins whose centers lie inside the disk of ``radius``;
    the numerator is those of them with at least one sample.
    """
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ConfigurationError(f"radius must be positive and finite, got {radius}")
    check_bin_size(bin_size, radius)
    binning = Binning(bin_size, (-radius, radius, -radius, radius))
    binning.add(positions)
    return binning.disc_coverage(radius)


def _lattice_peaks(ac: Autocorrelogram) -> tuple[np.ndarray, np.ndarray]:
    """Distances (m) and angles (degrees) of the six nearest autocorrelogram
    peaks, nearest first.

    A peak is a defined bin at a nonzero lag, with positive correlation,
    at least 5 defined neighbors and strictly greater than each of them.
    The neighbor maximum is a running one over the 8 shifted views of the
    grid, so no stack of them is built.  Peaks at equal distance keep
    row-major order.
    """
    vals = ac.values
    ny, nx = vals.shape
    cy, cx = ac.center
    inner = vals[1:-1, 1:-1]
    top = np.full(inner.shape, -np.inf)
    defined = np.zeros(inner.shape, dtype=np.uint8)
    for di, dj in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
        view = vals[di : ny - 2 + di, dj : nx - 2 + dj]
        finite = np.isfinite(view)
        np.maximum(top, view, out=top, where=finite)
        defined += finite
    peak = np.isfinite(inner) & (inner > 0.0) & (defined >= 5) & (inner > top)
    dists, angles = [], []
    for i, j in zip(*(k.tolist() for k in np.nonzero(peak))):
        lx = (j + 1 - cx) * ac.bin_size
        ly = (i + 1 - cy) * ac.bin_size
        d = math.hypot(lx, ly)
        if d != 0.0:  # the zero lag
            dists.append(d)
            angles.append(math.degrees(math.atan2(ly, lx)))
    if len(dists) < 6:
        raise AnalysisError(f"found only {len(dists)} peaks, need 6")
    order = np.argsort(dists, kind="stable")[:6]
    return np.asarray(dists)[order], np.asarray(angles)[order]


def nearest_peak_angles(ac: Autocorrelogram) -> np.ndarray:
    """Sorted angles (degrees) of the six nearest autocorrelogram peaks, one
    per vertex of a hexagonal lattice's inner ring."""
    return np.sort(_lattice_peaks(ac)[1])


def peak_to_mean(rm: RateMap) -> float:
    """Ratio of the maximum to the mean over visited bins."""
    v = rm.values[rm.visited]
    if v.size == 0:
        raise AnalysisError("map has no visited bins")
    mean = float(v.mean())
    if mean <= 0.0:
        raise AnalysisError("map mean must be positive for a peak-to-mean ratio")
    return float(v.max() / mean)


def halfmax_area_bins(rm: RateMap) -> int:
    """Number of visited bins at or above half the map maximum."""
    v = rm.values[rm.visited]
    if v.size == 0:
        raise AnalysisError("map has no visited bins")
    return int((v >= 0.5 * float(v.max())).sum())


def connected_components(mask: np.ndarray) -> np.ndarray:
    """Label 8-connected components of a boolean mask (0 = background)."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.zeros(mask.shape, dtype=np.int64)
    ny, nx = mask.shape
    current = 0
    for i in range(ny):
        for j in range(nx):
            if mask[i, j] and labels[i, j] == 0:
                current += 1
                stack = [(i, j)]
                labels[i, j] = current
                while stack:
                    ci, cj = stack.pop()
                    for di in (-1, 0, 1):
                        for dj in (-1, 0, 1):
                            ni, nj = ci + di, cj + dj
                            if (
                                0 <= ni < ny
                                and 0 <= nj < nx
                                and mask[ni, nj]
                                and labels[ni, nj] == 0
                            ):
                                labels[ni, nj] = current
                                stack.append((ni, nj))
    return labels


def largest_component_fraction(mask: np.ndarray) -> float:
    """Fraction of true cells belonging to the largest 8-connected component."""
    mask = np.asarray(mask, dtype=bool)
    total = int(mask.sum())
    if total == 0:
        raise AnalysisError("mask has no active cells")
    labels = connected_components(mask)
    sizes = np.bincount(labels.ravel())[1:]
    return float(sizes.max() / total)
