"""Spatial analysis: occupancy-normalized maps, autocorrelograms, gridness.

Maps are square-binned with unvisited bins carried as NaN sentinels.  The
autocorrelogram is the Pearson correlation of a map with itself at every
integer-bin lag over mutually visited bins, computed for all lags at once
from FFT cross-correlations of the visited mask and the centred map (the
masked normalized cross-correlation of Padfield, "Masked Object
Registration in the Fourier Domain", IEEE TIP 2012; see
``_kernels.autocorr``).  A lag whose overlap is constant up to FFT
roundoff (variance term at most ``_kernels.DEGENERATE_RTOL`` times
``n * sum(a**2)`` of the whole centred map) is NaN.  Gridness compares
annulus correlations at 60-degree-family rotations against the 30/90/150
family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import autocorr
from .spatialcells import ConfigurationError

MIN_OVERLAP_BINS = 20

# Peak memory of a map analysis grows by about 1 KiB per bin of the map at
# most.  The (2n-1) x (2n-1) lag grid of an n x n map has 4 lags per bin:
# the autocorrelogram peaks near 670 B per map bin (three forward and four
# inverse FFTs of 8-byte floats on a grid padded past (2n-1)^2, the
# gathered lag sums and the output), gridness near 810 B (about 25 lag-grid
# temporaries per rotation) and the rate map itself near 40 B.  Measured
# for a whole `ratemap` run at 100k ticks: 733 B per bin between 128 x 128
# and 256 x 256 maps.  The bound caps a map near 2**24 bins * 1 KiB = 16 GiB.
MAX_MAP_SIDE = 2**12


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


def check_map_side(
    extent: float, bin_size: float, name: str = "bin_size", extent_source: str | None = None
) -> None:
    """Reject a ``bin_size`` that splits ``extent`` into more than
    MAX_MAP_SIDE bins, before any map is allocated.  ``extent_source``, if
    given, says in the message where the extent comes from."""
    # compared as a float: a subnormal bin_size makes the quotient inf
    if extent / bin_size > MAX_MAP_SIDE:
        source = f" ({extent_source})" if extent_source else ""
        raise ConfigurationError(
            f"{name} = {bin_size!r} splits {extent!r} m{source} into {extent / bin_size:.6g} bins; "
            f"at most {MAX_MAP_SIDE} fit (about 1 KiB of memory per map bin)"
        )


def _bin_index(coords: np.ndarray, origin: float, bin_size: float, nbins: int) -> np.ndarray:
    idx = np.floor((coords - origin) / bin_size).astype(np.int64)
    return np.clip(idx, 0, nbins - 1)


def rate_map(positions, values, bin_size: float, bounds=None) -> RateMap:
    """Mean of ``values`` per square spatial bin.

    ``bounds`` is (xmin, xmax, ymin, ymax), with xmin <= xmax and ymin <=
    ymax; by default it is taken from the data.  Samples on the top edges fall into the last bin.
    """
    positions = np.asarray(positions, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not (bin_size > 0.0 and math.isfinite(bin_size)):
        raise ConfigurationError(f"bin_size must be positive and finite, got {bin_size}")
    if positions.ndim != 2 or positions.shape[1] != 2 or positions.shape[0] == 0:
        raise ConfigurationError("positions must be a non-empty (N, 2) array")
    if values.shape != (positions.shape[0],):
        raise ConfigurationError("values must match positions in length")
    if bounds is None:
        bounds = (
            positions[:, 0].min(), positions[:, 0].max(),
            positions[:, 1].min(), positions[:, 1].max(),
        )
    xmin, xmax, ymin, ymax = (float(b) for b in bounds)
    if not all(math.isfinite(b) for b in (xmin, xmax, ymin, ymax)):
        raise ConfigurationError(f"bounds must be finite, got {(xmin, xmax, ymin, ymax)}")
    if xmax < xmin or ymax < ymin:
        raise ConfigurationError(f"bounds must not be inverted, got {(xmin, xmax, ymin, ymax)}")
    check_map_side(xmax - xmin, bin_size)
    check_map_side(ymax - ymin, bin_size)
    nx = max(1, int(math.ceil((xmax - xmin) / bin_size - 1e-9)))
    ny = max(1, int(math.ceil((ymax - ymin) / bin_size - 1e-9)))
    ix = _bin_index(positions[:, 0], xmin, bin_size, nx)
    iy = _bin_index(positions[:, 1], ymin, bin_size, ny)
    flat = iy * nx + ix
    counts = np.bincount(flat, minlength=ny * nx).reshape(ny, nx)
    sums = np.bincount(flat, weights=values, minlength=ny * nx).reshape(ny, nx)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return RateMap(bin_size, xmin, ymin, means, counts)


def spatial_autocorrelogram(rm: RateMap, min_overlap: int = MIN_OVERLAP_BINS) -> Autocorrelogram:
    """Pearson autocorrelation at every integer-bin lag.

    Lags with fewer than ``min_overlap`` mutually visited bins, or with a
    degenerate (constant) overlap, carry NaN.  The zero lag is 1 whenever
    the map has at least ``min_overlap`` visited bins.
    """
    visited = rm.visited
    if int(visited.sum()) < 2:
        raise AnalysisError("autocorrelogram needs at least 2 visited bins")
    vals = np.where(visited, rm.values, 0.0)
    ny, nx = vals.shape
    out = np.empty((2 * ny - 1, 2 * nx - 1), dtype=np.float64)
    autocorr(
        np.ascontiguousarray(vals),
        np.ascontiguousarray(visited),
        int(min_overlap),
        out,
    )
    return Autocorrelogram(rm.bin_size, out)


def _rotated_samples(ac: Autocorrelogram, angle_deg: float) -> np.ndarray:
    """Autocorrelogram resampled on its own lag grid after rotation.

    Bilinear interpolation; a sample is NaN unless all four surrounding
    source bins are defined and in bounds.
    """
    vals = ac.values
    ny, nx = vals.shape
    cy, cx = ac.center
    jj, ii = np.meshgrid(np.arange(nx), np.arange(ny))
    x = (jj - cx).astype(np.float64)
    y = (ii - cy).astype(np.float64)
    a = math.radians(angle_deg)
    # sample the source at the back-rotated lag
    sx = math.cos(a) * x + math.sin(a) * y
    sy = -math.sin(a) * x + math.cos(a) * y
    gx = sx + cx
    gy = sy + cy
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    fx = gx - x0
    fy = gy - y0
    ok = (x0 >= 0) & (y0 >= 0) & (x0 + 1 <= nx - 1) & (y0 + 1 <= ny - 1)
    x0c = np.clip(x0, 0, nx - 2)
    y0c = np.clip(y0, 0, ny - 2)
    v00 = vals[y0c, x0c]
    v01 = vals[y0c, x0c + 1]
    v10 = vals[y0c + 1, x0c]
    v11 = vals[y0c + 1, x0c + 1]
    interp = (
        v00 * (1 - fx) * (1 - fy)
        + v01 * fx * (1 - fy)
        + v10 * (1 - fx) * fy
        + v11 * fx * fy
    )
    good = ok & np.isfinite(v00) & np.isfinite(v01) & np.isfinite(v10) & np.isfinite(v11)
    return np.where(good, interp, np.nan)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    n = a.size
    sa = a.sum()
    sb = b.sum()
    va = n * (a * a).sum() - sa * sa
    vb = n * (b * b).sum() - sb * sb
    if va <= 0.0 or vb <= 0.0:
        raise AnalysisError("degenerate (constant) annulus")
    return float((n * (a * b).sum() - sa * sb) / math.sqrt(va * vb))


def gridness(
    ac: Autocorrelogram,
    inner_radius: float,
    outer_radius: float,
    min_bins: int = MIN_OVERLAP_BINS,
) -> float:
    """Hexagonality score of an autocorrelogram.

    Correlate the annulus between the two radii (meters, lag space) with
    itself rotated by 30/60/90/120/150 degrees:
    min(corr60, corr120) - max(corr30, corr90, corr150).
    """
    if not (0.0 < inner_radius < outer_radius):
        raise ConfigurationError("need 0 < inner_radius < outer_radius")
    vals = ac.values
    ny, nx = vals.shape
    cy, cx = ac.center
    jj, ii = np.meshgrid(np.arange(nx), np.arange(ny))
    dist = np.hypot(jj - cx, ii - cy) * ac.bin_size
    annulus = (dist >= inner_radius) & (dist <= outer_radius) & np.isfinite(vals)
    if int(annulus.sum()) < min_bins:
        raise AnalysisError(
            f"annulus has {int(annulus.sum())} defined bins, need {min_bins}"
        )
    corr = {}
    for ang in (30, 60, 90, 120, 150):
        rot = _rotated_samples(ac, ang)
        pair = annulus & np.isfinite(rot)
        if int(pair.sum()) < min_bins:
            raise AnalysisError(f"too few defined bins after {ang}-degree rotation")
        corr[ang] = _pearson(vals[pair], rot[pair])
    return min(corr[60], corr[120]) - max(corr[30], corr[90], corr[150])


def coverage(positions, bin_size: float, radius: float) -> float:
    """Fraction of in-arena bins visited by a trajectory.

    Counts square bins whose centers lie inside the disk of ``radius``;
    the numerator is those of them with at least one sample.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2 or positions.shape[0] == 0:
        raise ConfigurationError("positions must be a non-empty (N, 2) array")
    if not all(v > 0.0 and math.isfinite(v) for v in (bin_size, radius)):
        raise ConfigurationError(
            f"bin_size and radius must be positive and finite, got {bin_size} and {radius}"
        )
    rm = rate_map(
        positions,
        np.zeros(positions.shape[0]),
        bin_size,
        bounds=(-radius, radius, -radius, radius),
    )
    ny, nx = rm.occupancy.shape
    cxs = rm.origin_x + (np.arange(nx) + 0.5) * bin_size
    cys = rm.origin_y + (np.arange(ny) + 0.5) * bin_size
    inside = (cxs[None, :] ** 2 + cys[:, None] ** 2) < radius * radius
    total = int(inside.sum())
    if total == 0:
        return 0.0
    return float((rm.visited & inside).sum() / total)


def nearest_peak_angles(ac: Autocorrelogram, count: int = 6, min_lag: float = 0.0) -> np.ndarray:
    """Angles (degrees, sorted) of the ``count`` nearest autocorrelogram peaks.

    A peak is a defined bin strictly greater than its defined neighbors
    with positive correlation, at lag distance > ``min_lag`` meters.
    """
    vals = ac.values
    ny, nx = vals.shape
    cy, cx = ac.center
    peaks = []
    for i in range(1, ny - 1):
        for j in range(1, nx - 1):
            v = vals[i, j]
            if not np.isfinite(v) or v <= 0.0:
                continue
            lx = (j - cx) * ac.bin_size
            ly = (i - cy) * ac.bin_size
            d = math.hypot(lx, ly)
            if d <= min_lag:
                continue
            neigh = np.delete(vals[i - 1 : i + 2, j - 1 : j + 2].ravel(), 4)
            neigh = neigh[np.isfinite(neigh)]
            if neigh.size < 5:
                continue
            if v > neigh.max():
                peaks.append((d, math.degrees(math.atan2(ly, lx))))
    if len(peaks) < count:
        raise AnalysisError(f"found only {len(peaks)} peaks, need {count}")
    peaks.sort(key=lambda p: p[0])
    angles = sorted(a for _, a in peaks[:count])
    return np.asarray(angles, dtype=np.float64)


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
