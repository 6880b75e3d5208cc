"""Rate maps, autocorrelograms, gridness, coverage, and field statistics.

The autocorrelogram is cross-checked against a direct numpy Pearson
computation on masked overlaps; gridness against synthetic fields with
known symmetry (hexagonal > 0, radially symmetric <= 0, noise ~ 0).
"""

import math

import numpy as np
import pytest

from mazecells.analysis import (
    AnalysisError,
    connected_components,
    coverage,
    gridness,
    halfmax_area_bins,
    largest_component_fraction,
    nearest_peak_angles,
    peak_to_mean,
    rate_map,
    spatial_autocorrelogram,
)
from mazecells.spatialcells import ConfigurationError, GridCellParams, FiringParams, rates_at


def grid_positions(extent=1.3, step=0.02):
    xs = np.arange(-extent, extent + 1e-9, step)
    xx, yy = np.meshgrid(xs, xs)
    return np.column_stack([xx.ravel(), yy.ravel()])


def hex_rate_map(bin_size=0.05, spacing=1.0):
    """Dense sampling of a unit-spacing grid cell over the arena square."""
    pos = grid_positions()
    cell = GridCellParams(spacing, math.pi / 4.0, 0.5, 0.0)
    vals = rates_at(pos, cell, FiringParams())
    return rate_map(pos, vals, bin_size, (-1.3, 1.3, -1.3, 1.3))


# ---------------------------------------------------------------------------
# rate maps
# ---------------------------------------------------------------------------


def test_rate_map_bins_means_and_marks_unvisited():
    pos = np.array([[0.01, 0.01], [0.02, 0.03], [0.11, 0.01]])
    vals = np.array([1.0, 3.0, 5.0])
    rm = rate_map(pos, vals, 0.1, (0.0, 0.3, 0.0, 0.1))
    assert rm.values.shape == (1, 3)
    assert rm.values[0, 0] == 2.0  # mean of the two samples in bin 0
    assert rm.values[0, 1] == 5.0
    assert math.isnan(rm.values[0, 2])
    assert rm.occupancy.tolist() == [[2, 1, 0]]


def test_rate_map_top_edge_falls_into_last_bin():
    rm = rate_map(np.array([[1.0, 1.0]]), np.array([2.0]), 0.5, (0.0, 1.0, 0.0, 1.0))
    assert rm.values.shape == (2, 2)
    assert rm.values[1, 1] == 2.0


def test_rate_map_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        rate_map(np.zeros((0, 2)), np.zeros(0), 0.1)
    with pytest.raises(ConfigurationError):
        rate_map(np.zeros((3, 2)), np.zeros(2), 0.1)
    with pytest.raises(ConfigurationError):
        rate_map(np.zeros((3, 2)), np.zeros(3), 0.0)
    with pytest.raises(ConfigurationError):
        rate_map(np.zeros((3, 2)), np.zeros(3), math.nan)
    with pytest.raises(ConfigurationError):
        coverage(np.zeros((3, 2)), math.inf, 1.3)


# ---------------------------------------------------------------------------
# autocorrelogram
# ---------------------------------------------------------------------------


def _pearson_at_lag(vals, visited, dy, dx, min_overlap=20):
    """Direct masked-overlap Pearson, the oracle for the kernel."""
    ny, nx = vals.shape
    a_list, b_list = [], []
    for i in range(ny):
        for j in range(nx):
            i2, j2 = i - dy, j - dx
            if 0 <= i2 < ny and 0 <= j2 < nx and visited[i, j] and visited[i2, j2]:
                a_list.append(vals[i, j])
                b_list.append(vals[i2, j2])
    if len(a_list) < min_overlap:
        return math.nan
    a = np.array(a_list)
    b = np.array(b_list)
    if a.std() == 0.0 or b.std() == 0.0:
        return math.nan
    return float(np.corrcoef(a, b)[0, 1])


def test_autocorr_matches_direct_pearson_oracle():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(14, 11))
    visited = rng.uniform(size=(14, 11)) > 0.25
    masked = np.where(visited, vals, np.nan)
    rm = rate_map(
        # rebuild a RateMap through the public constructor path: place one
        # sample at each visited bin center with the wanted value
        np.array(
            [
                [(j + 0.5) * 0.1, (i + 0.5) * 0.1]
                for i in range(14)
                for j in range(11)
                if visited[i, j]
            ]
        ),
        np.array([masked[i, j] for i in range(14) for j in range(11) if visited[i, j]]),
        0.1,
        (0.0, 1.1, 0.0, 1.4),
    )
    ac = spatial_autocorrelogram(rm)
    cy, cx = ac.center
    for dy, dx in [(0, 1), (1, 0), (2, 3), (-3, 2), (5, -4), (0, 0)]:
        got = ac.values[cy + dy, cx + dx]
        want = 1.0 if (dy, dx) == (0, 0) else _pearson_at_lag(rm.values, rm.visited, dy, dx)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert abs(got - want) < 1e-10, (dy, dx)


def test_autocorr_shifted_copy_peaks_at_shift_lag():
    # a map whose content repeats every 7 bins horizontally correlates
    # perfectly at lag (0, ±7)
    rng = np.random.default_rng(4)
    tile = rng.uniform(0.1, 1.0, size=(9, 7))
    vals = np.tile(tile, (1, 3))  # (9, 21)
    pos = []
    v = []
    for i in range(9):
        for j in range(21):
            pos.append([(j + 0.5) * 0.1, (i + 0.5) * 0.1])
            v.append(vals[i, j])
    rm = rate_map(np.array(pos), np.array(v), 0.1, (0.0, 2.1, 0.0, 0.9))
    ac = spatial_autocorrelogram(rm)
    cy, cx = ac.center
    assert abs(ac.values[cy, cx + 7] - 1.0) < 1e-10
    assert abs(ac.values[cy, cx - 7] - 1.0) < 1e-10


def test_autocorr_zero_lag_is_one_and_symmetry_exact():
    rm = hex_rate_map()
    ac = spatial_autocorrelogram(rm)
    cy, cx = ac.center
    assert ac.values[cy, cx] == 1.0
    # symmetry under lag negation holds bit-for-bit by construction
    flipped = ac.values[::-1, ::-1]
    both = np.isfinite(ac.values)
    assert np.array_equal(np.isfinite(flipped), both)
    assert np.array_equal(ac.values[both], flipped[both])


def test_autocorr_sparse_overlap_is_nan():
    pos = np.array([[0.05 * i + 0.025, 0.025] for i in range(30)])
    rm = rate_map(pos, np.sin(np.arange(30.0)), 0.05, (0.0, 1.5, 0.0, 0.05))
    ac = spatial_autocorrelogram(rm, min_overlap=20)
    cy, cx = ac.center
    # lag 15 leaves only 15 overlapping bins < 20 -> undefined
    assert math.isnan(ac.values[cy, cx + 15])
    assert np.isfinite(ac.values[cy, cx + 5])


def test_autocorr_needs_two_visited_bins():
    rm = rate_map(np.array([[0.01, 0.01]]), np.array([1.0]), 0.1, (0, 1, 0, 1))
    with pytest.raises(AnalysisError):
        spatial_autocorrelogram(rm)


# ---------------------------------------------------------------------------
# gridness
# ---------------------------------------------------------------------------


def test_gridness_hexagonal_field_is_high():
    ac = spatial_autocorrelogram(hex_rate_map())
    g = gridness(ac, 0.5, 1.5)
    assert g > 0.5


def test_gridness_radial_bump_is_nonpositive():
    # radially symmetric field: rotations change nothing, so the 60-degree
    # correlations cannot exceed the 30/90/150 ones
    pos = grid_positions()
    vals = np.exp(-(pos[:, 0] ** 2 + pos[:, 1] ** 2) / 0.18)
    rm = rate_map(pos, vals, 0.05, (-1.3, 1.3, -1.3, 1.3))
    ac = spatial_autocorrelogram(rm)
    g = gridness(ac, 0.5, 1.5)
    assert g <= 1e-9


def test_gridness_white_noise_near_zero():
    scores = []
    pos = grid_positions(extent=1.0, step=0.05)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rm = rate_map(pos, rng.normal(size=pos.shape[0]), 0.1, (-1.0, 1.0, -1.0, 1.0))
        scores.append(gridness(spatial_autocorrelogram(rm), 0.3, 0.9))
    mean = float(np.mean(scores))
    assert abs(mean) < 0.2


def test_gridness_annulus_beyond_map_raises():
    ac = spatial_autocorrelogram(hex_rate_map())
    with pytest.raises(AnalysisError):
        gridness(ac, 4.4, 13.2)  # an 8.8 m-spacing cell in a 1.3 m arena
    with pytest.raises(ConfigurationError):
        gridness(ac, 1.0, 0.5)


def test_nearest_peak_angles_hexagonal():
    ac = spatial_autocorrelogram(hex_rate_map())
    angles = nearest_peak_angles(ac, count=6, min_lag=0.5)
    assert angles.shape == (6,)
    diffs = np.diff(np.concatenate([angles, [angles[0] + 360.0]]))
    assert np.all(np.abs(diffs - 60.0) < 10.0)


def test_nearest_peak_angles_needs_enough_peaks():
    pos = grid_positions(extent=1.0, step=0.05)
    vals = np.exp(-(pos[:, 0] ** 2 + pos[:, 1] ** 2) / 0.18)
    rm = rate_map(pos, vals, 0.05, (-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(AnalysisError):
        nearest_peak_angles(spatial_autocorrelogram(rm), count=6, min_lag=0.3)


# ---------------------------------------------------------------------------
# coverage and field statistics
# ---------------------------------------------------------------------------


def test_coverage_full_grid_is_one():
    pos = grid_positions(extent=1.0, step=0.02)
    assert coverage(pos, 0.1, 1.0) == 1.0


def test_coverage_half_plane():
    pos = grid_positions(extent=1.0, step=0.01)
    right = pos[pos[:, 0] > 0.0]
    c = coverage(right, 0.1, 1.0)
    assert 0.4 < c < 0.6


def test_coverage_single_point_small():
    c = coverage(np.array([[0.0, 0.0]]), 0.1, 1.0)
    assert 0.0 < c < 0.01


def test_peak_to_mean_and_halfmax():
    pos = np.array([[0.05, 0.05], [0.15, 0.05], [0.25, 0.05], [0.35, 0.05]])
    rm = rate_map(pos, np.array([8.0, 2.0, 1.0, 1.0]), 0.1, (0.0, 0.4, 0.0, 0.1))
    assert abs(peak_to_mean(rm) - 8.0 / 3.0) < 1e-12
    assert halfmax_area_bins(rm) == 1  # only the 8.0 bin reaches 4.0


def test_connected_components_labels_and_fraction():
    mask = np.array(
        [
            [1, 1, 0, 0, 0],
            [0, 1, 0, 1, 0],
            [0, 0, 0, 1, 1],
            [1, 0, 0, 0, 1],
        ],
        dtype=bool,
    )
    labels = connected_components(mask)
    assert labels.max() == 3  # diagonal adjacency merges the two right blobs
    assert labels[0, 0] == labels[1, 1]
    assert labels[1, 3] == labels[2, 4]
    assert labels[3, 0] not in (labels[0, 0], labels[1, 3])
    assert abs(largest_component_fraction(mask) - 4.0 / 8.0) < 1e-12


def test_largest_component_fraction_empty_mask_raises():
    with pytest.raises(AnalysisError):
        largest_component_fraction(np.zeros((3, 3), dtype=bool))
