"""Rate maps, autocorrelograms, gridness, coverage, and field statistics.

The autocorrelogram is cross-checked against a direct numpy Pearson
computation on masked overlaps; gridness against synthetic fields with
known symmetry (hexagonal > 0, radially symmetric <= 0, noise ~ 0), and
bit for bit against resampling every lag of the grid at each rotation.
The vectorized peak finder is checked bit for bit against a loop over
every lag bin (``oracles.nearest_peaks_loop``).  All keep their traced
peak memory per map bin under a pinned bound.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazecells.analysis import (
    MAX_MAP_SIDE,
    MIN_OVERLAP_BINS,
    AnalysisError,
    Autocorrelogram,
    Binning,
    _lattice_peaks,
    _pearson,
    autocorr_mask,
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
from mazecells.arena import Arena, Pose, WalkParams, walk_trajectory
from mazecells.spatialcells import ConfigurationError, GridCellParams, FiringParams, rates_at

from oracles import nearest_peak_angles_loop, nearest_peaks_loop


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


def test_rate_map_sends_far_samples_to_the_nearer_edge_bin():
    # +-1e300 scale beyond the int64 range, and over a 1e-10 m bin to inf
    pos = [[0.05, 0.05], [1e300, 0.5], [-1e300, 0.35], [-5.0, 0.95], [1.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rm = rate_map(pos, [1.0, 5.0, 3.0, 7.0, 9.0], 0.1, (0.0, 1.0, 0.0, 1.0))
        tiny = rate_map([[1e300, -1e300]], [2.0], 1e-10, (0.0, 1e-9, 0.0, 1e-9))
    visited = {(int(i), int(j)): rm.values[i, j] for i, j in zip(*np.nonzero(rm.visited))}
    assert visited == {(0, 0): 1.0, (5, 9): 5.0, (3, 0): 3.0, (9, 0): 7.0, (9, 9): 9.0}
    assert rm.occupancy.sum() == 5
    assert tiny.values[0, -1] == 2.0 and tiny.occupancy.sum() == 1


def test_rate_map_rejects_bad_inputs():
    unit = (0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        rate_map(np.zeros((0, 2)), np.zeros(0), 0.1, unit)
    with pytest.raises(ConfigurationError):
        rate_map(np.zeros((3, 2)), np.zeros(2), 0.1, unit)
    with pytest.raises(ConfigurationError):
        rate_map(np.zeros((3, 2)), np.zeros(3), 0.0, unit)
    with pytest.raises(ConfigurationError):
        rate_map(np.zeros((3, 2)), np.zeros(3), math.nan, unit)
    with pytest.raises(ConfigurationError):
        coverage(np.zeros((3, 2)), math.inf, 1.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_bounds_rejected(bad):
    pos = np.zeros((3, 2))
    with pytest.raises(ConfigurationError, match="radius must be positive and finite"):
        coverage(pos, 0.05, bad)
    with pytest.raises(ConfigurationError, match="bounds must be finite"):
        rate_map(pos, np.zeros(3), 0.05, (-1.0, 1.0, bad, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_map_rejects_non_finite_position(bad):
    # clipped into an edge bin, an inf sample would carry its value there
    for pos in ([[0.05, 0.05], [bad, 0.5]], [[0.05, 0.05], [0.5, bad]]):
        with pytest.raises(ConfigurationError, match="^positions must be finite$"):
            rate_map(pos, [1.0, 7.0], 0.1, (0.0, 1.0, 0.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_map_rejects_non_finite_value(bad):
    # a NaN value would make peak_to_mean nan and halfmax_area_bins 0
    with pytest.raises(ConfigurationError, match="^values must be finite$"):
        rate_map([[0.05, 0.05], [0.5, 0.5]], [1.0, bad], 0.1, (0.0, 1.0, 0.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coverage_rejects_non_finite_position(bad):
    # an inf sample would count as a visit to an edge bin
    with pytest.raises(ConfigurationError, match="^positions must be finite$"):
        coverage(np.array([[0.0, 0.0], [bad, 0.5]]), 0.1, 1.0)


def test_rate_map_rejects_inverted_bounds():
    pos = np.array([[0.2, 0.3], [-0.2, -0.1]])
    for bounds in ((1.0, -1.0, 1.0, -1.0), (1.0, -1.0, -1.0, 1.0), (-1.0, 1.0, 0.5, 0.4)):
        with pytest.raises(ConfigurationError, match="inverted"):
            rate_map(pos, np.array([1.0, 2.0]), 0.1, bounds)
    # equal bounds give one bin along that axis
    rm = rate_map(pos, np.array([1.0, 2.0]), 0.1, (0.0, 0.0, -1.0, 1.0))
    assert rm.values.shape == (20, 1)


def test_rate_map_side_bound():
    side = 1.0 / MAX_MAP_SIDE
    rm = rate_map(np.zeros((1, 2)), np.zeros(1), side, (0.0, 1.0, 0.0, 1.0 / 64))
    assert rm.values.shape == (MAX_MAP_SIDE // 64, MAX_MAP_SIDE)
    for bounds in ((0.0, 1.0 + 2 * side, 0.0, 0.1), (0.0, 0.1, -1.0, 1.0)):
        with pytest.raises(ConfigurationError, match="at most 4096"):
            rate_map(np.zeros((1, 2)), np.zeros(1), side, bounds)
    with pytest.raises(ConfigurationError, match="at most 4096"):
        coverage(np.zeros((1, 2)), 5e-324, 1.0)


@st.composite
def binning_case(draw):
    """Positions over the square around a disk, with samples on its top
    edges, far outside it and at +-1e300, a bin size that fits, and the
    block sizes the positions are added in."""
    radius = draw(st.sampled_from([0.35, 1.0, 1.3]))
    bin_size = draw(st.sampled_from([0.05, 0.1, 0.3, 0.7]).filter(lambda b: b <= 2 * radius))
    coord = st.one_of(
        st.floats(-1.5 * radius, 1.5 * radius),
        st.sampled_from([radius, -radius, 0.0, 1e300, -1e300, 1e17, -1e17]),
    )
    n = draw(st.integers(1, 40))
    positions = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    value = st.floats(-1e6, 1e6)
    maps = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=4))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else [])
    return positions, bin_size, radius, [np.array(v) for v in maps], cuts


@settings(max_examples=200, deadline=None)
@given(case=binning_case())
def test_shared_binning_matches_per_call_maps_and_coverage(case):
    # one Binning fed every map block by block gives each map and the
    # coverage that rate_map and coverage give on the whole arrays
    positions, bin_size, radius, maps, cuts = case
    bounds = (-radius, radius, -radius, radius)
    maps = maps + [values > 0 for values in maps]
    shared = Binning(bin_size, bounds, len(maps))
    edges = [0, *cuts, positions.shape[0]]
    for lo, hi in zip(edges, edges[1:]):
        shared.add(positions[lo:hi], *(values[lo:hi] for values in maps))
    for k, values in enumerate(maps):
        own = rate_map(positions, values, bin_size, bounds)
        rm = shared.mean_map(k)
        # bit for bit, the NaN of every unvisited bin included
        assert rm.values.tobytes() == own.values.tobytes()
        assert rm.occupancy.tobytes() == own.occupancy.tobytes()
        assert (rm.bin_size, rm.origin_x, rm.origin_y) == (own.bin_size, own.origin_x, own.origin_y)
    assert shared.disc_coverage(radius) == coverage(positions, bin_size, radius)


def test_binning_rejects_a_bad_block_and_adds_nothing():
    unit = (0.0, 1.0, 0.0, 1.0)
    binning = Binning(0.5, unit, 2)
    binning.add([[0.1, 0.1]], [1.0], [2.0])
    for positions, values in (
        ([[0.1, 0.1]], ([1.0],)),  # one map short
        ([[0.1, 0.1]], ([1.0], [2.0, 3.0])),  # a map longer than the block
        ([[0.1, 0.1]], ([1.0], [math.nan])),
        ([[0.1, math.inf]], ([1.0], [2.0])),
        (np.zeros((0, 2)), ([], [])),
    ):
        with pytest.raises(ConfigurationError):
            binning.add(positions, *values)
    assert binning.occupancy.tolist() == [[1, 0], [0, 0]]
    assert binning.mean_map(1).values[0, 0] == 2.0


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
    ac = spatial_autocorrelogram(rm)
    cy, cx = ac.center
    # lag 15 leaves only 15 overlapping bins < MIN_OVERLAP_BINS = 20 -> undefined
    assert math.isnan(ac.values[cy, cx + 15])
    assert np.isfinite(ac.values[cy, cx + 5])


def test_autocorr_needs_two_visited_bins():
    rm = rate_map(np.array([[0.01, 0.01]]), np.array([1.0]), 0.1, (0, 1, 0, 1))
    with pytest.raises(AnalysisError):
        spatial_autocorrelogram(rm)
    with pytest.raises(AnalysisError):
        spatial_autocorrelogram(rm, autocorr_mask(rm.visited))


def _maps_of_one_binning(side, visits, seed):
    """A Binning over side x side bins with ``visits`` bins visited, and its
    three maps: noise, a binary place-style field and a constant."""
    rng = np.random.default_rng(seed)
    bin_size = 0.05
    binning = Binning(bin_size, (0.0, side * bin_size, 0.0, side * bin_size), 3)
    iy, ix = np.divmod(rng.choice(side * side, size=visits, replace=False), side)
    pos = np.column_stack([(ix + 0.5) * bin_size, (iy + 0.5) * bin_size])
    binning.add(pos, rng.normal(size=visits), (ix < side // 3).astype(np.float64), np.full(visits, 0.5))
    return binning, [binning.mean_map(i) for i in range(3)]


@pytest.mark.parametrize(
    "side, visits",
    [(52, 2000), (104, 8000), (208, 30000), (52, 2), (52, MIN_OVERLAP_BINS - 1)],
)
def test_shared_mask_terms_give_every_map_its_one_map_autocorrelogram(side, visits):
    # a ratemap run builds the mask terms once, from its Binning, and hands
    # them to every map: no map may change them for the next.  A 52 x 52
    # map's padded half-spectra sit below numpy's 256 KiB temporary-elision
    # threshold, those of 104 x 104 and 208 x 208 maps above it; with 2 or
    # MIN_OVERLAP_BINS - 1 visited bins no lag has enough overlap.
    binning, maps = _maps_of_one_binning(side, visits, side + visits)
    mask = autocorr_mask(binning.occupancy > 0)
    assert mask.count == visits
    shared = [spatial_autocorrelogram(rm, mask).values for rm in maps]
    for rm, got in zip(maps, shared):
        want = spatial_autocorrelogram(rm).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    defined = int(np.isfinite(shared[0]).sum())
    assert defined > 1 if visits >= MIN_OVERLAP_BINS else defined == 0


def test_mask_terms_of_other_visited_bins_are_refused():
    _, (rm, *_) = _maps_of_one_binning(20, 300, 5)
    other = rm.visited.copy()
    other[np.unravel_index(np.argmax(other), other.shape)] = False
    with pytest.raises(ValueError, match="other visited bins"):
        spatial_autocorrelogram(rm, autocorr_mask(other))
    with pytest.raises(ValueError, match="other visited bins"):
        spatial_autocorrelogram(rm, autocorr_mask(rm.visited[:, 1:]))


def fine_rate_map():
    """A 128 x 128 map of a 0.4 m-spacing grid cell at ratemap-fine's bin
    size, 0.025 m, with one bin in ten unvisited."""
    side, bin_size = 128, 0.025
    half = side * bin_size / 2.0
    xs = -half + bin_size * (np.arange(side) + 0.5)
    xx, yy = np.meshgrid(xs, xs)
    pos = np.column_stack([xx.ravel(), yy.ravel()])
    keep = np.random.default_rng(43).uniform(size=pos.shape[0]) >= 0.1
    pos = pos[keep]
    vals = rates_at(pos, GridCellParams(0.4, 0.3, 0.1, 0.2), FiringParams())
    return rate_map(pos, vals, bin_size, (-half, half, -half, half))


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_autocorr_peak_memory_per_map_bin():
    # one padded half-spectrum at a time: the stacked spectra and sums
    # peaked near 564 B per map bin, one spectrum at a time near 250 B
    rm = fine_rate_map()
    assert _traced_peak(spatial_autocorrelogram, rm) < 400 * rm.values.size


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


def _rotated_samples_full_grid(ac, angle_deg):
    """The rotation resampled at every lag of the grid: the reference for
    resampling only the annulus."""
    vals = ac.values
    ny, nx = vals.shape
    cy, cx = ac.center
    jj, ii = np.meshgrid(np.arange(nx), np.arange(ny))
    x = (jj - cx).astype(np.float64)
    y = (ii - cy).astype(np.float64)
    a = math.radians(angle_deg)
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
    interp = v00 * (1 - fx) * (1 - fy) + v01 * fx * (1 - fy) + v10 * (1 - fx) * fy + v11 * fx * fy
    good = ok & np.isfinite(v00) & np.isfinite(v01) & np.isfinite(v10) & np.isfinite(v11)
    return np.where(good, interp, np.nan)


def _gridness_full_grid(ac, inner_radius, outer_radius, min_bins=20):
    vals = ac.values
    ny, nx = vals.shape
    cy, cx = ac.center
    jj, ii = np.meshgrid(np.arange(nx), np.arange(ny))
    dist = np.hypot(jj - cx, ii - cy) * ac.bin_size
    annulus = (dist >= inner_radius) & (dist <= outer_radius) & np.isfinite(vals)
    if int(annulus.sum()) < min_bins:
        raise AnalysisError(f"annulus has {int(annulus.sum())} defined bins, need {min_bins}")
    corr = {}
    for ang in (30, 60, 90, 120, 150):
        rot = _rotated_samples_full_grid(ac, ang)
        pair = annulus & np.isfinite(rot)
        if int(pair.sum()) < min_bins:
            raise AnalysisError(f"too few defined bins after {ang}-degree rotation")
        corr[ang] = _pearson(vals[pair], rot[pair])
    return min(corr[60], corr[120]) - max(corr[30], corr[90], corr[150])


def _gridness_test_maps():
    yield "hex", spatial_autocorrelogram(hex_rate_map()), (0.5, 1.5)
    pos = grid_positions()
    vals = np.exp(-(pos[:, 0] ** 2 + pos[:, 1] ** 2) / 0.18)
    yield "radial bump", spatial_autocorrelogram(rate_map(pos, vals, 0.05, (-1.3, 1.3, -1.3, 1.3))), (0.5, 1.5)
    pos = grid_positions(extent=1.0, step=0.05)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rm = rate_map(pos, rng.normal(size=pos.shape[0]), 0.1, (-1.0, 1.0, -1.0, 1.0))
        yield f"white noise {seed}", spatial_autocorrelogram(rm), (0.3, 0.9)


def test_gridness_equals_full_grid_score():
    for name, ac, (inner, outer) in _gridness_test_maps():
        assert gridness(ac, inner, outer) == _gridness_full_grid(ac, inner, outer), name


def test_gridness_errors_match_full_grid():
    # the annulus leaves the map; a 3-row or a 1-row lag grid loses the
    # annulus on rotation
    cases = [
        (spatial_autocorrelogram(hex_rate_map()), 4.4, 13.2, "annulus has 0 defined bins"),
        (Autocorrelogram(0.1, np.random.default_rng(5).normal(size=(3, 61))), 0.5, 2.0, "after 30-degree"),
        (Autocorrelogram(0.1, np.random.default_rng(5).normal(size=(1, 61))), 0.5, 2.0, "after 30-degree"),
    ]
    for ac, inner, outer, text in cases:
        with pytest.raises(AnalysisError, match=text) as got:
            gridness(ac, inner, outer)
        with pytest.raises(AnalysisError) as want:
            _gridness_full_grid(ac, inner, outer)
        assert str(got.value) == str(want.value)


def test_gridness_peak_memory_per_map_bin():
    # the lag distances broadcast from a row and a column; two int64
    # meshgrids and their offsets peaked near 167 B per map bin.  The
    # annulus is ratemap's default, 0.5 to 1.5 spacings.
    rm = fine_rate_map()
    ac = spatial_autocorrelogram(rm)
    assert _traced_peak(gridness, ac, 0.2, 0.6) < 100 * rm.values.size


def test_gridness_peak_memory_at_a_whole_lag_annulus():
    # an annulus over the whole lag grid, about 4 lags per map bin: the
    # rotations resample analysis.ROTATE_LAGS lags at a time, so the peak
    # (about 260 B per map bin) is the annulus' lags, samples and pairs,
    # where two dozen annulus-sized temporaries per rotation peaked near
    # 770 B
    rm = fine_rate_map()
    ac = spatial_autocorrelogram(rm)
    assert _traced_peak(gridness, ac, 1e-3, 100.0) < 300 * rm.values.size


def test_nearest_peak_angles_hexagonal():
    ac = spatial_autocorrelogram(hex_rate_map())
    angles = nearest_peak_angles(ac)
    assert angles.shape == (6,)
    diffs = np.diff(np.concatenate([angles, [angles[0] + 360.0]]))
    assert np.all(np.abs(diffs - 60.0) < 10.0)


def test_nearest_peak_angles_needs_enough_peaks():
    pos = grid_positions(extent=1.0, step=0.05)
    vals = np.exp(-(pos[:, 0] ** 2 + pos[:, 1] ** 2) / 0.18)
    rm = rate_map(pos, vals, 0.05, (-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(AnalysisError):
        nearest_peak_angles(spatial_autocorrelogram(rm))


def _result_or_message(f, ac):
    try:
        return f(ac)
    except AnalysisError as exc:
        return str(exc)


def _assert_peaks_match_loop(ac) -> bool:
    """Assert that the peak finder gives the loop's peaks or message, bit
    for bit; return whether it found six peaks."""
    want = _result_or_message(nearest_peaks_loop, ac)
    got = _result_or_message(_lattice_peaks, ac)
    if isinstance(want, str):
        assert got == want
        assert _result_or_message(nearest_peak_angles, ac) == want
        return False
    dists, angles = got
    assert dists.tobytes() == np.array([d for d, _ in want]).tobytes()
    assert angles.tobytes() == np.array([a for _, a in want]).tobytes()
    got_sorted = nearest_peak_angles(ac)
    assert got_sorted.dtype == np.float64 and got_sorted.shape == (6,)
    assert got_sorted.tobytes() == nearest_peak_angles_loop(ac).tobytes()
    return True


@pytest.mark.parametrize("bin_size", [0.1, 0.05, 0.025])
def test_lattice_peaks_match_the_loop_on_walk_maps(bin_size):
    # random lattices on walks of 500 to 40k ticks: the short walks leave
    # most bins unvisited, most lags NaN and some maps short of six peaks
    rng = np.random.default_rng(int(bin_size * 1000))
    found = []
    for ticks in (500, 2_000, 10_000, 40_000):
        cell = GridCellParams(
            rng.uniform(0.3, 1.2), rng.uniform(0.0, math.pi / 3.0), rng.uniform(0.0, 6.3), rng.uniform(0.0, 6.3)
        )
        pos = walk_trajectory(Arena(radius=1.3), WalkParams(), ticks, Pose(0.0, 0.0, 0.0), seed=ticks)[:, :2]
        rm = rate_map(pos, rates_at(pos, cell, FiringParams(5.0, 0.3)), bin_size, (-1.3, 1.3, -1.3, 1.3))
        found.append(_assert_peaks_match_loop(spatial_autocorrelogram(rm)))
    assert found[-1]


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2), (3, 3), (3, 9), (9, 3)])
def test_lattice_peaks_on_tiny_grids_match_the_loop(shape):
    _assert_peaks_match_loop(Autocorrelogram(0.1, np.random.default_rng(3).normal(size=shape)))


def test_lattice_peaks_on_noise_and_ties_match_the_loop():
    # many peaks at equal distances (their order is row-major), equal
    # neighbors (no peak: a peak is strictly greater) and zeros above all
    # their neighbors (no peak: a peak is positive)
    rng = np.random.default_rng(8)
    grids = (rng.normal(size=(41, 41)), rng.integers(-1, 3, size=(31, 37)), rng.integers(-3, 1, size=(41, 41)))
    found = [_assert_peaks_match_loop(Autocorrelogram(0.05, vals.astype(np.float64))) for vals in grids]
    assert found == [True, True, False]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lattice_peaks_with_non_finite_lags_match_the_loop(bad):
    # a non-finite bin is no peak and no neighbor, and a bin with fewer
    # than 5 defined neighbors is no peak
    rng = np.random.default_rng(11)
    found = []
    for frac in (0.05, 0.3, 0.6, 0.9):
        vals = rng.normal(size=(35, 35))
        vals[rng.uniform(size=vals.shape) < frac] = bad
        found.append(_assert_peaks_match_loop(Autocorrelogram(0.05, vals)))
    ac = spatial_autocorrelogram(hex_rate_map())
    ac.values[rng.uniform(size=ac.values.shape) < 0.1] = bad
    found.append(_assert_peaks_match_loop(ac))
    assert found[0] and not found[-2]


def test_lattice_peaks_peak_memory_per_map_bin():
    # a running neighbor maximum over 8 views of the lag grid: about 15 B
    # per lag, 53-70 B per map bin, where stacking the views would take
    # 256 B per map bin
    rm = fine_rate_map()
    ac = spatial_autocorrelogram(rm)
    assert _traced_peak(_lattice_peaks, ac) < 100 * rm.values.size


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
