"""Byte format of the array writers on hostile values.

The trajectory, matrix and PGM writers format whole columns or rows at a
time; each file must equal, byte for byte, a reference built here by
formatting every value on its own with ``_fmt``, the formatter of the
summaries.  The values cover NaN, both infinities, negative zero, the
smallest subnormal, a huge finite value and a sum with a 17-digit repr,
and the columns the writer formats once per run of equal cells get runs.
The writers stream their text into the temp file in pieces, so the tests
also cover piece boundaries, a failure between pieces and the writer's
memory.
"""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from mazecells.analysis import Autocorrelogram, RateMap, rate_map, spatial_autocorrelogram
from mazecells.artifacts import (
    AUTOCORR_FORMAT,
    RATEMAP_FORMAT,
    ROWS_PER_PIECE,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_FORMAT,
    _fmt,
    atomic_write,
    write_autocorr_csv,
    write_pgm,
    write_ratemap_csv,
    write_trajectory_csv,
)
from mazecells.config import episode_config, parse_config
from mazecells.controller import EpisodeLog, run_episode
from mazecells.spatialcells import FiringParams, GridCellParams, rates_at

HOSTILE = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0, -2.5]
# A NaN with a sign and a payload: repr prints it as "nan", though its bits
# differ from math.nan's.
OTHER_NAN = float(np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0])
# Runs of equal cells, for the columns the trajectory writer formats once per
# run: 0.0 next to -0.0, which compare equal but print apart, and NaNs of
# different bits next to each other.
RUNS = [0.0, 0.0, -0.0, -0.0, 0.0, math.nan, math.nan, OTHER_NAN, OTHER_NAN, 1.0, 1.0]


def rotated(k, tail=()):
    return np.array(HOSTILE[k:] + HOSTILE[:k] + list(tail), dtype=np.float64)


@pytest.fixture
def log():
    """The hostile values in every column, then runs of equal cells in the
    run-formatted columns."""
    return EpisodeLog(
        xs=rotated(0, (2 * HOSTILE)[: len(RUNS)]),
        ys=rotated(1, (2 * HOSTILE)[1 : len(RUNS) + 1]),
        headings=rotated(2, (2 * HOSTILE)[2 : len(RUNS) + 2]),
        vibration=rotated(3, RUNS),
        x_color=rotated(4, RUNS[::-1]),
        y_out=np.array([0, 1, -1, 127, -128, 0, 1, 1, 0] + [1, 1, 0, 0, 0, 1, 1, 1, -1, -1, 0], dtype=np.int8),
        w_color=rotated(5, RUNS[3:] + RUNS[:3]),
        bumper_contacts=0,
        avoidance_events=0,
    )


def test_fmt_prints_every_nan_as_nan():
    # repr of a float never shows a NaN's sign or payload
    nans = [math.nan, -math.nan, np.float64("nan"), -np.float64("nan")]
    nans += [np.float32("nan"), -np.float32("nan")]
    assert [_fmt(v) for v in nans] == ["nan"] * len(nans)


def hostile_matrix():
    """A 9x7 matrix holding every hostile value in every row and column."""
    return np.array([[HOSTILE[(r + 2 * c) % len(HOSTILE)] for c in range(7)] for r in range(9)])


def matrix_reference(header, values):
    lines = [header] + [",".join(_fmt(v) for v in row) for row in values]
    return ("\n".join(lines) + "\n").encode()


def trajectory_rows(log):
    columns = (log.xs, log.ys, log.headings, log.vibration, log.x_color, log.y_out, log.w_color)
    return [",".join([_fmt(t)] + [_fmt(col[t]) for col in columns]) for t in range(len(log))]


def trajectory_reference(log):
    lines = [f"# {TRAJECTORY_FORMAT} {TRAJECTORY_COLUMNS}", TRAJECTORY_COLUMNS] + trajectory_rows(log)
    return ("\n".join(lines) + "\n").encode()


FLOAT_FIELDS = ("xs", "ys", "headings", "vibration", "x_color", "w_color")


def random_runs(rng, n, values):
    """n cells in runs of random lengths, from 1 to longer than a piece,
    each run holding one of ``values``."""
    lengths = rng.choice([1, 3, ROWS_PER_PIECE // 3, ROWS_PER_PIECE + 7], p=[0.6, 0.3, 0.07, 0.03], size=n)
    run_of_cell = np.repeat(np.arange(n), lengths)[:n]
    return np.asarray(values)[rng.integers(0, len(values), size=n)][run_of_cell]


def random_log(n, seed=0):
    """An n-tick log of random values, most with 17-digit reprs.  The columns
    the writer formats once per run hold runs of equal cells, some across a
    piece boundary, of random values, 0.0, -0.0 and NaNs of different bits."""
    rng = np.random.default_rng(seed)
    floats = {name: rng.normal(size=n) for name in FLOAT_FIELDS}
    pool = np.concatenate([rng.normal(size=8), RUNS])
    for name in ("vibration", "x_color", "w_color"):
        floats[name] = random_runs(rng, n, pool)
    return EpisodeLog(
        y_out=random_runs(rng, n, np.array([0, 1, -1, 127, -128], dtype=np.int8)),
        bumper_contacts=0,
        avoidance_events=0,
        **floats,
    )


def test_trajectory_csv_matches_per_value_fmt(tmp_path, log):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), log)
    rows = trajectory_rows(log)
    assert path.read_bytes() == trajectory_reference(log)
    # spot-check the reference itself
    assert rows[1].split(",")[1] == "inf" and rows[3].split(",")[1] == "-0.0"
    assert rows[0].split(",")[0] == "0" and rows[8].split(",")[0] == "8"
    assert rows[6].split(",")[1] == "0.30000000000000004"
    assert rows[2].split(",")[6] == "-1"


R = ROWS_PER_PIECE


@pytest.mark.parametrize("ticks", [1, R - 1, R, R + 1, 2 * R + 1])
def test_trajectory_csv_matches_per_value_fmt_across_piece_boundaries(tmp_path, ticks):
    # hostile values on the rows on both sides of every piece boundary, and
    # on the first and last rows
    log = random_log(ticks, seed=ticks)
    edges = sorted({t for b in range(0, ticks + R, R) for t in (b - 1, b) if 0 <= t < ticks} | {ticks - 1})
    for k, t in enumerate(edges):
        for c, name in enumerate(FLOAT_FIELDS):
            getattr(log, name)[t] = HOSTILE[(k + c) % len(HOSTILE)]
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), log)
    want = trajectory_reference(log)
    assert path.read_bytes() == want
    assert want.count(b"\n") == ticks + 2


def _fail_after_first_piece():
    yield "first piece\n"
    raise RuntimeError("disk gone")


@pytest.mark.parametrize("existing", [None, b"old bytes\n"])
def test_atomic_write_failing_between_pieces_leaves_the_directory_as_it_was(tmp_path, existing):
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_bytes(existing)
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(RuntimeError, match="disk gone"):
        atomic_write(str(path), _fail_after_first_piece())
    assert sorted(os.listdir(tmp_path)) == before  # no .tmp-*~ file left
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing
    atomic_write(str(path), iter(["a", "", "b\n"]))
    assert path.read_bytes() == b"ab\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]


def test_trajectory_writer_memory_does_not_grow_with_ticks(tmp_path):
    # tracemalloc peak of the writer alone, above the log it formats
    path = str(tmp_path / "trajectory.csv")
    peaks = []
    for ticks in (10_000, 40_000):
        log = random_log(ticks)
        tracemalloc.start()
        try:
            write_trajectory_csv(path, log)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_every_log_array_reaches_its_own_trajectory_column(tmp_path):
    """An EpisodeLog array that no trajectory.csv column holds is computed
    for nothing.  Each array field gets its own marker values, so each
    must turn up in exactly one column, and no two fields in the same one."""
    real = run_episode(episode_config(parse_config("[run]\nseed = 1\ntick_count = 3\n"), "train"))
    arrays = [f.name for f in dataclasses.fields(real) if isinstance(getattr(real, f.name), np.ndarray)]
    # small integers, so that the int8 motion output holds them too
    markers = {
        name: np.array([10 * i + t + 1 for t in range(len(real))], dtype=getattr(real, name).dtype)
        for i, name in enumerate(arrays)
    }
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), dataclasses.replace(real, **markers))
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    columns = [tuple(float(v) for v in col) for col in zip(*rows)]
    found = {}
    for name, values in markers.items():
        hits = [c for c, col in enumerate(columns) if col == tuple(values.astype(float))]
        assert len(hits) == 1, f"{name} is in {len(hits)} trajectory columns"
        found[name] = hits[0]
    assert len(set(found.values())) == len(arrays)


@pytest.mark.parametrize("layout", ["contiguous", "strided view", "transposed view"])
def test_matrix_csv_matches_per_value_fmt(tmp_path, layout):
    base = hostile_matrix()
    if layout == "contiguous":
        values = base
    elif layout == "strided view":
        wide = np.full((18, 21), 7.0)
        wide[::2, ::3] = base
        values = wide[::2, ::3]
    else:
        values = np.ascontiguousarray(base.T).T
    assert np.array_equal(values, base, equal_nan=True)
    assert values.flags.c_contiguous == (layout == "contiguous")

    rm = RateMap(0.05, -1.3, 0.1 + 0.2, values, np.ones(values.shape, dtype=np.int64))
    path = tmp_path / "ratemap.csv"
    write_ratemap_csv(str(path), rm)
    meta = "rows=9 cols=7 bin_size=0.05 origin_x=-1.3 origin_y=0.30000000000000004"
    assert path.read_bytes() == matrix_reference(f"# {RATEMAP_FORMAT} {meta}", base)

    ac = Autocorrelogram(5e-324, values)
    path = tmp_path / "autocorr.csv"
    write_autocorr_csv(str(path), ac)
    meta = "rows=9 cols=7 bin_size=5e-324"
    assert path.read_bytes() == matrix_reference(f"# {AUTOCORR_FORMAT} {meta}", base)


def _autocorrelograms():
    """Autocorrelograms of random masked maps, a place-style field and a
    hexagonal grid map, as the kernel writes them."""
    rng = np.random.default_rng(17)
    for ny, nx, p in ((14, 11, 0.75), (1, 9, 0.9), (9, 1, 0.9), (20, 20, 0.5)):
        visited = rng.uniform(size=(ny, nx)) < p
        iy, ix = np.nonzero(visited)
        pos = np.column_stack([(ix + 0.5) * 0.1, (iy + 0.5) * 0.1])
        yield spatial_autocorrelogram(rate_map(pos, rng.normal(size=iy.size), 0.1, (0.0, nx * 0.1, 0.0, ny * 0.1)))
    xs = np.arange(-1.3, 1.3, 0.02)
    pos = np.column_stack([a.ravel() for a in np.meshgrid(xs, xs)])
    field = (np.hypot(pos[:, 0] - 0.3, pos[:, 1] + 0.2) < 0.4).astype(np.float64)
    yield spatial_autocorrelogram(rate_map(pos, field, 0.05, (-1.3, 1.3, -1.3, 1.3)))
    grid = rates_at(pos, GridCellParams(0.7, 0.4, 1.1, 2.9), FiringParams())
    yield spatial_autocorrelogram(rate_map(pos, grid, 0.05, (-1.3, 1.3, -1.3, 1.3)))


def test_autocorr_csv_matches_per_value_fmt_on_kernel_output(tmp_path):
    path = tmp_path / "autocorr.csv"
    for ac in _autocorrelograms():
        assert np.array_equal(ac.values, ac.values[::-1, ::-1], equal_nan=True)
        write_autocorr_csv(str(path), ac)
        ny, nx = ac.values.shape
        header = f"# {AUTOCORR_FORMAT} rows={ny} cols={nx} bin_size={_fmt(ac.bin_size)}"
        assert path.read_bytes() == matrix_reference(header, ac.values)


@pytest.mark.parametrize("rows", [7, 8])
def test_autocorr_csv_formats_a_row_whose_mirror_differs_in_sign_of_zero(tmp_path, rows):
    # a mirror image except for one 0.0 / -0.0 pair, which compare equal as
    # floats but print differently
    rng = np.random.default_rng(rows)
    values = rng.normal(size=(rows, 5))
    values[rng.uniform(size=values.shape) < 0.3] = math.nan
    values = np.where(np.arange(rows)[:, None] < rows // 2, values[::-1, ::-1], values)
    values[rows - 2, 1] = 0.0
    values[1, 3] = -0.0
    assert np.array_equal(values[1], values[rows - 2, ::-1], equal_nan=True)
    path = tmp_path / "autocorr.csv"
    write_autocorr_csv(str(path), Autocorrelogram(0.1, values))
    want = matrix_reference(f"# {AUTOCORR_FORMAT} rows={rows} cols=5 bin_size=0.1", values)
    assert path.read_bytes() == want
    assert b"-0.0" in want.splitlines()[2]


@pytest.mark.parametrize("layout", ["contiguous", "strided view"])
def test_pgm_matches_per_value_scaling(tmp_path, layout):
    base = hostile_matrix()
    values = base if layout == "contiguous" else np.ascontiguousarray(base.T).T
    path = tmp_path / "map.pgm"
    write_pgm(str(path), values)
    finite = [v for v in HOSTILE if math.isfinite(v)]
    lo, hi = min(finite), max(finite)

    def level(v):
        # round() and np.rint both round half to even
        return 1 + int(round(254.0 * (v - lo) / (hi - lo))) if math.isfinite(v) else 0

    rows = [" ".join(_fmt(level(v)) for v in row) for row in base]
    lines = ["P2", "7 9", "255"] + rows
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert {0, 1, 255} <= {level(v) for v in HOSTILE}
