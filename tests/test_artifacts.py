"""Byte format of the array writers on hostile values.

The trajectory, matrix and PGM writers format whole columns or rows at a
time; each file must equal, byte for byte, a reference built here by
formatting every value on its own with ``_fmt``, the formatter of the
summaries.  The values cover NaN, both infinities, negative zero, the
smallest subnormal, a huge finite value and a sum with a 17-digit repr.
"""

import dataclasses
import math

import numpy as np
import pytest

from mazecells.analysis import Autocorrelogram, RateMap
from mazecells.artifacts import (
    AUTOCORR_FORMAT,
    RATEMAP_FORMAT,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_FORMAT,
    _fmt,
    write_autocorr_csv,
    write_pgm,
    write_ratemap_csv,
    write_trajectory_csv,
)
from mazecells.config import episode_config, parse_config
from mazecells.controller import EpisodeLog, run_episode

HOSTILE = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0, -2.5]


def rotated(k):
    return np.array(HOSTILE[k:] + HOSTILE[:k], dtype=np.float64)


@pytest.fixture
def log():
    n = len(HOSTILE)
    return EpisodeLog(
        ticks=np.arange(n, dtype=np.int64) * 10**12,
        xs=rotated(0),
        ys=rotated(1),
        headings=rotated(2),
        vibration=rotated(3),
        x_color=rotated(4),
        y_out=np.array([0, 1, -1, 127, -128, 0, 1, 1, 0], dtype=np.int8),
        w_color=rotated(5),
        bumper_contacts=0,
        avoidance_events=0,
    )


def hostile_matrix():
    """A 9x7 matrix holding every hostile value in every row and column."""
    return np.array([[HOSTILE[(r + 2 * c) % len(HOSTILE)] for c in range(7)] for r in range(9)])


def matrix_reference(header, values):
    lines = [header] + [",".join(_fmt(v) for v in row) for row in values]
    return ("\n".join(lines) + "\n").encode()


def test_trajectory_csv_matches_per_value_fmt(tmp_path, log):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), log)
    columns = (log.ticks, log.xs, log.ys, log.headings, log.vibration, log.x_color, log.y_out, log.w_color)
    rows = [",".join(_fmt(col[t]) for col in columns) for t in range(len(log))]
    lines = [f"# {TRAJECTORY_FORMAT} {TRAJECTORY_COLUMNS}", TRAJECTORY_COLUMNS] + rows
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    # spot-check the reference itself
    assert rows[1].split(",")[1] == "inf" and rows[3].split(",")[1] == "-0.0"
    assert rows[0].split(",")[0] == "0" and rows[1].split(",")[0] == "1000000000000"
    assert rows[6].split(",")[1] == "0.30000000000000004"
    assert rows[2].split(",")[6] == "-1"


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
