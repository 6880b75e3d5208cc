"""On-disk run artifacts: CSV tables, PGM images, summary files.

All writes go through ``atomic_write``: the text goes, piece by piece,
into a temp file in the destination directory, which an atomic rename
then puts in place, so rerunning a command never leaves partial files.
A writer whose text grows with the tick count yields it in pieces of
``ROWS_PER_PIECE`` rows, so its memory stays bounded.  Float formatting
uses shortest round-trip repr, which keeps identical runs byte-identical.
"""

from __future__ import annotations

import itertools
import operator
import os
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

from .analysis import Autocorrelogram, RateMap
from .controller import EpisodeLog

TRAJECTORY_FORMAT = "mazecells.trajectory.v1"
RATEMAP_FORMAT = "mazecells.ratemap.v1"
AUTOCORR_FORMAT = "mazecells.autocorr.v1"
SWEEP_FORMAT = "mazecells.sweep.v1"
SUMMARY_FORMAT = "mazecells.summary.v1"

TRAJECTORY_COLUMNS = "tick,x,y,heading,vibration,x_color,y_out,w_color"

# Trajectory rows per written piece.  A piece is about 0.5 MB of text; it,
# its row strings and its encoded copy, about 2 MB in all, are the writer's
# whole transient memory, whatever the tick count.
ROWS_PER_PIECE = 4096


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def atomic_write(path: str, pieces: Iterable[str]) -> None:
    """Write the concatenated ``pieces`` to ``path``.  Each piece goes to a
    temp file beside ``path`` as it arrives; ``path`` changes only by the
    final rename, so an error from the iterable or the disk leaves it as it
    was and removes the temp file."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_trajectory_csv(path: str, log: EpisodeLog) -> None:
    atomic_write(path, _trajectory_pieces(log))


def _trajectory_pieces(log: EpisodeLog) -> Iterator[str]:
    # ROWS_PER_PIECE rows at a time, each column read through a memoryview
    # as Python ints and floats; repr prints an int as str does, and nan,
    # inf and -0.0 of a float exactly as _fmt does.  The tick column is the
    # row index.  The columns that repeat by how an episode makes them (the
    # motion output is binary, the weight moves only on firing train ticks,
    # the color and vibration readings are mostly 0.0) are formatted once
    # per run of equal values; on the unique positions and headings that
    # would cost more than formatting every value.
    yield f"# {TRAJECTORY_FORMAT} {TRAJECTORY_COLUMNS}\n{TRAJECTORY_COLUMNS}\n"
    n = len(log)
    # one row of run-start flags per run-formatted column, reused by every piece
    run_starts = np.empty((4, ROWS_PER_PIECE), dtype=bool)
    for lo in range(0, n, ROWS_PER_PIECE):
        hi = min(lo + ROWS_PER_PIECE, n)
        cols = (
            map(repr, range(lo, hi)),
            map(repr, memoryview(log.xs[lo:hi])),
            map(repr, memoryview(log.ys[lo:hi])),
            map(repr, memoryview(log.headings[lo:hi])),
            _run_cells(log.vibration[lo:hi], run_starts[0]),
            _run_cells(log.x_color[lo:hi], run_starts[1]),
            _run_cells(log.y_out[lo:hi], run_starts[2]),
            _run_cells(log.w_color[lo:hi], run_starts[3]),
        )
        yield "\n".join(itertools.chain(map(",".join, zip(*cols)), [""]))


def _run_cells(values: np.ndarray, run_starts: np.ndarray) -> Iterator[str]:
    """The repr of each of ``values``, formatted once per run of values with
    equal bits (so 0.0 and -0.0 stay apart) and repeated along the run.

    ``run_starts`` is a bool scratch row of at least ``len(values)`` cells,
    which the returned iterator reads.  Apart from it, the runs are found and
    walked with iterators only: per-piece arrays and lists sized by the run
    count (``np.flatnonzero``, ``tolist``) left the heap of a process that
    writes episode after episode fragmented, and its peak resident set up
    to 4 MB higher, from one process to the next.
    """
    n = len(values)
    bits = values.view(f"u{values.itemsize}")
    starts = run_starts[:n]
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    firsts, nexts = itertools.tee(itertools.compress(range(n), memoryview(starts)))
    next(nexts)
    lengths = map(operator.sub, itertools.chain(nexts, [n]), firsts)
    cells = map(repr, itertools.compress(memoryview(values), memoryview(starts)))
    return itertools.chain.from_iterable(map(itertools.repeat, cells, lengths))


def write_ratemap_csv(path: str, rm: RateMap) -> None:
    meta = (
        f"rows={rm.values.shape[0]} cols={rm.values.shape[1]} "
        f"bin_size={_fmt(rm.bin_size)} origin_x={_fmt(rm.origin_x)} origin_y={_fmt(rm.origin_y)}"
    )
    rows = (",".join(map(repr, memoryview(row))) + "\n" for row in rm.values)
    atomic_write(path, itertools.chain([f"# {RATEMAP_FORMAT} {meta}\n"], rows))


def write_autocorr_csv(path: str, ac: Autocorrelogram) -> None:
    # An autocorrelogram is its own mirror under lag negation: row i is row
    # n-1-i reversed (see _kernels.autocorr).  Format the lower rows, and
    # give each upper row its mirror's cells reversed when their bits match
    # (0.0 against -0.0 would not), else format it on its own.  Only one
    # row's cell list is alive at a time; the lines, bounded by the map
    # side, are written one at a time.
    values = ac.values
    n = values.shape[0]
    bits = values.view(f"u{values.itemsize}")
    meta = f"rows={n} cols={values.shape[1]} bin_size={_fmt(ac.bin_size)}"
    lines = [f"# {AUTOCORR_FORMAT} {meta}"] + [""] * n
    for j in range(n - 1, n // 2 - 1, -1):
        cells = list(map(repr, memoryview(values[j])))
        lines[1 + j] = ",".join(cells)
        i = n - 1 - j
        if i == j:
            continue
        if np.array_equal(bits[i], bits[j, ::-1]):
            cells.reverse()
            lines[1 + i] = ",".join(cells)
        else:
            lines[1 + i] = ",".join(map(repr, memoryview(values[i])))
    atomic_write(path, (line + "\n" for line in lines))


def write_pgm(path: str, values: np.ndarray) -> None:
    """8-bit ASCII portable graymap; NaN renders as 0, the rest scaled to 1..255."""
    v = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(v)
    out = np.zeros(v.shape, dtype=np.int64)
    if finite.any():
        lo = float(v[finite].min())
        hi = float(v[finite].max())
        span = hi - lo
        if span <= 0.0:
            out[finite] = 255
        else:
            out[finite] = 1 + np.rint(254.0 * (v[finite] - lo) / span).astype(np.int64)
    rows = (" ".join(map(str, memoryview(row))) + "\n" for row in out)
    atomic_write(path, itertools.chain([f"P2\n{v.shape[1]} {v.shape[0]}\n255\n"], rows))


def write_sweep_csv(path: str, rows: list[dict]) -> None:
    """One line per row; the columns are the first row's keys, in order."""
    columns = list(rows[0])
    lines = [f"# {SWEEP_FORMAT} {','.join(columns)}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    atomic_write(path, ["\n".join(lines) + "\n"])


def write_summary(path: str, entries: dict) -> None:
    lines = [f"# {SUMMARY_FORMAT}"]
    for k, v in entries.items():
        lines.append(f"{k} = {_fmt(v)}")
    atomic_write(path, ["\n".join(lines) + "\n"])


def read_summary(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out

