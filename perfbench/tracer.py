"""Span tracing around the public functions of each mazecells layer.

The wrappers are installed from outside the package by rebinding module
attributes, so the program itself is unchanged.  Each wrapped call at a
layer boundary records a span (id, name, start, end, parent id).  Calls
made once per simulated tick (``color_sample``, ``motion_output``,
``oja_update``) are only counted and timed in aggregate, which keeps the
overhead of tracing an 80k-tick episode small.  A layer's self time is
the time inside its spans minus the time inside their child spans.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# Summary line holding the run's wall time, the one output that differs
# between identical runs.
VOLATILE_PREFIX = "duration_s ="


def stable_text(data: bytes) -> str:
    """File text without the wall-clock line."""
    lines = data.decode("utf-8").splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(VOLATILE_PREFIX))


def written_bytes(path: str) -> int:
    """Size of a written artifact, not counting a summary's wall-clock line."""
    if os.path.basename(path) != "summary.txt":
        return os.path.getsize(path)
    with open(path, "rb") as fh:
        return len(stable_text(fh.read()).encode("utf-8"))


# Bytes the direct masked-Pearson autocorrelogram reads per overlapping
# bin pair: two float64 values and two visited flags.
AUTOCORR_BYTES_PER_BIN_PAIR = 2 * 8 + 2 * 1


def autocorr_work(ny: int, nx: int) -> tuple[int, int]:
    """Lags and computed bytes of the autocorrelogram of an ny x nx map.

    Lags are the (2ny-1)(2nx-1) output entries.  Bytes count, over the
    lags the direct algorithm evaluates (one of each mirrored pair), the
    overlap area times the bytes read per bin pair; a model of the work,
    computed from the shape, not measured.
    """
    lags = (2 * ny - 1) * (2 * nx - 1)
    overlap = 0
    for dy in range(ny):
        rows = ny - dy
        cols = nx * nx if dy > 0 else nx * (nx + 1) // 2  # sum over dx of nx - |dx|
        overlap += rows * cols
    return lags, overlap * AUTOCORR_BYTES_PER_BIN_PAIR


class Tracer:
    """Collects spans and per-layer totals for one traced run at a time."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # Cleared in place: the per-tick wrappers hold these dicts.
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.top_level_s = 0.0
        self.spans.clear()

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``count(args, result)`` returns extra counters to add.
        """
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                self.counts[name + ".calls"] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_level_s += dur
                self.spans.append((sid, name, t0, t1, parent))
            if count is not None:
                for key, n in count(args, result).items():
                    self.counts[key] += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def per_tick(self, name: str, fn):
        """Wrap a per-tick callee: count and time in aggregate, no span.

        The wrapped functions call no other wrapped function, so their
        time is all self time.
        """
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dur = clock() - t0
            self_s[name] += dur
            counts[calls] += 1
            stack[-1][1] += dur
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Rebind the layer entry points that the CLI and controller call."""
        from mazecells import artifacts, cli, controller, spatialcells

        def rows(args, result):
            return {"arena.walk_trajectory.ticks": int(result.shape[0])}

        def points(args, result):
            return {"spatialcells.rates_at.points": int(result.shape[0])}

        def lags(args, result):
            ny, nx = args[0].values.shape
            n_lags, n_bytes = autocorr_work(ny, nx)
            return {
                "analysis.spatial_autocorrelogram.lags": n_lags,
                "analysis.spatial_autocorrelogram.bytes_computed": n_bytes,
            }

        def episode_ticks(args, result):
            return {"controller.run_episode.ticks": len(result)}

        def written(args, result):
            return {"artifacts.files": 1, "artifacts.bytes": written_bytes(args[0])}

        self._patch(cli, "load_config", self.span("config.load_config", cli.load_config))
        self._patch(cli, "walk_trajectory", self.span("arena.walk_trajectory", cli.walk_trajectory, rows))

        rates = self.span("spatialcells.rates_at", spatialcells.rates_at, points)
        place = self.span("spatialcells.place_activity_at", spatialcells.place_activity_at)
        for module in (cli, controller, spatialcells):
            self._patch(module, "rates_at", rates)
        for module in (cli, controller):
            self._patch(module, "place_activity_at", place)

        self._patch(cli, "rate_map", self.span("analysis.rate_map", cli.rate_map))
        self._patch(
            cli,
            "spatial_autocorrelogram",
            self.span("analysis.spatial_autocorrelogram", cli.spatial_autocorrelogram, lags),
        )
        self._patch(cli, "gridness", self.span("analysis.gridness", cli.gridness))
        for attr in ("peak_to_mean", "halfmax_area_bins", "coverage"):
            self._patch(cli, attr, self.span("analysis.scores", getattr(cli, attr)))

        self._patch(cli, "run_episode", self.span("controller.run_episode", cli.run_episode, episode_ticks))
        self._patch(controller, "color_sample", self.per_tick("arena.color_sample", controller.color_sample))
        for attr in ("motion_output", "oja_update"):
            self._patch(controller, attr, self.per_tick("learning", getattr(controller, attr)))

        for attr in (
            "write_trajectory_csv",
            "write_ratemap_csv",
            "write_autocorr_csv",
            "write_pgm",
            "write_sweep_csv",
            "write_summary",
        ):
            self._patch(artifacts, attr, self.span("artifacts", getattr(artifacts, attr), written))
        self._patch(artifacts, "read_summary", self.span("artifacts", artifacts.read_summary))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
