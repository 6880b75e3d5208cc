"""Command-line front end: ratemap, episode, and sweep runs.

Exit codes: 0 on success, 2 for configuration/validation errors, 3 for
output I/O errors.  Each ``cmd_*`` returns its one stdout line, to which
``main`` adds the run's wall time.  The sweep command fans grid points
out over worker processes; MAZECELLS_JOBS caps the worker count
(default: all CPUs).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import artifacts
# Not called here, but kept bound on this module, where perfbench's tracer
# patches them: rate_map, walk_trajectory.
from .analysis import (
    AnalysisError,
    Binning,
    autocorr_mask,
    coverage,
    gridness,
    halfmax_area_bins,
    peak_to_mean,
    rate_map,
    spatial_autocorrelogram,
)
from .arena import Pose, walk_blocks, walk_trajectory
from .config import (
    RunConfig,
    apply_sweep_point,
    config_hash,
    episode_config,
    load_config,
    sweep_points,
)
from .controller import run_episode
from .spatialcells import ConfigurationError, check_seed, place_activity_at, rates_at

ENV_JOBS = "MAZECELLS_JOBS"


def _job_count(n_points: int) -> int:
    raw = os.environ.get(ENV_JOBS, "").strip()
    if raw:
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{ENV_JOBS} must be an integer, got {raw!r}") from exc
        if jobs < 1:
            raise ConfigurationError(f"{ENV_JOBS} must be >= 1, got {jobs}")
    else:
        jobs = os.cpu_count() or 1
    return min(jobs, n_points)


def _resolve_seed(rc: RunConfig, seed: int | None) -> int:
    """``--seed``, checked, or else the config's walk seed (``[run] seed``, or 0)."""
    return rc.walk.seed if seed is None else check_seed(seed, "--seed")


def _run_ratemap(rc: RunConfig, out_dir: str, seed: int) -> dict:
    """Shared ratemap pipeline; returns the per-cell metrics.

    The walk is decoded and binned one block of ``_kernels.BLOCK`` ticks at
    a time, so no array grows with the tick count: each grid cell's rates
    and the place cell's outputs go into one ``Binning`` as map 0..G-1 and
    map G, and the maps are read from it after the walk.
    """
    arena = rc.arena
    r = arena.radius
    binning = Binning(rc.bin_size, (-r, r, -r, r), len(rc.grid_cells) + 1)
    for poses in walk_blocks(arena, rc.walk, rc.tick_count, Pose(0.0, 0.0, rc.start_heading), seed=seed):
        positions = poses[:, :2]
        rates = [rates_at(positions, cell, rc.firing) for cell in rc.grid_cells]
        binning.add(positions, *rates, place_activity_at(positions, rc.place, rc.firing))

    metrics: dict = {
        "command": "ratemap",
        "config_hash": config_hash(rc),
        "seed": seed,
        "tick_count": rc.tick_count,
        "bin_size": rc.bin_size,
        "coverage": binning.disc_coverage(r),
    }
    # map i of the binning: the grid maps in config order, then the place
    # map, which is written but not scored
    maps = [(f"grid{i + 1}", cell) for i, cell in enumerate(rc.grid_cells)] + [("place", None)]
    # every map has the binning's visited bins, so the autocorrelogram's
    # terms that depend only on them are computed once, for all maps
    mask = autocorr_mask(binning.occupancy > 0)
    for i, (name, cell) in enumerate(maps):
        rm = binning.mean_map(i)
        ac = spatial_autocorrelogram(rm, mask)
        artifacts.write_ratemap_csv(os.path.join(out_dir, f"ratemap_{name}.csv"), rm)
        artifacts.write_pgm(os.path.join(out_dir, f"ratemap_{name}.pgm"), rm.values)
        artifacts.write_autocorr_csv(os.path.join(out_dir, f"autocorr_{name}.csv"), ac)
        if cell is None:
            continue
        try:
            score = gridness(
                ac,
                rc.annulus_inner_scale * cell.spacing,
                rc.annulus_outer_scale * cell.spacing,
            )
        except AnalysisError:
            # the annulus holds too few defined bins (it reaches past the map
            # at a very large spacing), is constant, or keeps too few bins
            # after a rotation (a short walk)
            score = float("nan")
        metrics[f"gridness_{name}"] = score
        metrics[f"peak_to_mean_{name}"] = peak_to_mean(rm)
        metrics[f"halfmax_area_bins_{name}"] = halfmax_area_bins(rm)

    artifacts.write_summary(os.path.join(out_dir, "summary.txt"), metrics)
    return metrics


def cmd_ratemap(config_path: str, out_dir: str, seed: int | None = None) -> str:
    rc = load_config(config_path)
    seed = _resolve_seed(rc, seed)
    metrics = _run_ratemap(rc, out_dir, seed)
    return f"ratemap: wrote {out_dir} (coverage {metrics['coverage']:.3f})"


def cmd_episode(config_path: str, mode: str, out_dir: str, seed: int | None = None) -> str:
    rc = load_config(config_path)
    # without --seed, episode_config takes [run] seed, and fails if there is none
    ecfg = episode_config(rc, mode, seed=None if seed is None else check_seed(seed, "--seed"))
    log = run_episode(ecfg)
    artifacts.write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), log)
    artifacts.write_summary(
        os.path.join(out_dir, "summary.txt"),
        {
            "command": "episode",
            "config_hash": config_hash(rc),
            "seed": ecfg.seed,
            "mode": mode,
            "tick_count": ecfg.tick_count,
            "final_w_color": float(log.w_color[-1]),
            "bumper_contacts": log.bumper_contacts,
            "avoidance_events": log.avoidance_events,
            "coverage": coverage(log.positions, rc.bin_size, rc.arena.radius),
        },
    )
    return (
        f"episode[{mode}]: wrote {out_dir} "
        f"(w_color {float(log.w_color[-1]):.4f}, contacts {log.bumper_contacts}, "
        f"avoidances {log.avoidance_events})"
    )


def _sweep_worker(args) -> dict:
    """One sweep.csv row, in column order: the point's index and seed, its
    swept values, then its first grid cell's metrics and the coverage."""
    rc, assignment, out_dir, seed, index = args
    point = apply_sweep_point(rc, assignment)
    metrics = _run_ratemap(point, out_dir, seed)
    row = {"index": index, "seed": seed, **assignment}
    for name in ("gridness", "peak_to_mean", "halfmax_area_bins"):
        row[name] = metrics[f"{name}_grid1"]
    row["coverage"] = metrics["coverage"]
    return row


def cmd_sweep(config_path: str, out_dir: str, seed: int | None = None) -> str:
    rc = load_config(config_path)
    base_seed = _resolve_seed(rc, seed)
    points = sweep_points(rc)
    param_names = [name for name, _ in rc.sweep]
    tasks = [
        (rc, assignment, os.path.join(out_dir, f"point_{i:03d}"), base_seed + i, i)
        for i, assignment in enumerate(points)
    ]
    jobs = _job_count(len(tasks))
    if jobs == 1:
        rows = [_sweep_worker(t) for t in tasks]
    else:
        # Imported only here, so that a ratemap or episode run loads neither
        # the pool nor the logging it imports.  ProcessPoolExecutor is looked
        # up on the module, where a caller may patch it.
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    artifacts.write_sweep_csv(os.path.join(out_dir, "sweep.csv"), rows)
    artifacts.write_summary(
        os.path.join(out_dir, "summary.txt"),
        {
            "command": "sweep",
            "config_hash": config_hash(rc),
            "seed": base_seed,
            "points": len(points),
            "parameters": ";".join(param_names),
        },
    )
    return f"sweep: wrote {out_dir} ({len(points)} points, {jobs} workers)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mazecells",
        description="Arena simulator: spatial rate maps, learning episodes, parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="path to a run config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")

    sp = sub.add_parser("ratemap", help="random walk + rate maps + autocorrelograms")
    add_common(sp)
    sp = sub.add_parser("episode", help="closed-loop learning/test episode")
    add_common(sp)
    sp.add_argument("--mode", required=True, choices=("train", "test"))
    sp = sub.add_parser("sweep", help="ratemap over the [sweep] parameter grid")
    add_common(sp)

    args = parser.parse_args(argv)
    # wall time is host-dependent, so it goes to stdout, never into a file
    t0 = time.perf_counter()
    try:
        if args.command == "ratemap":
            report = cmd_ratemap(args.config, args.out, args.seed)
        elif args.command == "episode":
            report = cmd_episode(args.config, args.mode, args.out, args.seed)
        else:
            report = cmd_sweep(args.config, args.out, args.seed)
    except (ConfigurationError, AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    print(f"{report} in {time.perf_counter() - t0:.3f} s")
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
