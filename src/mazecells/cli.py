"""Command-line front end: ratemap, episode, and sweep runs.

Exit codes: 0 on success, 2 for configuration/validation errors, 3 for
output I/O errors.  The sweep command fans grid points out over worker
processes; MAZECELLS_JOBS caps the worker count (default: all CPUs).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
import time

import numpy as np

from . import artifacts
from .analysis import (
    AnalysisError,
    coverage,
    gridness,
    halfmax_area_bins,
    peak_to_mean,
    rate_map,
    spatial_autocorrelogram,
)
from .arena import Pose, walk_trajectory
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
    return max(1, min(jobs, n_points))


def _resolve_seed(rc: RunConfig, seed: int | None, default: int | None = 0) -> int:
    if seed is not None:
        return check_seed(seed, "--seed")
    if rc.seed is not None:
        return int(rc.seed)
    if default is None:
        raise ConfigurationError("this command needs a seed ([run] seed or --seed)")
    return default


def _run_ratemap(rc: RunConfig, out_dir: str, seed: int) -> dict:
    """Shared ratemap pipeline; returns the per-cell metrics."""
    t0 = time.perf_counter()
    arena = rc.arena
    poses = walk_trajectory(arena, rc.walk, rc.tick_count, Pose(0.0, 0.0, rc.start_heading), seed=seed)
    positions = poses[:, :2]
    bounds = (-arena.radius, arena.radius, -arena.radius, arena.radius)

    metrics: dict = {
        "command": "ratemap",
        "config_hash": config_hash(rc),
        "seed": seed,
        "tick_count": rc.tick_count,
        "bin_size": rc.bin_size,
        "coverage": coverage(positions, rc.bin_size, arena.radius),
    }
    os.makedirs(out_dir, exist_ok=True)
    named_cells = [(f"grid{i + 1}", cell) for i, cell in enumerate(rc.grid_cells)]
    for name, cell in named_cells:
        rm = rate_map(positions, rates_at(positions, cell, rc.firing), rc.bin_size, bounds)
        ac = spatial_autocorrelogram(rm)
        artifacts.write_ratemap_csv(os.path.join(out_dir, f"ratemap_{name}.csv"), rm)
        artifacts.write_pgm(os.path.join(out_dir, f"ratemap_{name}.pgm"), rm.values)
        artifacts.write_autocorr_csv(os.path.join(out_dir, f"autocorr_{name}.csv"), ac)
        try:
            score = gridness(
                ac,
                rc.annulus_inner_scale * cell.spacing,
                rc.annulus_outer_scale * cell.spacing,
            )
        except AnalysisError:
            score = float("nan")  # annulus beyond the map for very large spacings
        metrics[f"gridness_{name}"] = score
        metrics[f"peak_to_mean_{name}"] = peak_to_mean(rm)
        metrics[f"halfmax_area_bins_{name}"] = halfmax_area_bins(rm)

    pm = rate_map(positions, place_activity_at(positions, rc.place, rc.firing).astype(np.float64), rc.bin_size, bounds)
    artifacts.write_ratemap_csv(os.path.join(out_dir, "ratemap_place.csv"), pm)
    artifacts.write_pgm(os.path.join(out_dir, "ratemap_place.pgm"), pm.values)
    artifacts.write_autocorr_csv(
        os.path.join(out_dir, "autocorr_place.csv"), spatial_autocorrelogram(pm)
    )

    metrics["duration_s"] = round(time.perf_counter() - t0, 3)
    artifacts.write_summary(os.path.join(out_dir, "summary.txt"), metrics)
    return metrics


def cmd_ratemap(config_path: str, out_dir: str, seed: int | None = None) -> int:
    rc = load_config(config_path)
    seed = _resolve_seed(rc, seed)
    metrics = _run_ratemap(rc, out_dir, seed)
    print(f"ratemap: wrote {out_dir} (coverage {metrics['coverage']:.3f})")
    return 0


def cmd_episode(config_path: str, mode: str, out_dir: str, seed: int | None = None) -> int:
    rc = load_config(config_path)
    seed = _resolve_seed(rc, seed, default=None)
    t0 = time.perf_counter()
    ecfg = episode_config(rc, mode, seed=seed)
    log = run_episode(ecfg)
    os.makedirs(out_dir, exist_ok=True)
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
            "duration_s": round(time.perf_counter() - t0, 3),
        },
    )
    print(
        f"episode[{mode}]: wrote {out_dir} "
        f"(w_color {float(log.w_color[-1]):.4f}, contacts {log.bumper_contacts}, "
        f"avoidances {log.avoidance_events})"
    )
    return 0


def _sweep_worker(args) -> dict:
    rc, assignment, out_dir, seed, index = args
    point = apply_sweep_point(rc, assignment)
    metrics = _run_ratemap(point, out_dir, seed)
    row = {"index": index, "seed": seed}
    row.update(assignment)
    row["gridness"] = metrics["gridness_grid1"]
    row["peak_to_mean"] = metrics["peak_to_mean_grid1"]
    row["halfmax_area_bins"] = metrics["halfmax_area_bins_grid1"]
    row["coverage"] = metrics["coverage"]
    return row


def cmd_sweep(config_path: str, out_dir: str, seed: int | None = None) -> int:
    rc = load_config(config_path)
    base_seed = _resolve_seed(rc, seed)
    points = sweep_points(rc)
    param_names = [name for name, _ in rc.sweep]
    tasks = [
        (rc, assignment, os.path.join(out_dir, f"point_{i:03d}"), base_seed + i, i)
        for i, assignment in enumerate(points)
    ]
    t0 = time.perf_counter()
    jobs = _job_count(len(tasks))
    if jobs == 1:
        rows = [_sweep_worker(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    os.makedirs(out_dir, exist_ok=True)
    artifacts.write_sweep_csv(os.path.join(out_dir, "sweep.csv"), param_names, rows)
    artifacts.write_summary(
        os.path.join(out_dir, "summary.txt"),
        {
            "command": "sweep",
            "config_hash": config_hash(rc),
            "seed": base_seed,
            "points": len(points),
            "parameters": ";".join(param_names),
            "duration_s": round(time.perf_counter() - t0, 3),
        },
    )
    print(f"sweep: wrote {out_dir} ({len(points)} points, {jobs} workers)")
    return 0


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
    try:
        if args.command == "ratemap":
            return cmd_ratemap(args.config, args.out, args.seed)
        if args.command == "episode":
            return cmd_episode(args.config, args.mode, args.out, args.seed)
        return cmd_sweep(args.config, args.out, args.seed)
    except (ConfigurationError, AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
