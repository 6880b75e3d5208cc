"""Workload definitions: the INI configs and CLI steps of one workload run.

Every input is generated here from the workload seed; the program sees
only the config files and the command lines.  Each workload was chosen
so that a different layer dominates its wall time (measured on 2 CPUs,
numpy kernel path):

- ratemap-long: lattice decode (``spatialcells.rates_at``) dominates,
  the autocorrelogram is small (52x52 maps).
- ratemap-fine: the autocorrelogram dominates (104x104 maps), the
  lattice decode and the walk are small.  Mirror image of ratemap-long.
- episode-pair: the per-tick controller loop, ``arena.color_sample``,
  ``learning`` and 80k trajectory rows through ``artifacts``; no
  autocorrelogram at all.
- sweep-pool: the only workload that uses the sweep command's
  process-pool fan-out.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

# The seed whose summaries are recorded in golden.json.
DEFAULT_SEED = 1

SWEEP_SPACINGS = (0.7, 0.85, 1.0, 1.15)
SWEEP_JOBS = 2
COLOR_ACTIVATION_THRESHOLD = 0.3  # the default [circuit] color_activation_threshold


@dataclass(frozen=True)
class RunInputs:
    """Files to write and CLI argument lists to run, in order, for one run."""

    files: dict[str, str]
    steps: list[list[str]]
    out_root: str
    ticks: int
    env: dict[str, str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, str, float], RunInputs]
    # Seed-independent checks on full-size outputs; returns problem strings.
    invariants: Callable[[dict], list[str]]


def _ticks(full: int, scale: float) -> int:
    return max(500, int(round(full * scale)))


def _ratemap_inputs(ticks: int, bin_size: float):
    def make(seed: int, work: str, scale: float) -> RunInputs:
        n = _ticks(ticks, scale)
        cfg = os.path.join(work, "ratemap.ini")
        out = os.path.join(work, "out")
        text = f"[run]\nseed = {seed}\ntick_count = {n}\n\n[analysis]\nbin_size = {bin_size!r}\n"
        return RunInputs(
            files={cfg: text},
            steps=[["ratemap", "--config", cfg, "--out", out]],
            out_root=out,
            ticks=n,
            env={},
        )

    return make


def _episode_pair(seed: int, work: str, scale: float) -> RunInputs:
    n = _ticks(40_000, scale)
    out = os.path.join(work, "out")
    train_cfg = os.path.join(work, "train.ini")
    test_cfg = os.path.join(work, "test.ini")
    train_out = os.path.join(out, "train")
    test_out = os.path.join(out, "test")
    train_summary = os.path.join(train_out, "summary.txt")
    return RunInputs(
        files={
            train_cfg: f"[run]\nseed = {seed}\ntick_count = {n}\n",
            test_cfg: (
                f"[run]\nseed = {seed + 1}\ntick_count = {n}\n\n"
                f"[circuit]\ntrain_summary = {train_summary}\n"
            ),
        },
        steps=[
            ["episode", "--mode", "train", "--config", train_cfg, "--out", train_out],
            ["episode", "--mode", "test", "--config", test_cfg, "--out", test_out],
        ],
        out_root=out,
        ticks=2 * n,
        env={},
    )


def _sweep_pool(seed: int, work: str, scale: float) -> RunInputs:
    n = _ticks(50_000, scale)
    cfg = os.path.join(work, "sweep.ini")
    out = os.path.join(work, "out")
    values = ", ".join(repr(v) for v in SWEEP_SPACINGS)
    return RunInputs(
        files={cfg: f"[run]\nseed = {seed}\ntick_count = {n}\n\n[sweep]\nspacing = {values}\n"},
        steps=[["sweep", "--config", cfg, "--out", out]],
        out_root=out,
        ticks=n * len(SWEEP_SPACINGS),
        env={"MAZECELLS_JOBS": str(SWEEP_JOBS)},
    )


def _num(summary: dict, key: str) -> float:
    try:
        return float(summary[key])
    except (KeyError, ValueError):
        return math.nan


def _check(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _ratemap_invariants(min_gridness: float, min_coverage: float):
    def check(outputs: dict) -> list[str]:
        s = outputs.get("summary.txt", {})
        problems: list[str] = []
        g = _num(s, "gridness_grid1")
        _check(problems, g > min_gridness, f"gridness_grid1 {g} <= {min_gridness}")
        c = _num(s, "coverage")
        _check(problems, min_coverage < c <= 1.0, f"coverage {c} outside ({min_coverage}, 1]")
        p = _num(s, "peak_to_mean_grid1")
        _check(problems, p > 1.0, f"peak_to_mean_grid1 {p} <= 1")
        return problems

    return check


def _episode_invariants(outputs: dict) -> list[str]:
    train = outputs.get("train/summary.txt", {})
    test = outputs.get("test/summary.txt", {})
    problems: list[str] = []
    w = _num(train, "final_w_color")
    _check(
        problems,
        COLOR_ACTIVATION_THRESHOLD < w <= 1.0,
        f"train final_w_color {w} not above {COLOR_ACTIVATION_THRESHOLD}",
    )
    _check(problems, _num(train, "bumper_contacts") > 0, "train made no bumper contact")
    _check(problems, _num(test, "avoidance_events") > 0, "test made no avoidance")
    _check(
        problems,
        test.get("final_w_color") == train.get("final_w_color"),
        "test weight differs from the train summary's final_w_color",
    )
    return problems


def _sweep_invariants(outputs: dict) -> list[str]:
    rows = outputs.get("sweep.csv", [])
    problems: list[str] = []
    _check(problems, len(rows) == len(SWEEP_SPACINGS), f"sweep.csv has {len(rows)} rows")
    for row in rows:
        g = _num(row, "gridness")
        _check(problems, g > 0.5, f"sweep point {row.get('index')} gridness {g} <= 0.5")
    return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ratemap-long",
            "200k-tick ratemap at 0.05 m bins: lattice decode in rates_at dominates, 52x52 autocorrelograms are small",
            _ratemap_inputs(200_000, 0.05),
            _ratemap_invariants(1.0, 0.9),
        ),
        Workload(
            "ratemap-fine",
            "60k-tick ratemap at 0.025 m bins: 104x104 autocorrelograms dominate, decode and walk are small",
            _ratemap_inputs(60_000, 0.025),
            _ratemap_invariants(0.5, 0.5),
        ),
        Workload(
            "episode-pair",
            "train then test episode of 40k ticks each: per-tick controller, color_sample, learning, trajectory CSVs",
            _episode_pair,
            _episode_invariants,
        ),
        Workload(
            "sweep-pool",
            "4-point spacing sweep of 50k-tick ratemaps over 2 worker processes: the CLI's process-pool fan-out",
            _sweep_pool,
            _sweep_invariants,
        ),
    )
}
