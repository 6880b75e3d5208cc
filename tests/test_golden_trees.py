"""Byte pins for the files the ``episode``, ``ratemap`` and ``sweep``
commands write, and a check that no block size changes them.

``golden_trees.json`` holds, for seeds 1 and 2, the SHA-256 of every file of:

- a train run of ``golden_episode_train.ini`` and then a test run of
  ``golden_episode_test.ini``, which reads the train run's summary; at
  today's 4096 rows per trajectory piece their tick counts cross piece
  boundaries;
- a ``ratemap`` run of ``golden_ratemap.ini``, and one of
  ``golden_ratemap_seams.ini``, at a low place threshold, whose walk
  crosses two seams of today's 16384-tick walk blocks;
- a ``sweep`` run of ``golden_sweep.ini``, which must give the same
  digests with one worker process and with two, and with two under each
  process start method; the one- and two-worker trees must also match
  each other in every file, the grid CSVs included.

The grid cells' ``ratemap_grid*.csv`` and ``autocorr_grid*.csv`` are left
out: their bits follow numpy's SIMD dispatch of ``np.arctan`` (ROADMAP
item 1).  Any change to another written byte fails here.

The seams the golden runs cross are those of today's block sizes.
``test_block_sizes_change_no_byte`` places its own: it reruns every golden
config at several sets of block sizes and compares every file, the grid
CSVs included, with the default-size run of the same process.

``PYTHONPATH=src python tests/test_golden_trees.py`` rewrites the JSON
from the current code; run it only when an output changes on purpose.
"""

import concurrent.futures
import fnmatch
import functools
import hashlib
import json
import multiprocessing
import os
import tempfile
from unittest import mock

import pytest

from mazecells import _kernels, analysis, artifacts
from mazecells.cli import ENV_JOBS, main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_trees.json")
CONFIGS = {
    "train": os.path.join(HERE, "golden_episode_train.ini"),
    "test": os.path.join(HERE, "golden_episode_test.ini"),
}
RATEMAP_CONFIG = os.path.join(HERE, "golden_ratemap.ini")
SEAMS_CONFIG = os.path.join(HERE, "golden_ratemap_seams.ini")
SWEEP_CONFIG = os.path.join(HERE, "golden_sweep.ini")
SEEDS = (1, 2)
# The files whose bytes depend on numpy's SIMD dispatch, by file name.
DISPATCH_DEPENDENT = ("ratemap_grid*.csv", "autocorr_grid*.csv")


def file_digest(path: str) -> str:
    """SHA-256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_digests(root: str, prefix: str, skip=DISPATCH_DEPENDENT) -> dict:
    """Digests of every file under ``root`` but those whose name matches a
    pattern of ``skip`` (by default the dispatch-dependent ones), keyed by
    ``prefix`` plus the file's path below ``root``."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not any(fnmatch.fnmatch(name, pattern) for pattern in skip):
                rel = os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
                out[f"{prefix}/{rel}"] = file_digest(os.path.join(dirpath, name))
    return out


def command_digests(work: str, command: str, config: str, label: str | None = None) -> dict:
    """Run ``command`` on ``config`` at every seed under ``work`` and
    digest its output trees, keyed under ``label`` (default: the command)."""
    label = label or command
    out = {}
    for seed in SEEDS:
        run_dir = os.path.join(work, f"seed{seed}", label)
        argv = [command, "--config", config, "--out", run_dir, "--seed", str(seed)]
        assert main(argv) == 0, argv
        out.update(tree_digests(run_dir, f"seed{seed}/{label}"))
    return out


def sweep_digests(work: str, jobs: int) -> dict:
    with mock.patch.dict(os.environ, {ENV_JOBS: str(jobs)}):
        return command_digests(work, "sweep", SWEEP_CONFIG)


def load_golden(label: str) -> dict:
    """The pinned digests of one command's runs, by label (``train`` and
    ``test`` for the episode, ``ratemap_seams`` for the seam run)."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    return {key: digest for key, digest in golden.items() if key.split("/")[1] == label}


def episode_digests(work: str) -> dict:
    """Run every seed's train and test episodes under ``work`` and digest
    their files.  The test config names ``train/summary.txt`` relative to
    the working directory, so the runs start from ``work/seed<N>``."""
    out = {}
    cwd = os.getcwd()
    try:
        for seed in SEEDS:
            run_dir = os.path.join(work, f"seed{seed}")
            os.makedirs(run_dir)
            os.chdir(run_dir)
            for mode, cfg in CONFIGS.items():
                argv = ["episode", "--mode", mode, "--config", cfg, "--out", mode, "--seed", str(seed)]
                assert main(argv) == 0, argv
                for name in ("trajectory.csv", "summary.txt"):
                    out[f"seed{seed}/{mode}/{name}"] = file_digest(os.path.join(mode, name))
    finally:
        os.chdir(cwd)
    return out


def test_episode_trees_match_golden(tmp_path):
    golden = load_golden("train") | load_golden("test")
    assert len(golden) == 4 * len(SEEDS)
    assert episode_digests(str(tmp_path)) == golden


def test_ratemap_trees_match_golden(tmp_path):
    golden = load_golden("ratemap")
    # per seed: the place cell's three files, two grid PGMs, the summary
    assert len(golden) == 6 * len(SEEDS)
    assert command_digests(str(tmp_path), "ratemap", RATEMAP_CONFIG) == golden


def test_ratemap_trees_across_block_seams_match_golden(tmp_path):
    golden = load_golden("ratemap_seams")
    assert len(golden) == 6 * len(SEEDS)
    assert command_digests(str(tmp_path), "ratemap", SEAMS_CONFIG, "ratemap_seams") == golden


def test_sweep_trees_match_golden_at_one_and_two_workers(tmp_path):
    golden = load_golden("sweep")
    # per seed: sweep.csv, the summary and each of two points' six files
    assert len(golden) == (2 + 2 * 6) * len(SEEDS)
    one, two = str(tmp_path / "jobs1"), str(tmp_path / "jobs2")
    assert sweep_digests(one, 1) == golden
    assert sweep_digests(two, 2) == golden
    # every file, the dispatch-dependent grid CSVs included, is the same
    # whichever process ran its point: per seed, each point adds 4 of them
    every = tree_digests(one, "", skip=())
    assert len(every) == len(golden) + 2 * 4 * len(SEEDS)
    assert tree_digests(two, "", skip=()) == every


# Python 3.14 makes forkserver the default on Linux; spawn is the default
# on macOS and Windows.  Workers started without fork import the package
# afresh, so no state the parent holds may reach their bytes.
@pytest.mark.parametrize(
    "method", [m for m in ("fork", "forkserver", "spawn") if m in multiprocessing.get_all_start_methods()]
)
def test_sweep_trees_match_golden_under_every_start_method(tmp_path, method):
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", side_effect=pool) as made:
        assert sweep_digests(str(tmp_path), 2) == load_golden("sweep")
    assert made.call_count == len(SEEDS)


# Sets of (_kernels.BLOCK, _kernels.SCAN_BLOCK, artifacts.ROWS_PER_PIECE,
# analysis.ROTATE_LAGS): the ticks per block of a ratemap run's walk and
# of an episode's rest readings, the points per sub-block of the corner
# scan, the rows per written trajectory piece and the lags per slice of
# gridness's rotations.
BLOCK_SIZES = {
    # every size below its runs and not a power of two
    "small": (3001, 100, 7, 64),
    # a scan sub-block smaller than the place cascade's usual finish (a
    # few hundred decodes) under a 16384-tick block
    "scan37": (16384, 37, 4096, 4096),
    # sizes one below powers of two, each below most of its runs
    "odd": (8191, 4095, 4095, 1023),
    # every size above its runs, so each run is one block
    "whole": (32769, 32769, 8193, 100000),
}


def every_tree(work: str) -> dict:
    """Run every golden config at every seed under ``work`` (the episodes,
    both ratemaps and the serial sweep) and digest every file written."""
    episode_digests(os.path.join(work, "episode"))
    command_digests(work, "ratemap", RATEMAP_CONFIG)
    command_digests(work, "ratemap", SEAMS_CONFIG, "ratemap_seams")
    sweep_digests(work, 1)
    return tree_digests(work, "", skip=())


@pytest.fixture(scope="module")
def default_size_trees(tmp_path_factory):
    trees = every_tree(str(tmp_path_factory.mktemp("default_sizes")))
    # per seed: two episodes' two files, two ratemaps' ten, and the sweep's
    # two plus ten per point
    assert len(trees) == (2 * 2 + 2 * 10 + 2 + 2 * 10) * len(SEEDS)
    return trees


@pytest.mark.parametrize("sizes", BLOCK_SIZES.values(), ids=BLOCK_SIZES.keys())
def test_block_sizes_change_no_byte(tmp_path, monkeypatch, default_size_trees, sizes):
    # a run's bytes do not depend on how its walk, decode, cascade, rest
    # readings, rotations and writers are split into blocks: every file,
    # the grid CSVs included, equals the default-size run's
    block, scan, rows, lags = sizes
    monkeypatch.setattr(_kernels, "BLOCK", block)
    monkeypatch.setattr(_kernels, "SCAN_BLOCK", scan)
    monkeypatch.setattr(artifacts, "ROWS_PER_PIECE", rows)
    monkeypatch.setattr(analysis, "ROTATE_LAGS", lags)
    assert every_tree(str(tmp_path)) == default_size_trees


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        record = episode_digests(os.path.join(work, "episode"))
        record.update(command_digests(work, "ratemap", RATEMAP_CONFIG))
        record.update(command_digests(work, "ratemap", SEAMS_CONFIG, "ratemap_seams"))
        record.update(sweep_digests(work, 1))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(record)} entries to {GOLDEN_PATH}")
