"""Byte pins for the files the ``episode`` command writes.

``golden_trees.json`` holds, for seeds 1 and 2, the SHA-256 of
``trajectory.csv`` and of ``summary.txt`` (without its ``duration_s``
line) for a train run of ``golden_episode_train.ini`` and then a test run
of ``golden_episode_test.ini``, which reads the train run's summary.  The
tick counts cross the trajectory writer's piece boundaries.  Any change
to a written byte fails here.

``PYTHONPATH=src python tests/test_golden_trees.py`` rewrites the JSON
from the current code; run it only when an output changes on purpose.
"""

import configparser
import hashlib
import json
import os
import tempfile

from mazecells.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_trees.json")
CONFIGS = {
    "train": os.path.join(HERE, "golden_episode_train.ini"),
    "test": os.path.join(HERE, "golden_episode_test.ini"),
}
SEEDS = (1, 2)


def file_digest(path: str) -> str:
    """SHA-256 of a file's bytes; a summary's ``duration_s`` line is left out."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.txt":
        data = b"".join(line for line in data.splitlines(True) if not line.startswith(b"duration_s ="))
    return hashlib.sha256(data).hexdigest()


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
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert len(golden) == 4 * len(SEEDS)
    assert episode_digests(str(tmp_path)) == golden


def test_tick_counts_cross_piece_boundaries():
    from mazecells.artifacts import ROWS_PER_PIECE

    ticks = {}
    for mode, cfg in CONFIGS.items():
        cp = configparser.ConfigParser()
        cp.read(cfg)
        ticks[mode] = cp.getint("run", "tick_count")
    assert ticks == {"train": 2 * ROWS_PER_PIECE + 1, "test": ROWS_PER_PIECE + 1}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        record = episode_digests(work)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(record)} entries to {GOLDEN_PATH}")
