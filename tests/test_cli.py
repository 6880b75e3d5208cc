"""End-to-end command-line runs against temp directories.

Short tick counts keep these fast; determinism checks compare bytes on
disk, not parsed values, since identical reruns must match exactly.
"""

import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazecells.artifacts import read_summary
from mazecells.cli import main
from mazecells.config import DEFAULT_LAYOUT, NUMBERED_KINDS, SCHEMA, build_ini

FAST_RUN = "[run]\ntick_count = 400\nseed = 5\n"


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def tree_bytes(root):
    """Map of relative path -> file bytes, for every file under ``root``."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for fn in files:
            full = os.path.join(dirpath, fn)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def test_ratemap_writes_expected_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN)
    out = tmp_path / "rm"
    assert main(["ratemap", "--config", cfg, "--out", str(out)]) == 0
    assert "ratemap: wrote" in capsys.readouterr().out
    for name in (
        "ratemap_grid1.csv",
        "ratemap_grid1.pgm",
        "autocorr_grid1.csv",
        "ratemap_grid2.csv",
        "ratemap_place.csv",
        "ratemap_place.pgm",
        "autocorr_place.csv",
        "summary.txt",
    ):
        assert (out / name).exists(), name
    summary = read_summary(str(out / "summary.txt"))
    assert summary["command"] == "ratemap"
    assert summary["seed"] == "5"
    assert summary["tick_count"] == "400"
    assert 0.0 < float(summary["coverage"]) <= 1.0
    assert "gridness_grid1" in summary
    assert (out / "ratemap_grid1.pgm").read_text().splitlines()[0] == "P2"
    # the matrix parses as CSV below its # header
    values = np.loadtxt(out / "ratemap_grid1.csv", delimiter=",")
    assert values.shape == (52, 52)  # 2 * 1.3 / 0.05 bins per side


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["ratemap"], "ratemap"),
        (["episode", "--mode", "train"], "episode[train]"),
        (["episode", "--mode", "test"], "episode[test]"),
        (["sweep"], "sweep"),
    ],
    ids=["ratemap", "episode-train", "episode-test", "sweep"],
)
def test_rerun_writes_a_byte_identical_tree(tmp_path, monkeypatch, capsys, argv, prefix):
    monkeypatch.setenv("MAZECELLS_JOBS", "1")
    cfg = write_cfg(tmp_path, FAST_RUN + "[circuit]\ninitial_w_color = 0.55\n[sweep]\nkappa = 1, 20\n")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
        # the wall time goes to the one stdout line, never into a file
        line = rf"{re.escape(prefix)}: wrote {re.escape(str(out))} \(.+\) in \d+\.\d{{3}} s\n"
        assert re.fullmatch(line, capsys.readouterr().out)
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert "summary.txt" in ta and ta == tb


def test_seed_override_changes_trajectory(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RUN)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["episode", "--mode", "train", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert main(["episode", "--mode", "train", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
    assert read_summary(str(a / "summary.txt"))["seed"] == "1"
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


def test_episode_train_then_test_weight_handoff(tmp_path):
    cfg = write_cfg(tmp_path, "[run]\ntick_count = 1500\nseed = 11\n")
    train_out = tmp_path / "train"
    assert main(["episode", "--mode", "train", "--config", cfg, "--out", str(train_out)]) == 0
    train_summary = read_summary(str(train_out / "summary.txt"))
    assert train_summary["mode"] == "train"
    trained_w = float(train_summary["final_w_color"])
    assert trained_w > 0.0

    test_cfg = write_cfg(
        tmp_path,
        "[run]\ntick_count = 400\nseed = 12\n"
        f"[circuit]\ntrain_summary = {train_out / 'summary.txt'}\n",
        name="test.ini",
    )
    test_out = tmp_path / "test"
    assert main(["episode", "--mode", "test", "--config", test_cfg, "--out", str(test_out)]) == 0
    test_summary = read_summary(str(test_out / "summary.txt"))
    assert test_summary["mode"] == "test"
    # learning is frozen in test mode, so the weight comes through unchanged
    assert float(test_summary["final_w_color"]) == trained_w

    header = (test_out / "trajectory.csv").read_text().splitlines()[1]
    assert header == "tick,x,y,heading,vibration,x_color,y_out,w_color"
    rows = (test_out / "trajectory.csv").read_text().count("\n") - 2
    assert rows == 400


def test_test_mode_without_weight_source_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN)
    rc = main(["episode", "--mode", "test", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_broken_train_summary_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN + "[circuit]\ntrain_summary = /nonexistent/summary.txt\n")
    assert main(["episode", "--mode", "test", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    # a summary that parses but lacks the weight entry is also rejected
    stub = tmp_path / "stub.txt"
    stub.write_text("command = episode\n")
    cfg2 = write_cfg(tmp_path, FAST_RUN + f"[circuit]\ntrain_summary = {stub}\n", name="b.ini")
    assert main(["episode", "--mode", "test", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 2
    assert "final_w_color" in capsys.readouterr().err
    # a weight entry that is not a finite number
    for i, (raw, offender) in enumerate((("abc", "final_w_color"), ("nan", "initial_w_color"))):
        stub.write_text(f"command = episode\nfinal_w_color = {raw}\n")
        out = tmp_path / f"o{i + 3}"
        assert main(["episode", "--mode", "test", "--config", cfg2, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and offender in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("target", ["config", "train_summary"])
def test_file_that_is_not_utf8_exits_2_before_any_output(tmp_path, capsys, target):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"[run]\nseed = 1\n# \xff\n")
    if target == "config":
        cfg, argv = str(bad), ["ratemap"]
    else:
        cfg = write_cfg(tmp_path, FAST_RUN + f"[circuit]\ntrain_summary = {bad}\n")
        argv = ["episode", "--mode", "test"]
    out = tmp_path / "o"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {target} {bad}: ") and "Traceback" not in err
    assert not out.exists()


def test_config_errors_exit_2(tmp_path, capsys):
    bad = write_cfg(tmp_path, "[bogus]\nx = 1\n")
    assert main(["ratemap", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err
    missing = str(tmp_path / "missing.ini")
    assert main(["ratemap", "--config", missing, "--out", str(tmp_path / "o")]) == 2


ZONE = {"center_x": 1.04, "center_y": 0.44, "radius": 0.2, "amplitude": 8.0}

# (id, config sections, text the error must contain)
NON_FINITE_CASES = [
    ("speed-nan", {"walk": {"speed": "nan"}}, "speed"),
    ("dt-nan", {"walk": {"dt": "nan"}}, "dt"),
    ("turn_sigma-inf", {"walk": {"turn_sigma": "inf"}}, "turn_sigma"),
    ("bin_size-nan", {"analysis": {"bin_size": "nan"}}, "bin_size"),
    ("start_heading-nan", {"walk": {"start_heading": "nan"}}, "start_heading"),
    ("start_heading-inf", {"walk": {"start_heading": "inf"}}, "start_heading"),
    ("jitter_sigma-nan", {"controller": {"jitter_sigma": "nan"}}, "jitter_sigma"),
    ("noise_sigma-nan", {"sensors": {"noise_sigma": "nan"}}, "noise_sigma"),
    ("initial_w_color-nan", {"circuit": {"initial_w_color": "nan"}}, "initial_w_color"),
    ("vibration_threshold-nan", {"circuit": {"vibration_threshold": "nan"}}, "vibration_threshold"),
    (
        "color_activation_threshold-nan",
        {"circuit": {"color_activation_threshold": "nan"}},
        "color_activation_threshold",
    ),
    ("max_range-nan", {"camera": {"max_range": "nan"}}, "max_range"),
    ("zone_radius-nan", {"zone 1": dict(ZONE, radius="nan")}, "zone radius"),
    ("zone_amplitude-nan", {"zone 1": dict(ZONE, amplitude="nan")}, "zone amplitude"),
    ("zone_center-nan", {"zone 1": dict(ZONE, center_x="nan")}, "zone center"),
    ("wall_angle-nan", {"wall 1": {"start_angle": "nan", "end_angle": 1.0}}, "wall arc"),
    ("anchor_x-nan", {"place": {"anchor_x": "nan"}}, "anchor"),
    ("spacing_max-inf", {"place": {"spacing_max": "inf"}}, "[place] spacing_max"),
]
COMMANDS = {
    "ratemap": ["ratemap"],
    "train": ["episode", "--mode", "train"],
    "test": ["episode", "--mode", "test"],
}


# ratemap cases keep the bare case id; episode cases append the mode
@pytest.mark.parametrize(
    "command, sections, offender",
    [
        pytest.param(argv, sections, offender, id=case if cmd == "ratemap" else f"{case}-{cmd}")
        for case, sections, offender in NON_FINITE_CASES
        for cmd, argv in COMMANDS.items()
    ],
)
@pytest.mark.filterwarnings("error")  # rejected before numpy can warn about it
def test_non_finite_walk_or_bin_size_exits_2(tmp_path, capsys, command, sections, offender):
    base = {"run": {"tick_count": 400, "seed": 5}, "circuit": {"initial_w_color": 0.5}}
    for name, keys in sections.items():
        base[name] = dict(base.get(name, {}), **keys)
    cfg = write_cfg(tmp_path, build_ini(base))
    out = tmp_path / "o"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert offender in err
    assert not out.exists()


# (id, config sections, text the error must start with): finite values
# outside the range a run can handle
MAGNITUDE_CASES = [
    ("noise_sigma-1e155", {"sensors": {"noise_sigma": "1e155"}}, "[sensors] noise_sigma"),
    ("spacing_max-1e300", {"place": {"spacing_max": "1e300"}}, "[place] spacing_max"),
    ("spacing_min-1e-300", {"place": {"spacing_min": "1e-300"}}, "[place] spacing_min"),
    ("noise_sigma-negative", {"sensors": {"noise_sigma": "-1"}}, "[sensors] noise_sigma"),
    ("jitter_sigma-negative", {"controller": {"jitter_sigma": "-1"}}, "[controller] jitter_sigma"),
    ("zone_amplitude-1e300", {"zone 1": dict(ZONE, amplitude="1e300")}, "[arena] zone amplitudes"),
    ("turn_sigma-1e20", {"walk": {"turn_sigma": "1e20"}}, "[walk] turn_sigma"),
    ("jitter_sigma-1e20", {"controller": {"jitter_sigma": "1e20"}}, "[controller] jitter_sigma"),
    ("bin_size-1e155", {"analysis": {"bin_size": "1e155"}}, "[analysis] bin_size"),
    ("anchor_x-1e17", {"place": {"anchor_x": "1e17"}}, "[place] anchor"),
    # every rate away from a node rounds to 0.0, so no map has a positive mean
    ("kappa-1e300", {"firing": {"kappa": "1e300", "zeta": "0.01"}}, "[firing] kappa"),
    # every rate rounds to exactly 0.5, so a map is constant and has no gridness
    ("kappa-1e-300", {"firing": {"kappa": "1e-300", "zeta": "0.5"}}, "[firing] kappa"),
    # a test-mode reading of 0.0 would fire the reflex on every tick
    (
        "vibration_threshold-zero",
        {"circuit": {"initial_w_color": 0.5, "vibration_threshold": "0"}},
        "[circuit] vibration_threshold",
    ),
]


@pytest.mark.parametrize(
    "command, sections, offender",
    [
        pytest.param(argv, sections, offender, id=f"{case}-{cmd}")
        for case, sections, offender in MAGNITUDE_CASES
        for cmd, argv in COMMANDS.items()
    ],
)
@pytest.mark.filterwarnings("error")
def test_out_of_range_magnitude_exits_2_naming_the_key(tmp_path, capsys, command, sections, offender):
    base = {"run": {"tick_count": 400, "seed": 5}, "circuit": {"initial_w_color": 0.5}}
    base.update(sections)
    cfg = write_cfg(tmp_path, build_ini(base))
    out = tmp_path / "o"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {offender} must ") and "Traceback" not in err
    assert not out.exists()


def test_inverted_annulus_exits_2_before_any_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN + "[analysis]\nannulus_inner_scale = 2.0\n")
    out = tmp_path / "o"
    assert main(["ratemap", "--config", cfg, "--out", str(out)]) == 2
    assert "annulus" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, run_seed, flag_seed",
    [
        ("ratemap", "5", "-1"),
        ("ratemap", "-3", None),
        ("episode", "5", "-1"),
        ("episode", "-3", None),
        ("sweep", "5", "-1"),
        ("sweep", "-3", None),
    ],
)
def test_negative_seed_exits_2_before_any_output(tmp_path, capsys, command, run_seed, flag_seed):
    text = f"[run]\ntick_count = 400\nseed = {run_seed}\n"
    if command == "sweep":
        text += "[sweep]\nkappa = 1, 5\n"
    out = tmp_path / "o"
    argv = [command, "--config", write_cfg(tmp_path, text), "--out", str(out)]
    if command == "episode":
        argv += ["--mode", "train"]
    if flag_seed is not None:
        argv += ["--seed", flag_seed]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "run_section, flag_seed, message",
    [
        ("seed = 5\n", "-1", "--seed must be"),
        ("", None, "needs a seed ([run] seed or --seed)"),
    ],
    ids=["negative-flag", "no-seed"],
)
def test_episode_seed_resolves_like_the_other_commands(
    tmp_path, capsys, run_section, flag_seed, message
):
    cfg = write_cfg(tmp_path, "[run]\ntick_count = 400\n" + run_section)
    out = tmp_path / "o"
    argv = ["episode", "--mode", "train", "--config", cfg, "--out", str(out)]
    if flag_seed is not None:
        argv += ["--seed", flag_seed]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ticks", [1, 2])
def test_failed_ratemap_leaves_no_out_directory(tmp_path, capsys, ticks):
    # one or two ticks visit too few bins for an autocorrelogram; the run
    # fails before its first file, so --out must not be made either
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, f"[run]\ntick_count = {ticks}\n")
    assert main(["ratemap", "--config", cfg, "--out", str(out)]) == 2
    assert "at least 2 visited bins" in capsys.readouterr().err
    assert not out.exists()


def test_output_path_collision_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["ratemap", "--config", cfg, "--out", str(blocker)]) == 3
    assert "output error:" in capsys.readouterr().err


def test_sweep_grid_and_seeds(tmp_path, monkeypatch):
    monkeypatch.setenv("MAZECELLS_JOBS", "1")
    cfg = write_cfg(tmp_path, FAST_RUN + "[sweep]\nkappa = 1, 5\nzeta = 0.1, 0.3\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "index,seed,kappa,zeta,gridness,peak_to_mean,halfmax_area_bins,coverage"
    assert len(lines) == 2 + 4  # comment, header, one row per grid point
    for i in range(4):
        assert (out / f"point_{i:03d}" / "summary.txt").exists()
        fields = lines[2 + i].split(",")
        assert fields[0] == str(i)
        assert fields[1] == str(5 + i)  # per-point seed = base + index
    summary = read_summary(str(out / "summary.txt"))
    assert summary["points"] == "4"
    assert summary["parameters"] == "kappa;zeta"


def test_bad_jobs_env_exits_2(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN + "[sweep]\nkappa = 1, 5\n")
    monkeypatch.setenv("MAZECELLS_JOBS", "zero")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    monkeypatch.setenv("MAZECELLS_JOBS", "0")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "MAZECELLS_JOBS" in err


def test_sweep_without_sweep_section_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RUN)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bad_sweep_value_exits_2_before_any_point_runs(tmp_path, monkeypatch, capsys, jobs):
    # every listed value is checked at parse time: point 0 (spacing 1.0)
    # is valid, and must not be run and written before point 1 fails
    cfg = write_cfg(tmp_path, FAST_RUN + "[sweep]\nspacing = 1.0, 1e9\n")
    out = tmp_path / "o"
    monkeypatch.setenv("MAZECELLS_JOBS", jobs)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: [sweep] spacing must ")
    assert not out.exists()


def test_episode_requires_mode_flag(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RUN)
    with pytest.raises(SystemExit):
        main(["episode", "--config", cfg, "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("command", ["ratemap", "episode", "sweep"])
def test_huge_tick_count_exits_2_before_any_output(tmp_path, capsys, monkeypatch, command):
    import mazecells.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a run started with a huge tick count")

    # belt and braces: the run must never reach a walk, a binning or an episode
    for name in ("walk_blocks", "Binning", "run_episode"):
        monkeypatch.setattr(cli, name, never)
    text = "[run]\ntick_count = 1000000000000\nseed = 5\n"
    if command == "sweep":
        text += "[sweep]\nkappa = 1, 5\n"
    out = tmp_path / "o"
    argv = [command, "--config", write_cfg(tmp_path, text), "--out", str(out)]
    if command == "episode":
        argv += ["--mode", "train"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tick_count" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "place, bound",
    [("", 2.5 * 2**20), ("[place]\nthreshold_fraction = 0.4\n", 3.0 * 2**20)],
    ids=["default", "low_place_threshold"],
)
def test_ratemap_memory_does_not_grow_with_tick_count(tmp_path, place, bound):
    # ratemap walks, decodes and bins _kernels.BLOCK ticks at a time, so
    # eight times the ticks must not raise its traced peak (1.78 MiB at the
    # default and 2.26 MiB at a place threshold_fraction of 0.4, at both
    # sizes); the whole-array pipeline peaked 3.8x and 5.6x higher at 400k.
    # At 0.4 most ticks survive the place-cell cascade's first inputs, yet
    # only one block's survivors are alive at a time.  The corner scan of
    # the decode runs _kernels.SCAN_BLOCK points at a time, so the peak also
    # stays under an absolute bound (3.37 and 3.76 MiB when the scan took a
    # whole block at once).
    def peak(ticks):
        text = f"[run]\nseed = 1\ntick_count = {ticks}\n\n{place}"
        argv = ["ratemap", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / f"rm{ticks}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # once-per-process allocations (numpy's FFT caches) come first
    large = peak(400_000)
    assert large <= 1.1 * peak(50_000)
    assert large < bound


def test_episode_memory_stays_within_its_per_tick_budget(tmp_path):
    # check_tick_count's message and the README give an episode about 128 B
    # per tick.  While its loop runs, the pre-drawn normals and impulse
    # directions (56 B) and the seven log columns (49 B) are alive together,
    # and the rest readings' one BLOCK-sized scratch does not grow with the
    # ticks: 106 B per tick at 50k ticks and 105 B at 100k.  Below about 40k
    # ticks the trajectory writer's pieces, about 2 MB whatever the tick
    # count, set the peak instead.
    def peak(ticks):
        text = f"[run]\nseed = 1\ntick_count = {ticks}\n"
        argv = ["episode", "--mode", "train", "--config", write_cfg(tmp_path, text)]
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(tmp_path / f"ep{ticks}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # once-per-process allocations come first
    for ticks in (50_000, 100_000):
        assert peak(ticks) <= 128 * ticks, ticks


def test_importing_the_cli_loads_no_process_pool():
    # only a pooled sweep imports concurrent.futures (and with it logging);
    # a fresh interpreter shows what importing the CLI loads
    import mazecells

    src = os.path.dirname(os.path.dirname(mazecells.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, mazecells.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["ratemap", "episode", "sweep"])
def test_tiny_bin_size_exits_2_before_any_output(tmp_path, capsys, monkeypatch, command):
    import mazecells.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a run started with a map beyond MAX_MAP_SIDE")

    # belt and braces: the run must never reach a walk, an episode, a binning or a map
    for name in ("walk_blocks", "run_episode", "Binning", "coverage"):
        monkeypatch.setattr(cli, name, never)
    text = "[run]\ntick_count = 200\nseed = 5\n[analysis]\nbin_size = 1e-7\n"
    if command == "sweep":
        text += "[sweep]\nkappa = 1, 5\n"
    out = tmp_path / "o"
    argv = [command, "--config", write_cfg(tmp_path, text), "--out", str(out)]
    if command == "episode":
        argv += ["--mode", "train"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [analysis] bin_size") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ratemap", "episode", "sweep"])
def test_huge_place_count_exits_2_before_any_output(tmp_path, capsys, monkeypatch, command):
    import types

    import mazecells.cli as cli
    import mazecells.config as config

    def never(*args, **kwargs):
        raise AssertionError("a run started with a place count beyond MAX_PLACE_COUNT")

    # belt and braces: neither the ensemble nor a run may be allocated
    monkeypatch.setattr(config, "np", types.SimpleNamespace(linspace=never))
    for name in ("walk_blocks", "Binning", "run_episode"):
        monkeypatch.setattr(cli, name, never)
    text = f"[run]\ntick_count = 200\nseed = 5\n[place]\ncount = {config.MAX_PLACE_COUNT + 1}\n"
    if command == "sweep":
        text += "[sweep]\nkappa = 1, 5\n"
    out = tmp_path / "o"
    argv = [command, "--config", write_cfg(tmp_path, text), "--out", str(out)]
    if command == "episode":
        argv += ["--mode", "train"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [place] count") and "Traceback" not in err
    assert not out.exists()


# Every numeric key of the schema, with the section that sets it: the
# first default section of a numbered kind, so that its required keys
# stay set.
SCHEMA_KEYS = [
    (f"{kind} 1" if kind in NUMBERED_KINDS else kind, key)
    for kind, keys in SCHEMA.items()
    for key, (typ, _) in keys.items()
    if typ in (int, float)
]
HOSTILE_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e155", "-1e155", "1e300", "1" + "0" * 30]


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(SCHEMA_KEYS), raw=st.sampled_from(HOSTILE_VALUES))
def test_one_hostile_schema_value_is_rejected_or_runs_finite(target, raw):
    section, key = target
    sections = {"run": {"seed": 5, "tick_count": 300}}
    sections.setdefault(section, dict(DEFAULT_LAYOUT.get(section, {})))[key] = raw
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.ini")
        with open(cfg, "w") as fh:
            fh.write(build_ini(sections))
        for command in (["ratemap"], ["episode", "--mode", "train"]):
            out = os.path.join(tmp, command[0])
            code = main(command + ["--config", cfg, "--out", out])
            assert code in (0, 2, 3)
            if code != 0:
                continue
            # gridness is NaN by design when the annulus leaves the map
            for name, value in read_summary(os.path.join(out, "summary.txt")).items():
                try:
                    number = float(value)
                except ValueError:
                    continue
                assert math.isfinite(number) or name.startswith("gridness_"), (name, value)
            if command[0] == "episode":
                with open(os.path.join(out, "trajectory.csv")) as fh:
                    rows = fh.read().splitlines()[2:]
                assert len(rows) == 300
                assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
