"""Config parsing: defaults, validation, sweeps, episode construction."""

import dataclasses
import math
import re

import numpy as np
import pytest

from mazecells import (
    ConfigurationError,
    apply_sweep_point,
    config_hash,
    default_ini,
    default_sections,
    build_ini,
    episode_config,
    load_config,
    parse_config,
    sweep_points,
)
from mazecells.analysis import MAX_MAP_SIDE, coverage
from mazecells.arena import MAX_ANGLE, MAX_HEADING_SIGMA, MAX_NOISE_SIGMA
from mazecells.spatialcells import MAX_SPACING, MIN_SPACING


def test_default_ini_parses_to_paired_cue_arena():
    rc = parse_config(default_ini())
    assert rc.tick_count == 10000
    assert rc.arena.radius == 1.3
    assert len(rc.arena.zones) == 3
    assert len(rc.arena.walls) == 1
    assert rc.arena.walls[0].color == "red"
    assert len(rc.grid_cells) == 2
    assert rc.grid_cells[0].spacing == 1.0
    assert rc.grid_cells[0].orientation == math.pi / 4.0
    assert len(rc.place.inputs) == 8
    assert rc.place.threshold == pytest.approx(6.4)
    assert rc.firing.kappa == 5.0 and rc.firing.zeta == 0.3
    assert rc.seed is None
    assert rc.sweep == ()


def test_empty_text_falls_back_to_defaults():
    # A config that names no zones, walls, or grids still gets the full
    # default cue layout for each missing kind.
    rc = parse_config("")
    ref = parse_config(default_ini())
    assert rc.arena == ref.arena
    assert rc.grid_cells == ref.grid_cells
    assert rc.tick_count == ref.tick_count


def test_numbered_override_replaces_only_its_kind():
    rc = parse_config(
        "[zone 1]\ncenter_x = 0.5\ncenter_y = 0.0\nradius = 0.1\namplitude = 2.0\n"
    )
    assert len(rc.arena.zones) == 1
    assert rc.arena.zones[0].center_x == 0.5
    # walls and grids were not named, so they keep the default layout
    assert len(rc.arena.walls) == 1
    assert len(rc.grid_cells) == 2


def test_numbered_sections_sorted_by_index():
    rc = parse_config(
        "[grid 2]\nspacing = 0.7\n"
        "[grid 1]\nspacing = 0.4\n"
    )
    assert [g.spacing for g in rc.grid_cells] == [0.4, 0.7]


def test_unknown_section_rejected_by_name():
    with pytest.raises(ConfigurationError, match=r"bogus"):
        parse_config("[bogus]\nx = 1\n")


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigurationError, match=r"^\[walk\] unknown key 'warp'"):
        parse_config("[walk]\nwarp = 9\n")
    with pytest.raises(ConfigurationError, match=r"^\[zone 1\] unknown key 'color'"):
        parse_config("[zone 1]\ncenter_x = 0\ncenter_y = 0\nradius = 0.1\ncolor = red\n")


def test_bad_value_rejected_by_key():
    with pytest.raises(ConfigurationError, match=r"speed"):
        parse_config("[walk]\nspeed = fast\n")
    with pytest.raises(ConfigurationError, match=r"tick_count"):
        parse_config("[run]\ntick_count = many\n")


def test_missing_required_numbered_key():
    with pytest.raises(ConfigurationError, match=r"center_y"):
        parse_config("[zone 1]\ncenter_x = 0.1\nradius = 0.1\n")


def test_malformed_text():
    with pytest.raises(ConfigurationError, match="malformed"):
        parse_config("key without a section = 1\n")


def test_run_validation():
    with pytest.raises(ConfigurationError, match="tick_count"):
        parse_config("[run]\ntick_count = 0\n")
    with pytest.raises(ConfigurationError, match="tick_count must be an integer in"):
        parse_config("[run]\ntick_count = 1000000000000\n")
    with pytest.raises(ConfigurationError, match="count"):
        parse_config("[place]\ncount = 0\n")
    with pytest.raises(ConfigurationError, match="spacing"):
        parse_config("[place]\nspacing_min = 2.0\nspacing_max = 1.0\n")
    with pytest.raises(ConfigurationError, match="threshold_fraction"):
        parse_config("[place]\nthreshold_fraction = 0.0\n")


def test_place_spacings_checked_before_geomspace():
    # the error names the [place] key and its value, not a np.geomspace value
    for key, bad in (("spacing_max", "1e300"), ("spacing_min", "1e-300"), ("spacing_max", "1000001.0")):
        with pytest.raises(
            ConfigurationError, match=rf"^\[place\] {key} must lie in \[1e-06, 1e\+06\] m, got "
        ):
            parse_config(f"[place]\n{key} = {bad}\n")
    # the bounds are inclusive
    rc = parse_config(f"[place]\nspacing_min = {MIN_SPACING!r}\nspacing_max = {MAX_SPACING!r}\n")
    assert rc.place.inputs[0].spacing == MIN_SPACING
    assert rc.place.inputs[-1].spacing == MAX_SPACING


def test_noise_sigma_magnitude_bound():
    # rejected at parse time, so ratemap and sweep runs, which build no
    # EpisodeConfig, refuse it too; the bound itself is accepted
    for bad in ("1e155", "-1e155", repr(math.nextafter(MAX_NOISE_SIGMA, math.inf))):
        with pytest.raises(
            ConfigurationError, match=r"^\[sensors\] noise_sigma must be at most 1e\+150 in magnitude"
        ):
            parse_config(f"[sensors]\nnoise_sigma = {bad}\n")
    rc = parse_config(f"[sensors]\nnoise_sigma = {MAX_NOISE_SIGMA!r}\n")
    assert episode_config(rc, "train", seed=1).noise_sigma == MAX_NOISE_SIGMA


def test_angle_magnitude_bound_names_the_key():
    # 1e300 used to wrap to 0.0 and so parse like 0; the bound itself is
    # accepted
    big = repr(math.nextafter(MAX_ANGLE, math.inf))
    for text, key in (
        (f"[walk]\nstart_heading = {big}\n", "[walk] start_heading"),
        ("[wall 2]\nstart_angle = -1e300\nend_angle = 1.0\n", "[wall 2] wall arc start_angle"),
        (f"[wall 2]\nstart_angle = 0.5\nend_angle = {big}\n", "[wall 2] wall arc end_angle"),
    ):
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)} must be at most 1e\+06"):
            parse_config(text)
    walls = f"[wall 1]\nstart_angle = {-MAX_ANGLE!r}\nend_angle = 1.0\n"
    assert parse_config(f"[walk]\nstart_heading = {MAX_ANGLE!r}\n" + walls).start_heading == MAX_ANGLE


def test_place_spacings_do_not_depend_on_numpy_dispatch():
    # np.geomspace's log10 and power change their last bits with numpy's
    # SIMD dispatch at these settings; the spacings are Python powers of a
    # linspace of the logs, whose adds and multiplies round alike on every
    # CPU, with both ends exact
    for smin, smax, count in ((0.3, 1.0, 8), (0.3, 1.2, 12), (0.1, 5.0, 33), (0.3, 1.2, 1)):
        rc = parse_config(f"[place]\nspacing_min = {smin}\nspacing_max = {smax}\ncount = {count}\n")
        got = [g.spacing for g in rc.place.inputs]
        lo, hi = math.log10(smin), math.log10(smax)
        step = (hi - lo) / max(count - 1, 1)
        inner = [10.0 ** (i * step + lo) for i in range(1, count - 1)]
        want = [smin, *inner, smax] if count > 1 else [smin]
        assert got == want
        assert got == pytest.approx(list(np.geomspace(smin, smax, count)), rel=1e-14)


def _around(bound):
    """A bound, its negative, and the next float beyond each."""
    return [bound, math.nextafter(bound, math.inf), -bound, math.nextafter(-bound, -math.inf)]


NON_FINITE = [math.nan, math.inf, -math.inf]
# Each rule that parse_config and EpisodeConfig both apply: the key and
# field, and values on both sides of every bound it has.
SHARED_RULES = {
    ("sensors", "noise_sigma"): [0.0, 5e-324, -5e-324, -1.0, *_around(MAX_NOISE_SIGMA), *NON_FINITE],
    ("controller", "jitter_sigma"): [0.0, 5e-324, -5e-324, -1.0, *_around(MAX_HEADING_SIGMA), *NON_FINITE],
    ("walk", "start_heading"): [0.0, *_around(MAX_ANGLE), *NON_FINITE],
    ("circuit", "initial_w_color"): [0.0, -1e300, 1e300, *NON_FINITE],
}


def _accepts(build) -> bool:
    try:
        build()
    except ConfigurationError:
        return False
    return True


@pytest.mark.parametrize("section, key", list(SHARED_RULES), ids="-".join)
def test_parser_and_episode_config_accept_the_same_values(section, key):
    base = episode_config(parse_config(""), "train", seed=1)
    verdicts = {
        v: (
            _accepts(lambda: parse_config(f"[{section}]\n{key} = {v!r}\n")),
            _accepts(lambda: dataclasses.replace(base, **{key: v})),
        )
        for v in SHARED_RULES[section, key]
    }
    assert {v: p for v, (p, e) in verdicts.items()} == {v: e for v, (p, e) in verdicts.items()}
    assert verdicts[0.0] == (True, True) and verdicts[math.nan] == (False, False)


def test_parser_and_coverage_accept_the_same_bin_sizes():
    # the default arena radius is 1.3 m: the maps span 2.6 m
    fine = 2.6 / MAX_MAP_SIDE
    values = [0.05, 2.6, math.nextafter(2.6, math.inf), 1e155, fine, math.nextafter(fine, 0.0)]
    values += [0.0, -1.0, 5e-324, *NON_FINITE]
    positions = np.zeros((1, 2))
    verdicts = {
        v: (
            _accepts(lambda: parse_config(f"[analysis]\nbin_size = {v!r}\n")),
            _accepts(lambda: coverage(positions, v, 1.3)),
        )
        for v in values
    }
    assert {v: p for v, (p, c) in verdicts.items()} == {v: c for v, (p, c) in verdicts.items()}
    assert verdicts[2.6] == verdicts[fine] == (True, True)
    assert verdicts[1e155] == verdicts[math.nextafter(2.6, math.inf)] == (False, False)


def test_map_side_bound():
    # the arena's 2.6 m diameter over a bin_size of 2.6 / 4096 (exact: a
    # power-of-two division) is exactly MAX_MAP_SIDE bins
    side = 2.6 / MAX_MAP_SIDE
    assert parse_config(f"[analysis]\nbin_size = {side!r}\n").bin_size == side
    for tiny in (math.nextafter(side, 0.0), 1e-7, 5e-324):
        with pytest.raises(ConfigurationError, match=r"\[analysis\] bin_size .* at most 4096"):
            parse_config(f"[analysis]\nbin_size = {tiny!r}\n")
    # the bound follows the arena
    with pytest.raises(ConfigurationError, match="at most 4096"):
        parse_config(f"[arena]\nradius = 2.6\n[analysis]\nbin_size = {side!r}\n")
    parse_config(f"[arena]\nradius = 2.6\n[analysis]\nbin_size = {2 * side!r}\n")


def test_sweep_parsing_and_cartesian_order():
    rc = parse_config("[sweep]\nkappa = 1, 5, 20\nzeta = 0.1, 0.3\n")
    assert rc.sweep == (("kappa", (1.0, 5.0, 20.0)), ("zeta", (0.1, 0.3)))
    points = sweep_points(rc)
    # last listed parameter varies fastest
    assert points == [
        {"kappa": 1.0, "zeta": 0.1},
        {"kappa": 1.0, "zeta": 0.3},
        {"kappa": 5.0, "zeta": 0.1},
        {"kappa": 5.0, "zeta": 0.3},
        {"kappa": 20.0, "zeta": 0.1},
        {"kappa": 20.0, "zeta": 0.3},
    ]


def test_sweep_validation():
    with pytest.raises(ConfigurationError, match="gamma"):
        parse_config("[sweep]\ngamma = 1, 2\n")
    with pytest.raises(ConfigurationError, match="empty"):
        parse_config("[sweep]\nkappa = ,\n")
    with pytest.raises(ConfigurationError, match="kappa"):
        parse_config("[sweep]\nkappa = 1, fast\n")
    with pytest.raises(ConfigurationError, match=r"^\[sweep\] spacing must lie in .*, got nan$"):
        parse_config("[sweep]\nspacing = 1.0, nan\n")
    with pytest.raises(ConfigurationError, match=r"^\[sweep\] kappa must lie in \[1e-06, 1e\+06\], got 1e\+300$"):
        parse_config("[sweep]\nkappa = 5, 1e300\n")
    with pytest.raises(ConfigurationError, match=r"^\[sweep\] kappa must lie in \[1e-06, 1e\+06\], got 1e-300$"):
        parse_config("[sweep]\nkappa = 5, 1e-300\n")
    with pytest.raises(ConfigurationError, match="sweep"):
        sweep_points(parse_config(default_ini()))


def test_sweep_point_count_bound():
    from mazecells.config import MAX_SWEEP_POINTS, SWEEPABLE

    assert MAX_SWEEP_POINTS == 1000  # point_999 is the last name that sorts in index order

    def sweep(lengths):
        # n values in (0, 1), which every sweepable key accepts
        lists = (", ".join(repr((k + 1) / (n + 1)) for k in range(n)) for n in lengths)
        return "[sweep]\n" + "".join(f"{key} = {values}\n" for key, values in zip(SWEEPABLE, lists))

    assert len(parse_config(sweep([10, 10, 10])).sweep) == 3
    with pytest.raises(ConfigurationError, match=r"^\[sweep\] the value lists make 1100 points; at most 1000 fit"):
        parse_config(sweep([11, 10, 10]))
    # counted as a product of list lengths: 100**6 points are refused
    # without building one of them
    with pytest.raises(ConfigurationError, match=r"make 1000000000000 points"):
        parse_config(sweep([100] * 6))


def test_apply_sweep_point_targets():
    rc = parse_config(default_ini())
    out = apply_sweep_point(rc, {"kappa": 20.0, "spacing": 0.6})
    assert out.firing.kappa == 20.0
    assert out.firing.zeta == rc.firing.zeta
    assert out.grid_cells[0].spacing == 0.6
    assert out.grid_cells[0].orientation == rc.grid_cells[0].orientation
    # only the first grid cell is swept
    assert out.grid_cells[1] == rc.grid_cells[1]
    with pytest.raises(ConfigurationError, match="gamma"):
        apply_sweep_point(rc, {"gamma": 1.0})


def test_config_hash_stable_and_sensitive():
    a = config_hash(parse_config(default_ini()))
    b = config_hash(parse_config(default_ini()))
    assert a == b
    assert len(a) == 12 and all(c in "0123456789abcdef" for c in a)
    c = config_hash(parse_config("[arena]\nradius = 1.5\n"))
    assert c != a


def test_build_ini_round_trip():
    sections = default_sections()
    sections["arena"]["radius"] = 1.9
    rc = parse_config(build_ini(sections))
    assert rc.arena.radius == 1.9


def test_episode_config_train_mode():
    rc = parse_config(default_ini())
    ec = episode_config(rc, "train", seed=3)
    assert ec.train
    assert ec.initial_w_color == 0.0
    assert ec.seed == 3
    assert ec.tick_count == rc.tick_count


def test_episode_config_test_mode():
    rc = parse_config(default_ini())
    ec = episode_config(rc, "test", seed=3, initial_w=0.55)
    assert not ec.train
    assert ec.initial_w_color == 0.55
    # an explicit zero weight is a valid source, not a missing one
    ec0 = episode_config(rc, "test", seed=3, initial_w=0.0)
    assert ec0.initial_w_color == 0.0


def test_episode_config_weight_source_required():
    rc = parse_config(default_ini())
    with pytest.raises(ConfigurationError, match="weight source"):
        episode_config(rc, "test", seed=3)
    rc2 = parse_config("[circuit]\ninitial_w_color = 0.7\n")
    assert episode_config(rc2, "test", seed=3).initial_w_color == 0.7


def test_episode_config_test_mode_reads_train_summary(tmp_path):
    summary = tmp_path / "summary.txt"
    summary.write_text("# mazecells.summary.v1\ncommand = episode\nfinal_w_color = 0.4375\n")
    rc = parse_config(f"[circuit]\ntrain_summary = {summary}\n")
    assert episode_config(rc, "test", seed=1).initial_w_color == 0.4375
    # the explicit sources come first, and train mode ignores the summary
    assert episode_config(rc, "test", seed=1, initial_w=0.25).initial_w_color == 0.25
    assert episode_config(rc, "train", seed=1).initial_w_color == 0.0
    missing = parse_config(f"[circuit]\ntrain_summary = {tmp_path / 'none.txt'}\n")
    with pytest.raises(ConfigurationError, match="cannot read train_summary"):
        episode_config(missing, "test", seed=1)


def test_relative_train_summary_resolves_against_working_directory(tmp_path, monkeypatch):
    # a decoy beside the config file would be read if the path resolved
    # against the config file's directory
    for where, w in ((tmp_path, "0.4375"), (tmp_path / "cfg", "0.125")):
        (where / "run").mkdir(parents=True)
        (where / "run" / "summary.txt").write_text(f"final_w_color = {w}\n")
    cfg = tmp_path / "cfg" / "test.ini"
    cfg.write_text("[circuit]\ntrain_summary = run/summary.txt\n")
    monkeypatch.chdir(tmp_path)
    assert episode_config(load_config(str(cfg)), "test", seed=1).initial_w_color == 0.4375


def test_episode_config_mode_and_seed_errors():
    rc = parse_config(default_ini())
    with pytest.raises(ConfigurationError, match="mode"):
        episode_config(rc, "demo", seed=3)
    with pytest.raises(ConfigurationError, match="seed"):
        episode_config(rc, "train")
    # a seed in the file stands in for the argument
    rc7 = parse_config("[run]\nseed = 7\n")
    assert episode_config(rc7, "train").seed == 7


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(str(tmp_path / "nope.ini"))
    path = tmp_path / "ok.ini"
    path.write_text("[arena]\nradius = 1.8\n")
    assert load_config(str(path)).arena.radius == 1.8
