"""Run configuration: a flat-sectioned key=value text format.

Sections hold numbers and strings only.  Unknown sections or keys are
rejected with an error naming the offender.  :data:`SCHEMA` gives every
key's type and default; a few keys of the numbered sections are required.
Repeated elements (bumper zones, wall arcs, grid cells) use numbered
sections: ``[zone 1]``, ``[wall 1]``, ``[grid 1]`` ...
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .analysis import check_map_side
from .arena import MAX_NOISE_SIGMA, Arena, CameraParams, WalkParams, WallArc, ZoneDisc
from .controller import EpisodeConfig
from .learning import CircuitParams
from .spatialcells import (
    MAX_SPACING,
    MIN_SPACING,
    ConfigurationError,
    FiringParams,
    GridCellParams,
    PlaceCellParams,
    anchored_ensemble,
    check_seed,
    check_tick_count,
)

SWEEPABLE = ("kappa", "zeta", "spacing", "orientation", "phase1", "phase2")

# Marks a key that a numbered section must name.
_REQUIRED = object()

# Every section's keys, as key -> (type, default).  A default of None means
# the key is unset unless the config names it.  The numbered kinds are read
# from sections named "<kind> <index>" (``[zone 1]``, ``[grid 2]`` ...); the
# table's order is the order of ``default_sections()``.
SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    # ten thousand ticks give the color weight ample time to climb well past
    # the activation threshold on any seed
    "run": {"seed": (int, None), "tick_count": (int, 10000)},
    "arena": {"radius": (float, 1.3)},
    "zone": {
        "center_x": (float, _REQUIRED),
        "center_y": (float, _REQUIRED),
        "radius": (float, _REQUIRED),
        "amplitude": (float, 8.0),
    },
    "wall": {
        "start_angle": (float, _REQUIRED),
        "end_angle": (float, _REQUIRED),
        "color": (str, "red"),
    },
    "walk": {
        "speed": (float, 0.2),
        "dt": (float, 0.1),
        "turn_sigma": (float, 0.2),
        "start_heading": (float, 0.0),
    },
    "sensors": {"noise_sigma": (float, 0.3)},
    "camera": {"fov": (float, math.pi / 2.0), "max_range": (float, 1.5)},
    "firing": {"kappa": (float, 5.0), "zeta": (float, 0.3)},
    "grid": {
        "spacing": (float, _REQUIRED),
        "orientation": (float, 0.0),
        "phase1": (float, 0.0),
        "phase2": (float, 0.0),
    },
    "place": {
        "count": (int, 8),
        "spacing_min": (float, 0.3),
        "spacing_max": (float, 1.2),
        "anchor_x": (float, 0.35),
        "anchor_y": (float, 0.2),
        "threshold_fraction": (float, 0.8),
    },
    "circuit": {
        "vibration_threshold": (float, 5.0),
        "color_activation_threshold": (float, 0.3),
        "eta": (float, 0.05),
        "initial_w_color": (float, None),
        "train_summary": (str, None),
    },
    "controller": {"jitter_sigma": (float, 0.3)},
    "analysis": {
        "bin_size": (float, 0.05),
        "annulus_inner_scale": (float, 0.5),
        "annulus_outer_scale": (float, 1.5),
    },
}
NUMBERED_KINDS = ("zone", "wall", "grid")

# The default paired-cue training arena: a 120-degree red wall sector
# centered on the positive x axis, with three vibration bumper zones tucked
# against it, one on the axis and one each side.  A config that names no
# section of a numbered kind gets this layout's sections of that kind.
DEFAULT_LAYOUT: dict[str, dict[str, object]] = {
    "zone 1": {"center_x": 1.04, "center_y": 0.44, "radius": 0.2},
    "zone 2": {"center_x": 1.04, "center_y": -0.44, "radius": 0.2},
    "zone 3": {"center_x": 1.13, "center_y": 0.0, "radius": 0.2},
    "wall 1": {"start_angle": -math.pi / 3.0, "end_angle": math.pi / 3.0},
    "grid 1": {"spacing": 1.0, "orientation": math.pi / 4.0, "phase1": 0.5},
    "grid 2": {"spacing": 8.8, "orientation": math.pi / 4.0, "phase1": 0.5, "phase2": 1.2},
}

# Each place-cell input costs at most one decode pass over the ticks of a
# run (about 50 ns per point: at most 10 ms per input for a 200k-tick
# ratemap), as the ensemble cascade decodes an input only on the ticks
# that can still fire, and about 100 B of config_hash text.  A threshold
# low enough that the cascade rules out no tick is the worst case; the
# bound caps it for a 200k-tick run near 2**10 * 10 ms = 10 s of decode,
# and the hashed text near 100 KiB.
MAX_PLACE_COUNT = 2**10


@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated configuration for the command-line runs."""

    seed: int | None
    tick_count: int
    arena: Arena
    walk: WalkParams
    camera: CameraParams
    firing: FiringParams
    circuit: CircuitParams
    grid_cells: tuple[GridCellParams, ...]
    place: PlaceCellParams
    noise_sigma: float
    jitter_sigma: float
    start_heading: float
    initial_w_color: float | None
    train_summary: str | None
    bin_size: float
    annulus_inner_scale: float
    annulus_outer_scale: float
    sweep: tuple[tuple[str, tuple[float, ...]], ...]


def default_sections() -> dict[str, dict[str, object]]:
    """The default paired-cue training arena as editable section dicts:
    every key that has a default, plus the sections of DEFAULT_LAYOUT."""
    sections: dict[str, dict[str, object]] = {}
    for kind, schema in SCHEMA.items():
        if kind in NUMBERED_KINDS:
            for name, vals in DEFAULT_LAYOUT.items():
                if name.split()[0] == kind:
                    sections[name] = _read_section(name, kind, vals.items())
        else:
            sections[kind] = {k: d for k, (_, d) in schema.items() if d is not None}
    return sections


def build_ini(sections: dict[str, dict[str, object]]) -> str:
    """Render section dicts as config text."""
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for k, v in keys.items():
            if isinstance(v, float):
                v = repr(v)
            lines.append(f"{k} = {v}")
        lines.append("")
    return "\n".join(lines)


def default_ini() -> str:
    """The default paired-cue arena as config text."""
    return build_ini(default_sections())


def _convert(section: str, key: str, raw, typ):
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigurationError(
            f"bad value for '{key}' in section [{section}]: {raw!r}"
        ) from exc


def _split_section(name: str) -> tuple[str, int | None]:
    """A section name's schema kind and index: ``("walk", None)``, ``("zone", 2)``."""
    if name in SCHEMA and name not in NUMBERED_KINDS:
        return name, None
    parts = name.split()
    if len(parts) == 2 and parts[0] in NUMBERED_KINDS:
        try:
            return parts[0], int(parts[1])
        except ValueError:
            pass
    raise ConfigurationError(f"unknown section [{name}]")


def _read_section(name: str, kind: str, items) -> dict[str, object]:
    """Typed values of section ``name``'s (key, raw) items, read against
    ``SCHEMA[kind]``, with the defaults filled in."""
    schema = SCHEMA[kind]
    vals = {}
    for key, raw in items:
        if key not in schema:
            raise ConfigurationError(f"unknown key '{key}' in section [{name}]")
        vals[key] = _convert(name, key, raw, schema[key][0])
    for key, (_, default) in schema.items():
        if key not in vals:
            if default is _REQUIRED:
                raise ConfigurationError(f"missing key '{key}' in section [{name}]")
            vals[key] = default
    return vals


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text into a RunConfig."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str  # keep keys case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc

    sections: dict[str, dict[str, object]] = {}
    numbered: dict[str, list[tuple[int, dict[str, object]]]] = {k: [] for k in NUMBERED_KINDS}
    sweep: list[tuple[str, tuple[float, ...]]] = []
    for name in cp.sections():
        if name == "sweep":
            for key, raw in cp.items(name):
                if key not in SWEEPABLE:
                    raise ConfigurationError(
                        f"unknown sweep parameter '{key}' (choices: {', '.join(SWEEPABLE)})"
                    )
                try:
                    values = tuple(float(v) for v in raw.split(",") if v.strip() != "")
                except ValueError as exc:
                    raise ConfigurationError(
                        f"bad value list for sweep parameter '{key}': {raw!r}"
                    ) from exc
                if not values:
                    raise ConfigurationError(f"empty value list for sweep parameter '{key}'")
                if not all(math.isfinite(v) for v in values):
                    raise ConfigurationError(f"non-finite value for sweep parameter '{key}': {raw!r}")
                sweep.append((key, values))
            continue
        kind, index = _split_section(name)
        vals = _read_section(name, kind, cp.items(name))
        if index is None:
            sections[kind] = vals
        else:
            numbered[kind].append((index, vals))
    # A numbered kind the config names no section of takes the default
    # layout's (a minimal file still gets the full paired-cue arena); a fixed
    # section it leaves out takes its defaults.  Empty arenas are built
    # through the API instead.
    missing = [kind for kind in NUMBERED_KINDS if not numbered[kind]]
    for name, vals in DEFAULT_LAYOUT.items():
        kind, index = _split_section(name)
        if kind in missing:
            numbered[kind].append((index, _read_section(name, kind, vals.items())))
    for kind in SCHEMA:
        if kind not in NUMBERED_KINDS and kind not in sections:
            sections[kind] = _read_section(kind, kind, ())

    def elements(kind: str, cls) -> tuple:
        return tuple(cls(**vals) for _, vals in sorted(numbered[kind], key=lambda p: p[0]))

    run, walk_keys, circuit_keys = sections["run"], sections["walk"], sections["circuit"]
    seed = run["seed"]
    if seed is not None:
        check_seed(seed, "[run] seed")
    arena = Arena(
        radius=sections["arena"]["radius"],
        zones=elements("zone", ZoneDisc),
        walls=elements("wall", WallArc),
    )
    walk = WalkParams(
        speed=walk_keys["speed"],
        dt=walk_keys["dt"],
        turn_sigma=walk_keys["turn_sigma"],
        seed=seed or 0,
    )
    camera = CameraParams(**sections["camera"])
    firing = FiringParams(**sections["firing"])
    circuit = CircuitParams(
        vibration_threshold=circuit_keys["vibration_threshold"],
        color_activation_threshold=circuit_keys["color_activation_threshold"],
        eta=circuit_keys["eta"],
    )
    grid_cells = elements("grid", GridCellParams)
    place_keys = sections["place"]
    count = place_keys["count"]
    if count < 1:
        raise ConfigurationError(f"place count must be >= 1, got {count}")
    if count > MAX_PLACE_COUNT:
        raise ConfigurationError(
            f"[place] count must be at most {MAX_PLACE_COUNT} "
            f"(one rates_at pass per input per run), got {count}"
        )
    smin, smax = place_keys["spacing_min"], place_keys["spacing_max"]
    if not (0.0 < smin <= smax):
        raise ConfigurationError("need 0 < spacing_min <= spacing_max")
    if not math.isfinite(smax):
        raise ConfigurationError(f"[place] spacing_max must be finite, got {smax}")
    # checked before np.geomspace, whose values would otherwise name no key
    for key, v in (("spacing_min", smin), ("spacing_max", smax)):
        if not MIN_SPACING <= v <= MAX_SPACING:
            raise ConfigurationError(
                f"[place] {key} must lie in [{MIN_SPACING:g}, {MAX_SPACING:g}] m, got {v}"
            )
    frac = place_keys["threshold_fraction"]
    if not (0.0 < frac <= 1.0):
        raise ConfigurationError("threshold_fraction must lie in (0, 1]")
    ensemble = anchored_ensemble(
        np.geomspace(smin, smax, count), (place_keys["anchor_x"], place_keys["anchor_y"])
    )
    place = PlaceCellParams(inputs=ensemble, threshold=frac * count)

    tick_count = check_tick_count(run["tick_count"])
    analysis = sections["analysis"]
    bin_size = analysis["bin_size"]
    if not (bin_size > 0.0 and math.isfinite(bin_size)):
        raise ConfigurationError(f"[analysis] bin_size must be positive and finite, got {bin_size}")
    # the rate maps span the arena's diameter
    check_map_side(
        2.0 * arena.radius, bin_size, "[analysis] bin_size", f"twice [arena] radius = {arena.radius!r}"
    )
    inner = analysis["annulus_inner_scale"]
    outer = analysis["annulus_outer_scale"]
    if not (0.0 < inner < outer and math.isfinite(outer)):
        raise ConfigurationError(
            "[analysis] needs finite 0 < annulus_inner_scale < annulus_outer_scale, "
            f"got {inner} and {outer}"
        )
    # Checked here as well as in EpisodeConfig so that ratemap and sweep
    # runs, which never build one, reject them too.
    noise_sigma = sections["sensors"]["noise_sigma"]
    jitter_sigma = sections["controller"]["jitter_sigma"]
    start_heading = walk_keys["start_heading"]
    initial_w_color = circuit_keys["initial_w_color"]
    for name, v in (
        ("[sensors] noise_sigma", noise_sigma),
        ("[controller] jitter_sigma", jitter_sigma),
        ("[walk] start_heading", start_heading),
        ("[circuit] initial_w_color", initial_w_color),
    ):
        if v is not None and not math.isfinite(v):
            raise ConfigurationError(f"{name} must be finite, got {v}")
    if abs(noise_sigma) > MAX_NOISE_SIGMA:
        raise ConfigurationError(
            f"[sensors] noise_sigma must be at most {MAX_NOISE_SIGMA:g} in magnitude "
            f"(so that accelerometer readings stay finite), got {noise_sigma}"
        )
    for name, v in (("[sensors] noise_sigma", noise_sigma), ("[controller] jitter_sigma", jitter_sigma)):
        if v < 0.0:
            raise ConfigurationError(f"{name} must be >= 0, got {v}")

    return RunConfig(
        seed=seed,
        tick_count=tick_count,
        arena=arena,
        walk=walk,
        camera=camera,
        firing=firing,
        circuit=circuit,
        grid_cells=grid_cells,
        place=place,
        noise_sigma=noise_sigma,
        jitter_sigma=jitter_sigma,
        start_heading=start_heading,
        initial_w_color=initial_w_color,
        train_summary=circuit_keys["train_summary"],
        bin_size=bin_size,
        annulus_inner_scale=inner,
        annulus_outer_scale=outer,
        sweep=tuple(sweep),
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def config_hash(rc: RunConfig) -> str:
    """Short stable digest of the effective configuration."""
    buf = io.StringIO()
    for f in dataclasses.fields(RunConfig):
        buf.write(f"{f.name}={getattr(rc, f.name)!r}\n")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()[:12]


def apply_sweep_point(rc: RunConfig, assignment: dict[str, float]) -> RunConfig:
    """Override swept parameters: kappa/zeta on the firing profile, the
    lattice parameters on the first grid cell."""
    firing = rc.firing
    cells = list(rc.grid_cells)
    for name, value in assignment.items():
        if name == "kappa":
            firing = dataclasses.replace(firing, kappa=value)
        elif name == "zeta":
            firing = dataclasses.replace(firing, zeta=value)
        elif name in ("spacing", "orientation", "phase1", "phase2"):
            cells[0] = dataclasses.replace(cells[0], **{name: value})
        else:
            raise ConfigurationError(f"unknown sweep parameter '{name}'")
    return dataclasses.replace(rc, firing=firing, grid_cells=tuple(cells))


def sweep_points(rc: RunConfig) -> list[dict[str, float]]:
    """Cartesian product of the sweep value lists, in file order."""
    if not rc.sweep:
        raise ConfigurationError("sweep command needs a non-empty [sweep] section")
    points: list[dict[str, float]] = [{}]
    for name, values in rc.sweep:
        points = [dict(p, **{name: v}) for p in points for v in values]
    return points


def episode_config(
    rc: RunConfig,
    mode: str,
    seed: int | None = None,
    initial_w: float | None = None,
) -> EpisodeConfig:
    """Build an EpisodeConfig for 'train' or 'test' mode.

    Train mode enables vibration and learning; test mode disables both.
    The starting weight is the first of: ``initial_w``, ``[circuit]
    initial_w_color``, in test mode the ``final_w_color`` of the
    ``[circuit] train_summary`` file, and in train mode 0.
    """
    if mode not in ("train", "test"):
        raise ConfigurationError(f"mode must be 'train' or 'test', got {mode!r}")
    if seed is None:
        seed = rc.seed
    if seed is None:
        raise ConfigurationError("episode runs need a seed ([run] seed or --seed)")
    if initial_w is None:
        initial_w = rc.initial_w_color
    if initial_w is None and mode == "test" and rc.train_summary is not None:
        initial_w = _trained_weight(rc.train_summary)
    if initial_w is None:
        if mode == "train":
            initial_w = 0.0
        else:
            raise ConfigurationError(
                "test mode needs a weight source: set [circuit] initial_w_color "
                "or [circuit] train_summary"
            )
    return EpisodeConfig(
        arena=rc.arena,
        walk=rc.walk,
        camera=rc.camera,
        circuit=rc.circuit,
        tick_count=rc.tick_count,
        seed=int(seed),
        vibration_enabled=(mode == "train"),
        learning_enabled=(mode == "train"),
        initial_w_color=float(initial_w),
        noise_sigma=rc.noise_sigma,
        jitter_sigma=rc.jitter_sigma,
        start_heading=rc.start_heading,
    )


def _trained_weight(path: str) -> float:
    """The ``final_w_color`` entry of a train episode's summary file."""
    # Imported on first use, so that importing the package does not load
    # the writers (and tempfile); read_summary is looked up on the module,
    # which perfbench's tracer rebinds.
    from . import artifacts

    try:
        summary = artifacts.read_summary(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read train_summary {path}: {exc}") from exc
    if "final_w_color" not in summary:
        raise ConfigurationError(f"train_summary {path} has no final_w_color entry")
    raw = summary["final_w_color"]
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"train_summary {path} has a non-numeric final_w_color: {raw!r}"
        ) from exc
