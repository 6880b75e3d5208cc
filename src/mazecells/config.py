"""Run configuration: a flat-sectioned key=value text format.

Sections hold numbers and strings only.  Unknown sections or keys are
rejected with an error naming the offender; every optional key has a
documented default.  Repeated elements (bumper zones, wall arcs, grid
cells) use numbered sections: ``[zone 1]``, ``[wall 1]``, ``[grid 1]`` ...
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .arena import Arena, CameraParams, WalkParams, WallArc, ZoneDisc
from .controller import EpisodeConfig
from .learning import CircuitParams
from .spatialcells import (
    ConfigurationError,
    FiringParams,
    GridCellParams,
    PlaceCellParams,
    anchored_ensemble,
)

SWEEPABLE = ("kappa", "zeta", "spacing", "orientation", "phase1", "phase2")

_FIXED_SECTIONS: dict[str, dict[str, object]] = {
    "run": {"seed": int, "tick_count": int},
    "arena": {"radius": float},
    "walk": {"speed": float, "dt": float, "turn_sigma": float, "start_heading": float},
    "sensors": {"noise_sigma": float},
    "camera": {"fov": float, "max_range": float},
    "firing": {"kappa": float, "zeta": float},
    "place": {
        "count": int,
        "spacing_min": float,
        "spacing_max": float,
        "anchor_x": float,
        "anchor_y": float,
        "threshold_fraction": float,
    },
    "circuit": {
        "vibration_threshold": float,
        "color_activation_threshold": float,
        "eta": float,
        "initial_w_color": float,
        "train_summary": str,
    },
    "controller": {"jitter_sigma": float},
    "analysis": {
        "bin_size": float,
        "annulus_inner_scale": float,
        "annulus_outer_scale": float,
    },
}

_NUMBERED_SECTIONS: dict[str, dict[str, object]] = {
    "zone": {"center_x": float, "center_y": float, "radius": float, "amplitude": float},
    "wall": {"start_angle": float, "end_angle": float, "color": str},
    "grid": {"spacing": float, "orientation": float, "phase1": float, "phase2": float},
}


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
    """The default paired-cue training arena as editable section dicts.

    A 120-degree red wall sector centered on the positive x axis, with
    three vibration bumper zones tucked against it: one on the axis, one
    each side.  Ten thousand ticks give the color weight ample time to
    climb well past the activation threshold on any seed.
    """
    return {
        "run": {"tick_count": 10000},
        "arena": {"radius": 1.3},
        "zone 1": {"center_x": 1.04, "center_y": 0.44, "radius": 0.2, "amplitude": 8.0},
        "zone 2": {"center_x": 1.04, "center_y": -0.44, "radius": 0.2, "amplitude": 8.0},
        "zone 3": {"center_x": 1.13, "center_y": 0.0, "radius": 0.2, "amplitude": 8.0},
        "wall 1": {
            "start_angle": -math.pi / 3.0,
            "end_angle": math.pi / 3.0,
            "color": "red",
        },
        "walk": {"speed": 0.2, "dt": 0.1, "turn_sigma": 0.2, "start_heading": 0.0},
        "sensors": {"noise_sigma": 0.3},
        "camera": {"fov": math.pi / 2.0, "max_range": 1.5},
        "firing": {"kappa": 5.0, "zeta": 0.3},
        "grid 1": {"spacing": 1.0, "orientation": math.pi / 4.0, "phase1": 0.5, "phase2": 0.0},
        "grid 2": {"spacing": 8.8, "orientation": math.pi / 4.0, "phase1": 0.5, "phase2": 1.2},
        "place": {
            "count": 8,
            "spacing_min": 0.3,
            "spacing_max": 1.2,
            "anchor_x": 0.35,
            "anchor_y": 0.2,
            "threshold_fraction": 0.8,
        },
        "circuit": {
            "vibration_threshold": 5.0,
            "color_activation_threshold": 0.3,
            "eta": 0.05,
        },
        "controller": {"jitter_sigma": 0.3},
        "analysis": {
            "bin_size": 0.05,
            "annulus_inner_scale": 0.5,
            "annulus_outer_scale": 1.5,
        },
    }


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


def _convert(section: str, key: str, raw: str, typ):
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


def _split_numbered(name: str) -> tuple[str, int] | None:
    parts = name.split()
    if len(parts) == 2 and parts[0] in _NUMBERED_SECTIONS:
        try:
            return parts[0], int(parts[1])
        except ValueError:
            return None
    return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text into a RunConfig."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str  # keep keys case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc

    flat: dict[str, dict[str, object]] = {}
    numbered: dict[str, list[tuple[int, dict[str, object]]]] = {
        kind: [] for kind in _NUMBERED_SECTIONS
    }
    sweep: list[tuple[str, tuple[float, ...]]] = []

    for section in cp.sections():
        if section in _FIXED_SECTIONS:
            schema = _FIXED_SECTIONS[section]
            vals: dict[str, object] = {}
            for key, raw in cp.items(section):
                if key not in schema:
                    raise ConfigurationError(
                        f"unknown key '{key}' in section [{section}]"
                    )
                vals[key] = _convert(section, key, raw, schema[key])
            flat[section] = vals
        elif section == "sweep":
            for key, raw in cp.items(section):
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
                sweep.append((key, values))
        else:
            split = _split_numbered(section)
            if split is None:
                raise ConfigurationError(f"unknown section [{section}]")
            kind, index = split
            schema = _NUMBERED_SECTIONS[kind]
            vals = {}
            for key, raw in cp.items(section):
                if key not in schema:
                    raise ConfigurationError(
                        f"unknown key '{key}' in section [{section}]"
                    )
                vals[key] = _convert(section, key, raw, schema[key])
            numbered[kind].append((index, vals))

    for kind in numbered:
        numbered[kind].sort(key=lambda p: p[0])

    def get(section: str, key: str, default):
        return flat.get(section, {}).get(key, default)

    # Numbered sections fall back to the default cue layout when a config
    # names none of their kind (a minimal file still gets the full
    # paired-cue arena).  Empty arenas are built through the API instead.
    defaults = default_sections()
    for kind in ("zone", "wall", "grid"):
        if not numbered[kind]:
            numbered[kind] = [
                (int(sec.split()[1]), dict(vals))
                for sec, vals in defaults.items()
                if sec.startswith(kind + " ")
            ]
            numbered[kind].sort(key=lambda p: p[0])

    arena = Arena(
        radius=get("arena", "radius", 1.3),
        zones=tuple(
            ZoneDisc(
                _require(vals, "zone", i, "center_x"),
                _require(vals, "zone", i, "center_y"),
                _require(vals, "zone", i, "radius"),
                vals.get("amplitude", 8.0),
            )
            for i, vals in numbered["zone"]
        ),
        walls=tuple(
            WallArc(
                _require(vals, "wall", i, "start_angle"),
                _require(vals, "wall", i, "end_angle"),
                vals.get("color", "red"),
            )
            for i, vals in numbered["wall"]
        ),
    )
    walk = WalkParams(
        speed=get("walk", "speed", 0.2),
        dt=get("walk", "dt", 0.1),
        turn_sigma=get("walk", "turn_sigma", 0.2),
        seed=get("run", "seed", 0) or 0,
    )
    camera = CameraParams(
        fov=get("camera", "fov", math.pi / 2.0),
        max_range=get("camera", "max_range", 1.5),
    )
    firing = FiringParams(
        kappa=get("firing", "kappa", 5.0),
        zeta=get("firing", "zeta", 0.3),
    )
    circuit = CircuitParams(
        vibration_threshold=get("circuit", "vibration_threshold", 5.0),
        color_activation_threshold=get("circuit", "color_activation_threshold", 0.3),
        eta=get("circuit", "eta", 0.05),
    )
    grid_cells = tuple(
        GridCellParams(
            _require(vals, "grid", i, "spacing"),
            vals.get("orientation", 0.0),
            vals.get("phase1", 0.0),
            vals.get("phase2", 0.0),
        )
        for i, vals in numbered["grid"]
    )
    count = get("place", "count", 8)
    if count < 1:
        raise ConfigurationError(f"place count must be >= 1, got {count}")
    smin = get("place", "spacing_min", 0.3)
    smax = get("place", "spacing_max", 1.2)
    if not (0.0 < smin <= smax):
        raise ConfigurationError("need 0 < spacing_min <= spacing_max")
    frac = get("place", "threshold_fraction", 0.8)
    if not (0.0 < frac <= 1.0):
        raise ConfigurationError("threshold_fraction must lie in (0, 1]")
    ensemble = anchored_ensemble(
        np.geomspace(smin, smax, count),
        (get("place", "anchor_x", 0.35), get("place", "anchor_y", 0.2)),
    )
    place = PlaceCellParams(inputs=ensemble, threshold=frac * count)

    tick_count = get("run", "tick_count", 10000)
    if tick_count <= 0:
        raise ConfigurationError(f"tick_count must be positive, got {tick_count}")
    bin_size = get("analysis", "bin_size", 0.05)
    if not (bin_size > 0.0 and math.isfinite(bin_size)):
        raise ConfigurationError(f"[analysis] bin_size must be positive and finite, got {bin_size}")
    inner = get("analysis", "annulus_inner_scale", 0.5)
    outer = get("analysis", "annulus_outer_scale", 1.5)
    if not (0.0 < inner < outer and math.isfinite(outer)):
        raise ConfigurationError(
            "[analysis] needs finite 0 < annulus_inner_scale < annulus_outer_scale, "
            f"got {inner} and {outer}"
        )

    return RunConfig(
        seed=get("run", "seed", None),
        tick_count=tick_count,
        arena=arena,
        walk=walk,
        camera=camera,
        firing=firing,
        circuit=circuit,
        grid_cells=grid_cells,
        place=place,
        noise_sigma=get("sensors", "noise_sigma", 0.3),
        jitter_sigma=get("controller", "jitter_sigma", 0.3),
        start_heading=get("walk", "start_heading", 0.0),
        initial_w_color=get("circuit", "initial_w_color", None),
        train_summary=get("circuit", "train_summary", None),
        bin_size=bin_size,
        annulus_inner_scale=inner,
        annulus_outer_scale=outer,
        sweep=tuple(sweep),
    )


def _require(vals: dict, kind: str, index: int, key: str):
    if key not in vals:
        raise ConfigurationError(f"missing key '{key}' in section [{kind} {index}]")
    return vals[key]


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
    ``initial_w`` (if given) overrides the configured starting weight.
    """
    if mode not in ("train", "test"):
        raise ConfigurationError(f"mode must be 'train' or 'test', got {mode!r}")
    if seed is None:
        seed = rc.seed
    if seed is None:
        raise ConfigurationError("episode runs need a seed ([run] seed or --seed)")
    if initial_w is None:
        initial_w = rc.initial_w_color
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
        firing=rc.firing,
        circuit=rc.circuit,
        grid_cells=rc.grid_cells,
        place=rc.place,
        tick_count=rc.tick_count,
        seed=int(seed),
        vibration_enabled=(mode == "train"),
        learning_enabled=(mode == "train"),
        initial_w_color=float(initial_w),
        noise_sigma=rc.noise_sigma,
        jitter_sigma=rc.jitter_sigma,
        start_heading=rc.start_heading,
    )
