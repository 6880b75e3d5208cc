"""Run configuration: a flat-sectioned key=value text format.

Sections hold numbers and strings only.  Unknown sections or keys are
rejected with an error naming the offender.  :data:`SCHEMA` gives every
key's type and default; a few keys of the numbered sections are required.
Repeated elements (bumper zones, wall arcs, grid cells) use numbered
sections: ``[zone 1]``, ``[wall 1]``, ``[grid 1]`` ...
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .analysis import check_bin_size
from .arena import (
    Arena,
    CameraParams,
    WalkParams,
    WallArc,
    ZoneDisc,
    check_angle,
    check_heading_sigma,
    check_noise_sigma,
    check_walk_step,
)
from .controller import EpisodeConfig
from .learning import CircuitParams
from .spatialcells import (
    ConfigurationError,
    FiringParams,
    GridCellParams,
    PlaceCellParams,
    anchored_ensemble,
    check_finite,
    check_seed,
    check_spacing,
    check_tick_count,
)

# Marks a key that a numbered section must name.
_REQUIRED = object()

# Every section's keys, as key -> (type, default).  A default of None means
# the key is unset unless the config names it; a key that sets a dataclass
# field takes that field's default (the class attribute of its name).  The
# numbered kinds are read from sections named "<kind> <index>" (``[zone 1]``,
# ``[grid 2]`` ...); the table's order is the order of ``default_sections()``.
SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    # ten thousand ticks give the color weight ample time to climb well past
    # the activation threshold on any seed
    "run": {"seed": (int, None), "tick_count": (int, 10000)},
    "arena": {"radius": (float, Arena.radius)},
    "zone": {
        "center_x": (float, _REQUIRED),
        "center_y": (float, _REQUIRED),
        "radius": (float, _REQUIRED),
        "amplitude": (float, ZoneDisc.amplitude),
    },
    "wall": {
        "start_angle": (float, _REQUIRED),
        "end_angle": (float, _REQUIRED),
        "color": (str, WallArc.color),
    },
    "walk": {
        "speed": (float, WalkParams.speed),
        "dt": (float, WalkParams.dt),
        "turn_sigma": (float, WalkParams.turn_sigma),
        "start_heading": (float, EpisodeConfig.start_heading),
    },
    "sensors": {"noise_sigma": (float, EpisodeConfig.noise_sigma)},
    "camera": {"fov": (float, CameraParams.fov), "max_range": (float, CameraParams.max_range)},
    "firing": {"kappa": (float, FiringParams.kappa), "zeta": (float, FiringParams.zeta)},
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
        "vibration_threshold": (float, CircuitParams.vibration_threshold),
        "color_activation_threshold": (float, CircuitParams.color_activation_threshold),
        "eta": (float, CircuitParams.eta),
        "initial_w_color": (float, None),
        "train_summary": (str, None),
    },
    "controller": {"jitter_sigma": (float, EpisodeConfig.jitter_sigma)},
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

# Sweep point i writes point_{i:03d}/, which sorts in index order only up to point_999.
MAX_SWEEP_POINTS = 1000


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
                    sections[name] = _read_section(kind, vals.items())
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


def _convert(key: str, raw, typ):
    try:
        return raw.strip() if typ is str else typ(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for '{key}': {raw!r}") from exc


@contextlib.contextmanager
def _section(name: str):
    """Re-raise a ConfigurationError from the block as ``[name] <message>``,
    so that every config error names the section it was found in."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"[{name}] {exc}") from exc


def _split_section(name: str) -> tuple[str, int | None]:
    """A section name's schema kind and index: ``("walk", None)``, ``("zone", 2)``.
    An index >= 1 has one spelling (not ``01``), so that configparser's
    duplicate-section check also rules out two sections of one kind and index."""
    if name in SCHEMA and name not in NUMBERED_KINDS:
        return name, None
    kind, _, index = name.partition(" ")
    if kind in NUMBERED_KINDS and index.isdecimal() and str(int(index)) == index and index != "0":
        return kind, int(index)
    raise ConfigurationError(f"unknown section [{name}]")


def _read_section(kind: str, items) -> dict[str, object]:
    """Typed values of a section's (key, raw) items, read against
    ``SCHEMA[kind]``, with the defaults filled in."""
    schema = SCHEMA[kind]
    vals = {}
    for key, raw in items:
        if key not in schema:
            raise ConfigurationError(f"unknown key '{key}'")
        vals[key] = _convert(key, raw, schema[key][0])
    for key, (_, default) in schema.items():
        if key not in vals:
            if default is _REQUIRED:
                raise ConfigurationError(f"missing key '{key}'")
            vals[key] = default
    return vals


def _place_spacings(smin: float, smax: float, count: int) -> list[float]:
    """``count`` spacings in geometric progression from ``smin`` to
    ``smax``, both ends exact, as ``np.geomspace`` gives them.

    The powers are Python's scalar ``10.0 ** v`` of a ``np.linspace`` of
    the logs, whose multiplies and adds round the same way on every CPU:
    the bits of ``np.geomspace``'s vectorized ``log10`` and ``power``
    depend on numpy's SIMD dispatch, and would make the lattices and
    ``config_hash`` host-dependent.
    """
    logs = np.linspace(math.log10(smin), math.log10(smax), count).tolist()
    return [smin, *(10.0**v for v in logs[1:-1]), smax] if count > 1 else [smin]


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text into a RunConfig."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str  # keep keys case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc

    sections: dict[str, dict[str, object]] = {}
    numbered: dict[str, list[tuple[int, str, dict[str, object]]]] = {k: [] for k in NUMBERED_KINDS}
    for name in cp.sections():
        if name == "sweep":
            continue
        kind, index = _split_section(name)
        with _section(name):
            vals = _read_section(kind, cp.items(name))
        if index is None:
            sections[kind] = vals
        else:
            numbered[kind].append((index, name, vals))
    # A numbered kind the config names no section of takes the default
    # layout's (a minimal file still gets the full paired-cue arena); a fixed
    # section it leaves out takes its defaults.  Empty arenas are built
    # through the API instead.
    missing = [kind for kind in NUMBERED_KINDS if not numbered[kind]]
    for name, vals in DEFAULT_LAYOUT.items():
        kind, index = _split_section(name)
        if kind in missing:
            numbered[kind].append((index, name, _read_section(kind, vals.items())))
    for kind in SCHEMA:
        if kind not in NUMBERED_KINDS and kind not in sections:
            sections[kind] = _read_section(kind, ())

    def elements(kind: str, cls) -> tuple:
        built = []
        for _, name, vals in sorted(numbered[kind], key=lambda p: p[0]):
            with _section(name):
                built.append(cls(**vals))
        return tuple(built)

    run, walk_keys, circuit_keys = sections["run"], sections["walk"], sections["circuit"]
    place_keys, analysis = sections["place"], sections["analysis"]
    seed = run["seed"]
    with _section("run"):
        if seed is not None:
            check_seed(seed)
        tick_count = check_tick_count(run["tick_count"])
    zones, walls = elements("zone", ZoneDisc), elements("wall", WallArc)
    with _section("arena"):
        arena = Arena(radius=sections["arena"]["radius"], zones=zones, walls=walls)
    # The sigma, heading and weight checks repeat EpisodeConfig's rules, so
    # that ratemap and sweep runs, which never build one, reject them too.
    with _section("walk"):
        speed, dt, turn_sigma = walk_keys["speed"], walk_keys["dt"], walk_keys["turn_sigma"]
        walk = WalkParams(speed=speed, dt=dt, turn_sigma=turn_sigma, seed=seed or 0)
        check_walk_step(walk, arena)
        check_angle(walk_keys["start_heading"], "start_heading")
    with _section("sensors"):
        check_noise_sigma(sections["sensors"]["noise_sigma"])
    with _section("controller"):
        check_heading_sigma(sections["controller"]["jitter_sigma"], "jitter_sigma")
    with _section("camera"):
        camera = CameraParams(**sections["camera"])
    with _section("firing"):
        firing = FiringParams(**sections["firing"])
    with _section("circuit"):
        circuit = CircuitParams(
            vibration_threshold=circuit_keys["vibration_threshold"],
            color_activation_threshold=circuit_keys["color_activation_threshold"],
            eta=circuit_keys["eta"],
        )
        if circuit_keys["initial_w_color"] is not None:
            check_finite(circuit_keys["initial_w_color"], "initial_w_color")
    grid_cells = elements("grid", GridCellParams)
    with _section("place"):
        count = place_keys["count"]
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if count > MAX_PLACE_COUNT:
            raise ConfigurationError(
                f"count must be at most {MAX_PLACE_COUNT} "
                f"(one rates_at pass per input per run), got {count}"
            )
        smin, smax = place_keys["spacing_min"], place_keys["spacing_max"]
        if not (0.0 < smin <= smax):
            raise ConfigurationError("need 0 < spacing_min <= spacing_max")
        # checked here, so that the error names the key and not a computed
        # spacing
        check_spacing(smin, "spacing_min")
        check_spacing(smax, "spacing_max")
        frac = place_keys["threshold_fraction"]
        if not (0.0 < frac <= 1.0):
            raise ConfigurationError("threshold_fraction must lie in (0, 1]")
        ensemble = anchored_ensemble(
            _place_spacings(smin, smax, count), (place_keys["anchor_x"], place_keys["anchor_y"])
        )
        place = PlaceCellParams(inputs=ensemble, threshold=frac * count)
    with _section("analysis"):
        # the rate maps span the arena's diameter
        check_bin_size(analysis["bin_size"], arena.radius, "[arena] radius")
        inner, outer = analysis["annulus_inner_scale"], analysis["annulus_outer_scale"]
        if not (0.0 < inner < outer and math.isfinite(outer)):
            raise ConfigurationError(
                "needs finite 0 < annulus_inner_scale < annulus_outer_scale, "
                f"got {inner} and {outer}"
            )

    rc = RunConfig(
        seed=seed,
        tick_count=tick_count,
        arena=arena,
        walk=walk,
        camera=camera,
        firing=firing,
        circuit=circuit,
        grid_cells=grid_cells,
        place=place,
        noise_sigma=sections["sensors"]["noise_sigma"],
        jitter_sigma=sections["controller"]["jitter_sigma"],
        start_heading=walk_keys["start_heading"],
        initial_w_color=circuit_keys["initial_w_color"],
        train_summary=circuit_keys["train_summary"],
        bin_size=analysis["bin_size"],
        annulus_inner_scale=inner,
        annulus_outer_scale=outer,
        sweep=(),
    )
    sweep = []
    with _section("sweep"):
        for key, raw in cp.items("sweep") if cp.has_section("sweep") else ():
            _sweep_override(key)  # an unknown key fails before its values
            try:
                values = tuple(float(v) for v in raw.split(",") if v.strip() != "")
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad value list for sweep parameter '{key}': {raw!r}"
                ) from exc
            if not values:
                raise ConfigurationError(f"empty value list for sweep parameter '{key}'")
            # each swept field has a rule of its own, so a sweep point is
            # valid exactly when each of its values is
            for v in values:
                apply_sweep_point(rc, {key: v})
            sweep.append((key, values))
        points = math.prod(len(values) for _, values in sweep)
        if points > MAX_SWEEP_POINTS:
            raise ConfigurationError(f"the value lists make {points} points; at most {MAX_SWEEP_POINTS} fit (point_000 to point_999)")
    return dataclasses.replace(rc, sweep=tuple(sweep))


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def config_hash(rc: RunConfig) -> str:
    """Short stable digest of the effective configuration."""
    buf = io.StringIO()
    for f in dataclasses.fields(RunConfig):
        buf.write(f"{f.name}={getattr(rc, f.name)!r}\n")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()[:12]


def _override_firing(rc: RunConfig, **values: float) -> RunConfig:
    return dataclasses.replace(rc, firing=dataclasses.replace(rc.firing, **values))


def _override_first_grid_cell(rc: RunConfig, **values: float) -> RunConfig:
    first = dataclasses.replace(rc.grid_cells[0], **values)
    return dataclasses.replace(rc, grid_cells=(first, *rc.grid_cells[1:]))


# Each [sweep] key and what it overrides: the firing profile, or the first
# grid cell (the one ratemap writes as grid1).
SWEEPABLE = dict.fromkeys(("kappa", "zeta"), _override_firing) | dict.fromkeys(
    ("spacing", "orientation", "phase1", "phase2"), _override_first_grid_cell
)


def _sweep_override(name: str):
    if name not in SWEEPABLE:
        raise ConfigurationError(f"unknown sweep parameter '{name}' (choices: {', '.join(SWEEPABLE)})")
    return SWEEPABLE[name]


def apply_sweep_point(rc: RunConfig, assignment: dict[str, float]) -> RunConfig:
    """Override the swept parameters, in the assignment's order; each new
    value is checked by the rule of the field it sets."""
    for name, value in assignment.items():
        rc = _sweep_override(name)(rc, **{name: value})
    return rc


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

    The mode sets :class:`EpisodeConfig`'s ``train`` switch, whose
    docstring says what each mode does.  The starting weight is the
    first of: ``initial_w``, ``[circuit] initial_w_color``, in test mode
    the ``final_w_color`` of the ``[circuit] train_summary`` file, and in
    train mode 0.
    """
    if mode not in ("train", "test"):
        raise ConfigurationError(f"mode must be 'train' or 'test', got {mode!r}")
    if seed is None:
        seed = rc.seed
    if seed is None:
        raise ConfigurationError("an episode needs a seed ([run] seed or --seed)")
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
        train=(mode == "train"),
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
    except (OSError, UnicodeDecodeError) as exc:
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
