"""Parse-result pins for the config schema.

``config_golden.json`` holds a battery of config texts and, for each, the
outcome ``parse_config`` gave when the file was recorded: the SHA-256 of
``repr(RunConfig)`` and the ``config_hash``, or the exception class and
message.  The battery sets every fixed key to a valid value, to nan/inf,
to a non-number and to a few edge values; puts an unknown key in every
section; names every subset of keys for each numbered kind; and covers
the sweep value lists.  Any change to what a text parses to, or to the
error it reports, fails here.

One text is left out on purpose: ``[place] spacing_max = inf`` used to
reach ``numpy.geomspace`` and fail with a RuntimeWarning and a message
naming ``spacing``; it is now rejected in the parser, and
``tests/test_cli.py::NON_FINITE_CASES`` pins the new message.

``PYTHONPATH=src python tests/test_config_golden.py`` rewrites the JSON
from the current code; run it only when a parse result changes on purpose.
"""

import hashlib
import itertools
import json
import os
import warnings

from mazecells.config import config_hash, default_ini, parse_config

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "config_golden.json")

# A valid, non-default value for every key of the fixed sections.
FIXED_VALID = {
    "run": {"seed": "7", "tick_count": "1234"},
    "arena": {"radius": "1.5"},
    "walk": {"speed": "0.25", "dt": "0.05", "turn_sigma": "0.3", "start_heading": "1.0"},
    "sensors": {"noise_sigma": "0.2"},
    "camera": {"fov": "1.2", "max_range": "2.0"},
    "firing": {"kappa": "4.0", "zeta": "0.4"},
    "place": {
        "count": "12",
        "spacing_min": "0.4",
        "spacing_max": "1.0",
        "anchor_x": "0.1",
        "anchor_y": "-0.2",
        "threshold_fraction": "0.5",
    },
    "circuit": {
        "vibration_threshold": "4.0",
        "color_activation_threshold": "0.25",
        "eta": "0.1",
        "initial_w_color": "0.6",
        "train_summary": "train/summary.txt",
    },
    "controller": {"jitter_sigma": "0.2"},
    "analysis": {"bin_size": "0.1", "annulus_inner_scale": "0.4", "annulus_outer_scale": "1.4"},
}

NUMBERED_VALID = {
    "zone": {"center_x": "0.5", "center_y": "-0.3", "radius": "0.15", "amplitude": "6.0"},
    "wall": {"start_angle": "0.5", "end_angle": "2.0", "color": "blue"},
    "grid": {"spacing": "0.7", "orientation": "0.3", "phase1": "1.1", "phase2": "2.9"},
}

EDGE_VALUES = {
    "nan": "nan",
    "inf": "inf",
    "-inf": "-inf",
    "word": "abc",
    "zero": "0",
    "neg": "-1",
    "huge": "1e300",
}

# Deliberately changed since the recording; see the module docstring.
LEFT_OUT = {"inf/place.spacing_max"}

SWEEP_LISTS = [
    "kappa = 1, 5, 20\nzeta = 0.1, 0.3\n",
    "spacing = 0.7, 0.85, 1.0, 1.15\n",
    "orientation = 0.1, 0.5\n",
    "phase1 = 0.0, 3.0\nphase2 = 6.0\n",
    "kappa = 1, 2,\n",
    "kappa = 5\nkappa2 = 1\n",
    "gamma = 1, 2\n",
    "kappa = ,\n",
    "kappa =\n",
    "kappa = 1, fast\n",
    "spacing = 1.0, nan\n",
    "zeta = inf\n",
    "spacing = 99.0\n",
    "spacing = 1e9\n",
]


def _section(name: str, keys: dict) -> str:
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


def battery() -> dict[str, str]:
    """Named config texts, in a fixed order."""
    texts: dict[str, str] = {"empty": "", "default_ini": default_ini()}
    for section, keys in FIXED_VALID.items():
        for key, valid in keys.items():
            texts[f"valid/{section}.{key}"] = _section(section, {key: valid})
            for label, raw in EDGE_VALUES.items():
                texts[f"{label}/{section}.{key}"] = _section(section, {key: raw})
        texts[f"unknown/{section}"] = _section(section, {"bogus": "1"})
        texts[f"all-valid/{section}"] = _section(section, keys)
    for kind, keys in NUMBERED_VALID.items():
        names = list(keys)
        for n in range(len(names) + 1):
            for subset in itertools.combinations(names, n):
                label = "+".join(subset) or "none"
                texts[f"subset/{kind}/{label}"] = _section(f"{kind} 1", {k: keys[k] for k in subset})
        for key in names:
            for label, raw in EDGE_VALUES.items():
                texts[f"{label}/{kind}.{key}"] = _section(f"{kind} 1", dict(keys, **{key: raw}))
        texts[f"unknown/{kind}"] = _section(f"{kind} 1", {"bogus": "1"})
        texts[f"unknown-after-full/{kind}"] = _section(f"{kind} 1", dict(keys, bogus="1"))
        texts[f"order/{kind}"] = _section(f"{kind} 3", keys) + _section(f"{kind} 1", keys)
        texts[f"missing-second/{kind}"] = _section(f"{kind} 2", {}) + _section(f"{kind} 1", keys)
        texts[f"leading-zero/{kind}"] = _section(f"{kind} 01", keys) + _section(f"{kind} 1", keys)
        for name in (kind, f"{kind} x", f"{kind} 1 2", f"{kind.title()} 1", f"{kind} -1"):
            texts[f"section-name/{name}"] = _section(name, keys)
    for i, body in enumerate(SWEEP_LISTS):
        texts[f"sweep/{i}"] = "[sweep]\n" + body
    texts["sweep/with-run"] = "[run]\nseed = 3\ntick_count = 500\n\n[sweep]\nkappa = 1, 5\n"
    texts["unknown-section"] = "[bogus]\nx = 1\n"
    texts["malformed/no-section"] = "key without a section = 1\n"
    texts["malformed/duplicate-section"] = "[run]\nseed = 1\n[run]\nseed = 2\n"
    texts["malformed/duplicate-key"] = "[run]\nseed = 1\nseed = 2\n"
    texts["case/Run"] = "[Run]\nseed = 1\n"
    texts["case/Seed"] = "[run]\nSeed = 1\n"
    texts["whitespace"] = "[run]\n  seed   =   4  \n[circuit]\ntrain_summary =   a b  \n"
    # the perfbench workload configs
    texts["workload/ratemap-long"] = "[run]\nseed = 1\ntick_count = 200000\n\n[analysis]\nbin_size = 0.05\n"
    texts["workload/ratemap-fine"] = "[run]\nseed = 1\ntick_count = 60000\n\n[analysis]\nbin_size = 0.025\n"
    texts["workload/episode-test"] = (
        "[run]\nseed = 2\ntick_count = 40000\n\n[circuit]\ntrain_summary = out/train/summary.txt\n"
    )
    texts["workload/sweep-pool"] = (
        "[run]\nseed = 1\ntick_count = 50000\n\n[sweep]\nspacing = 0.7, 0.85, 1.0, 1.15\n"
    )
    # cross-section checks: the map-side bound follows the arena radius,
    # the place ordering check needs both spacings
    texts["cross/radius-bin"] = "[arena]\nradius = 2.6\n[analysis]\nbin_size = 0.000634765625\n"
    texts["cross/spacing-order"] = "[place]\nspacing_min = 2.0\nspacing_max = 1.0\n"
    texts["cross/annulus-order"] = "[analysis]\nannulus_inner_scale = 2.0\n"
    texts["cross/zone-outside"] = _section("arena", {"radius": "0.5"}) + _section(
        "zone 1", NUMBERED_VALID["zone"] | {"center_x": "0.9"}
    )
    for name in LEFT_OUT:
        del texts[name]
    return texts


def outcome(text: str) -> dict:
    try:
        rc = parse_config(text)
    except Exception as exc:  # the class is part of what is pinned
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "repr_sha256": hashlib.sha256(repr(rc).encode()).hexdigest(),
        "config_hash": config_hash(rc),
    }


def test_parse_results_match_golden():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert len(golden) > 200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mismatches = {
            name: (entry["result"], got)
            for name, entry in golden.items()
            if (got := outcome(entry["text"])) != entry["result"]
        }
    assert mismatches == {}


def test_battery_matches_golden_texts():
    # the generator and the recorded texts stay in step
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert {name: entry["text"] for name, entry in golden.items()} == battery()


if __name__ == "__main__":
    record = {name: {"text": text, "result": outcome(text)} for name, text in battery().items()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"wrote {len(record)} entries to {GOLDEN_PATH}")
