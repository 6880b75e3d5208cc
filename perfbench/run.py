"""End-to-end and per-layer benchmark of the mazecells CLI pipelines.

Usage (from the repository root):

    python3 perfbench/run.py --workload ratemap-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload, one table

A closed loop: one child process (runner.py) runs one workload run at a
time through ``mazecells.cli.main`` and starts the next only when the
previous one has finished.  The workload seed is an argument of this
script; the program sees only the generated INI configs.  The runner is
pinned to one CPU, except for the sweep, whose worker processes need
every CPU.

All times are calibrated: each run time (and each per-layer time of a
traced run) is multiplied by CALIBRATION_REF_S / (time of the fixed loop
in calib.py, measured right before and after the run).  On a shared
host the raw time of one run drifts by up to 1.5x with the load of other
tenants; over ten invocations on 2 CPUs the interquartile range of the
wall_s medians was 7-15% of the median raw and 3-9% calibrated.  The
raw medians are printed alongside, marked "uncalibrated", and written
to the results file.

``--trace 0`` reports the end-to-end metrics:

- wall_s: median calibrated wall time of one workload run, after
  set-up and one untimed warm-up run.  With a few runs per invocation
  only the median has enough samples, so no higher percentile is
  reported.
- ticks_per_s: simulated walk and episode ticks of one run / wall_s.
- setup_s: median time for a fresh interpreter to import mazecells and
  load_config the workload's config, calibrated by the NumPy import
  time inside it (see calib.py).
- peak_rss_mb: peak resident set of the runner process or of its
  largest child (the sweep workers), whichever is larger.

``--trace 1`` alternates untraced runs with runs under the layer tracer
(tracer.py), and reports the per-layer metrics, the tracing overhead
and the share of the traced wall time the layers account for.
The sweep runs its points serially while traced (MAZECELLS_JOBS=1), so
every span lands in one process; the parallel fan-out is measured by
cli.sweep.parallel_efficiency = serial sweep wall / (workers x parallel
sweep wall).

Every run is checked: exit codes 0, the output tree byte-identical to
the first run's (ignoring duration_s), and the summaries equal to
golden.json at the default seed (counts and strings exactly, floats
within FLOAT_TOL) or, at any other seed, the workload's seed-independent
invariants.  A run failing any of these counts as failed; failed_frac =
failed / attempted is printed in the table and carried by the
``attempted`` / ``failed`` fields of the result.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A manifest (kernel backend,
versions, CPU count, commit, seed) and every sample are written to
.perfbench-run/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys

from calib import CALIBRATION_REF_S, NUMPY_IMPORT_REF_S
from workloads import DEFAULT_SEED, SWEEP_JOBS, WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = ".perfbench-run"
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

# Tolerance for float summary values against golden.json.  An exact
# rewrite of a kernel (e.g. an FFT autocorrelogram, which deviates from
# the direct sum by about 2.5e-11 and moves gridness by about 1e-15)
# passes; any change of the simulation does not.
FLOAT_TOL = 1e-9
STRING_KEYS = {"config_hash", "command", "mode", "parameters"}

SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 20.0
# The runner measures for --seconds plus one warm-up run and one overshooting round.
RUNNER_GRACE_S = 100.0

END_TO_END_UNITS = {"wall_s": "s", "ticks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Prints the set-up time and, of it, the time spent importing NumPy.  A
# config the CLI rejects is timed all the same; the runs count the failure.
PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import mazecells\n"
    "try:\n"
    "    mazecells.load_config(sys.argv[2])\n"
    "except mazecells.ConfigurationError:\n"
    "    pass\n"
    "print(time.perf_counter() - t0, t1 - t0)\n"
)


def _self(layer):
    return lambda tr, wall: tr["self_s"].get(layer, 0.0)


def _count(key):
    return lambda tr, wall: tr["counts"].get(key, 0)


def _ratio(num, den, scale):
    def value(tr, wall):
        d = den(tr, wall)
        return num(tr, wall) / d * scale if d else 0.0

    return value


def _total(layer):
    return lambda tr, wall: tr["total_s"].get(layer, 0.0)


# Per-layer metrics computed from one traced run: (name, unit, value).
LAYER_METRICS = [
    ("arena.walk_trajectory.self_s", "s", _self("arena.walk_trajectory")),
    ("arena.walk_trajectory.ticks", "count", _count("arena.walk_trajectory.ticks")),
    ("arena.color_sample.self_s", "s", _self("arena.color_sample")),
    ("arena.color_sample.calls", "count", _count("arena.color_sample.calls")),
    ("spatialcells.rates_at.self_s", "s", _self("spatialcells.rates_at")),
    ("spatialcells.rates_at.points", "count", _count("spatialcells.rates_at.points")),
    (
        "spatialcells.rates_at.ns_per_point",
        "ns",
        _ratio(_self("spatialcells.rates_at"), _count("spatialcells.rates_at.points"), 1e9),
    ),
    ("spatialcells.place_activity_at.self_s", "s", _self("spatialcells.place_activity_at")),
    ("analysis.spatial_autocorrelogram.self_s", "s", _self("analysis.spatial_autocorrelogram")),
    ("analysis.spatial_autocorrelogram.lags", "count", _count("analysis.spatial_autocorrelogram.lags")),
    (
        "analysis.spatial_autocorrelogram.bytes_computed",
        "bytes",
        _count("analysis.spatial_autocorrelogram.bytes_computed"),
    ),
    ("analysis.rate_map.self_s", "s", _self("analysis.rate_map")),
    ("analysis.gridness.self_s", "s", _self("analysis.gridness")),
    ("analysis.scores.self_s", "s", _self("analysis.scores")),
    ("controller.run_episode.self_s", "s", _self("controller.run_episode")),
    (
        "controller.us_per_tick",
        "us",
        _ratio(_total("controller.run_episode"), _count("controller.run_episode.ticks"), 1e6),
    ),
    ("learning.self_s", "s", _self("learning")),
    ("learning.calls", "count", _count("learning.calls")),
    ("artifacts.self_s", "s", _self("artifacts")),
    ("artifacts.bytes", "bytes", _count("artifacts.bytes")),
    ("artifacts.files", "count", _count("artifacts.files")),
    ("config.load_config.self_s", "s", _self("config.load_config")),
    ("cli.self_s", "s", lambda tr, wall: wall - tr["covered_s"]),
]
COUNT_UNITS = {"count", "bytes"}
TIME_UNITS = {"s", "us", "ns"}
# Filled from the phase walls rather than one traced run.
RUN_METRICS = {
    "cli.sweep.parallel_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed run)."""


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def parse_outputs(texts: dict[str, str]) -> dict:
    """summary.txt -> {key: value}; sweep.csv -> [{column: value}]."""
    out: dict = {}
    for rel, text in texts.items():
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if rel.endswith("sweep.csv"):
            header = lines[0].split(",")
            out[rel] = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        else:
            out[rel] = dict(
                (k.strip(), v.strip()) for k, _, v in (ln.partition("=") for ln in lines)
            )
    return out


_INT = re.compile(r"^-?\d+$")


def _same_value(key: str, want: str, got: str) -> bool:
    if key in STRING_KEYS or _INT.match(want):
        return want == got
    try:
        a, b = float(want), float(got)
    except ValueError:
        return want == got
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def compare_golden(golden: dict, outputs: dict) -> list[str]:
    problems = []
    if set(golden) != set(outputs):
        problems.append(f"output files {sorted(outputs)} != golden {sorted(golden)}")
    for rel, want in golden.items():
        got = outputs.get(rel)
        if isinstance(want, list):  # sweep.csv rows
            if not isinstance(got, list) or len(got) != len(want):
                problems.append(f"{rel}: row count differs from golden")
                continue
            pairs = [
                (f"{rel}[{i}].{k}", k, v, g.get(k))
                for i, (w, g) in enumerate(zip(want, got))
                for k, v in w.items()
            ]
        else:
            got = got or {}
            pairs = [(f"{rel}:{k}", k, v, got.get(k)) for k, v in want.items()]
        for label, key, v, g in pairs:
            if g is None or not _same_value(key, v, g):
                problems.append(f"{label} = {g} (golden {v})")
    return problems


def check_run(wl: Workload, inputs, seed: int, scale: float, outputs: dict, golden: dict | None) -> list[str]:
    """Problems with one successful run's outputs."""
    problems = []
    counted = 0
    for rel, summary in outputs.items():
        if rel.endswith("summary.txt") and "tick_count" in summary:
            counted += int(summary["tick_count"])
    if counted != inputs.ticks:
        problems.append(f"summaries count {counted} ticks, expected {inputs.ticks}")
    if scale != 1.0:
        return problems
    if seed == DEFAULT_SEED and golden is not None:
        return problems + compare_golden(golden, outputs)
    return problems + wl.invariants(outputs)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _source_dir() -> str:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mazecells", "__init__.py")):
        raise HarnessError(f"no mazecells package under {src}; run from a full checkout")
    return src


def _run_child(argv: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{argv[1]} did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        try:  # sweep workers a crashed runner may have left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup(src: str, config: str) -> list[tuple[float, float]]:
    """(set-up, NumPy import) times of fresh interpreters importing mazecells
    and loading ``config``; the first, cache-filling probe is dropped."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        res = _run_child(
            [sys.executable, "-c", PROBE, src, config],
            timeout=PROBE_TIMEOUT_S,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        if res.returncode != 0:
            raise HarnessError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
        setup, numpy_import = res.stdout.split()
        samples.append((float(setup), float(numpy_import)))
    return samples[1:]


def phases_for(trace: bool, env: dict) -> list[dict]:
    """Run configurations the runner alternates between."""
    if not trace:
        return [{"name": "timed", "env": env}]
    if "MAZECELLS_JOBS" in env:  # the sweep: trace its points in one process
        serial = dict(env, MAZECELLS_JOBS="1")
        return [
            {"name": "parallel", "env": env},
            {"name": "untraced", "env": serial},
            {"name": "traced", "env": serial, "trace": True},
        ]
    return [{"name": "untraced", "env": env}, {"name": "traced", "env": env, "trace": True}]


def _median(values):
    return statistics.median(values) if values else 0.0


def calibrated(seconds: float, calib_s: float) -> float:
    """A time rescaled to the machine speed at which the calibration loop takes CALIBRATION_REF_S."""
    return seconds * CALIBRATION_REF_S / calib_s


def median_wall(runs: list[dict]) -> float:
    return _median([calibrated(r["wall_s"], r["calib_s"]) for r in runs])


def _manifest(runner: dict, seed: int, workload: str) -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = _run_child(
            ["git", "rev-parse", "HEAD"], timeout=30, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        commit = res.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "kernel_backend": runner["backend"],
        "numba_present": runner["numba_present"],
        "mazecells_version": runner["mazecells_version"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def run_workload(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    work_root: str = WORK_DIR,
    golden_path: str | None = GOLDEN_PATH,
) -> dict:
    """Run one workload; returns result, per-metric sample counts and manifest."""
    src = _source_dir()
    work = os.path.join(work_root, wl.name)
    inputs = wl.make(seed, work, scale)
    for path, text in inputs.files.items():
        os.makedirs(os.path.dirname(os.path.join(ROOT, path)), exist_ok=True)
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
            fh.write(text)

    setup = [] if trace else measure_setup(src, inputs.steps[0][inputs.steps[0].index("--config") + 1])

    results_dir = os.path.join(ROOT, work_root, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    job = {
        "root": ROOT,
        "steps": inputs.steps,
        "out_root": inputs.out_root,
        "seconds": seconds,
        "phases": phases_for(trace, inputs.env),
        "pin_cpu": "MAZECELLS_JOBS" not in inputs.env,  # the sweep needs every CPU
        "result_path": os.path.join(ROOT, work, "runner-result.json"),
        "spans_path": os.path.join(results_dir, f"{tag}.spans.jsonl") if trace else None,
    }
    job_path = os.path.join(ROOT, work, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    if os.path.exists(job["result_path"]):
        os.unlink(job["result_path"])
    res = _run_child(
        [sys.executable, os.path.join(BENCH_DIR, "runner.py"), job_path],
        timeout=seconds + RUNNER_GRACE_S,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if res.returncode != 0 or not os.path.exists(job["result_path"]):
        raise HarnessError(f"runner exited with {res.returncode}: {res.stderr.strip()[-1500:]}")
    with open(job["result_path"], "r", encoding="utf-8") as fh:
        runner = json.load(fh)
    if os.path.commonpath([runner["mazecells_file"], src]) != src:
        raise HarnessError(f"imported {runner['mazecells_file']}, not the checkout's package")

    # -- correctness ----------------------------------------------------
    golden = None
    if golden_path is not None:
        with open(golden_path, "r", encoding="utf-8") as fh:
            golden = json.load(fh)[wl.name]
    reference = None
    texts = {}
    verdicts: dict[str, list[str]] = {}
    problems: list[str] = []
    attempted = failed = 0
    for phase, runs in runner["phases"].items():
        for i, run in enumerate(runs):
            attempted += 1
            if "digest" not in run:
                why = [f"exit codes {run['codes']}: {run['stderr'].strip()[-300:]}"]
            else:
                if reference is None:
                    reference, texts = run["digest"], run["texts"]
                if run["digest"] not in verdicts:
                    outputs = parse_outputs(run["texts"])
                    verdicts[run["digest"]] = check_run(wl, inputs, seed, scale, outputs, golden)
                why = list(verdicts[run["digest"]])
                if run["digest"] != reference:
                    why.append("output tree differs from the first run's")
            if why:
                failed += 1
                problems.extend(f"{phase}[{i}]: {w}" for w in why)

    # -- metrics --------------------------------------------------------
    metrics: dict[str, dict] = {}
    samples: dict[str, int] = {}
    raw: dict[str, float] = {}
    phases = runner["phases"]
    if not trace:
        timed = phases["timed"]
        wall = median_wall(timed)
        values = {
            "wall_s": (wall, len(timed)),
            "ticks_per_s": (inputs.ticks / wall, len(timed)),
            "setup_s": (_median([t * NUMPY_IMPORT_REF_S / n for t, n in setup]), len(setup)),
            "peak_rss_mb": (runner["peak_rss_mb"], 1),
        }
        raw = {
            "raw_wall_s": _median([r["wall_s"] for r in timed]),
            "raw_setup_s": _median([t for t, _ in setup]),
            "calibration_s": _median([r["calib_s"] for r in timed]),
            "numpy_import_s": _median([n for _, n in setup]),
        }
        for name, (value, n) in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
            samples[name] = n
    else:
        traced = phases["traced"]
        for name, unit, fn in LAYER_METRICS:
            per_run = [fn(r["trace"], r["wall_s"]) for r in traced]
            if unit in TIME_UNITS:
                per_run = [calibrated(v, r["calib_s"]) for v, r in zip(per_run, traced)]
            if unit in COUNT_UNITS:
                value = int(per_run[0])
                if len(set(per_run)) > 1:
                    problems.append(f"{name} differs between traced runs: {sorted(set(per_run))}")
            else:
                value = _median(per_run)
            metrics[name] = {"value": value, "unit": unit}
            samples[name] = len(per_run)
        traced_wall = median_wall(traced)
        untraced_wall = median_wall(phases["untraced"])
        efficiency = 0.0
        if "parallel" in phases:
            efficiency = untraced_wall / (SWEEP_JOBS * median_wall(phases["parallel"]))
        run_values = {
            "cli.sweep.parallel_efficiency": efficiency,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "trace.accounted_frac": _median([r["trace"]["covered_s"] / r["wall_s"] for r in traced]),
        }
        for name, unit in RUN_METRICS.items():
            metrics[name] = {"value": run_values[name], "unit": unit}
            samples[name] = len(traced)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "manifest": _manifest(runner, seed, wl.name),
        "result": result,
        "samples": samples,
        "raw": raw,
        "problems": problems,
        "texts": texts,
        "walls": {phase: [r["wall_s"] for r in runs] for phase, runs in phases.items()},
        "setup_samples": setup,
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict) -> None:
    m = report["manifest"]
    res = report["result"]
    print(f"# {m['workload']} seed={m['seed']} backend={m['kernel_backend']} numba={m['numba_present']} "
          f"python={m['python']} numpy={m['numpy']} mazecells={m['mazecells_version']} "
          f"nproc={m['nproc']} commit={m['git_commit']}")
    for name, metric in res["metrics"].items():
        print(f"{m['workload']:14s} {name:48s} {metric['value']:>16.6g} {metric['unit']:6s} n={report['samples'][name]}")
    for name, value in report["raw"].items():
        print(f"{m['workload']:14s} {name:48s} {value:>16.6g} {'s':6s} (uncalibrated)")
    frac = res["failed"] / res["attempted"]
    print(f"{m['workload']:14s} {'failed_frac':48s} {frac:>16.6g} {'ratio':6s} n={res['attempted']}")
    for p in report["problems"][:20]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        final = reports[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {
                f"{r['manifest']['workload']}/{k}": v for r in reports for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
