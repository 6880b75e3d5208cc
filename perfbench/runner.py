"""Benchmark child process: runs one workload's CLI steps in a closed loop.

Usage: python3 perfbench/runner.py JOB.json

The job file (written by run.py) names the checkout root, the CLI steps
of one workload run, the output directory, the measuring time and a
list of phases (environment, tracer on or off).  After one warm-up run,
the runner repeats rounds of one run per phase, one run at a time,
through ``mazecells.cli.main`` until the time is used up.  Before every
run the output directory is removed, so each run writes a fresh tree.
The result file holds, per run, the wall time, the calibration time
around it (calib.py), the exit codes, a digest of the output tree and
the summary files; per traced run also the layer totals.  Correctness
is judged by run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

from calib import calibration_s
from tracer import Tracer, stable_text

# Files whose text is returned for checking, with the wall-clock line dropped.
CHECKED_FILES = ("summary.txt", "sweep.csv")


def read_tree(out_root: str) -> tuple[str, dict[str, str]]:
    """Digest of every output file (timing line excluded) and the checked texts."""
    digest = hashlib.sha256()
    texts: dict[str, str] = {}
    paths = []
    for dirpath, _, files in os.walk(out_root):
        paths.extend(os.path.join(dirpath, f) for f in files)
    for path in sorted(paths):
        rel = os.path.relpath(path, out_root).replace(os.sep, "/")
        with open(path, "rb") as fh:
            data = fh.read()
        if os.path.basename(path) in CHECKED_FILES:
            text = stable_text(data)
            texts[rel] = text
            data = text.encode("utf-8")
        digest.update(rel.encode() + b"\0" + data + b"\0")
    return digest.hexdigest(), texts


def run_once(cli_main, steps, out_root, tracer):
    shutil.rmtree(out_root, ignore_errors=True)
    codes = []
    stderr = io.StringIO()
    if tracer is not None:
        tracer.reset()
    calib_before = calibration_s()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        for argv in steps:
            try:
                code = cli_main(list(argv))
            except Exception as exc:  # a crash counts as a failed run
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
            codes.append(code)
            if code != 0:
                break
    wall = time.perf_counter() - t0
    record = {
        "wall_s": wall,
        "calib_s": (calib_before + calibration_s()) / 2,
        "codes": codes,
        "stderr": stderr.getvalue()[-2000:],
    }
    if codes and codes[-1] == 0 and len(codes) == len(steps):
        record["digest"], record["texts"] = read_tree(out_root)
    if tracer is not None:
        record["trace"] = {
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "counts": dict(tracer.counts),
            "covered_s": tracer.top_level_s,
        }
    return record


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    os.chdir(job["root"])
    if job["pin_cpu"]:
        # One CPU for the runs and the calibration around them, so the
        # calibration measures the speed of the CPU the runs used.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import mazecells
    from mazecells import cli
    from mazecells._kernels import HAVE_NUMBA, get_kernels

    result = {
        "backend": get_kernels().backend,
        "numba_present": bool(HAVE_NUMBA),
        "mazecells_version": mazecells.__version__,
        "mazecells_file": os.path.abspath(mazecells.__file__),
        "phases": {},
    }
    tracer = Tracer()

    def run_phase(phase):
        os.environ.update(phase["env"])
        if not phase.get("trace"):
            return run_once(cli.main, job["steps"], job["out_root"], None)
        tracer.install()
        try:
            return run_once(cli.main, job["steps"], job["out_root"], tracer)
        finally:
            tracer.uninstall()

    phases = job["phases"]
    runs = result["phases"]
    runs["warmup"] = [run_phase(phases[0])]
    for phase in phases:
        runs[phase["name"]] = []
    # Whole rounds of one run per phase, so that every phase sees the
    # same drift in machine speed.
    start = time.perf_counter()
    while not runs[phases[0]["name"]] or time.perf_counter() - start < job["seconds"]:
        for phase in phases:
            runs[phase["name"]].append(run_phase(phase))
    if job.get("spans_path"):
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent in tracer.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent}) + "\n")
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(self_kb, child_kb) / 1024.0
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
