"""Record golden.json: the summaries of every workload at the default seed.

Usage (from the repository root): python3 perfbench/record_golden.py

Run it only when a change is meant to alter the simulation's results,
and say so in the change; run.py compares every default-seed run
against this file.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    golden = {}
    for name, wl in sorted(WORKLOADS.items()):
        # Skip the comparison against the file being rewritten.
        report = run.run_workload(wl, DEFAULT_SEED, seconds=0, trace=False, golden_path=None)
        if report["problems"]:
            print(f"{name}: {report['problems']}", file=sys.stderr)
            return 1
        golden[name] = run.parse_outputs(report["texts"])
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.GOLDEN_PATH, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
