"""Smoke test of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py

Every workload runs at a tiny size; the test checks that each metric
named in BENCHMARK.json is emitted with its unit, and that a config the
CLI rejects is counted as a failed run instead of crashing the harness.
"""

import dataclasses
import json
import os

import pytest

import run
from workloads import DEFAULT_SEED, WORKLOADS

TINY = 0.01

with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    report = run.run_workload(WORKLOADS[name], DEFAULT_SEED + 1, 0, trace, scale=TINY, work_root=str(tmp_path))
    result = report["result"]
    assert report["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = _units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert report["manifest"]["kernel_backend"] in ("numpy", "numba")
    if trace:
        assert result["metrics"]["trace.accounted_frac"]["value"] > 0.5
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _with_rejected_config(wl):
    def make(seed, work, scale):
        inputs = wl.make(seed, work, scale)
        files = {path: text + "\n[no_such_section]\nkey = 1\n" for path, text in inputs.files.items()}
        return dataclasses.replace(inputs, files=files)

    return dataclasses.replace(wl, make=make)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_rejected_config_counts_as_failed(tmp_path, capsys, trace):
    wl = _with_rejected_config(WORKLOADS["ratemap-long"])
    report = run.run_workload(wl, DEFAULT_SEED, 0, trace, scale=TINY, work_root=str(tmp_path))
    result = report["result"]
    assert result["correct"] is False
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert any("exit codes [2]" in p for p in report["problems"])
    run.print_report(report)
    failed_line = [ln for ln in capsys.readouterr().out.splitlines() if " failed_frac " in ln]
    assert len(failed_line) == 1 and failed_line[0].split()[2] == "1"


def test_golden_tolerance_admits_roundoff_only():
    golden = {"summary.txt": {"gridness_grid1": "1.321098877318095", "halfmax_area_bins_grid1": "1125"}}
    near = {"summary.txt": {"gridness_grid1": repr(1.321098877318095 + 2.5e-11), "halfmax_area_bins_grid1": "1125"}}
    far = {"summary.txt": {"gridness_grid1": repr(1.321098877318095 + 1e-6), "halfmax_area_bins_grid1": "1125"}}
    count = {"summary.txt": {"gridness_grid1": "1.321098877318095", "halfmax_area_bins_grid1": "1126"}}
    assert run.compare_golden(golden, near) == []
    assert len(run.compare_golden(golden, far)) == 1
    assert len(run.compare_golden(golden, count)) == 1
