"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 -m pytest -q perfbench/smoke.py

Named so that the package's own test run does not collect it.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = dict(scan_pool=60, scan_chunk=20, scan_trace_points=20, op_points=2,
            cli_min_rounds=1, sweeps_min_rounds=1, verify_min_rounds=1,
            setup_probes=1)


def tiny_sizes():
    return run.load_phases().Sizes(**TINY)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.run(workload, seed=7, seconds=0, trace=bool(trace),
                     sizes=tiny_sizes())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_wrong_reference_trips_the_gate():
    phases = run.load_phases()
    refs = copy.deepcopy(phases.load_references())
    omega, d = phases.OP_POINTS[0]
    key = phases.sweep_key(("gain", omega, d))
    refs[key]["kappa_star symmetric"] *= 1.0 + 1e-6
    result = run.run("sweeps", seed=7, seconds=0, trace=False,
                     sizes=tiny_sizes(), references=refs)
    assert result["correct"] is False
    assert result["failed"] >= 1
