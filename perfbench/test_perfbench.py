"""The benchmark's own fast test: every workload's code path at L = 8.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that a run prints exactly the metric names and units BENCHMARK.json
declares, in both trace modes, that the correctness gates pass at the seed,
and that a deliberately corrupted reference makes jobs fail.
"""

import copy
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))

from spans import Tracer                      # noqa: E402
from worker import WORKLOADS                  # noqa: E402
from workloads.common import run_jobs         # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace),
         "--scale", "small"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_reports_every_metric_and_passes_gates(workload, trace, key):
    result = run(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


# One reference value per workload module, pushed off its frozen number.
CORRUPTIONS = {
    "scar_spectrum": lambda ref: ref[(8, (0, 0, "+"))].update(P0=0.9),
    "quench_dynamics": lambda ref: ref["compare"].update({15.0: 0.5}),
    "sector_l18": lambda ref: ref.update(nnz=ref["nnz"] + 2),
}


def test_every_module_has_a_corruption():
    assert sorted(CORRUPTIONS) == sorted(m for ms in WORKLOADS.values() for m in ms)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_reference_fails_jobs(name, tmp_path):
    module = importlib.import_module(f"workloads.{name}")
    ref = copy.deepcopy(module.REFERENCE["small"])
    CORRUPTIONS[name](ref)
    tracer = Tracer(False)
    results = run_jobs(tracer, module.jobs(tracer, 11, "small", ref, str(tmp_path)))
    failed = sum(r["failed"] for r in results)
    assert 0 < failed / len(results) < 1
