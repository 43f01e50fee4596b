"""Self-test of the benchmark: every workload at a tiny size, and the output checks.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import compare  # noqa: E402  (benchmark modules, imported from their own directory)
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_record_holds_outputs_and_raw_times():
    _bench("sphere_seeds", 0)
    record = json.loads((ROOT / ".perfbench_out" / "results" / "sphere_seeds-seed3-trace0.json").read_text())
    assert set(record["raw_metrics"]) == {"wall_s", "setup_s"}
    assert sorted(record["outputs"]) == ["3", "4"]
    assert all(set(o) == {"trace_sha256", "grad_residual", "feas_residual"} for o in record["outputs"].values())


def test_counts_repeat_exactly():
    first = _bench("pca_rate", 1)["metrics"]
    second = _bench("pca_rate", 1)["metrics"]
    for name in ("manifolds.tangents_per_iter", "manifolds.points_per_iter", "harness.trace_rows",
                 "smoothing.h_value.calls"):
        assert first[name]["value"] == second[name]["value"] > 0


def test_corrupted_trace_is_a_failure():
    affinity = os.sched_getaffinity(0)
    bench = run.Run("pca_rate", seed=3, seconds=1, trace=False, tiny=True)  # pins this thread
    try:
        assert bench.invocation(traced=False)["ok"]
    finally:
        bench.probe.stop()
        os.sched_setaffinity(0, affinity)
    references = dict(bench.references)
    trace = bench.out_dir / "trace.csv"
    data = bytearray(trace.read_bytes())
    row = data.index(b"\n") + 1
    end_of_mu = data.index(b",", data.index(b",", row) + 1)  # last byte of the first row's mu
    data[end_of_mu - 1] = ord("1") if data[end_of_mu - 1] != ord("1") else ord("2")
    trace.write_bytes(bytes(data))
    problems, _ = run.check_run_outputs(bench.out_dir, bench.seeds, references)
    assert any("differs" in p for p in problems)


def test_failed_property_is_a_failure():
    assert run.check_suite_log("PASS a\nPASS b\n2/2 properties passed\n") == []
    assert run.check_suite_log("PASS a\nFAIL b: off\n1/2 properties passed\n") == ["FAIL b: off"]
    assert run.check_suite_log("PASS a\n") != []


def test_pairs_verdict():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    assert compare.verdict(parent, [x * 0.8 for x in parent], 0.25, "lower") == ("gain", 10)
    assert compare.verdict(parent, [x * 1.3 for x in parent], 0.25, "lower")[0] == "regression"
    assert compare.verdict(parent, parent, 0.25, "lower") == ("no change", 0)
    noisy = [1.0, 1.6, 0.9, 1.5, 1.0, 1.7, 0.95, 1.4, 1.0, 1.6]
    assert compare.verdict(noisy, noisy[::-1], 0.25, "lower")[0] == "unresolved"


def test_output_mismatch_between_sides():
    out = {"1": {"trace_sha256": "ab", "grad_residual": 0.5, "feas_residual": 0.0}}
    assert compare.output_mismatches(out, json.loads(json.dumps(out))) == []
    changed = {"1": {**out["1"], "grad_residual": 0.25}}
    assert compare.output_mismatches(out, changed) == ["seed 1: grad_residual differs"]
