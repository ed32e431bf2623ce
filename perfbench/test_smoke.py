"""Smoke test of the benchmark on shrunken workloads.

    python3 -m pytest -q perfbench/test_smoke.py

Runs k = 20 solves and k = 5 certificate rows in place of the full
workloads and checks the output contract, the failure count and the
traced time accounting.
"""

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from spans import SpanRecorder  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMOKE = {
    "solve-v": harness.Workload(problems=lambda seed: [harness.constant_k(20)],
                                gamma=1, cert_k=5),
    "solve-w": harness.Workload(problems=harness.smooth_media(10, 20, 2),
                                gamma=2, cert_k=5),
    "certify-k20": harness.Workload(problems=lambda seed: [harness.constant_k(10, n=17)],
                                    gamma=1, cert_k=5),
}


@pytest.fixture(scope="module")
def runs():
    return {(name, trace): harness.run_workload(wl, 3, 0.0, trace)
            for name, wl in SMOKE.items() for trace in (False, True)}


def test_workloads_match_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert set(SMOKE) == set(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(SMOKE))
def test_every_metric_emitted_with_its_unit(runs, name):
    for trace, key, units in ((False, "end_to_end", harness.E2E_UNITS),
                              (True, "per_layer", harness.PER_LAYER_UNITS)):
        result, record, _rec = runs[(name, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert declared == units
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
            assert set(record["speed_factor"]) == {"sparse", "dense"}
            assert all(f > 0 for f in record["speed_factor"].values())


def test_capped_solve_counts_as_failed():
    wl = replace(SMOKE["solve-v"], max_cycles=1)
    result, record, _ = harness.run_workload(wl, 3, 0.0, False)
    solves = sum(t["solve_s"]["n"] for t in record["solve_timings"])
    assert not result["correct"]
    assert result["failed"] == solves >= 1
    traced, _, _ = harness.run_workload(wl, 3, 0.0, True)
    assert traced["metrics"]["fail_rate"]["value"] > 0


@pytest.mark.parametrize("name", list(SMOKE))
def test_level_self_times_add_up_to_traced_solve(runs, name):
    result, _record, rec = runs[(name, True)]
    m = {n: v["value"] for n, v in result["metrics"].items()}
    roots = [s for s in rec.spans if s.name == "solve" and s.parent == -1]
    traced_solve_s = sum(s.duration for s in roots) / len(roots)
    parts = m["mg.coarse_s"] + m["mg.check_s"] + sum(
        m[f"smoothing.L{j}_s"] + m[f"mg.L{j}_other_s"] for j in range(harness.LEVELS - 1))
    assert parts == pytest.approx(traced_solve_s, rel=1e-9)


def test_missing_wrap_target_is_reported_absent():
    mod = types.ModuleType("fake")
    mod.present = lambda x: x + 1
    rec = SpanRecorder()
    with rec.install([(mod, "present", None, True), (mod, "renamed_away", None, False)]):
        assert mod.present(1) == 2
    assert rec.absent == ["fake.renamed_away"]
    assert rec.results["present"] == [2]
    assert [s.name for s in rec.spans] == ["present"]
    assert mod.present.__name__ == "<lambda>"  # original restored
