"""Smoke test of the end-to-end benchmark: every workload with a tiny
op count, traced, so both metric sets and every check run."""

import json
from pathlib import Path

import pytest

import ledger
import run
import stats
from workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_harness_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == list(ledger.METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name, tmp_path):
    workload = WORKLOADS[name](seed=0, tmpdir=str(tmp_path),
                               round_ops=2, warmup_ops=1)
    result = run.measure(workload, 0, True)
    assert result["errors"] == []
    assert result["failed"] == 0 and result["attempted"] >= 2
    for metric, unit in run.E2E_METRICS:
        if metric != "setup_s":          # median of probe processes
            assert result[metric] > 0, (metric, unit)
    assert result["setup_main_s"] > 0
    assert set(result["ledger"]) == {m for m, _ in ledger.METRICS}
    shares = [v for k, v in result["ledger"].items()
              if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)
    assert min(shares) >= -0.02
    assert result["ledger_missing"] == []


def _runs(values, workload="w"):
    return [{"workload": workload, "seed": s, "ops_per_s": v,
             "failed": 0, "attempted": 100}
            for s, v in enumerate(values)]


@pytest.mark.parametrize("parent, change, verdict", [
    ([100 + i % 3 for i in range(10)], [120 + i % 3 for i in range(10)],
     "gain"),
    ([100 + i % 3 for i in range(10)], [101 + i % 3 for i in range(10)],
     "ok"),
    ([100 + i % 3 for i in range(10)], [80 + i % 3 for i in range(10)],
     "REGRESSION"),
    ([100 * (1 + i % 2) for i in range(10)], [95 + i % 3 for i in range(10)],
     "unresolved"),
])
def test_compare_rules(parent, change, verdict):
    assert stats.judge(_runs(parent), _runs(change), "ops_per_s",
                       "higher", 0.1)[0] == verdict
