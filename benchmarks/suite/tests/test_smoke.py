"""Smoke test of the benchmark itself, at --tiny sizes (rows not comparable).

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite/tests``; it is
not part of the tier-1 suite.
"""

import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SUITE = Path(__file__).resolve().parent.parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(SUITE.parent))

from suite import trace  # noqa: E402
from suite.workloads import (  # noqa: E402
    WORKLOADS,
    account_churn,
    account_live,
    account_queries,
    account_static,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, traced, tmp_path):
    out = tmp_path / f"{workload}.json"
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(int(traced)), "--tiny", "--trace-out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), out, done.stderr


def test_definition_names_every_workload():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_emitted_and_finite(workload, tmp_path):
    for traced, declared in ((False, BENCH["end_to_end"]), (True, BENCH["per_layer"])):
        result, spans_file, stderr = run_tiny(workload, traced, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"]), metric["name"]
        for name in ("setup_s", "run_s", "peer_rounds_per_s", "queries_per_s"):
            if not traced:
                assert result["metrics"][name]["value"] > 0
    # The traced run came last: its span tree must be well formed.
    assert "malformed" not in stderr
    recorded = json.loads(spans_file.read_text())
    spans = recorded["spans"]
    assert recorded["missing"] == []
    assert trace.malformed(spans) == []
    for run in {span[trace.RUN] for span in spans}:
        roots = [s[trace.NAME] for s in spans if s[trace.RUN] == run and s[trace.PARENT] < 0]
        assert roots == ["harness.setup", "harness.run"]


def test_a_target_that_no_longer_resolves_is_reported_not_fatal():
    tracer = trace.Tracer([
        trace.Target("gone", "repro.no_such_module:f"),
        trace.Target("gone", "repro.perf:no_such_function"),
        trace.Target("perf.copy", "repro.perf:PerfCounters.copy"),
    ])
    from repro.perf import counters

    with tracer.installed():
        counters.copy()
    counters.copy()
    assert tracer.missing == ["repro.no_such_module:f", "repro.perf:no_such_function"]
    assert [span[trace.NAME] for span in tracer.spans] == ["perf.copy"]


def test_a_broken_scope_is_counted_as_failed():
    assert account_static([120.0, 120.0, 120.0], peers=120, query_samples=8) == (26, 0)
    assert account_static([120.0, 119.875, 120.0], peers=120, query_samples=8) == (26, 9)
    assert account_queries([120, 120, 119], live_peers=120) == (3, 1)
    assert account_churn([100.0, 99.5, 100.0], window=20, queries=50, peers=100, rounds=2) == (52, 20)

    plan = [SimpleNamespace(source=0, holders=(0, 5)), SimpleNamespace(source=1, holders=(1,))]
    healthy = dict(drained=True, scope=16, responders=[5])
    result = SimpleNamespace(
        step_reports=[SimpleNamespace(peers_optimized=16)],
        queries=[dict(healthy), dict(healthy, responders=[])],
        retries=0, lost_frames=0, dead=[], clean_shutdown=True,
    )
    assert account_live(result, plan, peers=16, steps=1) == (3, 0)
    result.queries[0]["scope"] = 15
    result.retries, result.clean_shutdown = 2, False
    assert account_live(result, plan, peers=16, steps=1) == (6, 4)
