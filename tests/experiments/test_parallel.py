"""The unified parallel trial harness: fan-out, perf merging, and leaks.

Pins the contract of :func:`repro.experiments.parallel.run_trials_detailed`:

* results come back in payload order whatever the worker count;
* with ``shared_underlays`` the parent builds each distinct underlay once
  and workers attach it — zero generator calls inside worker trials, and
  no built topology is ever pickled;
* parent counters after a parallel run equal the parent's own work plus the
  sum of the per-worker snapshots (inline trials are never double-counted);
* no shared-memory segments survive a failed trial.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_trials
from repro.experiments.parallel import run_trials, run_trials_detailed
from repro.experiments.setup import (
    ScenarioConfig,
    attach_shared_underlays,
    attached_underlay_count,
    build_scenario,
    build_underlay,
    clear_attached_underlays,
    underlay_key,
)
from repro.perf import counters
from repro.topology.physical import PhysicalTopology

CONFIG = ScenarioConfig(physical_nodes=150, peers=24, avg_degree=6, seed=7)

# Accumulating counter fields whose fleet totals must survive the merge.
MERGED_FIELDS = (
    "dijkstra_runs",
    "dijkstra_sources",
    "queries",
    "underlay_builds",
    "underlay_attaches",
)


def _double(x):
    return 2 * x


def _explode(x):
    raise RuntimeError(f"trial {x} failed")


def _scenario_fingerprint(config):
    """A cheap deterministic observation of a built scenario."""
    scenario = build_scenario(config)
    scenario.physical.delays_from(0)
    return (
        config.avg_degree,
        scenario.overlay.num_peers,
        scenario.physical.num_edges,
    )


class TestFanOut:
    def test_inline_preserves_payload_order(self):
        assert run_trials(_double, [1, 2, 3], max_workers=1) == [2, 4, 6]

    def test_parallel_preserves_payload_order(self):
        payloads = list(range(6))
        assert run_trials(_double, payloads, max_workers=2) == [
            2 * p for p in payloads
        ]

    def test_worker_count_is_clamped_to_payloads(self):
        # More workers than payloads must not hang or over-spawn.
        assert run_trials(_double, [5], max_workers=8) == [10]

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            run_trials(_double, [1], max_workers=0)

    def test_parallel_results_equal_inline(self):
        configs = [CONFIG, dataclasses.replace(CONFIG, avg_degree=8.0)]
        inline = run_trials(
            _scenario_fingerprint, configs, shared_underlays=configs, max_workers=1
        )
        parallel = run_trials(
            _scenario_fingerprint, configs, shared_underlays=configs, max_workers=2
        )
        assert inline == parallel

    def test_parallel_run_never_pickles_a_topology(self, monkeypatch):
        # Workers get seeded configs and attach the underlay from shared
        # memory; a built PhysicalTopology in a submission, an initializer
        # argument or a result would cross the process boundary by pickle.
        def refuse(self, protocol):
            raise AssertionError("PhysicalTopology crossed a process boundary")

        monkeypatch.setattr(PhysicalTopology, "__reduce_ex__", refuse)
        trials = [
            (CONFIG, DynamicConfig(total_queries=40, window=20, enable_ace=ace))
            for ace in (True, False)
        ]
        series = run_dynamic_trials(trials, max_workers=2)
        assert series == run_dynamic_trials(trials, max_workers=1)


class TestPerfMerging:
    def test_inline_trials_are_not_double_counted(self):
        counters.reset()
        _, snaps = run_trials_detailed(
            _scenario_fingerprint, [CONFIG], max_workers=1
        )
        # The trial incremented the live counters directly; merging its
        # snapshot on top would double every value.
        assert counters.underlay_builds == 1
        assert snaps[0]["underlay_builds"] == 1

    def test_parent_totals_are_parent_work_plus_worker_snapshots(self):
        configs = [CONFIG, dataclasses.replace(CONFIG, avg_degree=8.0)]
        counters.reset()
        _, snaps = run_trials_detailed(
            _scenario_fingerprint, configs, shared_underlays=configs, max_workers=2
        )
        total = counters.snapshot()
        # Both configs share one underlay key, so the parent's only private
        # work is that single export build; everything else came from the
        # merged worker snapshots.
        assert total["underlay_builds"] == 1 + sum(
            s["underlay_builds"] for s in snaps
        )
        for field in MERGED_FIELDS[:-2]:
            assert total[field] == sum(s[field] for s in snaps), field

    def test_workers_attach_instead_of_building(self):
        configs = [CONFIG, dataclasses.replace(CONFIG, avg_degree=8.0)]
        counters.reset()
        _, snaps = run_trials_detailed(
            _scenario_fingerprint, configs, shared_underlays=configs, max_workers=2
        )
        # Zero generator calls inside worker trials; every scenario was
        # served by a lazy zero-copy attach (at most one per process).
        assert sum(s["underlay_builds"] for s in snaps) == 0
        assert 1 <= sum(s["underlay_attaches"] for s in snaps) <= len(configs)
        assert counters.underlay_attaches == sum(
            s["underlay_attaches"] for s in snaps
        )


class TestSharedRegistry:
    def test_registered_handles_attach_lazily_and_once(self):
        physical = build_underlay(CONFIG)
        key = underlay_key(CONFIG)
        with physical.export_shared() as shared:
            try:
                attach_shared_underlays({key: shared.handle})
                assert attached_underlay_count() == 0  # nothing mapped yet
                first = build_scenario(CONFIG)
                assert attached_underlay_count() == 1
                assert first.physical.is_attached
                second = build_scenario(CONFIG)
                # Cached: both scenarios share the one attached instance.
                assert second.physical is first.physical
            finally:
                clear_attached_underlays()

    def test_other_keys_fall_back_to_the_generator(self):
        physical = build_underlay(CONFIG)
        other = dataclasses.replace(CONFIG, seed=CONFIG.seed + 1)
        with physical.export_shared() as shared:
            try:
                attach_shared_underlays({underlay_key(CONFIG): shared.handle})
                scenario = build_scenario(other)
                assert not scenario.physical.is_attached
            finally:
                clear_attached_underlays()


class TestLeakSafety:
    def _live_segments(self):
        root = Path("/dev/shm")
        if not root.is_dir():
            pytest.skip("needs /dev/shm to observe segment lifecycle")
        return {p.name for p in root.iterdir() if p.name.startswith("psm_")}

    def test_no_segments_survive_a_failed_trial(self):
        before = self._live_segments()
        with pytest.raises(RuntimeError, match="failed"):
            run_trials(
                _explode,
                [CONFIG, CONFIG],
                shared_underlays=[CONFIG],
                max_workers=2,
            )
        assert self._live_segments() <= before

    def test_no_segments_survive_a_successful_run(self):
        before = self._live_segments()
        run_trials(
            _scenario_fingerprint,
            [CONFIG],
            shared_underlays=[CONFIG],
            max_workers=2,
        )
        assert self._live_segments() <= before
