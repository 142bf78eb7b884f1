"""The parallel trial harness: fan-out and perf merging.

Pins the contract of :func:`repro.experiments.parallel.run_trials_detailed`:

* results come back in payload order whatever the worker count;
* every worker builds its own world from the seeded config — the parent
  builds nothing, and no built topology is ever pickled;
* parent counters after a parallel run equal the sum of the per-worker
  snapshots (inline trials are never double-counted).
"""

import dataclasses

import pytest

from repro.experiments import parallel
from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_trials
from repro.experiments.parallel import run_trials, run_trials_detailed
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.perf import counters
from repro.topology.physical import PhysicalTopology

CONFIG = ScenarioConfig(physical_nodes=150, peers=24, avg_degree=6, seed=7)

# Accumulating counter fields whose fleet totals must survive the merge.
MERGED_FIELDS = (
    "dijkstra_runs",
    "dijkstra_sources",
    "queries",
    "underlay_builds",
)


def _double(x):
    return 2 * x


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
        inline = run_trials(_scenario_fingerprint, configs, max_workers=1)
        parallel = run_trials(_scenario_fingerprint, configs, max_workers=2)
        assert inline == parallel

    def test_parallel_run_never_pickles_a_topology(self, monkeypatch):
        # Workers get seeded configs and build their own world; a built
        # PhysicalTopology in a submission or a result would cross the
        # process boundary by pickle.
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
        _, snaps = run_trials_detailed(_scenario_fingerprint, configs, max_workers=2)
        total = counters.snapshot()
        # The parent does no private work: every count came from the
        # merged worker snapshots.
        for field in MERGED_FIELDS:
            assert total[field] == sum(s[field] for s in snaps), field

    def test_workers_build_their_own_world(self, monkeypatch):
        # Driven through a public fan-out driver, which must hand its
        # workers nothing but configs: each worker builds its own world.
        snaps = []

        def recording(*args, **kwargs):
            results, trial_snaps = run_trials_detailed(*args, **kwargs)
            snaps.extend(trial_snaps)
            return results, trial_snaps

        monkeypatch.setattr(parallel, "run_trials_detailed", recording)
        trials = [
            (config, DynamicConfig(total_queries=40, window=20))
            for config in (CONFIG, dataclasses.replace(CONFIG, avg_degree=8.0))
        ]
        counters.reset()
        run_dynamic_trials(trials, max_workers=2)
        builds = [s["underlay_builds"] for s in snaps]
        assert builds == [1] * len(trials)  # one per trial, in its worker
        assert counters.underlay_builds == sum(builds)  # the parent built none
