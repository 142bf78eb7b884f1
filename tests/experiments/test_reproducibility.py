"""Seed-to-figure reproducibility: one config, one result, bit for bit.

This is the regression gate behind the determinism work (and REP001): every
RNG in the pipeline is either threaded from the scenario seed or falls back
to :data:`repro.rng.DEFAULT_SEED`, so two runs of the same experiment from
the same :class:`ScenarioConfig` must produce byte-identical metric dicts.
"""

import dataclasses
import json

from repro.experiments.dynamic_env import (
    DynamicConfig,
    run_dynamic_experiment,
    run_dynamic_trials,
)
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.experiments.static_env import run_static_experiment, run_static_trials
from repro.perf import counters
from repro.rng import DEFAULT_SEED, ensure_rng
from repro.search import batch
from tests.reference import production_and_reference

CONFIG = ScenarioConfig(physical_nodes=200, peers=40, avg_degree=6, seed=5)


def as_bytes(series) -> bytes:
    """Canonical byte serialization of a result dataclass."""
    return json.dumps(dataclasses.asdict(series), sort_keys=True).encode()


class TestStaticReproducibility:
    def test_same_seed_static_runs_are_byte_identical(self):
        runs = [
            run_static_experiment(build_scenario(CONFIG), steps=3, query_samples=8)
            for _ in range(2)
        ]
        assert as_bytes(runs[0]) == as_bytes(runs[1])

    def test_different_seed_changes_the_world(self):
        # Guard against the trap of "identical because constant": the seed
        # must actually steer the result.
        a = run_static_experiment(build_scenario(CONFIG), steps=2, query_samples=8)
        other = dataclasses.replace(CONFIG, seed=6)
        b = run_static_experiment(build_scenario(other), steps=2, query_samples=8)
        assert as_bytes(a) != as_bytes(b)


class TestDynamicReproducibility:
    def test_same_seed_dynamic_runs_are_byte_identical(self):
        dyn = DynamicConfig(total_queries=120, window=40)
        runs = [
            run_dynamic_experiment(build_scenario(CONFIG), dyn) for _ in range(2)
        ]
        assert as_bytes(runs[0]) == as_bytes(runs[1])


class TestParallelMatchesSerial:
    """Worker-count invariance: the fan-out must not perturb a single bit.

    Parallel trials rebuild their scenario over a shared-memory underlay
    attached inside the worker; serial trials build everything inline.  Both
    paths seed identically from the config, so the results must be
    byte-identical — the determinism guarantee the parallel harness
    advertises.
    """

    def test_static_trials_parallel_is_byte_identical_to_serial(self):
        configs = [CONFIG, dataclasses.replace(CONFIG, avg_degree=8.0)]
        serial = run_static_trials(configs, steps=2, query_samples=6, max_workers=1)
        parallel = run_static_trials(configs, steps=2, query_samples=6, max_workers=2)
        assert [as_bytes(s) for s in serial] == [as_bytes(p) for p in parallel]

    def test_dynamic_trials_parallel_is_byte_identical_to_serial(self):
        arms = [
            (CONFIG, DynamicConfig(total_queries=90, window=30, enable_ace=False)),
            (CONFIG, DynamicConfig(total_queries=90, window=30)),
        ]
        serial = run_dynamic_trials(arms, max_workers=1)
        parallel = run_dynamic_trials(arms, max_workers=2)
        assert [as_bytes(s) for s in serial] == [as_bytes(p) for p in parallel]

    def test_parallel_dynamic_arm_matches_direct_experiment(self):
        dyn = DynamicConfig(total_queries=90, window=30)
        direct = run_dynamic_experiment(build_scenario(CONFIG), dyn)
        (via_harness,) = run_dynamic_trials([(CONFIG, dyn)], max_workers=1)
        assert as_bytes(direct) == as_bytes(via_harness)


class TestBatchedMatchesScalarEngine:
    """The batched kernel is an optimization, not a treatment.

    Running the experiments with the compiled-graph engine must produce
    byte-identical figures to answering every query on the scalar
    reference engine — same floats, same counts.  The scalar arm is
    reached through the helpers' own fallback: ``_exact_graph`` is patched
    to find nothing compilable.  This is the experiment-level end of the
    contract pinned peer-by-peer in
    ``tests/search/test_batched_equivalence.py``.
    """

    @staticmethod
    def both_ways(monkeypatch, run):
        batched = run()
        assert counters.batched_queries > 0
        monkeypatch.setattr(batch, "_exact_graph", lambda overlay, strategy: None)
        before = counters.batched_queries
        scalar = run()
        assert counters.batched_queries == before
        return batched, scalar

    def test_static_experiment_batched_is_byte_identical_to_scalar(
        self, monkeypatch
    ):
        batched, scalar = self.both_ways(
            monkeypatch,
            lambda: run_static_experiment(
                build_scenario(CONFIG), steps=3, query_samples=8
            ),
        )
        assert as_bytes(batched) == as_bytes(scalar)

    def test_dynamic_experiment_batched_is_byte_identical_to_scalar(
        self, monkeypatch
    ):
        dyn = DynamicConfig(total_queries=120, window=40)
        batched, scalar = self.both_ways(
            monkeypatch,
            lambda: run_dynamic_experiment(build_scenario(CONFIG), dyn),
        )
        assert as_bytes(batched) == as_bytes(scalar)

    def test_dynamic_no_ace_batched_is_byte_identical_to_scalar(
        self, monkeypatch
    ):
        dyn = DynamicConfig(total_queries=120, window=40, enable_ace=False)
        batched, scalar = self.both_ways(
            monkeypatch,
            lambda: run_dynamic_experiment(build_scenario(CONFIG), dyn),
        )
        assert as_bytes(batched) == as_bytes(scalar)


class TestArrayEngineMatchesObject:
    """The struct-of-arrays overlay engine is an optimization, not a model.

    ``build_scenario`` lowers the generated overlay into flat CSR arrays
    (:class:`repro.topology.soa.ArrayOverlay`), which pairs ACE with the
    flat state store, runs its steps through the batched kernel
    (:mod:`repro.core.batch_ace`) and its queries through the compiled
    kernel; every figure — static and dynamic, with and without ACE, exact
    and landmark oracle — must come out byte-identical to the object
    reference (dict-of-sets overlay, per-peer ACE loop, row-by-row strategy
    lowering) built by ``tests.reference``.  The protocol-level observables
    (reports, actions, state versions) are pinned peer-by-peer in
    ``tests/core/test_batch_ace.py``.
    """

    def test_static_experiment_is_byte_identical(self):
        prod, ref = production_and_reference(CONFIG)
        arr = run_static_experiment(prod, steps=3, query_samples=8)
        obj = run_static_experiment(ref, steps=3, query_samples=8)
        assert as_bytes(obj) == as_bytes(arr)

    def test_dynamic_experiment_is_byte_identical(self):
        dyn = DynamicConfig(total_queries=120, window=40)
        prod, ref = production_and_reference(CONFIG)
        arr = run_dynamic_experiment(prod, dyn)
        obj = run_dynamic_experiment(ref, dyn)
        assert as_bytes(obj) == as_bytes(arr)

    def test_landmark_oracle_static_is_byte_identical(self):
        # The array engine fills costs through the oracle's pairwise
        # interface while the object engine slices estimate vectors; the
        # two forms are pinned bit-identical in tests/oracle, and this
        # checks the figure-level consequence.
        prod, ref = production_and_reference(
            dataclasses.replace(CONFIG, oracle="landmark:8")
        )
        arr = run_static_experiment(prod, steps=3, query_samples=8)
        obj = run_static_experiment(ref, steps=3, query_samples=8)
        assert as_bytes(obj) == as_bytes(arr)

    def test_dynamic_no_ace_is_byte_identical(self):
        dyn = DynamicConfig(total_queries=120, window=40, enable_ace=False)
        prod, ref = production_and_reference(CONFIG)
        arr = run_dynamic_experiment(prod, dyn)
        obj = run_dynamic_experiment(ref, dyn)
        assert as_bytes(obj) == as_bytes(arr)

    def test_paper_default_gate_is_byte_identical(self):
        # The benchmark suite's engine-equality gate (its child process
        # skips it now that ScenarioConfig has no engine field).
        prod, ref = production_and_reference(
            ScenarioConfig(
                physical_nodes=1200, peers=160, avg_degree=6.0, underlay="ba",
                overlay_kind="small_world", seed=1,
            )
        )
        arr = run_static_experiment(prod, steps=10)
        obj = run_static_experiment(ref, steps=10)
        assert as_bytes(obj) == as_bytes(arr)

    def test_array_engine_parallel_is_byte_identical_to_serial(self):
        configs = [CONFIG, dataclasses.replace(CONFIG, seed=6)]
        serial = run_static_trials(
            configs, steps=2, query_samples=6, max_workers=1
        )
        parallel = run_static_trials(
            configs, steps=2, query_samples=6, max_workers=2
        )
        assert [as_bytes(s) for s in serial] == [as_bytes(p) for p in parallel]


class TestOracleReproducibility:
    """The oracle seam must not move a byte — in either direction.

    ``oracle="exact"`` (the default, spelled out or not) is required to be
    byte-identical to the pre-seam pipeline, and the landmark backend is
    required to be exactly as deterministic: same config, same figures,
    serial or parallel.  The oracle RNG rides seed-stream 5 of the scenario
    seed (streams 0–3 are underlay/overlay/workload/run), so enabling it
    never perturbs the existing draws.
    """

    def test_explicit_exact_matches_default(self):
        default = run_static_experiment(
            build_scenario(CONFIG), steps=2, query_samples=8
        )
        explicit = run_static_experiment(
            build_scenario(dataclasses.replace(CONFIG, oracle="exact")),
            steps=2,
            query_samples=8,
        )
        assert as_bytes(default) == as_bytes(explicit)

    def test_landmark_static_runs_are_byte_identical(self):
        config = dataclasses.replace(CONFIG, oracle="landmark:8")
        runs = [
            run_static_experiment(build_scenario(config), steps=2, query_samples=8)
            for _ in range(2)
        ]
        assert as_bytes(runs[0]) == as_bytes(runs[1])

    def test_landmark_actually_changes_the_costs(self):
        # Guard against a seam that silently ignores the spec: approximate
        # delays must steer the figures away from the exact backend's.
        exact = run_static_experiment(
            build_scenario(CONFIG), steps=2, query_samples=8
        )
        approx = run_static_experiment(
            build_scenario(dataclasses.replace(CONFIG, oracle="landmark:4")),
            steps=2,
            query_samples=8,
        )
        assert as_bytes(exact) != as_bytes(approx)

    def test_landmark_parallel_is_byte_identical_to_serial(self):
        configs = [
            dataclasses.replace(CONFIG, oracle="landmark:8"),
            dataclasses.replace(CONFIG, oracle="landmark:8", avg_degree=8.0),
        ]
        serial = run_static_trials(configs, steps=2, query_samples=6, max_workers=1)
        parallel = run_static_trials(configs, steps=2, query_samples=6, max_workers=2)
        assert [as_bytes(s) for s in serial] == [as_bytes(p) for p in parallel]

    def test_landmark_dynamic_parallel_is_byte_identical_to_serial(self):
        config = dataclasses.replace(CONFIG, oracle="landmark:8")
        arms = [
            (config, DynamicConfig(total_queries=90, window=30, enable_ace=False)),
            (config, DynamicConfig(total_queries=90, window=30)),
        ]
        serial = run_dynamic_trials(arms, max_workers=1)
        parallel = run_dynamic_trials(arms, max_workers=2)
        assert [as_bytes(s) for s in serial] == [as_bytes(p) for p in parallel]

    def test_oracle_stream_is_spawn_stable(self):
        # The oracle draws from seed-stream index 4 (the fifth child).
        # SeedSequence.spawn(5)[:4] == spawn(4) is the property that makes
        # adding the stream safe; pin it so a refactor cannot regress it.
        import numpy as np

        base = [s.generate_state(4).tolist()
                for s in np.random.SeedSequence(CONFIG.seed).spawn(4)]
        wider = [s.generate_state(4).tolist()
                 for s in np.random.SeedSequence(CONFIG.seed).spawn(5)[:4]]
        assert base == wider


class TestEnsureRngFallback:
    def test_fallback_is_deterministic(self):
        a = ensure_rng(None).random(4)
        b = ensure_rng(None).random(4)
        assert list(a) == list(b)

    def test_fallback_uses_default_seed(self):
        import numpy as np

        expected = np.random.default_rng(DEFAULT_SEED).random(4)
        assert list(ensure_rng(None).random(4)) == list(expected)

    def test_explicit_rng_passes_through(self):
        import numpy as np

        rng = np.random.default_rng(42)
        assert ensure_rng(rng) is rng
