"""Runtime sanitizer tests.

The sanitizer patches classes process-wide, so every test runs its probe
in a subprocess: detection tests assert violations are recorded, and the
byte-identity tests assert a sanitized CLI run's stdout equals the
unsanitized one bit for bit.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")


def run_snippet(code, env_extra=None):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


def run_cli(args, sanitize=False):
    env_extra = {"REPRO_SANITIZE": "1"} if sanitize else {}
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


class TestByteIdentity:
    """Sanitized CLI runs print what plain ones print, and record nothing."""

    def test_dynamic_run_with_ace_on_the_array_engine_is_byte_identical(self):
        # every array-lowered ACE graph is rechecked against the reference
        args = ["dynamic", "--peers", "28", "--queries", "40",
                "--windows", "2"]
        plain = run_cli(args)
        sanitized = run_cli(args, sanitize=True)
        assert sanitized.returncode == 0
        assert sanitized.stdout == plain.stdout
        assert "sanitize:" not in sanitized.stderr

    def test_dynamic_run_without_ace_is_byte_identical(self):
        args = ["dynamic", "--peers", "28", "--queries", "40",
                "--windows", "2", "--no-ace"]
        plain = run_cli(args)
        sanitized = run_cli(args, sanitize=True)
        assert sanitized.returncode == 0
        assert sanitized.stdout == plain.stdout
        assert "sanitize:" not in sanitized.stderr

    def test_array_engine_is_byte_identical(self):
        args = ["static", "--peers", "32", "--steps", "2", "--samples", "6"]
        plain = run_cli(args)
        sanitized = run_cli(args, sanitize=True)
        assert plain.returncode == 0
        assert sanitized.returncode == 0
        assert sanitized.stdout == plain.stdout
        assert "sanitize:" not in sanitized.stderr


class TestEpochChecks:
    def test_missing_bump_in_subclass_is_detected(self):
        # model a shipped defect: the mutator loses its bump BEFORE the
        # sanitizer installs, so the wrapper wraps the buggy version
        proc = run_snippet("""
from repro.topology.soa import ArrayOverlay

connect = ArrayOverlay.connect

def buggy_connect(self, u, v):  # links, but forgets the epoch bump
    epoch = self._epoch
    made = connect(self, u, v)
    self._epoch = epoch
    return made

ArrayOverlay.connect = buggy_connect

import repro.sanitize as sanitize
sanitize.install()

from repro.topology.physical import PhysicalTopology

physical = PhysicalTopology(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0])
overlay = ArrayOverlay(physical)
for peer, host in enumerate([0, 1, 2]):
    overlay.add_peer(peer, host)
overlay.connect(0, 1)
assert overlay.has_edge(0, 1)
assert sanitize.violation_count() == 1, sanitize.violations()
assert "ArrayOverlay.connect" in sanitize.violations()[0]
print("DETECTED")
""")
        assert "DETECTED" in proc.stdout, proc.stdout + proc.stderr

    def test_healthy_overlay_records_nothing(self):
        proc = run_snippet("""
import repro.sanitize as sanitize
sanitize.install()

from repro.topology.physical import PhysicalTopology
from repro.topology.soa import ArrayOverlay

physical = PhysicalTopology(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0])
overlay = ArrayOverlay(physical)
for peer, host in enumerate([0, 1, 2]):
    overlay.add_peer(peer, host)
overlay.connect(0, 1)
overlay.connect(1, 2)
overlay.flush_edits()  # base CSR entries as well as buffered ones
overlay.connect(0, 2)
assert not overlay.connect(1, 2)  # already linked: no bump owed
overlay.disconnect(0, 1)
overlay.disconnect(0, 2)
overlay.remove_peer(2)
assert sanitize.violation_count() == 0, sanitize.violations()
print("CLEAN")
""")
        assert "CLEAN" in proc.stdout, proc.stdout + proc.stderr


class TestRngLedger:
    def test_duplicate_stream_derivation_is_detected(self):
        proc = run_snippet("""
import repro.sanitize as sanitize
sanitize.install()

from repro.rng import derive_rng

a = derive_rng(7, stream=2)
b = derive_rng(7, stream=2)  # correlated draws: same stream twice
assert sanitize.violation_count() == 1, sanitize.violations()
assert "derived" in sanitize.violations()[0]
print("DETECTED")
""")
        assert "DETECTED" in proc.stdout, proc.stdout + proc.stderr

    def test_draws_are_counted_and_byte_identical(self):
        proc = run_snippet("""
import numpy as np
from repro.rng import derive_rng

plain = derive_rng(7, stream=1).random(5)

import repro.sanitize as sanitize
sanitize.install()
ledgered = derive_rng(7, stream=1).random(5)
assert np.array_equal(plain, ledgered)

key = ("derive", 7, 1)
ledger = sanitize.rng_ledger()
assert ledger[key]["derivations"] == 1
assert ledger[key]["draws"] == 1  # one .random() call
assert sanitize.violation_count() == 0
print("COUNTED")
""")
        assert "COUNTED" in proc.stdout, proc.stdout + proc.stderr

    def test_ensure_rng_fallback_is_ledgered_not_flagged(self):
        proc = run_snippet("""
import repro.sanitize as sanitize
sanitize.install()

from repro.rng import ensure_rng

a = ensure_rng()
b = ensure_rng()  # the sanctioned deterministic fallback: not a violation
assert sanitize.violation_count() == 0, sanitize.violations()
assert sanitize.rng_ledger()[("ensure", 0)]["derivations"] == 2
print("CLEAN")
""")
        assert "CLEAN" in proc.stdout, proc.stdout + proc.stderr


class TestAceLoweringCheck:
    WORLD = """
import numpy as np
from repro.core.ace import AceProtocol
from repro.perf import counters
from repro.search.batch import compile_strategy
from repro.search.tree_routing import ace_strategy
from repro.topology.generators import barabasi_albert
from repro.topology.overlay import small_world_overlay

rng = np.random.default_rng(3)
physical = barabasi_albert(80, m=2, rng=rng)
overlay = small_world_overlay(physical, 20, avg_degree=6, rng=rng)
protocol = AceProtocol(overlay, rng=rng)
protocol.step()
"""

    def test_wrong_lowering_is_reported_with_peer_epoch_and_version(self):
        proc = run_snippet("""
import repro.search.batch as batch

def keep_everything(broken, label):  # forgets the rule
    return label == label

batch.forwards = keep_everything

import repro.sanitize as sanitize
sanitize.install()
""" + self.WORLD + """
compile_strategy(overlay, ace_strategy(protocol))
assert sanitize.violation_count() == 1, sanitize.violations()
message = sanitize.violations()[0]
assert "at peer " in message, message
assert f"epoch {overlay.epoch}" in message, message
assert f"state version {protocol.state_version}" in message, message
print("DETECTED")
""")
        assert "DETECTED" in proc.stdout, proc.stdout + proc.stderr

    def test_healthy_lowering_is_clean_and_counts_one_compile(self):
        proc = run_snippet("""
import repro.sanitize as sanitize
sanitize.install()
""" + self.WORLD + """
before = counters.copy()
compile_strategy(overlay, ace_strategy(protocol))
delta = counters.delta(before)
assert sanitize.violation_count() == 0, sanitize.violations()
assert delta["compiled_strategies"] == 1, delta
assert delta["edge_cost_hits"] == 0, delta  # the recheck leaves no trace
print("CLEAN")
""")
        assert "CLEAN" in proc.stdout, proc.stdout + proc.stderr


class TestProbeMemoCheck:
    WORLD = """
import repro.sanitize as sanitize
sanitize.install()
from repro.perf import counters
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import ArrayOverlay

physical = PhysicalTopology(4, [(0, 1), (1, 2), (2, 3)], [0.25, 0.5, 0.75])
overlay = ArrayOverlay(physical, {6: 3, 7: 0, 8: 1, 9: 2})
overlay.connect(7, 8)
overlay.connect(8, 9)
overlay.connect(7, 6)
overlay.warm_edge_costs()  # streams hosts 0 and 1, a cover of the links
"""

    def test_wrong_memo_value_is_reported_with_peer_hosts_and_epoch(self):
        proc = run_snippet(self.WORLD + """
pool, values = overlay.oracle._partial[0]
overlay.oracle._partial[0] = (pool, values + 1.0)
overlay.costs_from(7, [9])
assert sanitize.violation_count() == 1, sanitize.violations()
message = sanitize.violations()[0]
assert "peer(s) [7]" in message, message
assert "host pair (0, 2)" in message, message
assert f"epoch {overlay.epoch}" in message, message
print("DETECTED")
""")
        assert "DETECTED" in proc.stdout, proc.stdout + proc.stderr

    def test_healthy_memo_is_clean_and_the_recheck_leaves_no_trace(self):
        proc = run_snippet(self.WORLD + """
before = counters.copy()
assert overlay.costs_from(7, [9]) == {9: 0.75}
assert sanitize.violation_count() == 0, sanitize.violations()
assert counters.delta(before)["dijkstra_sources"] == 0  # rolled back
assert physical.cached_sources() == []  # solved off to the side
print("CLEAN")
""")
        assert "CLEAN" in proc.stdout, proc.stdout + proc.stderr


class TestCliIntegration:
    def test_sanitize_flag_enables_and_reports_clean(self):
        proc = run_cli(["static", "--peers", "24", "--steps", "1",
                        "--samples", "4", "--sanitize"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "sanitize:" not in proc.stderr

    def test_disabled_by_default(self):
        proc = run_snippet("""
import repro.sanitize as sanitize
assert not sanitize.enabled()
assert not sanitize.maybe_install()
print("OFF")
""")
        assert "OFF" in proc.stdout, proc.stdout + proc.stderr
