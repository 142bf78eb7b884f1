"""Rule tests: every rule catches its seed-era bad fixture and passes the
rewritten good one, and suppression comments behave."""

import ast
import textwrap
from pathlib import Path

from tools.replint import check_file, default_rules
from tools.replint.rules import rules_by_code
from tools.replint.rules.rng_streams import collect_bindings, walk_no_nested

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(code, relpath):
    return check_file(FIXTURES / relpath, [rules_by_code()[code]])


def lines(violations):
    return sorted(v.line for v in violations)


class TestDeterminism:
    def test_bad_fixture_catches_every_seed_era_pattern(self):
        violations = run_rule("REP001", "rep001_bad.py")
        assert all(v.code == "REP001" for v in violations)
        # the `rng or np.random.default_rng()` fallback, the legacy
        # np.random.rand, stdlib random.random, and a module-level ambient rng
        assert lines(violations) == [11, 16, 20, 23]

    def test_unseeded_fallback_message_points_at_ensure_rng(self):
        violations = run_rule("REP001", "rep001_bad.py")
        fallback = [v for v in violations if v.line == 11]
        assert "ensure_rng" in fallback[0].message

    def test_good_fixture_is_clean(self):
        assert run_rule("REP001", "rep001_good.py") == []

    def test_wall_clock_flagged_inside_sim_modules(self):
        violations = run_rule(
            "REP001", "src/repro/sim/rep001_wallclock_bad.py"
        )
        # time.time() and the `from time import time as now` alias; the
        # perf_counter call stays allowed.
        assert lines(violations) == [8, 12]
        assert all("wall-clock" in v.message for v in violations)

    def test_wall_clock_allowed_outside_sim_logic(self, tmp_path):
        source = (FIXTURES / "src/repro/sim/rep001_wallclock_bad.py").read_text()
        elsewhere = tmp_path / "bench_helper.py"
        elsewhere.write_text(source)
        assert check_file(elsewhere, [rules_by_code()["REP001"]]) == []


class TestLayering:
    def test_bad_fixture_catches_upward_and_private_imports(self):
        violations = run_rule("REP003", "src/repro/topology/rep003_bad.py")
        assert all(v.code == "REP003" for v in violations)
        # plain import of experiments, from-import of cli, a private name
        # from core, and a *relative* upward import of extensions.
        assert lines(violations) == [3, 4, 5, 6]

    def test_relative_upward_import_is_resolved(self):
        violations = run_rule("REP003", "src/repro/topology/rep003_bad.py")
        relative = [v for v in violations if v.line == 6]
        assert "repro.extensions" in relative[0].message

    def test_private_import_is_named(self):
        violations = run_rule("REP003", "src/repro/topology/rep003_bad.py")
        private = [v for v in violations if v.line == 5]
        assert "_component_of" in private[0].message

    def test_good_fixture_is_clean(self):
        assert run_rule("REP003", "src/repro/topology/rep003_good.py") == []


class TestSuppressions:
    def test_fully_suppressed_fixture_is_clean(self):
        assert check_file(FIXTURES / "suppressed.py", default_rules()) == []

    def test_disable_file_pragma_silences_whole_file(self):
        assert (
            check_file(FIXTURES / "suppressed_file.py", default_rules()) == []
        )

    def test_unsuppressed_and_wrong_code_lines_still_fire(self):
        violations = check_file(
            FIXTURES / "partially_suppressed.py", default_rules()
        )
        assert lines(violations) == [11, 15]
        assert all(v.code == "REP001" for v in violations)


class TestRngStreamDiscipline:
    def test_bad_fixture_catches_every_stream_hazard(self):
        violations = run_rule(
            "REP009", "src/repro/experiments/rep009_bad.py"
        )
        assert all(v.code == "REP009" for v in violations)
        # out-of-range (inline and named), re-spawn, out-of-order
        # consumption, double consumption, spawn on a parameter.
        assert lines(violations) == [9, 13, 19, 26, 33, 38]

    def test_out_of_range_message_names_the_pinned_window(self):
        violations = run_rule(
            "REP009", "src/repro/experiments/rep009_bad.py"
        )
        first = [v for v in violations if v.line == 9][0]
        assert "out of range" in first.message

    def test_cross_function_spawn_is_named(self):
        violations = run_rule(
            "REP009", "src/repro/experiments/rep009_bad.py"
        )
        cross = [v for v in violations if v.line == 38][0]
        assert "parameter" in cross.message

    def test_good_fixture_is_clean(self):
        # in-order consumption with gaps, inline spawn(5)[4], whole-list
        # iteration, and passing children down are all sanctioned.
        assert run_rule(
            "REP009", "src/repro/experiments/rep009_good.py"
        ) == []

    def test_walk_no_nested_fences_inner_defs(self):
        tree = ast.parse(textwrap.dedent("""
            def outer():
                a = 1
                def inner():
                    b = 2
                return a
        """))
        names = [
            n.id for n in walk_no_nested(tree.body[0])
            if isinstance(n, ast.Name)
        ]
        assert "a" in names
        assert "b" not in names

    def test_collect_bindings_records_assignment_forms(self):
        tree = ast.parse(textwrap.dedent("""
            def f(pairs):
                x = make()
                y, z = pairs
                for w in pairs:
                    pass
        """))
        bindings = collect_bindings(tree.body[0].body)
        assert {"x", "y", "z", "w"} <= set(bindings)
        assert bindings["y"][0].via == "unpack"


class TestFloatOrderHazards:
    def test_bad_fixture_catches_every_reduction_hazard(self):
        violations = run_rule("REP012", "src/repro/core/rep012_bad.py")
        assert all(v.code == "REP012" for v in violations)
        # set-order sums (accessor and literal), keyed min/sorted over
        # sets, np.array materializing sets.
        assert lines(violations) == [8, 13, 18, 22, 26, 31]

    def test_message_prescribes_sorted_canonicalization(self):
        violations = run_rule("REP012", "src/repro/core/rep012_bad.py")
        assert "sorted" in violations[0].message

    def test_good_fixture_is_clean(self):
        # sorted-first reductions, unkeyed min, list sums, len() counting.
        assert run_rule("REP012", "src/repro/core/rep012_good.py") == []

    def test_rule_scoped_to_core_and_search(self, tmp_path):
        source = (FIXTURES / "src/repro/core/rep012_bad.py").read_text()
        elsewhere = tmp_path / "src" / "repro" / "experiments" / "h.py"
        elsewhere.parent.mkdir(parents=True)
        elsewhere.write_text(source)
        assert check_file(elsewhere, [rules_by_code()["REP012"]]) == []


class TestSuppressionHygiene:
    def test_bare_pragma_is_flagged(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(
            "import random\n"
            "x = random.random()  # replint: disable=REP001\n"
        )
        violations = check_file(target, [rules_by_code()["REP013"]])
        assert [v.code for v in violations] == ["REP013"]
        assert "justification" in violations[0].message

    def test_justified_pragma_passes(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(
            "import random\n"
            "x = random.random()  # replint: disable=REP001 — demo seam\n"
        )
        assert check_file(target, [rules_by_code()["REP013"]]) == []

    def test_rep013_cannot_be_suppressed(self, tmp_path):
        # silencing the auditor with its own mechanism must not work
        target = tmp_path / "m.py"
        target.write_text(
            "# replint: disable-file=REP013\n"
            "import random\n"
            "x = random.random()  # replint: disable=REP001\n"
        )
        violations = check_file(target, [rules_by_code()["REP013"]])
        # both bare pragmas are flagged: the disable-file aimed at REP013
        # itself, and the line-level REP001 pragma it tried to shield
        assert [v.code for v in violations] == ["REP013", "REP013"]
        assert lines(violations) == [1, 3]

    def test_pragma_for_unregistered_code_is_flagged(self, tmp_path):
        # a justified pragma for a code no rule has suppresses nothing and
        # must not pass for an exception; registered codes beside it are fine
        target = tmp_path / "m.py"
        target.write_text(
            "import random\n"
            "x = random.random()  # replint: disable=REP001,REP099 — stale\n"
        )
        violations = check_file(target, [rules_by_code()["REP013"]])
        assert [v.code for v in violations] == ["REP013"]
        assert "names REP099, which no rule has" in violations[0].message


class TestNetBoundary:
    def test_blocking_io_below_net_is_flagged(self):
        violations = run_rule("REP015", "src/repro/search/rep015_bad.py")
        assert all(v.code == "REP015" for v in violations)
        # import socket, time.sleep, the `sleep as pause` alias,
        # time.time(), and the event loop's loop.time().
        assert lines(violations) == [3, 10, 11, 12, 13]

    def test_socket_message_names_the_boundary(self):
        violations = run_rule("REP015", "src/repro/search/rep015_bad.py")
        socket_v = [v for v in violations if v.line == 3]
        assert "repro.net" in socket_v[0].message
        sleep_v = [v for v in violations if v.line == 10]
        assert "asyncio.sleep" in sleep_v[0].message

    def test_duration_measurement_below_net_is_clean(self):
        assert run_rule("REP015", "src/repro/search/rep015_good.py") == []

    def test_net_importing_experiments_is_flagged(self):
        violations = run_rule("REP015", "src/repro/net/rep015_bad.py")
        assert all(v.code == "REP015" for v in violations)
        # plain import, from-import, and the relative upward import.
        assert lines(violations) == [3, 4, 5]
        relative = [v for v in violations if v.line == 5]
        assert "repro.experiments.setup" in relative[0].message

    def test_net_modules_may_use_sockets_and_clocks(self):
        assert run_rule("REP015", "src/repro/net/rep015_good.py") == []

    def test_sim_wall_clock_left_to_rep001(self):
        # One diagnostic per defect: REP001 owns wall-clock reads in
        # repro.sim/repro.core, so REP015 stays quiet there (it would
        # still flag sockets and sleeps in those packages).
        assert run_rule(
            "REP015", "src/repro/sim/rep001_wallclock_bad.py"
        ) == []

    def test_rule_scoped_to_repro_modules(self, tmp_path):
        # Outside a src/ root there is no module name: benchmarks and
        # test helpers may sleep and read the clock freely.
        source = (FIXTURES / "src/repro/search/rep015_bad.py").read_text()
        helper = tmp_path / "bench_helper.py"
        helper.write_text(source)
        assert check_file(helper, [rules_by_code()["REP015"]]) == []
