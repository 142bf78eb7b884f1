"""Engine-level tests: pragmas, module resolution, discovery, CLI."""

from pathlib import Path

import pytest

from tools.replint import check_file, check_paths, default_rules, iter_python_files
from tools.replint.__main__ import main
from tools.replint.engine import (
    PARSE_ERROR_CODE,
    Violation,
    module_name_for,
    parse_suppressions,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestPragmaParsing:
    def test_trailing_pragma_applies_to_its_line(self):
        table = parse_suppressions("x = 1  # replint: disable=REP001\n")
        assert table.is_suppressed(1, "REP001")
        assert not table.is_suppressed(1, "REP002")
        assert not table.is_suppressed(2, "REP001")

    def test_multiple_codes(self):
        table = parse_suppressions("x = 1  # replint: disable=REP001,REP002\n")
        assert table.is_suppressed(1, "REP001")
        assert table.is_suppressed(1, "REP002")
        assert not table.is_suppressed(1, "REP003")

    def test_bare_disable_silences_every_code(self):
        table = parse_suppressions("x = 1  # replint: disable\n")
        assert table.is_suppressed(1, "REP001")
        assert table.is_suppressed(1, "REP004")

    def test_justification_text_after_codes_still_suppresses(self):
        table = parse_suppressions(
            "x = 1  # replint: disable=REP004 — served from the warm cache\n"
        )
        assert table.is_suppressed(1, "REP004")
        assert not table.is_suppressed(1, "REP001")

    def test_comment_only_pragma_attaches_to_next_code_line(self):
        src = "# replint: disable=REP001\nx = 1\n"
        table = parse_suppressions(src)
        assert table.is_suppressed(2, "REP001")

    def test_pragma_walks_through_comment_block_to_code(self):
        src = (
            "# replint: disable=REP001 — long justification\n"
            "# that continues on a second comment line\n"
            "# and a third\n"
            "x = 1\n"
        )
        table = parse_suppressions(src)
        assert table.is_suppressed(4, "REP001")
        assert not table.is_suppressed(2, "REP001")

    def test_disable_file_silences_everywhere(self):
        src = "# replint: disable-file=REP001\nx = 1\ny = 2\n"
        table = parse_suppressions(src)
        assert table.is_suppressed(2, "REP001")
        assert table.is_suppressed(99, "REP001")
        assert not table.is_suppressed(2, "REP002")

    def test_unrelated_comments_are_not_pragmas(self):
        src = "# regular comment\nx = 1  # replint? no\n# replint: enable=X\n"
        table = parse_suppressions(src)
        assert not table.by_line and not table.whole_file


class TestModuleNameFor:
    def test_plain_module_under_src(self):
        assert (
            module_name_for(Path("src/repro/topology/overlay.py"))
            == "repro.topology.overlay"
        )

    def test_package_init_collapses(self):
        assert module_name_for(Path("src/repro/__init__.py")) == "repro"

    def test_fixture_trees_resolve_like_real_source(self):
        path = Path("tests/replint/fixtures/src/repro/sim/x.py")
        assert module_name_for(path) == "repro.sim.x"

    def test_last_src_component_wins(self):
        assert module_name_for(Path("src/a/src/b/mod.py")) == "b.mod"

    def test_files_outside_src_have_no_module(self):
        assert module_name_for(Path("tests/test_perf.py")) is None


class TestDiscovery:
    def test_fixtures_directories_are_skipped_by_default(self):
        found = list(iter_python_files([FIXTURES.parent]))
        assert found, "the tests/replint directory itself has python files"
        assert not [p for p in found if "fixtures" in p.parts]

    def test_explicit_file_is_always_checked(self):
        target = FIXTURES / "rep001_bad.py"
        assert list(iter_python_files([target])) == [target]

    def test_parse_error_is_a_rep000_violation(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        violations = check_file(bad, default_rules())
        assert len(violations) == 1
        assert violations[0].code == PARSE_ERROR_CODE

    def test_syntax_error_file_reports_finding_not_crash(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("def ok():\n    return 1\n")
        broken = tmp_path / "broken.py"
        broken.write_text("def nope(:\n")
        violations = check_paths([tmp_path])
        parse_errors = [v for v in violations if v.code == PARSE_ERROR_CODE]
        assert len(parse_errors) == 1
        assert parse_errors[0].path.endswith("broken.py")

    def test_fixture_tree_is_excluded_from_real_walks(self):
        # The repository self-check walks tests/replint too; the fixtures
        # directory (full of deliberate violations) must never make it
        # into the findings.
        violations = check_paths([FIXTURES.parent])
        assert [v for v in violations if "fixtures" in v.path] == []

    def test_violation_format_and_ordering(self):
        a = Violation("a.py", 3, 1, "REP001", "first")
        b = Violation("a.py", 10, 1, "REP001", "second")
        c = Violation("b.py", 1, 1, "REP002", "third")
        assert sorted([c, b, a]) == [a, b, c]
        assert a.format() == "a.py:3:1: REP001 first"


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        rc = main([str(FIXTURES / "rep001_good.py")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replint: clean" in out

    def test_violations_exit_one_with_conventional_lines(self, capsys):
        target = FIXTURES / "rep001_bad.py"
        rc = main([str(target), "--rules", "REP001"])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"{target}:11:" in out
        assert "REP001" in out
        assert "violation(s) [REP001]" in out

    def test_quiet_suppresses_summary(self, capsys):
        rc = main([str(FIXTURES / "rep001_good.py"), "-q"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_fixtures_dir_is_clean_unless_included(self, capsys):
        assert main([str(FIXTURES)]) == 0
        capsys.readouterr()
        assert main([str(FIXTURES), "--include-fixtures"]) == 1

    def test_unknown_rule_code_is_usage_error(self, capsys):
        rc = main(["--rules", "REP999", str(FIXTURES)])
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        rc = main(["definitely_not_a_real_path_xyz"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules_names_all_four(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP001", "REP003", "REP009", "REP012"):
            assert code in out

    def test_help_names_every_registered_rule(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        for rule in default_rules():
            assert f"{rule.name} ({rule.code})" in out
        for dropped in ("--format", "--output", "--baseline", "--write-baseline"):
            assert dropped not in out
