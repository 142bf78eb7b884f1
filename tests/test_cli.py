"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_static_defaults(self):
        args = build_parser().parse_args(["static"])
        assert args.peers == 128
        assert args.steps == 10
        assert args.depth == 1
        assert args.oracle == "exact"  # the validating type returns the spec

    def test_dynamic_flags(self):
        args = build_parser().parse_args(
            ["dynamic", "--cache", "--queries", "120"]
        )
        assert args.cache
        assert args.queries == 120

    def test_depth_lists(self):
        args = build_parser().parse_args(
            ["depth", "--degrees", "4", "8", "--depths", "1", "2"]
        )
        assert args.degrees == [4, 8]
        assert args.depths == [1, 2]

    def test_topology_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topology", "--underlay", "bogus"])

    @pytest.mark.parametrize("spec", ["landmark:x", "landmark:16:maxmin"])
    def test_oracle_typo_is_a_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["static", "--oracle", spec])
        assert exc.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("repro static: error: argument --oracle:")
        assert "exact | landmark[:k]" in error


class TestCommands:
    def run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_walkthrough(self):
        code, text = self.run(["walkthrough", "--depth", "2"])
        assert code == 0
        assert "ace-h2" in text
        assert "duplicates: 0" in text

    def test_walkthrough_blind(self):
        code, text = self.run(["walkthrough"])
        assert code == 0
        assert "blind-flooding" in text

    def test_topology(self):
        code, text = self.run(
            ["topology", "--peers", "40", "--physical-nodes", "200"]
        )
        assert code == 0
        assert "underlay (ba)" in text
        assert "overlay (small_world)" in text

    def test_static_small(self):
        code, text = self.run([
            "static", "--peers", "24", "--physical-nodes", "150",
            "--steps", "2", "--samples", "4",
        ])
        assert code == 0
        assert "traffic reduction" in text
        assert "step" in text

    def test_dynamic_small(self):
        code, text = self.run([
            "dynamic", "--peers", "24", "--physical-nodes", "150",
            "--queries", "60", "--windows", "3",
        ])
        assert code == 0
        assert "gnutella" in text
        assert "ace" in text

    def test_depth_small(self):
        code, text = self.run([
            "depth", "--peers", "24", "--physical-nodes", "150",
            "--degrees", "4", "--depths", "1", "2", "--steps", "2",
        ])
        assert code == 0
        assert "Figure 11" in text
        assert "Minimal depth" in text

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_net_check_is_exact_at_16_peers(self, seed):
        # Plan, live run and reference share one scenario; built separately
        # they disagreed in the last ulp on seeds 1, 2, 3 and 5.
        code, text = self.run([
            "net", "--peers", "16", "--degree", "4", "--seed", str(seed),
            "--check",
        ])
        assert code == 0, text
        assert "matches the simulation exactly" in text


class TestJsonOutput:
    def test_static_json(self, tmp_path):
        import io

        from repro.experiments.results_io import load_result
        from repro.experiments.static_env import StaticSeries

        out = io.StringIO()
        path = tmp_path / "static.json"
        code = main([
            "static", "--peers", "24", "--physical-nodes", "150",
            "--steps", "1", "--samples", "4", "--json", str(path),
        ], out=out)
        assert code == 0
        restored = load_result(path)
        assert isinstance(restored, StaticSeries)
        assert len(restored.steps) == 2

    def test_depth_json(self, tmp_path):
        import io

        from repro.experiments.depth_sweep import DepthSweepResult
        from repro.experiments.results_io import load_result

        out = io.StringIO()
        path = tmp_path / "sweep.json"
        code = main([
            "depth", "--peers", "24", "--physical-nodes", "150",
            "--degrees", "4", "--depths", "1", "--steps", "1",
            "--json", str(path),
        ], out=out)
        assert code == 0
        restored = load_result(path)
        assert isinstance(restored, DepthSweepResult)
        assert restored.degrees() == [4]
