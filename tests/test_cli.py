"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def all_subcommands() -> list[str]:
    """Every registered subcommand, discovered from the parser itself
    so new commands are covered without editing this list."""
    parser = build_parser()
    action = next(
        a
        for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sorted(action.choices)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "command",
        ["models", "compare", "online", "sweep", "entropy", "pearson", "faults"],
    )
    def test_known_commands_parse(self, command):
        args = build_parser().parse_args([command])
        assert callable(args.func)

    def test_invalid_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--model", "gpt-4"])

    @pytest.mark.parametrize("command", ["compare", "trace", "storm"])
    def test_model_and_dataset_accept_prefixes(self, command):
        args = build_parser().parse_args(
            [command, "--model", "qwen", "--dataset", "share"]
            + (["--out-dir", "x"] if command == "trace" else [])
        )
        assert (args.model, args.dataset) == ("qwen1.5-moe", "sharegpt")

    def test_validate_dataset_accepts_prefixes(self):
        args = build_parser().parse_args(["validate", "--dataset", "lm"])
        assert args.dataset == "lmsys-chat-1m"

    @pytest.mark.parametrize("flag", ["--profiles", "--placement"])
    def test_unknown_registry_name_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", flag, "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_subcommand_discovery_sees_the_whole_surface(self):
        commands = all_subcommands()
        assert "validate" in commands
        assert len(commands) >= 15

    @pytest.mark.parametrize("command", all_subcommands())
    def test_every_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "mixtral-8x7b" in out
        assert "qwen1.5-moe" in out

    def test_compare_small(self, capsys):
        code = main(
            [
                "compare",
                "--requests", "8",
                "--test-requests", "1",
                "--systems", "fmoe",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fmoe" in out and "TTFT" in out

    def test_entropy_small(self, capsys):
        assert main(["entropy", "--requests", "6"]) == 0
        assert "coarse=" in capsys.readouterr().out

    def test_profile_requires_output(self, capsys):
        code = main(["profile", "--requests", "6"])
        assert code == 2

    def test_profile_writes_files(self, tmp_path, capsys):
        traces = tmp_path / "t.npz"
        store = tmp_path / "s.npz"
        code = main(
            [
                "profile",
                "--requests", "6",
                "--traces-out", str(traces),
                "--store-out", str(store),
            ]
        )
        assert code == 0
        assert traces.exists() and store.exists()


class TestObservabilityCommands:
    WORLD = ["--requests", "8", "--test-requests", "2"]

    def test_journeys_end_to_end(self, tmp_path, capsys):
        out_dir = tmp_path / "obs"
        code = main(
            [
                "journeys", *self.WORLD,
                "--chaos", "crash-restart",
                "--resilience",
                "--trace-requests", "8",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "journeys: 8 requests" in out
        assert "SLO burn-rate summary" in out
        for name in (
            "journeys.jsonl",
            "fleet.jsonl",
            "fleet.csv",
            "cluster_report.json",
        ):
            assert (out_dir / name).exists()

    @pytest.mark.parametrize("command", ["cluster", "journeys"])
    def test_unknown_chaos(self, command, capsys):
        code = main(
            [command, *self.WORLD, "--chaos", "nope"]
        )
        assert code == 2
        assert "unknown chaos scenario" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--scenarios", "healthy", "nope"],
            ["storm-lite", "--scenarios", "nope"],
            ["fleet", "--shapes", "nope"],
        ],
    )
    def test_unknown_named_item_exits_2(self, argv, capsys):
        assert main([*argv, *self.WORLD]) == 2
        out = capsys.readouterr().out
        assert "['nope']; choose from:" in out

    def test_validated_cluster_compare_builds_validated_cells(
        self, monkeypatch, capsys
    ):
        from repro.experiments import cluster_scaling
        from repro.experiments.runner import run_cells

        seen = []

        def recording_run_cells(cells, **kwargs):
            seen.extend(cells)
            return run_cells(cells, **kwargs)

        monkeypatch.setattr(cluster_scaling, "run_cells", recording_run_cells)
        code = main(
            [
                "cluster", *self.WORLD,
                "--compare", "--validate",
                "--replica-counts", "1",
                "--trace-requests", "4",
            ]
        )
        assert code == 0
        assert seen and all(cell.validate for cell in seen)
        assert len(capsys.readouterr().out.splitlines()) == len(seen)

    def test_slo_replays_saved_report(self, tmp_path, capsys):
        out_dir = tmp_path / "obs"
        assert (
            main(
                [
                    "journeys", *self.WORLD,
                    "--resilience",
                    "--trace-requests", "6",
                    "--out-dir", str(out_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "slo", str(out_dir / "cluster_report.json"),
                "--deadline", "30",
            ]
        )
        assert code == 0
        assert "objective:" in capsys.readouterr().out

    def test_slo_report_without_outcomes(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        path.write_text(json.dumps({"routed": 4, "replicas": []}))
        assert main(["slo", str(path)]) == 2
        assert "no request outcomes" in capsys.readouterr().out
