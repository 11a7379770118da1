"""Tests for the command-line interface."""

import argparse
import sys

import pytest

from repro.cli import build_parser, main


def subparsers() -> dict[str, argparse.ArgumentParser]:
    """Every registered subcommand's parser, discovered from the parser
    itself so new commands are covered without editing a list."""
    parser = build_parser()
    action = next(
        a
        for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


@pytest.fixture
def no_world(monkeypatch):
    """Fail the test if any ``repro`` module builds a world."""

    def refuse(*args, **kwargs):
        raise AssertionError("a world was built for a usage error")

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro") and hasattr(module, "build_world"):
            monkeypatch.setattr(module, "build_world", refuse)


def all_subcommands() -> list[str]:
    """Every registered subcommand."""
    return sorted(subparsers())


def name_options() -> list[tuple[str, str]]:
    """Every (subcommand, option) whose values are registry names."""
    return [
        (command, action.option_strings[0])
        for command, subparser in subparsers().items()
        for action in subparser._actions
        if action.option_strings
        and (
            action.choices
            or getattr(action.type, "__qualname__", "").startswith(
                "_prefix_choice."
            )
        )
    ]


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

    def test_name_option_discovery_sees_every_registry(self):
        flags = {flag for _, flag in name_options()}
        assert {
            "--model", "--models", "--dataset", "--datasets", "--system",
            "--systems", "--policy", "--router", "--scenarios", "--shapes",
            "--chaos", "--profiles", "--placement",
        } <= flags

    @pytest.mark.parametrize(
        "command,flag",
        [pytest.param(c, f, id=f"{c}{f}") for c, f in name_options()],
    )
    def test_unknown_name_exits_2_before_any_world(
        self, command, flag, monkeypatch, capsys
    ):
        def no_world(*args, **kwargs):
            raise AssertionError("a world was built for an unknown name")

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and hasattr(module, "build_world"):
                monkeypatch.setattr(module, "build_world", no_world)
        required = ["--out-dir", "unused"] if command == "trace" else []
        with pytest.raises(SystemExit) as excinfo:
            main([command, *required, flag, "nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "'nope'" in err and "choose from" in err

    @pytest.mark.parametrize(
        "option",
        [
            ["--replicas", "3"],
            ["--router", "least-outstanding"],
            ["--chaos", "crash-restart"],
            ["--profiles", "fast-nvlink"],
            ["--placement", "uniform"],
            ["--out", "report.json"],
            ["--resilience"],
            ["--shared-store"],
            ["--cold"],
            ["--autoscale"],
        ],
        ids=lambda option: option[0],
    )
    def test_compare_rejects_single_cluster_options(
        self, option, no_world, capsys
    ):
        """``cluster --compare`` serves its own grid: an option that shapes
        the one served cluster is a usage error, before any world."""
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "--compare", *option])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro cluster" in err
        assert "--compare" in err and f"does not take {option[0]}" in err

    @pytest.mark.parametrize(
        "option", [["--prefetch-distance", "0"], ["--store-capacity", "0"]]
    )
    def test_malformed_world_config_is_a_usage_error(
        self, option, no_world, capsys
    ):
        """A config the world would refuse is a usage error: exit 2, the
        message on stderr, nothing built or printed."""
        argv = ["compare", *option, "--systems", "deepspeed-inference"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: repro compare" in captured.err
        assert "must be >= 1" in captured.err

    @pytest.mark.parametrize(
        "argv,dest,expected",
        [
            (["compare", "--systems", "moe-inf", "deep"], "systems",
             ["moe-infinity", "deepspeed-inference"]),
            (["overall", "--models", "phi", "qwen"], "models",
             ["phi-3.5-moe", "qwen1.5-moe"]),
            (["validate", "--models", "mix"], "models", ["mixtral-8x7b"]),
            (["grid", "--datasets", "share"], "datasets", ["sharegpt"]),
            (["faults", "--scenarios", "flaky", "dev"], "scenarios",
             ["flaky-transfers", "device-loss"]),
            (["storm-lite", "--scenarios", "zone"], "scenarios",
             ["zone-outage"]),
            (["fleet", "--shapes", "spot"], "shapes", ["spot-heavy"]),
            (["cluster", "--chaos", "crash"], "chaos", "crash-restart"),
            (["journeys", "--chaos", "flaky"], "chaos", "flaky-link"),
        ],
    )
    def test_name_options_accept_prefixes(self, argv, dest, expected):
        args = build_parser().parse_args(argv)
        assert getattr(args, dest) == expected

    def test_ambiguous_prefix_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "--scenarios", "de"])
        assert excinfo.value.code == 2
        assert "ambiguous choice 'de'" in capsys.readouterr().err

    def test_subcommand_discovery_sees_the_whole_surface(self):
        commands = all_subcommands()
        assert "validate" in commands
        assert len(commands) >= 15

    def test_surface_matches_golden(self):
        from tests.golden.cli import cli_surface, load_cli_surface

        live = {entry["command"]: entry for entry in cli_surface()}
        golden = {entry["command"]: entry for entry in load_cli_surface()}
        assert list(live) == list(golden), (
            "subcommands drifted; if intentional, regenerate with "
            "`PYTHONPATH=src python -m tests.golden.cli`"
        )
        for name, entry in golden.items():
            assert live[name] == entry, (
                f"`repro {name}` surface drifted; if intentional, "
                "regenerate with `PYTHONPATH=src python -m tests.golden.cli`"
            )

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
        with pytest.raises(SystemExit) as excinfo:
            main([command, *self.WORLD, "--chaos", "nope"])
        assert excinfo.value.code == 2
        assert "argument --chaos: unknown choice 'nope'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--scenarios", "healthy", "nope"],
            ["storm-lite", "--scenarios", "nope"],
            ["fleet", "--shapes", "nope"],
        ],
    )
    def test_unknown_named_item_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *self.WORLD])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unknown choice 'nope'; choose from:" in captured.err
        assert captured.out == ""

    def test_cluster_prints_the_inspect_rendering(self, tmp_path, capsys):
        path = tmp_path / "cluster_report.json"
        code = main(
            [
                "cluster", *self.WORLD,
                "--replicas", "3",
                "--chaos", "crash-restart",
                "--resilience",
                "--trace-requests", "8",
                "--out", str(path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert main(["inspect", str(path)]) == 0
        rendering = capsys.readouterr().out
        assert "== scale events ==" in rendering
        assert printed == f"{rendering}  report written to {path}\n"

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
