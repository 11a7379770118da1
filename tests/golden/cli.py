"""The golden CLI surface: every subcommand's arguments, pinned.

For each ``python -m repro`` subcommand, in parser order, the file
records its help string and, for each of its arguments in order, the
option strings, dest, default, nargs, const, required flag, choices,
metavar, help and the qualified name of its ``type``.  That structure
determines the ``--help`` text; the text itself is not recorded because
argparse also wraps it to the terminal width (``COLUMNS``).  A tier-1
test compares the live parser with the checked-in file, so any change
to an option's name, order, default or help shows up as a readable JSON
diff.

Regenerate after an intentional change to the CLI with::

    PYTHONPATH=src python -m tests.golden.cli

and review the JSON diff before committing it.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
CLI_SURFACE_PATH = GOLDEN_DIR / "cli_surface.json"


def _type_name(kind) -> str | None:
    if kind is None:
        return None
    return getattr(kind, "__qualname__", repr(kind))


def _argument(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "nargs": action.nargs,
        "const": action.const,
        "required": action.required,
        "choices": list(action.choices) if action.choices else None,
        "metavar": action.metavar,
        "help": action.help,
        "type": _type_name(action.type),
    }


def cli_surface() -> list[dict]:
    """The live parser's subcommands and arguments, JSON-shaped."""
    from repro.cli import build_parser

    sub = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    helps = {action.dest: action.help for action in sub._choices_actions}
    surface = [
        {
            "command": name,
            "help": helps.get(name),
            "arguments": [_argument(action) for action in parser._actions],
        }
        for name, parser in sub.choices.items()
    ]
    # Tuples become lists, exactly as the checked-in file reads back.
    return json.loads(json.dumps(surface))


def load_cli_surface() -> list[dict]:
    """The checked-in CLI surface."""
    return json.loads(CLI_SURFACE_PATH.read_text())


def regenerate() -> None:
    """Rewrite the CLI surface file from the live parser."""
    CLI_SURFACE_PATH.write_text(json.dumps(cli_surface(), indent=2) + "\n")
    print(f"wrote {CLI_SURFACE_PATH}")


if __name__ == "__main__":
    regenerate()
