"""The commands documented in README's CLI section still parse: every
`lcl <command> ...` line there must be accepted by `cli.build_parser()`."""

import pathlib
import re
import shlex

import pytest

from lcl import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def documented_commands():
    """The `lcl ...` lines of the first sh block under `## CLI`, with
    backslash continuations joined and comments dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("lcl ")]


def test_readme_documents_every_subcommand():
    commands = {argv[0] for argv in documented_commands()}
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert commands == set(subparsers.choices)


@pytest.mark.parametrize("argv", documented_commands(), ids=" ".join)
def test_documented_command_parses(argv, capsys):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: lcl {' '.join(argv)}\n"
                    f"{capsys.readouterr().err}")
