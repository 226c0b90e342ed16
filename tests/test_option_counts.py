"""The option surface, pinned: a change that adds or removes a CLI option,
a config key or an `ExperimentConfig` field has to change these counts in
plain view."""

import argparse
import dataclasses

from lcl import cli, experiments as ex


def cli_options():
    """(command, dest) of every option and positional, `--help` excluded."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return [(name, a.dest) for name, p in sub.choices.items() for a in p._actions
            if not isinstance(a, argparse._HelpAction)]


def test_cli_option_count():
    assert len(cli_options()) == 24


def test_config_key_count():
    assert sum(len(keys) for keys in cli.CONFIG_KEYS.values()) == 17


def test_experiment_config_field_count():
    assert len(dataclasses.fields(ex.ExperimentConfig)) == 13
