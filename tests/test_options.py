"""Every command-line option is read by the command it belongs to: each
subcommand's ``run`` function reads ``args.<dest>`` for each of its
options, so no option is accepted and then ignored."""

import argparse
import inspect

from gainchroma.cli import build_parser


def _subcommands():
    """Every subcommand's parser, by name."""
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("the parser has no subcommands")


def test_every_option_is_read_by_its_command():
    subcommands = _subcommands()
    assert set(subcommands) == {"count", "poly", "holonomy", "verify", "potts", "setcolor"}
    unread = {}
    for name, sub in subcommands.items():
        source = inspect.getsource(sub.get_default("run"))
        missing = [a.dest for a in sub._actions if a.dest != "help" and f"args.{a.dest}" not in source]
        if missing:
            unread[name] = missing
    assert unread == {}
