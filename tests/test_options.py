"""Every command-line option is read by the command it belongs to: each
subcommand's ``run`` function reads ``args.<dest>`` for each of its
options, so no option is accepted and then ignored.  Each subcommand's set
of options is pinned, so adding or removing one is a visible test edit."""

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


def test_each_subcommand_takes_exactly_its_options():
    dests = {name: {a.dest for a in sub._actions if a.dest != "help"} for name, sub in _subcommands().items()}
    assert dests == {
        "count": {"file", "method", "mults", "json", "timings"},
        "poly": {"file", "parts", "chromatic", "zero_free", "graph_chromatic", "json"},
        "holonomy": {"file", "edges", "json"},
        "verify": {"seed", "count", "max_vertices", "max_edges", "json"},
        "potts": {"file", "json"},
        "setcolor": {"vertices", "edges", "k", "json"},
    }
