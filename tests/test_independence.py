"""The counters check one another only while some counter avoids each
helper that others share.  A plausible mutation of each shared helper must
make ``verify_all`` report counters that disagree, and README's sharing
table must name the counters that call each helper."""

import pathlib
import random
import re
import sys

import pytest

from gainchroma import counting, graphs, groups, harness, holonomy
from gainchroma.counting import COUNTERS, verify_all

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SAMPLE = [harness.random_instance(random.Random(s), 5, 8) for s in range(60)]


def shifted_core(g):
    """``touched_core`` with the second end of each link moved up by one."""
    n, edges = graphs.touched_core(g)
    return n, tuple((u, v if u == v else (v + 1) % n, h) for u, v, h in edges)


def fixed_set_one_short(action, subgroup):
    return frozenset(sorted(groups.fixed_set(action, subgroup))[1:])


def domains_ignoring_loops(g, action):
    return [list(range(action.size)) for _ in range(g.vertex_count)]


def join_that_never_grows(self, h, x):
    return h


# Helper -> the (owner, attribute) bindings to patch and the mutation.
MUTATIONS = {
    "touched_core": ([(counting, "touched_core"), (holonomy, "touched_core")], shifted_core),
    "fixed_set": ([(counting, "fixed_set")], fixed_set_one_short),
    "loop_domains": ([(counting, "loop_domains")], domains_ignoring_loops),
    "_EdgeWalk": ([(holonomy._EdgeWalk, "join")], join_that_never_grows),
}


def diverging(sample) -> int:
    """The number of instances on which counters that ran disagree."""
    return sum(1 for inst in sample if not verify_all(inst.graph, inst.action).agree)


def test_the_unmutated_counters_agree_on_the_sample():
    assert diverging(SAMPLE) == 0


@pytest.mark.parametrize("helper", sorted(MUTATIONS))
def test_a_mutation_of_each_shared_helper_is_caught(helper, monkeypatch):
    bindings, mutation = MUTATIONS[helper]
    for owner, attr in bindings:
        monkeypatch.setattr(owner, attr, mutation)
    assert diverging(SAMPLE) >= 1


def counter_names(cell: str) -> set[str]:
    return {name.strip() for name in cell.split(",")} - {"none"}


def sharing_table() -> dict[str, tuple[set[str], set[str], bool]]:
    """README's sharing table: helper -> (the counters that call it, those
    that avoid it, whether it is exempt from a mutation row)."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"\| `(\w+)` \| ([\w, ]+) \| ([\w, ]+) \| (.*) \|", line)
        if match:
            name, callers, avoiders, mutation = match.groups()
            rows[name] = (counter_names(callers), counter_names(avoiders), mutation.startswith("exempt"))
    return rows


# Each helper the table names, where it is defined.
HELPERS = {
    "touched_core": graphs.touched_core,
    "_EdgeWalk": holonomy._EdgeWalk,
    "fixed_set": groups.fixed_set,
    "loop_domains": graphs.loop_domains,
    "check_action": graphs.check_action,
}


def observed_callers(monkeypatch) -> dict[str, set[str]]:
    """Helper -> the counters that call it on one instance with a loop, a
    link and an untouched vertex.  Each helper is wrapped in every loaded
    namespace that binds it."""
    running: list[str] = []
    callers: dict[str, set[str]] = {name: set() for name in HELPERS}

    def wrap(name, fn):
        def recorded(*args, **kwargs):
            callers[name].add(running[-1])
            return fn(*args, **kwargs)

        return recorded

    for name, fn in HELPERS.items():
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if isinstance(namespace, dict):
                for key, value in list(namespace.items()):
                    if value is fn:
                        monkeypatch.setitem(namespace, key, wrap(name, fn))
    g = graphs.gain_graph(groups.build_cyclic(3), 3, [(0, 1, 1), (1, 1, 1)])
    a = groups.regular_action(g.group)
    for counter, run in COUNTERS.items():
        running.append(counter)
        run(g, a)
    return callers


def test_the_sharing_table_names_the_callers_of_each_helper(monkeypatch):
    table = sharing_table()
    assert set(table) == set(HELPERS)
    observed = observed_callers(monkeypatch)
    assert {name: row[0] for name, row in table.items()} == observed
    for name, (callers, avoiders, exempt) in table.items():
        assert avoiders == set(COUNTERS) - callers, name
        assert exempt or avoiders, f"{name} feeds every counter, so no counter checks it"
    shared = {name for name, (callers, _, exempt) in table.items() if len(callers) >= 2 and not exempt}
    assert shared == set(MUTATIONS)
