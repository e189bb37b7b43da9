"""The counters check one another only while some counter avoids each
helper that others share.  A trace of the counters over a fixed sample
finds every package function that two of them reach, and README's sharing
table must have a row for each, naming the counters that reach it.  A
plausible mutation of each shared helper that is not exempt must make
``verify_all`` report counters that disagree, and ``FAMILY`` must group the
counters as the table's shared helpers join them."""

import functools
import os
import pathlib
import random
import re
import sys
import types

import pytest

import gainchroma
from gainchroma import counting, graphs, groups, harness, holonomy
from gainchroma.counting import COUNTERS, FAMILY, verify_all

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = str(pathlib.Path(gainchroma.__file__).parent) + os.sep
SAMPLE = [harness.random_instance(random.Random(s), 5, 8) for s in range(60)]


def shifted_core(g):
    """``touched_core`` with the second end of each link moved up by one."""
    n, edges = graphs.touched_core(g)
    return n, tuple((u, v if u == v else (v + 1) % n, h) for u, v, h in edges)


def fixed_set_one_short(action, subgroup):
    return frozenset(sorted(groups.fixed_set(action, subgroup))[1:])


def domains_ignoring_loops(g, action):
    return [list(range(action.size)) for _ in range(g.vertex_count)]


def links_keeping_the_smallest_gain(g):
    return [{u: {min(hs)} for u, hs in nbrs.items()} for nbrs in graphs.link_gains(g)]


unmutated_row = counting._forbid_row


def row_with_the_last_spin_empty(action, gains):
    return unmutated_row(action, gains)[:-1] + [0]


def join_that_never_grows(self, h, x):
    return h


def subgroup_without_last_generator(group, gens):
    return groups.generate_subgroup(group, tuple(gens)[:-1])


# Helper -> the (owner, attribute) bindings to patch and the mutation.
MUTATIONS = {
    "touched_core": ([(counting, "touched_core"), (holonomy, "touched_core")], shifted_core),
    "fixed_set": ([(counting, "fixed_set")], fixed_set_one_short),
    "loop_domains": ([(counting, "loop_domains")], domains_ignoring_loops),
    "link_gains": ([(counting, "link_gains")], links_keeping_the_smallest_gain),
    "_forbid_row": ([(counting, "_forbid_row")], row_with_the_last_spin_empty),
    "_EdgeWalk": ([(holonomy._EdgeWalk, "join")], join_that_never_grows),
    "generate_subgroup": ([(holonomy, "generate_subgroup")], subgroup_without_last_generator),
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
        match = re.fullmatch(r"\| `([\w.]+)` \| ([\w, ]+) \| ([\w, ]+) \| (.*) \|", line)
        if match:
            name, callers, avoiders, mutation = match.groups()
            rows[name] = (counter_names(callers), counter_names(avoiders), mutation.startswith("exempt"))
    return rows


@functools.cache
def traced_reach() -> dict[types.CodeType, set[str]]:
    """The code of each package function -> the counters that reach it on
    the sample, from one ``sys.setprofile`` pass per counter.  Functions
    are told apart by their code, not their names, so each runner in
    ``COUNTERS``, a lambda, is reached by its own counter alone."""
    reach: dict[types.CodeType, set[str]] = {}

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            reach.setdefault(frame.f_code, set()).add(running)

    for running, run in COUNTERS.items():
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for inst in SAMPLE:
                run(inst.graph, inst.action)
        finally:
            sys.setprofile(previous)
    return reach


def nested_codes(code: types.CodeType) -> set[types.CodeType]:
    """The code and that of every function nested in it."""
    return {code}.union(*(nested_codes(c) for c in code.co_consts if isinstance(c, types.CodeType)))


def helper_codes(name: str) -> set[types.CodeType]:
    """The code a row covers: that of the function, method or property it
    names, or of every method and property of the class it names, with the
    functions nested in them."""
    head, *rest = name.split(".")
    modules = [module for key, module in list(sys.modules.items()) if key.startswith("gainchroma.")]
    helper = next(vars(module)[head] for module in modules if head in vars(module))
    for attr in rest:
        helper = vars(helper)[attr]
    codes: set[types.CodeType] = set()
    for member in vars(helper).values() if isinstance(helper, type) else [helper]:
        function = getattr(member, "fget", member)  # a property's getter
        if hasattr(function, "__code__"):
            codes |= nested_codes(function.__code__)
    return codes


def where(code: types.CodeType) -> str:
    return f"{code.co_name} at {pathlib.Path(code.co_filename).name}:{code.co_firstlineno}"


def test_the_trace_sees_methods_properties_nested_functions_and_each_runner():
    reach = traced_reach()
    assert {code.co_name for code in helper_codes("_EdgeWalk") if code in reach} == {"__init__", "join", "run", "descend"}
    assert reach[graphs.Edge.is_loop.fget.__code__] == {"brute", "delcon", "elim"}
    assert [reach[run.__code__] for run in COUNTERS.values()] == [{name} for name in COUNTERS]


def test_every_function_two_counters_reach_has_a_row():
    covered = set().union(*map(helper_codes, sharing_table()))
    shared = [code for code, counters in traced_reach().items() if len(counters) >= 2]
    assert {where(code) for code in shared if code not in covered} == set()


def test_the_sharing_table_names_the_callers_of_each_helper():
    table = sharing_table()
    reach = traced_reach()
    for name, (callers, avoiders, exempt) in table.items():
        observed = set().union(*(reach.get(code, set()) for code in helper_codes(name)))
        assert callers == observed, name
        assert len(callers) >= 2, f"{name} feeds at most one counter, so it needs no row"
        assert avoiders == set(COUNTERS) - callers, name
        assert exempt or avoiders, f"{name} feeds every counter, so no counter checks it"
    assert {name for name, (_, _, exempt) in table.items() if not exempt} == set(MUTATIONS)


def test_the_families_are_the_counters_joined_by_shared_helpers():
    # the connected components of the counters, two being joined when a
    # non-exempt row of the sharing table names both among its callers
    joined = [{name} for name in COUNTERS]
    for callers, _, exempt in sharing_table().values():
        if callers and not exempt:
            touching = [part for part in joined if part & callers]
            joined = [part for part in joined if not part & callers] + [set().union(*touching)]
    families: dict[str, set[str]] = {}
    for name, family in FAMILY.items():
        families.setdefault(family, set()).add(name)
    assert set(FAMILY) == set(COUNTERS)
    assert sorted(map(sorted, joined)) == sorted(map(sorted, families.values()))
