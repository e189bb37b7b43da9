"""Every size limit lives in one module constant.  The only ``max_*``
keywords a caller may set are the counters' work budgets and the sizes of
the harness's random instances."""

import inspect
import time
import tracemalloc

import pytest

from gainchroma import cli, counting, graphs, groups, harness, holonomy, models, polynomials

BUDGETS = {"max_states", "max_calls", "max_subsets"}
GENERATOR_SIZES = {"max_vertices", "max_edges"}
BUDGETED = {"count_auto", "verify_all", "potts_satisfiable_count"}


def _callables():
    """Every function and method the package defines, private ones included,
    with a qualified name."""
    for module in (groups, graphs, holonomy, counting, polynomials, models, harness, cli):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", attr, member
    for method, run in counting.COUNTERS.items():
        yield f"COUNTERS[{method!r}]", "count_" + method, run


def _allowed(module_name: str, name: str) -> set[str]:
    if name.startswith("count_") or name in BUDGETED:
        return BUDGETS
    if module_name.startswith("gainchroma.harness."):
        return GENERATOR_SIZES
    return set()


def test_only_budgets_and_generator_sizes_are_keywords():
    seen = {qualified: func for qualified, _, func in _callables()}
    # the walk reaches private helpers, methods and the counter runners
    assert {"gainchroma.polynomials._univariate", "gainchroma.polynomials.MultiPoly.__mul__"} <= set(seen)
    assert "max_subsets" in inspect.signature(seen["COUNTERS['inclexcl']"]).parameters
    found = {}
    for qualified, name, func in _callables():
        limits = {p for p in inspect.signature(func).parameters if p.startswith("max_")}
        extra = limits - _allowed(qualified, name)
        if extra:
            found[qualified] = sorted(extra)
    assert found == {}


@pytest.mark.parametrize("count", [counting.count_brute, counting.count_delcon], ids=["brute", "delcon"])
def test_brute_and_delcon_at_the_spin_limit(count):
    """Both keep O(|V| * |Q|) memory and finish in seconds at the largest
    spin set: 50 parallel links between two vertices under a trivial action
    of |Q| = SPIN_COUNT_LIMIT spins.  A table of spin masks per link would
    take about 50 MB here."""
    group = groups.build_cyclic(1000)
    action = groups.trivial_action(group, groups.SPIN_COUNT_LIMIT)
    g = graphs.gain_graph(group, 2, [(0, 1, 7 * i) for i in range(50)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = count(g, action)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value == 4096 * 4095
    assert peak < 4 * 2**20
    assert seconds < 10


def test_elim_at_the_spin_limit():
    """Elim's keys take 12-bit slots at the largest spin set, and its
    forbidden-spin row is one mask per spin of the back neighbour, whatever
    the number of parallel links: 50 links between two vertices under a
    trivial action of |Q| = SPIN_COUNT_LIMIT spins.  The pinned vertex
    tries one spin, so the second step reads one pattern."""
    group = groups.build_cyclic(1000)
    action = groups.trivial_action(group, groups.SPIN_COUNT_LIMIT)
    g = graphs.gain_graph(group, 2, [(0, 1, 7 * i) for i in range(50)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = counting.count_elim(g, action)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value == 4096 * 4095
    assert result.stats == {"width": 1, "peak_states": 1, "transitions": 4097}
    assert peak < 4 * 2**20
    assert seconds < 10


def test_elim_caches_no_more_spins_than_a_table(monkeypatch):
    """A step that retires a back neighbour can meet more patterns than its
    table has keys; the spin lists it caches still hold at most
    ``ELIM_TABLE_LIMIT`` spins.  On a path of five vertices with 400
    colours, the fourth step meets 399 patterns of 399 spins each."""
    monkeypatch.setattr(counting, "ELIM_TABLE_LIMIT", 2**12)
    group = groups.build_cyclic(3)
    q = 400
    g = graphs.gain_graph(group, 5, [(v, v + 1, v % 3) for v in range(4)])
    tracemalloc.start()
    try:
        result = counting.count_elim(g, groups.trivial_action(group, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value == q * (q - 1) ** 4
    assert peak < 2**20
