"""Every size limit lives in one module constant.  The only ``max_*``
keywords a caller may set are the counters' work budgets and the sizes of
the harness's random instances, and the budgets' defaults are written once,
in ``counting.STATE_BUDGET`` and ``counting.SUBSET_BUDGET``."""

import ast
import inspect
import pathlib
import time
import tracemalloc

import pytest

from gainchroma import cli, counting, graphs, groups, harness, holonomy, models, polynomials

BUDGETS = {"max_states", "max_subsets"}
GENERATOR_SIZES = {"max_vertices", "max_edges"}
BUDGETED = {"verify_all", "potts_routes"}


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


BUDGET_CONSTANTS = {"STATE_BUDGET", "SUBSET_BUDGET"}


def budget_literals(source: str) -> list[int]:
    """The line of every ``10**8``, ``2**22``, ``100000000`` or ``4194304``
    in the source, except in the value of an assignment to one of
    ``BUDGET_CONSTANTS``."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in BUDGET_CONSTANTS for t in node.targets):
            exempt.update(map(id, ast.walk(node.value)))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            pair = (getattr(node.left, "value", None), getattr(node.right, "value", None))
            if pair in ((10, 8), (2, 22)):
                found.append(node.lineno)
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (10**8, 2**22):
            found.append(node.lineno)
    return sorted(found)


def test_the_budget_walk_sees_every_spelling():
    source = "STATE_BUDGET = 10**8\nSUBSET_BUDGET = 2**22\nx = 10**8\ny = f(2 ** 22)\nz = 100000000\nw = [4194304]\nv = 10**9\n"
    assert budget_literals(source) == [3, 4, 5, 6]


def test_the_budget_defaults_are_written_once():
    package = pathlib.Path(counting.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {"cli.py", "counting.py", "models.py"} <= {path.name for path in modules}
    found = {path.name: budget_literals(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_command_line_budgets_default_to_the_constants(tmp_path, capsys, monkeypatch):
    # the options default to None, and the counters read the constants
    # when they run, so a patched constant reaches the command line
    parser = cli.build_parser()
    count = parser.parse_args(["count", "instance.json"])
    potts = parser.parse_args(["potts", "instance.json"])
    assert (count.max_states, count.max_subsets, potts.max_states) == (None, None, None)
    path = tmp_path / "instance.json"
    path.write_text(
        '{"group": {"kind": "cyclic", "n": 3}, "spins": [{"kind": "regular"}],'
        ' "graph": {"vertices": 2, "edges": [[0, 1, 1]]},'
        ' "signed_graph": {"vertices": 2, "edges": [[0, 1, "-"]]}}'
    )
    assert cli.main(["count", str(path), "--method", "brute"]) == 0
    assert cli.main(["count", str(path), "--method", "inclexcl"]) == 0
    assert cli.main(["potts", str(path)]) == 0
    monkeypatch.setattr(counting, "STATE_BUDGET", 8)
    monkeypatch.setattr(counting, "SUBSET_BUDGET", 1)
    capsys.readouterr()
    assert cli.main(["count", str(path), "--method", "brute"]) == cli.EXIT_BOUND
    assert "3**2 states exceed the brute-force limit 8" in capsys.readouterr().err
    assert cli.main(["count", str(path), "--method", "inclexcl"]) == cli.EXIT_BOUND
    assert "2**1 subsets exceed the inclusion-exclusion limit 1" in capsys.readouterr().err
    assert cli.main(["potts", str(path)]) == cli.EXIT_BOUND
    assert "limit 8" in capsys.readouterr().err


def test_a_patched_budget_reaches_every_budgeted_counter(monkeypatch):
    g = graphs.gain_graph(groups.build_cyclic(3), 4, [(0, 1, 1), (1, 2, 2), (2, 3, 0)])
    action = groups.regular_action(g.group)
    assert counting.verify_all(g, action).errors == {}
    monkeypatch.setattr(counting, "STATE_BUDGET", 1)
    report = counting.verify_all(g, action)
    assert sorted(report.errors) == ["brute", "elim"]
    assert "limit 1" in report.errors["brute"] and "limit 1" in report.errors["elim"]
    assert report.agree and sorted(report.results) == ["delcon", "inclexcl", "mobius"]
    monkeypatch.setattr(counting, "SUBSET_BUDGET", 4)
    assert sorted(counting.verify_all(g, action).errors) == ["brute", "elim", "inclexcl"]
    # an explicit budget still wins over the constant
    assert sorted(counting.verify_all(g, action, max_states=10**3, max_subsets=8).errors) == []


def test_inclexcl_runs_on_every_suite_instance():
    # the harness's switching and deletion-contraction checks count with
    # inclexcl, which refuses unless the suite's largest edge set is within
    # its budget
    assert 2**holonomy.LATTICE_EDGE_LIMIT <= counting.SUBSET_BUDGET


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
