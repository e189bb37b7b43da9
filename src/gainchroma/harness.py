"""Seeded random instances and the invariant suite behind ``verify``.

The generator draws the group from Z2, Z3, Z4, S3, builds a multigraph with
at most 5 vertices and 8 edges (loops and parallel edges allowed), and picks
a spin action from the stock constructors, with multiplicities capped so the
brute-force counter stays cheap.  Roughly a quarter of the instances are
balanced by construction (identity gains, then a random switching) so the
balance checks get exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .groups import (
    FiniteGroup,
    SpinAction,
    build_cyclic,
    build_symmetric,
    regular_action,
    standard_colors,
    subset_action,
    trivial_action,
    zero_free_colors,
)
from .graphs import (
    GainGraph,
    _satisfied_edges,
    contract_link,
    delete_edge,
    gain_graph,
    is_balanced,
    satisfied_edges,
    switch,
    switch_state,
    SimpleGraph,
)
from .holonomy import is_holonomy_closed
from .counting import _check_compat, count_inclexcl, verify_all
from .polynomials import graph_chromatic

GROUP_BUILDERS: dict[str, Callable[[], FiniteGroup]] = {
    "Z2": lambda: build_cyclic(2),
    "Z3": lambda: build_cyclic(3),
    "Z4": lambda: build_cyclic(4),
    "S3": lambda: build_symmetric(3),
}

# Largest k for the standard / zero-free color constructors, per group, so
# that the spin count stays single digit and |Q|**5 stays enumerable.
_STANDARD_K_CAP = {"Z2": 4, "Z3": 2, "Z4": 2, "S3": 1}


@dataclass
class Instance:
    graph: GainGraph
    action: SpinAction
    group_name: str
    action_kind: str
    balanced: bool

    def describe(self) -> str:
        edges = [(e.u, e.v, e.gain) for e in self.graph.edges]
        return (
            f"group={self.group_name} action={self.action_kind} "
            f"vertices={self.graph.vertex_count} edges={edges}"
        )


def random_gain_graph(
    rng: random.Random,
    group: FiniteGroup,
    max_vertices: int = 5,
    max_edges: int = 8,
    balanced: bool = False,
) -> GainGraph:
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    triples = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        gain = 0 if balanced else rng.randrange(group.order)
        triples.append((u, v, gain))
    g = gain_graph(group, n, triples)
    if balanced:
        eta = tuple(rng.randrange(group.order) for _ in range(n))
        g = switch(g, eta)
    return g


def random_action(rng: random.Random, group: FiniteGroup, group_name: str) -> tuple[SpinAction, str]:
    kinds = ["regular", "trivial", "standard", "zero_free"]
    if group_name == "S3":
        kinds.append("subset")
    kind = rng.choice(kinds)
    if kind == "regular":
        return regular_action(group), kind
    if kind == "trivial":
        return trivial_action(group, rng.randint(1, 4)), kind
    if kind == "standard":
        return standard_colors(group, rng.randint(0, _STANDARD_K_CAP[group_name])), kind
    if kind == "zero_free":
        return zero_free_colors(group, rng.randint(0, _STANDARD_K_CAP[group_name])), kind
    return subset_action(3), kind


def random_instance(
    rng: random.Random, max_vertices: int = 5, max_edges: int = 8
) -> Instance:
    group_name = rng.choice(sorted(GROUP_BUILDERS))
    group = GROUP_BUILDERS[group_name]()
    balanced = rng.random() < 0.25
    graph = random_gain_graph(rng, group, max_vertices, max_edges, balanced=balanced)
    action, kind = random_action(rng, group, group_name)
    return Instance(graph, action, group_name, kind, balanced)


def random_state(rng: random.Random, inst: Instance) -> tuple[int, ...] | None:
    if inst.action.size == 0:
        return None
    return tuple(rng.randrange(inst.action.size) for _ in range(inst.graph.vertex_count))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def check_method_agreement(inst: Instance) -> CheckResult:
    report = verify_all(inst.graph, inst.action)
    if report.errors:
        return CheckResult("method_agreement", False, f"bounds hit: {report.errors}")
    if not report.agree:
        values = {k: r.value for k, r in report.results.items()}
        return CheckResult("method_agreement", False, f"counts diverge: {values}")
    return CheckResult("method_agreement", True)


def check_switching_invariance(inst: Instance, rng: random.Random) -> CheckResult:
    g, a = inst.graph, inst.action
    eta = tuple(rng.randrange(g.group.order) for _ in range(g.vertex_count))
    switched = switch(g, eta)
    before = count_inclexcl(g, a).value
    after = count_inclexcl(switched, a).value
    if before != after:
        return CheckResult(
            "switching_invariance", False, f"count changed {before} -> {after} under eta={eta}"
        )
    for _ in range(4):
        state = random_state(rng, inst)
        if state is None:
            break
        lhs = satisfied_edges(switched, a, switch_state(state, eta, a))
        rhs = satisfied_edges(g, a, state)
        if lhs != rhs:
            return CheckResult(
                "switching_invariance",
                False,
                f"satisfied sets differ for state={state}, eta={eta}",
            )
    return CheckResult("switching_invariance", True)


def _satisfied_masks(g: GainGraph, act, q: int, ids: list[int]):
    """Every state, in ``itertools.product`` order, with the mask of the
    edges it satisfies (bit i for ``ids[i]``).

    A depth-first search over vertices 0..n-1: an edge's bit joins the mask
    when its later endpoint is assigned, so each prefix's mask is built
    once.  The yielded state is one list, changed in place as the walk goes.
    """
    n = g.vertex_count
    closing: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]  # u, gain, v, bit
    for bit, eid in enumerate(ids):
        e = g.edge(eid)
        closing[max(e.u, e.v)].append((e.u, e.gain, e.v, 1 << bit))
    state = [0] * n
    if n == 0:
        yield state, 0
        return
    masks = [0] * n  # masks[d]: the edges satisfied by state[:d]
    d = 0
    while d >= 0:
        if state[d] == q:
            state[d] = 0
            d -= 1
            if d >= 0:
                state[d] += 1
            continue
        mask = masks[d]
        for u, gain, v, bit in closing[d]:
            if act[state[u]][gain] == state[v]:
                mask |= bit
        if d + 1 < n:
            d += 1
            masks[d] = mask
        else:
            yield state, mask
            state[d] += 1


def check_satisfied_closure(inst: Instance, state_cap: int = 10**5, samples: int = 100,
                            rng: random.Random | None = None) -> CheckResult:
    """Every reachable satisfied-edge set must be holonomy closed.

    All states are enumerated when |Q|**|V| fits under the cap, keyed by
    the bit mask of their satisfied edges; otherwise a random sample is
    checked, keyed by the satisfied set.  Each key's verdict is computed once.
    """
    g, a = inst.graph, inst.action
    _check_compat(g, a)
    n, q = g.vertex_count, a.size
    if q**n <= state_cap:
        ids = sorted(g.edge_ids)
        keyed = _satisfied_masks(g, a.act, q, ids)

        def edge_set(mask: int) -> frozenset[int]:
            return frozenset(eid for bit, eid in enumerate(ids) if mask >> bit & 1)
    else:
        rng = rng or random.Random(0)
        states = (tuple(rng.randrange(q) for _ in range(n)) for _ in range(samples))
        keyed = ((state, _satisfied_edges(g, a.act, state)) for state in states)

        def edge_set(sat: frozenset[int]) -> frozenset[int]:
            return sat
    verdicts: dict = {}
    for state, key in keyed:
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = is_holonomy_closed(g, edge_set(key))
        if not verdict:
            return CheckResult(
                "satisfied_closure", False, f"state {tuple(state)} satisfies non-closed set {sorted(edge_set(key))}"
            )
    return CheckResult("satisfied_closure", True)


def check_deletion_contraction(inst: Instance) -> CheckResult:
    g, a = inst.graph, inst.action
    whole = count_inclexcl(g, a).value
    for e in g.edges:
        if e.is_loop:
            continue
        deleted = count_inclexcl(delete_edge(g, e.id), a).value
        contracted = count_inclexcl(contract_link(g, e.id), a).value
        if whole != deleted - contracted:
            return CheckResult(
                "deletion_contraction",
                False,
                f"edge {e.id}: {whole} != {deleted} - {contracted}",
            )
    return CheckResult("deletion_contraction", True)


def check_balanced_evaluation(inst: Instance) -> CheckResult:
    """A balanced graph must count like its underlying graph colored with
    |Q| colors."""
    g, a = inst.graph, inst.action
    if not is_balanced(g):
        return CheckResult("balanced_evaluation", True, "not balanced, vacuous")
    template = SimpleGraph(g.vertex_count, tuple((e.u, e.v) for e in g.edges))
    expected = graph_chromatic(template).evaluate(a.size)
    actual = count_inclexcl(g, a).value
    if expected != actual:
        return CheckResult(
            "balanced_evaluation", False, f"chromatic value {expected} != count {actual}"
        )
    return CheckResult("balanced_evaluation", True)


CHECKS = (
    "method_agreement",
    "switching_invariance",
    "satisfied_closure",
    "deletion_contraction",
    "balanced_evaluation",
)


def check_instance(inst: Instance, rng: random.Random, state_cap: int = 10**5) -> list[CheckResult]:
    return [
        check_method_agreement(inst),
        check_switching_invariance(inst, rng),
        check_satisfied_closure(inst, state_cap=state_cap, rng=rng),
        check_deletion_contraction(inst),
        check_balanced_evaluation(inst),
    ]


@dataclass
class SuiteReport:
    seed: int
    count: int
    passed: dict[str, int] = field(default_factory=dict)
    failures: list[tuple[str, str, str]] = field(default_factory=list)  # check, detail, instance

    @property
    def ok(self) -> bool:
        return not self.failures


def run_suite(
    seed: int,
    count: int,
    max_vertices: int = 5,
    max_edges: int = 8,
    state_cap: int = 10**5,
) -> SuiteReport:
    """Generate ``count`` seeded instances and run every check on each."""
    rng = random.Random(seed)
    report = SuiteReport(seed=seed, count=count, passed={name: 0 for name in CHECKS})
    for _ in range(count):
        inst = random_instance(rng, max_vertices=max_vertices, max_edges=max_edges)
        for result in check_instance(inst, rng, state_cap=state_cap):
            if result.passed:
                report.passed[result.name] += 1
            else:
                report.failures.append((result.name, result.detail, inst.describe()))
    return report
