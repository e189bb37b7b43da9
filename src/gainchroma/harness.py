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
    BoundExceeded,
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
    VERTEX_LIMIT,
    GainGraph,
    check_action,
    contract_link,
    delete_edge,
    gain_graph,
    is_balanced,
    satisfied_edges,
    switch,
    switch_state,
    SimpleGraph,
)
from .holonomy import LATTICE_EDGE_LIMIT, is_holonomy_closed
from .counting import count_inclexcl, verify_all
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

# States drawn by ``check_satisfied_closure`` when |Q|**|V| passes its cap.
CLOSURE_SAMPLES = 100


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
    """Every counter that ran must give the same count; if they agree, any
    counter over its bound raises ``BoundExceeded``, naming each one."""
    report = verify_all(inst.graph, inst.action)
    if not report.agree:
        values = {k: r.value for k, r in report.results.items()}
        return CheckResult("method_agreement", False, f"counts diverge: {values}")
    if report.errors:
        raise BoundExceeded("; ".join(f"{name}: {error}" for name, error in report.errors.items()))
    return CheckResult("method_agreement", True)


def check_switching_invariance(inst: Instance, rng: random.Random, before: int) -> CheckResult:
    """``before`` is the instance graph's count, which switching must keep."""
    g, a = inst.graph, inst.action
    eta = tuple(rng.randrange(g.group.order) for _ in range(g.vertex_count))
    switched = switch(g, eta)
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


def check_satisfied_closure(inst: Instance, state_cap: int = 10**5,
                            rng: random.Random | None = None) -> CheckResult:
    """Every reachable satisfied-edge set must be holonomy closed.

    When |Q|**|V| fits under ``state_cap``, every state is enumerated by a
    depth-first walk over the vertices, keyed by the bit mask of the edges
    it satisfies.  Otherwise ``CLOSURE_SAMPLES`` states are drawn from
    ``rng`` (a fixed seed when none is given), keyed by ``satisfied_edges``.
    Each key's verdict is computed once; the first state whose satisfied
    set is not closed is reported.
    """
    g, a = inst.graph, inst.action
    check_action(g, a)
    n, q = g.vertex_count, a.size
    if q**n <= state_cap:
        ids = sorted(g.edge_ids)
        keyed = _satisfied_masks(g, a.act, q, ids)

        def edge_set(mask: int) -> frozenset[int]:
            return frozenset(eid for bit, eid in enumerate(ids) if mask >> bit & 1)
    else:
        rng = rng or random.Random(0)
        states = (tuple(rng.randrange(q) for _ in range(n)) for _ in range(CLOSURE_SAMPLES))
        keyed = ((state, satisfied_edges(g, a, state)) for state in states)

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


def check_deletion_contraction(inst: Instance, whole: int) -> CheckResult:
    """``whole`` is the instance graph's count."""
    g, a = inst.graph, inst.action
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


def check_balanced_evaluation(inst: Instance, actual: int) -> CheckResult:
    """A balanced graph's count ``actual`` must be that of its underlying
    graph colored with |Q| colors."""
    g, a = inst.graph, inst.action
    if not is_balanced(g):
        return CheckResult("balanced_evaluation", True, "not balanced, vacuous")
    template = SimpleGraph(g.vertex_count, tuple((e.u, e.v) for e in g.edges))
    expected = graph_chromatic(template).evaluate([a.size])
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


def check_instance(inst: Instance, rng: random.Random) -> list[CheckResult]:
    whole = count_inclexcl(inst.graph, inst.action).value  # shared by three checks
    return [
        check_method_agreement(inst),
        check_switching_invariance(inst, rng, whole),
        check_satisfied_closure(inst, rng=rng),
        check_deletion_contraction(inst, whole),
        check_balanced_evaluation(inst, whole),
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


def run_suite(seed: int, count: int, max_vertices: int = 5, max_edges: int = 8) -> SuiteReport:
    """Generate ``count`` seeded instances and run every check on each.
    ``BoundExceeded`` is raised for sizes over ``VERTEX_LIMIT`` or mobius's
    ``LATTICE_EDGE_LIMIT`` before any draw, and for an instance over a bound
    unless an earlier one failed: then the suite stops, ``count`` the number
    checked."""
    for name, value, least in (("count", count, 0), ("max_vertices", max_vertices, 1), ("max_edges", max_edges, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    for name, value, most in (("max_vertices", max_vertices, VERTEX_LIMIT), ("max_edges", max_edges, LATTICE_EDGE_LIMIT)):
        if value > most:
            raise BoundExceeded(f"{name} must be at most {most}, got {value}")
    rng = random.Random(seed)
    report = SuiteReport(seed=seed, count=count, passed={name: 0 for name in CHECKS})
    for done in range(count):
        inst = random_instance(rng, max_vertices=max_vertices, max_edges=max_edges)
        try:
            results = check_instance(inst, rng)
        except BoundExceeded:
            if not report.failures:
                raise
            report.count = done
            break
        for result in results:
            if result.passed:
                report.passed[result.name] += 1
            else:
                report.failures.append((result.name, result.detail, inst.describe()))
    return report
