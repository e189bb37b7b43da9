"""Seeded random instances and the invariant suite behind ``verify``.

The generator draws the group from Z2, Z3, Z4, S3, builds a multigraph with
at most ``max_vertices`` vertices and ``max_edges`` edges (loops and parallel
edges allowed; ``run_suite`` defaults to 5 and 8, and ``verify
--max-vertices/--max-edges`` raise them up to ``VERTEX_LIMIT`` and
``LATTICE_EDGE_LIMIT``), and picks a spin action from the stock
constructors, with multiplicities capped so the brute-force counter stays
cheap.  Roughly a quarter of the instances are balanced by construction
(identity gains, then a random switching) so the balance checks get
exercised.
"""

from __future__ import annotations

import itertools
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
from .counting import MethodReport, count_inclexcl, verify_all
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

# ``check_satisfied_closure`` walks every state when |Q|**|V| is at most
# CLOSURE_STATE_CAP, and draws CLOSURE_SAMPLES states otherwise.
CLOSURE_STATE_CAP = 10**5
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
            f"group={self.group_name} action={self.action_kind}[{self.action.name}] "
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


def check_method_agreement(inst: Instance, report: MethodReport) -> CheckResult:
    """Every counter that ran in ``report``, ``verify_all``'s report on the
    instance, must give the same count; if they agree, or none ran, any
    counter over its bound raises ``BoundExceeded``, naming each one."""
    if report.results and not report.agree:
        values = {k: r.value for k, r in report.results.items()}
        return CheckResult("method_agreement", False, f"counts diverge: {values}")
    if report.errors or not report.results:
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


def _satisfied_masks(g: GainGraph, act, q: int, ids: list[int]) -> set[int]:
    """The distinct masks of the edges some state satisfies (bit i for
    ``ids[i]``), from a walk over every state.

    A depth-first search over vertices 0..n-1 that takes the q spins of a
    vertex at once: ``rows[d][s]`` is the mask of ``state[:d] + [s]``.  An
    edge's bit joins the row of its later endpoint d at the spins its
    equation allows there, given the spin at its earlier endpoint; a loop's
    bit joins the spins its gain fixes.  The last vertex's row holds the
    masks of q whole states.
    """
    n = g.vertex_count
    if n == 0 or q == 0:  # the one empty state, which satisfies no edge, or no state at all
        return {0} if n == 0 else set()
    loops: list[list[int] | None] = [None] * n  # loops[d][s]: the loops at d that spin s satisfies
    closing: list[list[tuple]] = [[] for _ in range(n)]  # (earlier endpoint w, spins at d per spin at w, bit)
    for bit, eid in enumerate(ids):
        e = g.edge(eid)
        if e.u == e.v:
            loops[e.u] = loops[e.u] or [0] * q
            for s in range(q):
                if act[s][e.gain] == s:
                    loops[e.u][s] |= 1 << bit
            continue
        allowed: list[list[int]] = [[] for _ in range(q)]
        if e.u < e.v:  # s_v = s_u * gain, at the later endpoint v
            for s in range(q):
                allowed[s].append(act[s][e.gain])
        else:  # the spins at the later endpoint u that gain sends to s_v
            for s in range(q):
                allowed[act[s][e.gain]].append(s)
        closing[max(e.u, e.v)].append((min(e.u, e.v), allowed, 1 << bit))
    seen: set[int] = set()
    state = [0] * n
    rows: list[list[int]] = [[]] * n
    last = n - 1
    d, mask = 0, 0
    while True:
        row = [mask | b for b in loops[d]] if loops[d] else [mask] * q
        for w, allowed, bit in closing[d]:
            for s in allowed[state[w]]:
                row[s] |= bit
        if d < last:
            rows[d] = row
            state[d] = 0
            d, mask = d + 1, row[0]
            continue
        seen.update(row)
        while d and state[d - 1] == q - 1:
            d -= 1
        if not d:
            return seen
        state[d - 1] += 1
        mask = rows[d - 1][state[d - 1]]


def _not_closed(state: tuple[int, ...], edges: frozenset[int]) -> CheckResult:
    return CheckResult("satisfied_closure", False, f"state {state} satisfies non-closed set {sorted(edges)}")


def check_satisfied_closure(inst: Instance, rng: random.Random) -> CheckResult:
    """Every reachable satisfied-edge set must be holonomy closed.

    When |Q|**|V| is at most ``CLOSURE_STATE_CAP``, one walk over every
    state collects the distinct masks of satisfied edges, and each mask is
    tested once; only if one fails are the states run through again, in
    ``itertools.product`` order, to report the first whose
    ``satisfied_edges`` set fails.  Otherwise ``CLOSURE_SAMPLES`` states are
    drawn from ``rng``, keyed by ``satisfied_edges``, and the first whose
    set is not closed is reported.
    """
    g, a = inst.graph, inst.action
    check_action(g, a)
    n, q = g.vertex_count, a.size
    if q**n <= CLOSURE_STATE_CAP:
        ids = sorted(g.edge_ids)
        masks = _satisfied_masks(g, a.act, q, ids)
        sets = (frozenset(eid for bit, eid in enumerate(ids) if mask >> bit & 1) for mask in masks)
        failing = {edges for edges in sets if not is_holonomy_closed(g, edges)}
        if failing:
            for state in itertools.product(range(q), repeat=n):
                sat = satisfied_edges(g, a, state)
                if sat in failing:
                    return _not_closed(state, sat)
        return CheckResult("satisfied_closure", True)
    verdicts: dict[frozenset[int], bool] = {}
    for _ in range(CLOSURE_SAMPLES):
        state = tuple(rng.randrange(q) for _ in range(n))
        sat = satisfied_edges(g, a, state)
        verdict = verdicts.get(sat)
        if verdict is None:
            verdict = verdicts[sat] = is_holonomy_closed(g, sat)
        if not verdict:
            return _not_closed(state, sat)
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
    report = verify_all(inst.graph, inst.action)
    # first, so that a counter over its bound raises before any other check
    agreement = check_method_agreement(inst, report)
    # the count every counter agreed on, shared by three checks
    whole = report.value
    if whole is None:  # the counters diverge, so there is no count to check
        return [agreement]
    return [
        agreement,
        check_switching_invariance(inst, rng, whole),
        check_satisfied_closure(inst, rng),
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
