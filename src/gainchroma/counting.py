"""Four exact counters for totally frustrated states, the normalized theta
invariant, and a cross-method agreement report.

The counters are deliberately independent routes to the same number:

* brute: backtracking over states with early pruning,
* delcon: deletion-contraction recursion down to loops-only graphs,
* inclexcl: alternating sum of fixed-count products over all edge subsets,
* mobius: the same sum restricted to holonomy-closed sets, weighted by the
  Möbius function of their containment order.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable

from .groups import BoundExceeded, SpinAction, fixed_set
from .graphs import (
    GainGraph,
    balanced_component_count,
    components,
    contract_link,
    delete_edge,
)
from .holonomy import ClosedSetLattice, HolonomyCache, enumerate_closed_sets


@dataclass(frozen=True)
class CountResult:
    value: int
    method: str
    stats: dict[str, int]


def _check_compat(g: GainGraph, a: SpinAction):
    if a.group != g.group:
        raise ValueError("action and graph use different groups")


def count_brute(g: GainGraph, a: SpinAction, max_states: int = 10**8) -> CountResult:
    """Count states with no satisfied edge by backtracking enumeration.

    A partial state is abandoned as soon as any edge among the assigned
    vertices is satisfied, so only the bound |Q|**|V| is checked up front.
    """
    _check_compat(g, a)
    n = g.vertex_count
    m = a.size
    if m**n > max_states:
        raise BoundExceeded(f"{m}**{n} states exceed the brute-force limit {max_states}")
    act = a.act
    inv = g.group.inv
    loop_gains: list[set[int]] = [set() for _ in range(n)]
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in g.edges:
        if e.is_loop:
            loop_gains[e.u].add(e.gain)
        elif e.u < e.v:
            constraints[e.v].append((e.u, e.gain))
        else:
            constraints[e.u].append((e.v, inv[e.gain]))
    allowed = [
        [q for q in range(m) if all(act[q][h] != q for h in loop_gains[v])]
        for v in range(n)
    ]
    assigned = [0] * n
    total = 0
    visited = 0

    def descend(v: int):
        nonlocal total, visited
        if v == n:
            total += 1
            return
        forbidden = {act[assigned[u]][phi] for u, phi in constraints[v]}
        for q in allowed[v]:
            visited += 1
            if q not in forbidden:
                assigned[v] = q
                descend(v + 1)

    if n == 0:
        total = 1
    else:
        descend(0)
    return CountResult(total, "brute", {"states_visited": visited})


def count_delcon(g: GainGraph, a: SpinAction, max_calls: int = 10**6) -> CountResult:
    """Count by the deletion-contraction recursion on the lowest-id link.

    A loops-only graph is evaluated directly as the product, over vertices,
    of the number of spins not fixed by any incident loop gain.
    """
    _check_compat(g, a)
    m = a.size
    fixed_of: dict[int, frozenset[int]] = {}

    def fixed(gain: int) -> frozenset[int]:
        got = fixed_of.get(gain)
        if got is None:
            got = a.fixed(gain)
            fixed_of[gain] = got
        return got

    calls = 0

    def loops_only_value(graph: GainGraph) -> int:
        value = 1
        banned: list[set[int]] = [set() for _ in range(graph.vertex_count)]
        for e in graph.edges:
            banned[e.u] |= fixed(e.gain)
        for v in range(graph.vertex_count):
            value *= m - len(banned[v])
            if value == 0:
                return 0
        return value

    def recurse(graph: GainGraph) -> int:
        nonlocal calls
        calls += 1
        if calls > max_calls:
            raise BoundExceeded(f"deletion-contraction exceeded {max_calls} calls")
        link = min((e for e in graph.edges if not e.is_loop), key=lambda e: e.id, default=None)
        if link is None:
            return loops_only_value(graph)
        return recurse(delete_edge(graph, link.id)) - recurse(contract_link(graph, link.id))

    value = recurse(g)
    return CountResult(value, "delcon", {"calls": calls})


def subset_sum(
    g: GainGraph,
    weighted_subsets: Iterable[tuple[frozenset[int], int]],
    factor: Callable[[frozenset[int]], Any],
    isolated: Any,
    cache: HolonomyCache,
    zero: Any = 0,
):
    """The sum, over (subset, weight) pairs, of weight times ``isolated`` per
    vertex the subset leaves isolated times ``factor(H)`` per component, where
    H is the component's holonomy subgroup.

    ``factor`` is called once per distinct subgroup.  The values may be ints
    or ``MultiPoly``; ``zero`` is the empty sum.
    """
    factors: dict[frozenset[int], Any] = {}
    total = zero
    for subset, weight in weighted_subsets:
        if weight == 0:
            continue
        split = components(g, subset)
        term = weight * isolated ** len(split.isolated)
        for comp in split.edge_sets:
            if term == 0:
                break
            subgroup = cache.subgroup(comp)
            f = factors.get(subgroup)
            if f is None:
                f = factors[subgroup] = factor(subgroup)
            term = term * f
        total = total + term
    return total


def count_inclexcl(
    g: GainGraph,
    a: SpinAction,
    max_subsets: int = 2**22,
    cache: HolonomyCache | None = None,
) -> CountResult:
    """Count by inclusion-exclusion over all edge subsets: each subset
    contributes (-1)**|A| times the product of holonomy fixed counts over its
    components, times |Q| per vertex it leaves isolated."""
    _check_compat(g, a)
    ids = sorted(g.edge_ids)
    m = len(ids)
    if 2**m > max_subsets:
        raise BoundExceeded(f"2**{m} subsets exceed the inclusion-exclusion limit {max_subsets}")
    signed_subsets = (
        (frozenset(ids[i] for i in range(m) if mask >> i & 1), -1 if mask.bit_count() & 1 else 1)
        for mask in range(1 << m)
    )
    total = subset_sum(
        g, signed_subsets, lambda h: len(fixed_set(a, h)), a.size, cache or HolonomyCache(g)
    )
    return CountResult(total, "inclexcl", {"subsets": 1 << m})


def count_mobius(
    g: GainGraph,
    a: SpinAction,
    lattice: ClosedSetLattice | None = None,
    cache: HolonomyCache | None = None,
    max_edges: int = 18,
) -> CountResult:
    """Count by Möbius inversion over the holonomy-closed edge sets.

    A bottomless lattice (the graph has an identity loop, which every state
    satisfies) gives zero immediately.
    """
    _check_compat(g, a)
    if lattice is None:
        lattice = enumerate_closed_sets(g, max_edges=max_edges)
    stats = {"closed_sets": len(lattice.sets)}
    if lattice.bottomless:
        return CountResult(0, "mobius", stats)
    total = subset_sum(
        g,
        lattice.mobius_from_bottom.items(),
        lambda h: len(fixed_set(a, h)),
        a.size,
        cache or HolonomyCache(g),
    )
    return CountResult(total, "mobius", stats)


def count_auto(
    g: GainGraph,
    a: SpinAction,
    max_states: int = 10**8,
    max_subsets: int = 2**22,
    lattice: ClosedSetLattice | None = None,
    cache: HolonomyCache | None = None,
) -> int:
    """Pick the cheapest applicable counter and return the bare value.

    With a precomputed lattice the Möbius counter is used directly, which is
    the fast path for evaluating one graph against many spin sets.
    """
    if lattice is not None:
        return count_mobius(g, a, lattice=lattice, cache=cache).value
    brute_cost = a.size ** g.vertex_count
    subset_cost = 2 ** len(g.edges)
    if brute_cost <= min(subset_cost, max_states):
        return count_brute(g, a, max_states=max_states).value
    if subset_cost <= max_subsets:
        return count_inclexcl(g, a, max_subsets=max_subsets, cache=cache).value
    return count_brute(g, a, max_states=max_states).value


def theta(g: GainGraph, a: SpinAction) -> Fraction:
    """The count of totally frustrated states divided by |Q| to the power of
    the number of balanced components, as an exact rational."""
    b = balanced_component_count(g)
    chi = count_auto(g, a)
    if a.size == 0 and b > 0:
        raise ValueError("theta is undefined for an empty spin set on a graph with balanced components")
    return Fraction(chi, a.size**b if b else 1)


@dataclass
class MethodReport:
    """Outcome of running every counter on one instance."""

    results: dict[str, CountResult] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def agree(self) -> bool:
        values = {r.value for r in self.results.values()}
        return bool(self.results) and len(values) == 1

    @property
    def value(self) -> int | None:
        values = {r.value for r in self.results.values()}
        return values.pop() if len(values) == 1 else None


# Counter name -> runner, in report order.  A runner takes the graph, the
# action and verify_all's bound keywords.  The runners are lambdas so that each
# call looks count_* up in this module's globals, where perfbench's tracer
# rebinds them.
COUNTERS = {
    "brute": lambda g, a, max_states=10**8, **_: count_brute(g, a, max_states=max_states),
    "delcon": lambda g, a, max_calls=10**6, **_: count_delcon(g, a, max_calls=max_calls),
    "inclexcl": lambda g, a, max_subsets=2**22, **_: count_inclexcl(g, a, max_subsets=max_subsets),
    "mobius": lambda g, a, max_lattice_edges=18, **_: count_mobius(g, a, max_edges=max_lattice_edges),
}


def verify_all(
    g: GainGraph,
    a: SpinAction,
    max_states: int = 10**8,
    max_calls: int = 10**6,
    max_subsets: int = 2**22,
    max_lattice_edges: int = 18,
) -> MethodReport:
    """Run all four counters and report agreement; counters that overrun
    their bounds are recorded instead of raising."""
    report = MethodReport()
    for name, run in COUNTERS.items():
        try:
            report.results[name] = run(
                g,
                a,
                max_states=max_states,
                max_calls=max_calls,
                max_subsets=max_subsets,
                max_lattice_edges=max_lattice_edges,
            )
        except BoundExceeded as exc:
            report.errors[name] = str(exc)
    return report
