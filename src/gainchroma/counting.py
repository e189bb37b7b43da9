"""Five exact counters for totally frustrated states, the normalized theta
invariant, and a cross-method agreement report.

The counters are deliberately independent routes to the same number:

* brute: backtracking over states with early pruning,
* delcon: deletion-contraction recursion down to loops-only graphs,
* inclexcl: alternating sum of fixed-count products over all edge subsets,
* mobius: the same sum restricted to holonomy-closed sets, weighted by the
  Möbius function of their containment order,
* elim: a transfer matrix along a vertex order, keyed by the spins of the
  placed vertices that still have unplaced neighbours.

``count_auto`` runs elim when it is within its bounds, and brute or
inclexcl otherwise.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .groups import BoundExceeded, SpinAction, fixed_set, stabilizer_classes
from .graphs import GainGraph, balanced_component_count, contract_link, delete_edge
from .graphs import components  # noqa: F401  perfbench's tracer rebinds it in this namespace
from .holonomy import ClosedSetLattice, HolonomyCache, enumerate_closed_sets, signed_subset_sum


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


# The most links count_delcon takes on.  Its recursion goes one call deeper
# per link along the deletion branch, so this keeps it well under Python's
# default recursion limit of 1000, whatever the caller's own depth.
DELCON_LINK_LIMIT = 400


def count_delcon(g: GainGraph, a: SpinAction, max_calls: int = 10**6) -> CountResult:
    """Count by the deletion-contraction recursion on the lowest-id link.

    A loops-only graph is evaluated directly as the product, over vertices,
    of the number of spins not fixed by any incident loop gain.  The
    recursion is as deep as the graph has links, so more than
    ``DELCON_LINK_LIMIT`` are refused before the first call.
    """
    _check_compat(g, a)
    links = sum(not e.is_loop for e in g.edges)
    if links > DELCON_LINK_LIMIT:
        raise BoundExceeded(f"{links} links exceed the deletion-contraction depth limit {DELCON_LINK_LIMIT}")
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


def lattice_sum(
    lattice: ClosedSetLattice,
    factor: Callable[[frozenset[int]], Any],
    isolated: Any,
    zero: Any = 0,
):
    """The sum, over the closed sets of a lattice with a bottom, of the
    set's Möbius value times ``isolated`` per vertex it leaves isolated times
    ``factor(H)`` per component, where H is the component's holonomy
    subgroup.

    The summand depends only on the isolated count and the multiset of
    subgroups, so the sum runs over ``lattice.terms``, one product per group
    of closed sets.  ``factor`` is called once per distinct subgroup, and
    each power of a factor or of ``isolated`` is computed once.  The values
    may be ints or ``MultiPoly``; ``zero`` is the empty sum.
    """
    factor = functools.cache(factor)
    factor_power = functools.cache(lambda subgroup, times: factor(subgroup) ** times)
    isolated_power = functools.cache(lambda lone: isolated**lone)
    total = zero
    for weight, lone, parts in lattice.terms:
        term = weight * isolated_power(lone)
        for subgroup, times in parts:
            if term == 0:
                break
            term = term * factor_power(subgroup, times)
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
    components, times |Q| per vertex it leaves isolated.

    ``cache`` is accepted for compatibility and unused: the subset walk
    carries each component's subgroup along.
    """
    _check_compat(g, a)
    m = len(g.edges)
    if 2**m > max_subsets:
        raise BoundExceeded(f"2**{m} subsets exceed the inclusion-exclusion limit {max_subsets}")
    total = signed_subset_sum(g, lambda h: len(fixed_set(a, h)))
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
    satisfies) gives zero immediately.  ``cache`` is accepted for
    compatibility and unused: the lattice records each closed set's
    subgroups.
    """
    _check_compat(g, a)
    if lattice is None:
        lattice = enumerate_closed_sets(g, max_edges=max_edges)
    stats = {"closed_sets": len(lattice.sets)}
    if lattice.bottomless:
        return CountResult(0, "mobius", stats)
    total = lattice_sum(lattice, lambda h: len(fixed_set(a, h)), a.size)
    return CountResult(total, "mobius", stats)


def _elim_order(g: GainGraph) -> tuple[list[tuple[int, set[int]]], list[int]]:
    """A vertex order for ``count_elim``, one connected component after
    another, and the frontier size before each step.

    Each step is ``(v, gone)``: place v, then retire the vertices in
    ``gone`` (v itself among them when it has no unplaced neighbour), whose
    neighbours are now all placed.  A component starts at an unplaced vertex
    of least degree; then, greedily, the next vertex is a neighbour of the
    placed ones that leaves the smallest frontier, then the one with the
    most placed neighbours, then the lowest id.  Those keys only fall as
    vertices are placed, so a heap with stale entries skipped keeps the
    order O(m log m).
    """
    n = g.vertex_count
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for e in g.edges:
        if not e.is_loop:
            nbrs[e.u].add(e.v)
            nbrs[e.v].add(e.u)
    unplaced = [len(s) for s in nbrs]  # unplaced neighbours
    back = [0] * n  # placed neighbours
    retiring = [0] * n  # placed neighbours whose last unplaced neighbour this is
    placed = [False] * n

    def key(w: int) -> tuple[int, int, int]:
        return (1 - retiring[w] - (unplaced[w] == 0), -back[w], w)

    def last_unplaced(u: int) -> int:
        return next(x for x in nbrs[u] if not placed[x])

    starts = iter(sorted(range(n), key=lambda w: (unplaced[w], w)))
    heap: list[tuple[int, int, int]] = []
    steps: list[tuple[int, set[int]]] = []
    sizes: list[int] = []
    frontier = 0
    while len(steps) < n:
        while heap and (placed[heap[0][2]] or heap[0] != key(heap[0][2])):
            heapq.heappop(heap)
        v = heapq.heappop(heap)[2] if heap else next(w for w in starts if not placed[w])
        placed[v] = True
        sizes.append(frontier)
        gone: set[int] = set()
        touched = set()
        for u in nbrs[v]:
            unplaced[u] -= 1
            if not placed[u]:
                back[u] += 1
                touched.add(u)
            elif unplaced[u] == 0:
                gone.add(u)
            elif unplaced[u] == 1:
                x = last_unplaced(u)
                retiring[x] += 1
                touched.add(x)
        if unplaced[v] == 0:
            gone.add(v)
        elif unplaced[v] == 1:
            retiring[last_unplaced(v)] += 1
        for w in touched:
            heapq.heappush(heap, key(w))
        frontier += 1 - len(gone)
        steps.append((v, gone))
    return steps, sizes


# The most keys an elimination table may hold.  An entry takes about 160-260
# bytes (a tuple key and an int count), and two tables are alive at once, so
# this keeps count_elim's tables near 130 MB whatever ``max_states`` says.
ELIM_TABLE_LIMIT = 2**18


def _elim_pins(steps: list[tuple[int, set[int]]], sizes: list[int], q: int) -> set[int]:
    """The vertex ``count_elim`` pins in each connected component: the one
    that stays on the frontier over the most estimated work, the sum of
    q**(frontier + 1) over the steps from the one that places it to the one
    that retires it.

    The steps of a component are consecutive, and each starts with an empty
    frontier.  A vertex retired at its own step is never pinned: it never
    enters a table, so pinning it saves nothing, and an isolated vertex has
    no pin.
    """
    done = [0]  # done[t]: the estimated work of steps 0..t-1
    for f in sizes:
        done.append(done[-1] + q ** (f + 1))
    placed_at: dict[int, int] = {}
    pins: set[int] = set()
    best, best_work = None, 0
    for t, (v, gone) in enumerate(steps):
        if sizes[t] == 0 and best is not None:
            pins.add(best)
            best, best_work = None, 0
        placed_at[v] = t
        for u in sorted(gone - {v}):
            work = done[t + 1] - done[placed_at[u]]
            if work > best_work:
                best, best_work = u, work
    if best is not None:
        pins.add(best)
    return pins


def count_elim(g: GainGraph, a: SpinAction, max_states: int = 10**8) -> CountResult:
    """Count by a transfer matrix along ``_elim_order``'s vertex order.

    The table maps the spins of the frontier (placed vertices with an
    unplaced neighbour) to the number of frustrated partial states that
    extend them.  Each placed vertex takes the spins its loops leave it,
    except those its edges to placed vertices would satisfy.  A table holds
    at most |Q|**width keys, where width is the largest frontier, and the
    work is at most the sum over steps of |Q|**(frontier + 1).  Before any
    table is built, the first is checked against ``ELIM_TABLE_LIMIT`` and
    the second against ``max_states``, the same budget as brute's |Q|**|V|.

    One vertex per connected component, chosen by ``_elim_pins``, is
    pinned: it tries only the first spin of each ``stabilizer_classes``
    class, and the count of each table entry it enters is multiplied by the
    class size.  This is exact.  A permutation of the spins that commutes
    with the action maps frustrated states of a component to frustrated
    states, and for spins x, y with equal stabilizers one maps x to y, so
    every spin of a class begins as many frustrated states of the component
    at the pinned vertex.  Loops keep the pinned vertex's domain a union of
    classes, because gain h fixes x exactly when h is in Stab(x).

    ``stats["transitions"]`` counts table entries times spins tried, summed
    over the steps, and ``stats["peak_states"]`` the largest table.
    """
    _check_compat(g, a)
    n = g.vertex_count
    q = a.size
    steps, sizes = _elim_order(g)
    width = max(sizes, default=0)
    if q**width > ELIM_TABLE_LIMIT:
        raise BoundExceeded(f"{q}**{width} frontier states exceed the elimination table limit {ELIM_TABLE_LIMIT}")
    work = sum(q ** (f + 1) for f in sizes)
    if work > max_states:
        raise BoundExceeded(f"{work} elimination transitions exceed the limit {max_states}")
    pins = _elim_pins(steps, sizes, q)
    class_size = {spins[0]: len(spins) for spins in stabilizer_classes(a)} if pins else {}
    act = a.act
    inv = g.group.inv
    loop_gains: list[set[int]] = [set() for _ in range(n)]
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (other end, gain oriented towards v)
    for e in g.edges:
        if e.is_loop:
            loop_gains[e.u].add(e.gain)
        else:
            into[e.v].append((e.u, e.gain))
            into[e.u].append((e.v, inv[e.gain]))
    frontier: list[int] = []
    table: dict[tuple[int, ...], int] = {(): 1}
    peak = 1
    transitions = 0
    for v, gone in steps:
        pos = {u: i for i, u in enumerate(frontier)}
        backs = {(pos[u], h) for u, h in into[v] if u in pos}
        keep = [i for i, u in enumerate(frontier) if u not in gone]
        kept = v not in gone
        frontier = [frontier[i] for i in keep] + [v] * kept
        domain = [s for s in range(q) if all(act[s][h] != s for h in loop_gains[v])]
        pinned = v in pins
        if pinned:
            domain = [s for s in domain if s in class_size]
        allowed = set(domain)
        transitions += len(table) * len(domain)
        new: dict[tuple[int, ...], int] = {}
        for spins, count in table.items():
            forbidden = {act[spins[i]][h] for i, h in backs}
            head = tuple([spins[i] for i in keep])
            if kept:
                for s in domain:
                    if s not in forbidden:
                        k = head + (s,)
                        new[k] = new.get(k, 0) + count
            else:
                free = len(domain) - len(forbidden & allowed)
                if free:
                    new[head] = new.get(head, 0) + count * free
        if pinned:  # a pinned vertex is kept, so its spin ends each key
            new = {k: count * class_size[k[-1]] for k, count in new.items()}
        table = new
        if not table:
            break
        peak = max(peak, len(table))
    stats = {"width": width, "peak_states": peak, "transitions": transitions}
    return CountResult(table.get((), 0), "elim", stats)


def count_auto(
    g: GainGraph,
    a: SpinAction,
    max_states: int = 10**8,
    max_subsets: int = 2**22,
    lattice: ClosedSetLattice | None = None,
    cache: HolonomyCache | None = None,
) -> int:
    """Count with elim, or with brute or inclexcl when elim is over its
    bounds, and return the bare value.

    With a precomputed lattice the Möbius counter is used directly, which is
    the fast path for evaluating one graph against many spin sets.  Elim
    comes first: its table after each step holds the distinct frontier
    spins of the partial states that brute, placing vertices in the same
    order, would hold at that depth, so it never visits more.
    """
    if lattice is not None:
        return count_mobius(g, a, lattice=lattice, cache=cache).value
    try:
        return count_elim(g, a, max_states=max_states).value
    except BoundExceeded:
        pass
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
    "elim": lambda g, a, max_states=10**8, **_: count_elim(g, a, max_states=max_states),
}


def verify_all(
    g: GainGraph,
    a: SpinAction,
    max_states: int = 10**8,
    max_calls: int = 10**6,
    max_subsets: int = 2**22,
    max_lattice_edges: int = 18,
) -> MethodReport:
    """Run every counter in ``COUNTERS`` and report agreement; counters
    that overrun their bounds are recorded instead of raising."""
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
