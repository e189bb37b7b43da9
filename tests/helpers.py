"""Shared test utilities: independent oracles and alternative constructions.

Everything here recomputes results from first principles (full enumeration,
no pruning, no holonomy machinery) so package code is checked against a
genuinely separate route.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from gainchroma import (
    GainGraph,
    HolonomyContext,
    SpinAction,
    UniPoly,
    component_subgroup,
    components,
    fixed_set,
    gain_graph,
    holonomy_group,
    is_holonomy_closed,
)
from gainchroma.counting import _elim_order


def naive_count(graph: GainGraph, action: SpinAction) -> int:
    """Totally frustrated states by exhaustive product enumeration."""
    act = action.act
    total = 0
    for state in itertools.product(range(action.size), repeat=graph.vertex_count):
        if all(act[state[e.u]][e.gain] != state[e.v] for e in graph.edges):
            total += 1
    return total


def all_states(graph: GainGraph, action: SpinAction):
    return itertools.product(range(action.size), repeat=graph.vertex_count)


def dfs_forest(graph: GainGraph, subset) -> frozenset[int]:
    """A maximal forest chosen depth-first with edges in reversed id order,
    deliberately different from the library's breadth-first choice."""
    subset = frozenset(subset)
    touched = sorted(
        {w for eid in subset for w in (graph.edge(eid).u, graph.edge(eid).v)}
    )
    visited: set[int] = set()
    forest: set[int] = set()
    for start in touched:
        if start in visited:
            continue
        visited.add(start)
        stack = [start]
        while stack:
            w = stack[-1]
            advanced = False
            for eid in reversed(graph.incident_ids(w)):
                if eid not in subset:
                    continue
                e = graph.edge(eid)
                other = e.v if e.u == w else e.u
                if other not in visited:
                    visited.add(other)
                    forest.add(eid)
                    stack.append(other)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
    return frozenset(forest)


def random_graph(rng: random.Random, group, max_vertices=4, max_edges=6) -> GainGraph:
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    triples = [
        (rng.randrange(n), rng.randrange(n), rng.randrange(group.order))
        for _ in range(m)
    ]
    return gain_graph(group, n, triples)


def powerset(ids):
    ids = sorted(ids)
    for r in range(len(ids) + 1):
        yield from (frozenset(c) for c in itertools.combinations(ids, r))


def oracle_inclexcl(graph: GainGraph, action: SpinAction) -> int:
    """Inclusion-exclusion with a breadth-first split and a fresh holonomy
    context per subset: the path the subset walk replaced."""
    total = 0
    for subset in powerset(graph.edge_ids):
        split = components(graph, subset)
        term = (-1) ** len(subset) * action.size ** len(split.isolated)
        for comp in split.edge_sets:
            term *= len(fixed_set(action, component_subgroup(graph, comp)))
        total += term
    return total


def oracle_closed_sets(graph: GainGraph):
    """``(sets, mobius_from_bottom, bottomless)`` as the subset walk must
    give them, from a per-subset split, a holonomy context per component and
    the recursion mu(A) = -sum of mu(B) over closed B strictly inside A."""
    mul, inv = graph.group.mul, graph.group.inv
    identity_loops = [e for e in graph.edges if e.is_loop and e.gain == 0]

    def component_is_closed(conn) -> bool:
        ctx = HolonomyContext(graph, conn)
        subgroup = holonomy_group(ctx, 0)
        verts = ctx.split.vertex_sets[0]
        psi = ctx.psi
        for e in graph.edges:
            if e.id in conn or e.u not in verts or e.v not in verts:
                continue
            if mul[mul[psi[e.u]][e.gain]][inv[psi[e.v]]] in subgroup:
                return False
        return True

    closed = []
    for subset in powerset(graph.edge_ids):
        split = components(graph, subset)
        covered = set().union(*split.vertex_sets)
        if any(l.id not in subset and l.u not in covered for l in identity_loops):
            continue
        if all(component_is_closed(comp) for comp in split.edge_sets):
            closed.append(subset)
    closed.sort(key=lambda s: (len(s), tuple(sorted(s))))
    bottomless = closed[0] != frozenset()
    mobius = {}
    if not bottomless:
        for a in closed:
            mobius[a] = 1 if not a else -sum(mu for b, mu in mobius.items() if b < a)
    return tuple(closed), mobius, bottomless


def oracle_lattice_sum(lattice, factor, isolated, zero=0):
    """``counting.lattice_sum`` folded over the closed sets one by one, each
    with its own Möbius value: the path the grouped terms replaced."""
    factors = {}
    total = zero
    for subset, lone, subgroups in zip(lattice.sets, lattice.isolated, lattice.subgroups, strict=True):
        weight = lattice.mobius_from_bottom[subset]
        if weight == 0:
            continue
        term = weight * isolated**lone
        for subgroup in subgroups:
            if term == 0:
                break
            f = factors.get(subgroup)
            if f is None:
                f = factors[subgroup] = factor(subgroup)
            term = term * f
        total = total + term
    return total


def oracle_interpolate(points) -> UniPoly:
    """Lagrange interpolation through exact rational points: the path
    Newton's divided differences replaced."""
    total = UniPoly.zero()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = UniPoly.constant(1)
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = basis * UniPoly((-xj, 1))
            denom *= xi - xj
        total = total + basis * (Fraction(yi) / denom)
    return total


def oracle_elim(graph: GainGraph, action: SpinAction):
    """``count_elim`` without the pin: every placed vertex tries every spin
    its loops leave it.  Returns ``(value, stats)``."""
    steps, sizes = _elim_order(graph)
    q = action.size
    act, inv = action.act, graph.group.inv
    loop_gains = [set() for _ in range(graph.vertex_count)]
    into = [[] for _ in range(graph.vertex_count)]
    for e in graph.edges:
        if e.is_loop:
            loop_gains[e.u].add(e.gain)
        else:
            into[e.v].append((e.u, e.gain))
            into[e.u].append((e.v, inv[e.gain]))
    frontier = []
    table = {(): 1}
    peak = 1
    transitions = 0
    for v, gone in steps:
        pos = {u: i for i, u in enumerate(frontier)}
        backs = {(pos[u], h) for u, h in into[v] if u in pos}
        keep = [i for i, u in enumerate(frontier) if u not in gone]
        kept = v not in gone
        frontier = [frontier[i] for i in keep] + [v] * kept
        domain = [s for s in range(q) if all(act[s][h] != s for h in loop_gains[v])]
        transitions += len(table) * len(domain)
        new = {}
        for spins, count in table.items():
            forbidden = {act[spins[i]][h] for i, h in backs}
            head = tuple(spins[i] for i in keep)
            for s in domain:
                if s not in forbidden:
                    k = head + (s,) * kept
                    new[k] = new.get(k, 0) + count
        table = new
        if not table:
            break
        peak = max(peak, len(table))
    return table.get((), 0), {"width": max(sizes, default=0), "peak_states": peak, "transitions": transitions}


def oracle_satisfied_closure(inst, state_cap=10**5, samples=100, rng=None, closed=is_holonomy_closed):
    """``harness.check_satisfied_closure`` as a loop over
    ``itertools.product`` that builds each state's satisfied set: the path
    the mask walk replaced.  Returns ``(passed, detail)``."""
    g, a = inst.graph, inst.action
    n, q = g.vertex_count, a.size
    if q**n <= state_cap:
        states = itertools.product(range(q), repeat=n)
    else:
        rng = rng or random.Random(0)
        states = (tuple(rng.randrange(q) for _ in range(n)) for _ in range(samples))
    verdicts = {}
    for state in states:
        sat = frozenset(e.id for e in g.edges if a.act[state[e.u]][e.gain] == state[e.v])
        if sat not in verdicts:
            verdicts[sat] = closed(g, sat)
        if not verdicts[sat]:
            return False, f"state {state} satisfies non-closed set {sorted(sat)}"
    return True, ""
