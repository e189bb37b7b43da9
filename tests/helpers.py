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
)


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
