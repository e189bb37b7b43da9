"""Holonomy of edge sets: fundamental-walk gains through a maximal forest,
the subgroups they generate, fixed-spin counts, holonomy closure, and the
Möbius function of the family of closed sets.

The holonomy of a non-forest edge e: u->v in a connected edge set is
psi(u) * gain(e) * psi(v)^-1 where psi is the tree-path gain from the
component's base vertex.  Everything observable (the subgroup up to
conjugacy, fixed-set sizes, closure membership) is independent of the forest
and base choices; the defaults here are the breadth-first forest and the
smallest vertex, purely for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .groups import BoundExceeded, SpinAction, fixed_set, generate_subgroup
from .graphs import GainGraph, components, normalize_edge_subset, traverse


class HolonomyContext:
    """Forest, base vertices, and tree-path gains for one edge set.

    ``forest`` and ``bases`` may be overridden (the observable results must
    not change; tests rely on that to compare forest and basepoint choices).
    ``psi[v]`` is the gain of the tree path from v's component base to v.
    """

    __slots__ = ("graph", "subset", "split", "forest", "bases", "psi", "comp_of")

    def __init__(
        self,
        graph: GainGraph,
        subset: Iterable[int] | None,
        forest: Iterable[int] | None = None,
        bases: Iterable[int] | None = None,
    ):
        self.graph = graph
        self.subset = normalize_edge_subset(graph, subset)
        self.split, self.forest, self.psi = traverse(graph, self.subset)
        self.bases = tuple(min(verts) for verts in self.split.vertex_sets)
        if forest is not None:
            self.forest = frozenset(forest)
            if not self.forest <= self.subset:
                raise ValueError("forest must be a subset of the edge set")
        if bases is not None:
            self.bases = tuple(bases)
            if len(self.bases) != len(self.split.edge_sets):
                raise ValueError("need exactly one base vertex per component")
            for base, verts in zip(self.bases, self.split.vertex_sets):
                if base not in verts:
                    raise ValueError(f"base {base} does not lie in its component")
        if forest is not None or bases is not None:
            _, tree, self.psi = traverse(graph, self.forest, self.bases)
            # Every forest edge is a tree edge of the search, so the forest is
            # cycle-free; with the rank of the edge set it is also maximal.
            rank = sum(len(verts) - 1 for verts in self.split.vertex_sets)
            if tree != self.forest or len(tree) != rank:
                raise ValueError("forest is not maximal and cycle-free in the edge set")
        self.comp_of = {}
        for j, verts in enumerate(self.split.vertex_sets):
            for w in verts:
                self.comp_of[w] = j


def holonomy_generators(ctx: HolonomyContext, component: int) -> tuple[int, ...]:
    """Fundamental-walk gains of the component's non-forest edges, in edge-id
    order.  A generator is the identity exactly when its walk is balanced."""
    comp = ctx.split.edge_sets[component]
    g = ctx.graph
    mul, inv = g.group.mul, g.group.inv
    psi = ctx.psi
    gens = []
    for eid in sorted(comp - ctx.forest):
        e = g.edge(eid)
        gens.append(mul[mul[psi[e.u]][e.gain]][inv[psi[e.v]]])
    return tuple(gens)


def holonomy_group(ctx: HolonomyContext, component: int) -> frozenset[int]:
    """Subgroup generated by the component's holonomy generators."""
    return generate_subgroup(ctx.graph.group, holonomy_generators(ctx, component))


def component_subgroup(graph: GainGraph, conn: Iterable[int]) -> frozenset[int]:
    """Holonomy subgroup of a connected edge set, with canonical choices.

    The empty set designates an isolated vertex and has trivial holonomy.
    """
    conn = normalize_edge_subset(graph, conn)
    if not conn:
        return frozenset({0})
    ctx = HolonomyContext(graph, conn)
    if len(ctx.split.edge_sets) != 1:
        raise ValueError("edge set is not connected")
    return holonomy_group(ctx, 0)


class HolonomyCache:
    """Memo of holonomy subgroups per connected edge set of one fixed graph.

    Purely an accelerator for repeated counting over the same graph; results
    are identical with or without it.
    """

    __slots__ = ("graph", "_subgroups")

    def __init__(self, graph: GainGraph):
        self.graph = graph
        self._subgroups: dict[frozenset[int], frozenset[int]] = {}

    def subgroup(self, conn: frozenset[int]) -> frozenset[int]:
        got = self._subgroups.get(conn)
        if got is None:
            got = component_subgroup(self.graph, conn)
            self._subgroups[conn] = got
        return got


def h_fixed_count(
    graph: GainGraph,
    action: SpinAction,
    conn: Iterable[int],
    cache: HolonomyCache | None = None,
) -> int:
    """Number of spins fixed by the holonomy group of a connected edge set.

    For the empty set (an isolated vertex) the group is trivial and the
    answer is the whole spin count.
    """
    if action.group != graph.group:
        raise ValueError("action and graph use different groups")
    conn = normalize_edge_subset(graph, conn)
    if not conn:
        return action.size
    subgroup = cache.subgroup(conn) if cache is not None else component_subgroup(graph, conn)
    return len(fixed_set(action, subgroup))


def holonomy_closure(graph: GainGraph, subset: Iterable[int] | None = None) -> frozenset[int]:
    """Edges of the graphic closure whose fundamental-walk gain lies in the
    holonomy group of their component.

    A candidate link must have both endpoints inside one component of the
    subset (otherwise it is not even in the graphic closure).  A loop at a
    covered vertex is tested against that component's group; a loop at an
    uncovered vertex sees a trivial group, so it enters the closure exactly
    when its gain is the identity.
    """
    s = normalize_edge_subset(graph, subset)
    ctx = HolonomyContext(graph, s)
    groups = [holonomy_group(ctx, j) for j in range(len(ctx.split.edge_sets))]
    mul, inv = graph.group.mul, graph.group.inv
    psi = ctx.psi
    out = set(s)
    for e in graph.edges:
        if e.id in s:
            continue
        ju = ctx.comp_of.get(e.u)
        if e.is_loop:
            if ju is None:
                if e.gain == 0:
                    out.add(e.id)
            else:
                hol = mul[mul[psi[e.u]][e.gain]][inv[psi[e.u]]]
                if hol in groups[ju]:
                    out.add(e.id)
        else:
            if ju is not None and ju == ctx.comp_of.get(e.v):
                hol = mul[mul[psi[e.u]][e.gain]][inv[psi[e.v]]]
                if hol in groups[ju]:
                    out.add(e.id)
    return frozenset(out)


def is_holonomy_closed(graph: GainGraph, subset: Iterable[int] | None = None) -> bool:
    """True when the edge set is its own holonomy closure."""
    s = normalize_edge_subset(graph, subset)
    return holonomy_closure(graph, s) == s


@dataclass(frozen=True)
class ClosedSetLattice:
    """All holonomy-closed edge sets of a graph, with Möbius values from the
    bottom.

    ``sets`` is sorted by size then lexicographically by sorted ids.  When
    the empty set is not closed (the graph has an identity loop) the lattice
    is flagged bottomless and carries no Möbius values; every state satisfies
    an identity loop, so all counting built on this lattice is zero.
    """

    sets: tuple[frozenset[int], ...]
    mobius_from_bottom: dict[frozenset[int], int]
    bottomless: bool


def enumerate_closed_sets(graph: GainGraph, max_edges: int = 18) -> ClosedSetLattice:
    """Filter the power set of edges down to the holonomy-closed sets and
    compute mu(empty, A) by direct recursion over containment."""
    ids = sorted(graph.edge_ids)
    m = len(ids)
    if m > max_edges:
        raise BoundExceeded(f"{m} edges exceed the closed-set enumeration limit {max_edges}")
    mul, inv = graph.group.mul, graph.group.inv
    identity_loops = [e for e in graph.edges if e.is_loop and e.gain == 0]

    comp_closed: dict[frozenset[int], bool] = {}

    def component_is_closed(conn: frozenset[int]) -> bool:
        got = comp_closed.get(conn)
        if got is None:
            ctx = HolonomyContext(graph, conn)
            subgroup = holonomy_group(ctx, 0)
            verts = ctx.split.vertex_sets[0]
            psi = ctx.psi
            got = True
            for e in graph.edges:
                if e.id in conn or e.u not in verts or e.v not in verts:
                    continue
                hol = mul[mul[psi[e.u]][e.gain]][inv[psi[e.v]]]
                if hol in subgroup:
                    got = False
                    break
            comp_closed[conn] = got
        return got

    closed: list[tuple[int, frozenset[int]]] = []
    for mask in range(1 << m):
        subset = frozenset(ids[i] for i in range(m) if mask >> i & 1)
        split = components(graph, subset)
        covered = set()
        for verts in split.vertex_sets:
            covered |= verts
        if any(l.id not in subset and l.u not in covered for l in identity_loops):
            continue
        if all(component_is_closed(comp) for comp in split.edge_sets):
            closed.append((mask, subset))

    closed.sort(key=lambda pair: (len(pair[1]), tuple(sorted(pair[1]))))
    bottomless = not closed or closed[0][1] != frozenset()
    mobius: dict[frozenset[int], int] = {}
    if not bottomless:
        mu_by_mask: dict[int, int] = {}
        for mask, subset in closed:
            if mask == 0:
                mu = 1
            else:
                mu = -sum(
                    mu_by_mask[m2]
                    for m2, _ in closed
                    if m2 != mask and m2 & mask == m2 and m2 in mu_by_mask
                )
            mu_by_mask[mask] = mu
            mobius[subset] = mu
    return ClosedSetLattice(tuple(s for _, s in closed), mobius, bottomless)
