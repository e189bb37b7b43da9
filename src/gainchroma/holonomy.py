"""Holonomy of edge sets: fundamental-walk gains through a maximal forest,
the subgroups they generate, holonomy closure, the Möbius function of the
family of closed sets, and the signed sum over all edge subsets grouped by
their component subgroups.

The holonomy of a non-forest edge e: u->v in a connected edge set is
psi(u) * gain(e) * psi(v)^-1 where psi is the tree-path gain from the
component's base vertex.  Everything observable (the subgroup up to
conjugacy, fixed-set sizes, closure membership) is independent of the forest
and base choices; the choices here are the breadth-first forest and the
smallest vertex, purely for reproducibility.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, groupby
from typing import Callable, Iterable

from .groups import BoundExceeded, generate_subgroup
from .graphs import GainGraph, normalize_edge_subset, touched_core, traverse
from .graphs import components  # noqa: F401  perfbench's tracer rebinds it in this namespace


class HolonomyContext:
    """Forest, base vertices, and tree-path gains for one edge set.

    The forest is ``traverse``'s breadth-first one and each component's base
    its smallest vertex.  ``psi[v]`` is the gain of the tree path from v's
    component base to v.
    """

    __slots__ = ("graph", "split", "forest", "bases", "psi", "comp_of")

    def __init__(self, graph: GainGraph, subset: Iterable[int] | None):
        self.graph = graph
        self.split, self.forest, self.psi = traverse(graph, subset)
        self.bases = tuple(min(verts) for verts in self.split.vertex_sets)
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

    No package code builds it.  It stays only because perfbench's tracer
    hooks ``HolonomyCache.subgroup``; ROADMAP item 11 deletes it once
    perfbench reads a trace from the package.
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


def holonomy_closure(graph: GainGraph, subset: Iterable[int] | None = None) -> frozenset[int]:
    """Edges of the graphic closure whose fundamental-walk gain lies in the
    holonomy group of their component.

    An edge e: u->v with both ends in one component of the subset joins when
    psi(u) * gain(e) * psi(v)^-1 lies in that component's group; a loop is
    the case u = v.  A vertex the subset leaves uncovered is a component with
    trivial group and no edges, so an edge at it joins exactly when it is a
    loop with identity gain.
    """
    s = normalize_edge_subset(graph, subset)
    ctx = HolonomyContext(graph, s)
    groups = [holonomy_group(ctx, j) for j in range(len(ctx.split.edge_sets))]
    mul, inv = graph.group.mul, graph.group.inv
    psi, comp_of = ctx.psi, ctx.comp_of
    out = set(s)
    for e in graph.edges:
        if e.id in s:
            continue
        j = comp_of.get(e.u)
        if j is None:
            joins = e.is_loop and e.gain == 0
        else:
            joins = j == comp_of.get(e.v) and mul[mul[psi[e.u]][e.gain]][inv[psi[e.v]]] in groups[j]
        if joins:
            out.add(e.id)
    return frozenset(out)


def is_holonomy_closed(graph: GainGraph, subset: Iterable[int] | None = None) -> bool:
    """True when the edge set is its own holonomy closure."""
    s = normalize_edge_subset(graph, subset)
    return holonomy_closure(graph, s) == s


class _EdgeWalk:
    """Include/exclude walk over every edge subset of one graph.

    Bit i of a mask stands for the i-th smallest edge id.  The state is a
    union-find with rollback over the vertices (union by size, no path
    compression): ``up[v]`` is the gain of the tree path from ``parent[v]``
    to v, and ``sub[r]`` is the id of the holonomy subgroup of root r's
    component, taken at r.  Every vertex starts as a root with the trivial
    group, so a vertex the subset leaves isolated is a component with
    trivial holonomy.  The state covers only the vertices some edge touches,
    as ``graphs.touched_core`` relabels them; every other vertex is
    isolated in every subset.

    Subgroups get ids as the walk meets them: ``subgroups[h]`` holds the
    elements of subgroup h and ``orders[h]`` their number.  Joining a
    subgroup with one element is memoized; no subgroup table is built up
    front.
    """

    def __init__(self, graph: GainGraph):
        self.graph = graph
        n, self.edges = touched_core(graph)
        self.parent = list(range(n))
        self.up = [0] * n
        self.size = [1] * n
        self.sub = [0] * n
        self.subgroups: list[frozenset[int]] = [frozenset({0})]
        self.orders = [1]
        self._gens: list[tuple[int, ...]] = [()]
        self._ids = {self.subgroups[0]: 0}
        self._joins: dict[int, int] = {}

    def join(self, h: int, x: int) -> int:
        """Id of the subgroup generated by subgroup ``h`` and element ``x``."""
        key = h * self.graph.group.order + x
        got = self._joins.get(key)
        if got is None:
            if x in self.subgroups[h]:
                got = h
            else:
                gens = self._gens[h] + (x,)
                elems = generate_subgroup(self.graph.group, gens)
                got = self._ids.get(elems)
                if got is None:
                    got = self._ids[elems] = len(self.subgroups)
                    self.subgroups.append(elems)
                    self.orders.append(len(elems))
                    self._gens.append(gens)
            self._joins[key] = got
        return got

    def run(self, leaf: Callable[[int, int, int], None], keep_closed: bool = False):
        """Call ``leaf(mask, sign, level)`` for the edge subsets B the walk
        reaches, with the state describing B, sign = (-1)**|B| or 0 (below)
        and level = f(B).  Each edge is included before it is excluded, so
        a leaf's supersets that are leaves come before it.

        At an edge e whose ends already share a component, and whose
        holonomy already lies in that component's subgroup, e lies in the
        closure of the edges chosen before it: the state with e equals the
        state without it, and the two halves below differ only in e and in
        sign.  The walk drops both halves, whose leaves cancel in pairs
        (Whitney's broken-circuit argument, applied to Zaslavsky's balanced
        expansion).  With ``keep_closed`` it walks the half with e at sign 0
        and drops only the half without e, where e lies in the closure of
        every set, so no closed set is lost.  Then a leaf B that is not
        closed has a leaf B | e before it with e in its closure: take e the
        last edge of cl(B) outside B.  At each edge up to e, the path of
        B | e is that of B, and a later edge dropped from the path of B | e
        would lie in cl(B) outside B.

        The level is f(B) = (t - c) * (|G| + 1) + the sum of |H| over the
        components of B, where t counts the touched vertices, c the
        components (a touched vertex B leaves isolated is one) and H is a
        component's holonomy subgroup.  |H| does not change under
        conjugation, so f depends on B alone.  Take an edge e outside B.  If
        e lies in the holonomy closure of B, including it changes no
        component and no subgroup, so f(B | e) = f(B).  Otherwise f rises:
        a subgroup that grows strictly grows by at least 1, and a merge adds
        |G| + 1 for the lost component and loses at most |H| <= |G| of the
        component that goes under.  So e lies in the closure of B exactly
        when f(B | e) = f(B).  The walk updates f at each include step."""
        edges, m = self.edges, len(self.edges)
        parent, up, size, sub, orders = self.parent, self.up, self.size, self.sub, self.orders
        mul, inv = self.graph.group.mul, self.graph.group.inv
        join, gens = self.join, self._gens
        merge = self.graph.group.order + 1

        # the last edge calls the leaves itself, which saves a call per leaf
        last = m - 1

        def descend(i: int, mask: int, sign: int, level: int):
            ru, rv, gain = edges[i]
            # climb from each end to its root; hu and hv are the gains of
            # the tree paths from the roots down to the ends
            hu = hv = 0
            while parent[ru] != ru:
                hu = mul[up[ru]][hu]
                ru = parent[ru]
            while parent[rv] != rv:
                hv = mul[up[rv]][hv]
                rv = parent[rv]
            # the holonomy of the edge, or the gain from ru to rv through it
            t = mul[mul[hu][gain]][inv[hv]]
            if ru == rv:
                before = sub[ru]
                h = join(before, t)
                if h == before:
                    # the edge changes nothing, so the two halves pair off
                    if keep_closed:
                        if i < last:
                            descend(i + 1, mask | 1 << i, 0, level)
                        else:
                            leaf(mask | 1 << i, 0, level)
                    return
                sub[ru] = h
                rise = orders[h] - orders[before]
            else:
                if size[ru] < size[rv]:
                    ru, rv, t = rv, ru, inv[t]
                # rv goes under ru, so its group is seen from ru through t
                before = h = sub[ru]
                t_inv = inv[t]
                for y in gens[sub[rv]]:
                    h = join(h, mul[mul[t][y]][t_inv])
                parent[rv], up[rv], sub[ru] = ru, t, h
                size[ru] += size[rv]
                rise = merge + orders[h] - orders[before] - orders[sub[rv]]
            if i < last:
                descend(i + 1, mask | 1 << i, -sign, level + rise)
            else:
                leaf(mask | 1 << i, -sign, level + rise)
            if ru != rv:
                size[ru] -= size[rv]
                parent[rv], up[rv] = rv, 0
            sub[ru] = before
            if i < last:
                descend(i + 1, mask, sign, level)
            else:
                leaf(mask, sign, level)

        try:
            if m:
                descend(0, 0, 1, len(parent))
            else:
                leaf(0, 1, len(parent))
        finally:
            # descend's closure refers to descend; break that cycle, so the
            # walk's tables are freed with the walk and not by the collector
            descend = None


def signed_subset_sum(graph: GainGraph, factor: Callable[[frozenset[int]], int]) -> tuple[int, int]:
    """Sum over all edge subsets of (-1)**|subset| times the product of
    ``factor(H)`` over the subset's components, H being the component's
    holonomy subgroup; a vertex the subset leaves isolated is a component
    with H trivial.  H is taken at some base vertex of its component, so
    ``factor`` must not change under conjugation.  It is called once per
    distinct subgroup, the trivial one always.  Returns the sum and the
    number of leaves the walk reached.

    The walk drops the pairs of subsets that differ by an edge of the
    closure of the edges before it, whose terms cancel; when the graph has
    an identity loop every subset pairs off and the sum is 0.  The leaves
    visit only the vertices some edge touches; the others are isolated in
    every subset, so their factors multiply the total once."""
    walk = _EdgeWalk(graph)
    parent, sub, members = walk.parent, walk.sub, walk.subgroups
    vertices = range(len(parent))
    factors = [factor(members[0])]
    total = leaves = 0

    def leaf(mask: int, sign: int, _level: int):
        nonlocal total, leaves
        leaves += 1
        while len(factors) < len(members):
            factors.append(factor(members[len(factors)]))
        term = sign
        for r in vertices:
            if parent[r] == r:
                term *= factors[sub[r]]
        total += term

    walk.run(leaf)
    return total * factors[0] ** (graph.vertex_count - len(parent)), leaves


# One ``(mu, ((H, times), ...))`` per multiset of component subgroups, H
# occurring ``times`` times: the shape that ``counting.lattice_sum`` folds.
Terms = tuple[tuple[int, tuple[tuple[frozenset[int], int], ...]], ...]


def _group_terms(sums: dict[tuple[frozenset[int], ...], int]) -> Terms:
    """``sums`` as ``Terms``, in its order, leaving out the multisets whose
    mu is 0.  A key lists one subgroup per component, equal subgroups next
    to each other."""
    return tuple(
        (mu, tuple((h, len(list(run))) for h, run in groupby(subgroups)))
        for subgroups, mu in sums.items()
        if mu
    )


@dataclass(frozen=True)
class ClosedSetLattice:
    """All holonomy-closed edge sets of a graph, with Möbius values from the
    bottom.

    ``masks`` holds the closed sets as edge masks, bit i standing for
    ``ids[i]``, the i-th smallest edge id; they are sorted by size, then
    lexicographically by sorted ids.  ``mobius[j]`` is the Möbius value of
    ``masks[j]``.  When the empty set is not closed (the graph has an
    identity loop) the lattice is flagged bottomless and carries no Möbius
    values; every state satisfies an identity loop, so all counting built
    on this lattice is zero.  ``sets`` gives the masks as frozensets of edge
    ids, built on first use.

    A vertex is touched when some edge of the graph has it as an end.
    ``untouched`` counts the other vertices, which every set leaves
    isolated.  ``subgroups[j]`` holds the holonomy subgroup of each
    component of ``masks[j]`` over the touched vertices, each taken at some
    base vertex of the component (so known up to conjugacy); a touched
    vertex the set leaves isolated is a component with the trivial group.
    The subgroups of a set come in one fixed order of the distinct
    subgroups, so sets with equal multisets have equal tuples.  ``terms``
    groups the closed sets by them, for folds whose summand depends on
    nothing else.
    """

    ids: tuple[int, ...]
    masks: tuple[int, ...]
    mobius: tuple[int, ...]
    bottomless: bool
    untouched: int
    subgroups: tuple[tuple[frozenset[int], ...], ...]

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        """The closed sets as frozensets of edge ids, in the order of ``masks``."""
        bits = [1 << i for i in range(len(self.ids))]
        return tuple(frozenset(compress(self.ids, map(mask.__and__, bits))) for mask in self.masks)

    @cached_property
    def terms(self) -> Terms:
        """One ``(mu, ((H, times), ...))`` per group of closed sets with the
        same multiset of component subgroups, H occurring ``times`` times;
        mu is the sum of the group's Möbius values, and groups whose sum is
        0 are left out.  Groups come in the order of their first set in
        ``masks``.  Empty for a bottomless lattice."""
        sums: dict[tuple[frozenset[int], ...], int] = {}
        for mu, subgroups in zip(self.mobius, self.subgroups):
            sums[subgroups] = sums.get(subgroups, 0) + mu
        return _group_terms(sums)


# The most edges a graph may have for ``enumerate_closed_sets``, whose walk
# may visit all 2**m edge subsets and keeps two tables of 2**m ints, and for
# ``subset_terms``, whose walk may visit as many; every consumer of either
# is bounded by it.
LATTICE_EDGE_LIMIT = 18


def _check_edge_limit(graph: GainGraph):
    m = len(graph.edges)
    if m > LATTICE_EDGE_LIMIT:
        raise BoundExceeded(f"{m} edges exceed the edge-subset walk limit {LATTICE_EDGE_LIMIT}")


@dataclass(frozen=True)
class SubsetTerms:
    """Zaslavsky's balanced expansion of a graph, grouped as
    ``ClosedSetLattice.terms`` groups the closed sets: ``terms`` holds one
    ``(mu, ((H, times), ...))`` per multiset of component subgroups over
    the touched vertices, mu being the sum of (-1)**|B| over the edge
    subsets B with that multiset, and ``untouched`` counts the vertices no
    edge touches.

    A subset and its holonomy closure have the same components and the same
    subgroups, so by Rota's crosscut identity mu is also the sum of the
    Möbius values of the closed sets with that multiset.  Each subgroup is
    taken at some base vertex, so the two agree up to conjugacy, which no
    factor sees: ``counting.lattice_sum`` folds either one to the same
    value.
    """

    terms: Terms
    untouched: int


def subset_terms(graph: GainGraph) -> SubsetTerms:
    """Group the leaves of one walk over the edge subsets by the multiset
    of their component subgroups, adding up their signs.

    The walk drops the pairs of subsets that differ by an edge of the
    closure of the edges before it; both have the same multiset and
    opposite signs, so no sum changes.  With an identity loop every subset
    pairs off and there are no terms, as for a bottomless lattice.  Graphs
    with more than ``LATTICE_EDGE_LIMIT`` edges are refused before the walk.
    """
    _check_edge_limit(graph)
    walk = _EdgeWalk(graph)
    parent, sub, members = walk.parent, walk.sub, walk.subgroups
    vertices = range(len(parent))
    # keyed by the sorted subgroup ids of the roots
    sums: dict[tuple[int, ...], int] = {}

    def leaf(mask: int, sign: int, _level: int):
        key = tuple(sorted([sub[r] for r in vertices if parent[r] == r]))
        sums[key] = sums.get(key, 0) + sign

    walk.run(leaf)
    named = {tuple(members[h] for h in ids): mu for ids, mu in sums.items()}
    return SubsetTerms(_group_terms(named), graph.vertex_count - len(parent))


def enumerate_closed_sets(graph: GainGraph) -> ClosedSetLattice:
    """Find the holonomy-closed sets in one walk over the edge subsets B,
    reading the closure of each off the walk's level, and read off the
    Möbius values by Rota's crosscut identity mu(empty, A) = sum of
    (-1)**|B| over B with closure A.

    The walk runs with ``keep_closed``: it drops the pairs of subsets that
    differ by an edge e of the closure of the edges before e, except that it
    walks the half with e at sign 0.  The dropped half holds no closed set,
    and its crosscut terms cancel those of the half with e.  An edge e
    outside B lies in the closure of B exactly when the level of B | e
    equals that of B (see ``_EdgeWalk.run``), and a leaf B that is not
    closed has such a B | e among the leaves before it.  For the first one,
    B <= B | e <= cl(B) gives cl(B) = cl(B | e), which is already known;
    with none, B is closed.  A dropped mask keeps level 0, which no leaf's
    level equals, as each component adds |H| >= 1.  So a leaf compares
    stored levels and never looks up a vertex; a closed set records the
    subgroup id of every root, in sorted order.  Graphs with more than
    ``LATTICE_EDGE_LIMIT`` edges are refused before the walk.
    """
    _check_edge_limit(graph)
    m = len(graph.edges)
    walk = _EdgeWalk(graph)
    parent, sub, members = walk.parent, walk.sub, walk.subgroups
    vertices = range(len(parent))
    bits = [1 << i for i in range(m)]
    # per leaf mask: its level, and the index in ``closed`` of its closure
    level = array("i", bytes(4 << m))
    where = array("i", bytes(4 << m))
    # per closed set: its mask and the sorted subgroup ids of its components
    closed: list[tuple[int, tuple[int, ...]]] = []
    mu: list[int] = []

    def leaf(mask: int, sign: int, lv: int):
        level[mask] = lv
        for bit in bits:
            if not mask & bit and level[mask | bit] == lv:
                j = where[mask | bit]
                break
        else:
            j = len(closed)
            closed.append((mask, tuple(sorted([sub[r] for r in vertices if parent[r] == r]))))
            mu.append(0)
        where[mask] = j
        mu[j] += sign

    walk.run(leaf, keep_closed=True)
    # The walk meets sets of one size in the lexicographic order of their
    # sorted ids, as it includes an edge before it excludes it; so a stable
    # sort by size puts them in the order of ``ClosedSetLattice.masks``.
    order = sorted(range(len(closed)), key=lambda j: closed[j][0].bit_count())
    bottomless = closed[order[0]][0] != 0
    # sets with equal ids share one tuple of subgroups
    named = {ids: tuple(members[h] for h in ids) for ids in {ids for _, ids in closed}}
    return ClosedSetLattice(
        tuple(sorted(e.id for e in graph.edges)),
        tuple(closed[j][0] for j in order),
        () if bottomless else tuple(mu[j] for j in order),
        bottomless,
        graph.vertex_count - len(parent),
        tuple(named[closed[j][1]] for j in order),
    )
