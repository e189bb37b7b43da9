"""Gain graphs: multigraphs whose edges carry group-valued gains.

A gain is stored once per edge in a fixed u->v reference orientation and is
inverted when read against that orientation.  Vertices are integers
0..vertex_count-1 and edges carry stable integer ids that survive deletion
and contraction (ids are never reused or renumbered).

States are tuples assigning one spin per vertex; switchings are tuples
assigning one group element per vertex; edge subsets are frozensets of ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .groups import BoundExceeded, FiniteGroup, SpinAction


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    gain: int

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class SimpleGraph:
    """A plain undirected graph given by an edge list.

    Used as the template for expansions and for the ordinary chromatic
    polynomial.  Loops and parallel edges are tolerated.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((u, v) for u, v in self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) has an endpoint out of range")


class GainGraph:
    """Immutable multigraph over a finite group, with one gain per edge."""

    __slots__ = ("group", "vertex_count", "edges", "_by_id", "_incident", "_ids")

    def __init__(self, group: FiniteGroup, vertex_count: int, edges: Iterable[Edge]):
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        edge_tuple = tuple(edges)
        by_id: dict[int, Edge] = {}
        incident: list[list[int]] = [[] for _ in range(vertex_count)]
        for e in edge_tuple:
            if not isinstance(e, Edge):
                raise TypeError("edges must be Edge records")
            if not (0 <= e.u < vertex_count and 0 <= e.v < vertex_count):
                raise ValueError(f"edge {e.id} has an endpoint out of range")
            if not 0 <= e.gain < group.order:
                raise ValueError(f"edge {e.id} has gain {e.gain} outside the group")
            if e.id in by_id:
                raise ValueError(f"duplicate edge id {e.id}")
            by_id[e.id] = e
            incident[e.u].append(e.id)
            if e.v != e.u:
                incident[e.v].append(e.id)
        self.group = group
        self.vertex_count = vertex_count
        self.edges = edge_tuple
        self._by_id = by_id
        self._incident = tuple(tuple(sorted(ids)) for ids in incident)
        self._ids = frozenset(by_id)

    @property
    def edge_ids(self) -> frozenset[int]:
        return self._ids

    def edge(self, eid: int) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise ValueError(f"no edge with id {eid}") from None

    def incident_ids(self, v: int) -> tuple[int, ...]:
        """Ids of edges touching v, ascending; loops appear once."""
        return self._incident[v]

    def loops_at(self, v: int) -> tuple[Edge, ...]:
        return tuple(
            self._by_id[eid] for eid in self._incident[v] if self._by_id[eid].is_loop
        )

    def links(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if not e.is_loop)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GainGraph)
            and self.group == other.group
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return (
            f"GainGraph(group={self.group.name!r}, vertices={self.vertex_count}, "
            f"edges={len(self.edges)})"
        )


def gain_graph(
    group: FiniteGroup, vertex_count: int, triples: Iterable[tuple[int, int, int]]
) -> GainGraph:
    """Build a gain graph from (u, v, gain) triples; ids run 0, 1, 2, ..."""
    edges = [Edge(i, u, v, gain) for i, (u, v, gain) in enumerate(triples)]
    return GainGraph(group, vertex_count, edges)


def normalize_edge_subset(g: GainGraph, subset: Iterable[int] | None) -> frozenset[int]:
    """Validate an edge-id collection against the graph; None means all edges."""
    if subset is None:
        return g.edge_ids
    s = frozenset(subset)
    unknown = s - g.edge_ids
    if unknown:
        raise ValueError(f"unknown edge ids: {sorted(unknown)}")
    return s


class ComponentSplit(NamedTuple):
    edge_sets: tuple[frozenset[int], ...]
    vertex_sets: tuple[frozenset[int], ...]
    isolated: tuple[int, ...]


def traverse(
    g: GainGraph, subset: Iterable[int] | None = None, roots: Iterable[int] | None = None
) -> tuple[ComponentSplit, frozenset[int], dict[int, int]]:
    """Breadth-first search over an edge subset, in edge-id order.

    Each search starts from the smallest vertex of a component, or from each
    of the given roots in turn; roots must meet every component.  Returns the
    component split (components in start order, unreached vertices isolated),
    the forest of tree edges, and ``psi``: the gain of the tree path from its
    component's start to each reached vertex.
    """
    s = normalize_edge_subset(g, subset)
    by_id, incident = g._by_id, g._incident
    mul, inv = g.group.mul, g.group.inv
    if roots is None:
        roots = sorted({w for eid in s for w in (by_id[eid].u, by_id[eid].v)})
    psi: dict[int, int] = {}
    forest: set[int] = set()
    edge_sets = []
    vertex_sets = []
    for root in roots:
        if root in psi:
            continue
        psi[root] = 0
        comp_edges: set[int] = set()
        reached = [root]
        for w in reached:  # grows while iterated: a FIFO queue
            for eid in incident[w]:
                if eid not in s:
                    continue
                comp_edges.add(eid)
                e = by_id[eid]
                if e.u == w:
                    other, gain = e.v, e.gain
                else:
                    other, gain = e.u, inv[e.gain]
                if other not in psi:
                    psi[other] = mul[psi[w]][gain]
                    forest.add(eid)
                    reached.append(other)
        edge_sets.append(frozenset(comp_edges))
        vertex_sets.append(frozenset(reached))
    isolated = tuple(v for v in range(g.vertex_count) if v not in psi)
    return ComponentSplit(tuple(edge_sets), tuple(vertex_sets), isolated), frozenset(forest), psi


def components(g: GainGraph, subset: Iterable[int] | None = None) -> ComponentSplit:
    """Partition an edge subset into connected pieces.

    Components are ordered by their smallest vertex; vertices touching no
    edge of the subset are reported separately as isolated.
    """
    return traverse(g, subset)[0]


def spanning_forest(g: GainGraph, subset: Iterable[int] | None = None) -> frozenset[int]:
    """A maximal cycle-free subset of the given edges, chosen by breadth-first
    search in edge-id order from the smallest vertex of each component."""
    return traverse(g, subset)[1]


def oriented_gain(g: GainGraph, eid: int, tail: int) -> int:
    """Gain of an edge read from the given endpoint.

    Returns the stored gain when read u->v and its inverse when read v->u.
    For a loop the stored gain is returned; callers that care about loop
    orientation use both the gain and its inverse.
    """
    e = g.edge(eid)
    if tail == e.u:
        return e.gain
    if tail == e.v:
        return g.group.inv[e.gain]
    raise ValueError(f"vertex {tail} is not an endpoint of edge {eid}")


def switch(g: GainGraph, eta: Sequence[int]) -> GainGraph:
    """Regauge all gains by a vertex-indexed group function:
    the gain of e: u->v becomes eta[u]^-1 * gain * eta[v]."""
    eta = tuple(eta)
    if len(eta) != g.vertex_count:
        raise ValueError("switching function must cover every vertex")
    mul, inv = g.group.mul, g.group.inv
    for x in eta:
        if not 0 <= x < g.group.order:
            raise ValueError(f"{x} is not an element of the group")
    new_edges = [
        Edge(e.id, e.u, e.v, mul[inv[eta[e.u]]][mul[e.gain][eta[e.v]]])
        for e in g.edges
    ]
    return GainGraph(g.group, g.vertex_count, new_edges)


def switch_state(state: Sequence[int], eta: Sequence[int], action: SpinAction) -> tuple[int, ...]:
    """Apply a switching function to a state: the spin at v becomes s_v acted
    on by eta[v]."""
    state = tuple(state)
    eta = tuple(eta)
    if len(state) != len(eta):
        raise ValueError("state and switching must cover the same vertices")
    act = action.act
    return tuple(act[q][x] for q, x in zip(state, eta))


def satisfied_edges(g: GainGraph, action: SpinAction, state: Sequence[int]) -> frozenset[int]:
    """Ids of edges e: u->v whose equation s_v = s_u * gain holds; a loop
    with gain h is satisfied exactly when h fixes the spin at its vertex."""
    if action.group != g.group:
        raise ValueError("action and graph use different groups")
    state = tuple(state)
    if len(state) != g.vertex_count:
        raise ValueError("state must assign a spin to every vertex")
    for q in state:
        if not 0 <= q < action.size:
            raise ValueError(f"{q} is not a spin index")
    return _satisfied_edges(g, action.act, state)


def _satisfied_edges(g: GainGraph, act, state: Sequence[int]) -> frozenset[int]:
    """``satisfied_edges`` without its input checks, for callers that have
    checked the graph and action once and generate valid states themselves."""
    return frozenset(e.id for e in g.edges if act[state[e.u]][e.gain] == state[e.v])


def delete_edge(g: GainGraph, eid: int) -> GainGraph:
    """Remove one edge; everything else, including ids, is unchanged."""
    g.edge(eid)
    return GainGraph(g.group, g.vertex_count, [e for e in g.edges if e.id != eid])


def contract_link(g: GainGraph, eid: int) -> GainGraph:
    """Contract a non-loop edge.

    The canonical procedure: switch by the function that is the identity
    everywhere except at the absorbed endpoint v, where it takes the value
    gain(e)^-1, so the contracted edge gets identity gain; then delete it and
    merge v into u.  The result is one vertex smaller, parallel edges become
    loops carrying their switched gains, and all other edge ids survive.
    Any choice of switching gives the same counts downstream, which the test
    suite checks.
    """
    e = g.edge(eid)
    if e.is_loop:
        raise ValueError(f"edge {eid} is a loop and cannot be contracted")
    u, v = e.u, e.v
    mul, inv = g.group.mul, g.group.inv
    t = inv[e.gain]  # eta at v; eta^-1 is e.gain

    def vmap(w: int) -> int:
        if w == v:
            w = u
        return w if w < v else w - 1

    new_edges = []
    for f in g.edges:
        if f.id == eid:
            continue
        gain = f.gain
        if f.u == v:
            gain = mul[e.gain][gain]
        if f.v == v:
            gain = mul[gain][t]
        new_edges.append(Edge(f.id, vmap(f.u), vmap(f.v), gain))
    return GainGraph(g.group, g.vertex_count - 1, new_edges)


def walk_gain(g: GainGraph, walk: Sequence[int]) -> int:
    """Ordered product of oriented gains along an alternating
    vertex, edge, vertex, ... sequence.  An empty or single-vertex walk has
    identity gain."""
    seq = list(walk)
    if not seq:
        return 0
    if len(seq) % 2 == 0:
        raise ValueError("walk must alternate vertex, edge, ..., vertex")
    if not 0 <= seq[0] < g.vertex_count:
        raise ValueError(f"{seq[0]} is not a vertex")
    mul = g.group.mul
    acc = 0
    for i in range(1, len(seq), 2):
        prev_v, eid, next_v = seq[i - 1], seq[i], seq[i + 1]
        e = g.edge(eid)
        if e.is_loop:
            if prev_v != e.u or next_v != e.u:
                raise ValueError(f"loop {eid} does not sit at vertex {prev_v}")
            step = e.gain
        elif (prev_v, next_v) == (e.u, e.v):
            step = e.gain
        elif (prev_v, next_v) == (e.v, e.u):
            step = g.group.inv[e.gain]
        else:
            raise ValueError(f"edge {eid} does not join {prev_v} and {next_v}")
        acc = mul[acc][step]
    return acc


def is_balanced(g: GainGraph, subset: Iterable[int] | None = None) -> bool:
    """True when every simple closed walk inside the subset has identity gain.

    Equivalent check: after regauging a spanning forest to all-identity,
    every remaining subset edge must carry the identity.
    """
    s = normalize_edge_subset(g, subset)
    psi = traverse(g, s)[2]
    mul = g.group.mul
    for eid in s:
        e = g.edge(eid)
        if mul[psi[e.u]][e.gain] != psi[e.v]:
            return False
    return True


def balanced_component_count(g: GainGraph, subset: Iterable[int] | None = None) -> int:
    """Number of balanced components of the restriction to the subset.

    Isolated vertices (relative to the subset) count as balanced components.
    """
    split = components(g, subset)
    count = len(split.isolated)
    for comp in split.edge_sets:
        if is_balanced(g, comp):
            count += 1
    return count


def frame_rank(g: GainGraph, subset: Iterable[int] | None = None) -> int:
    """Rank of an edge set in the frame matroid: |V| minus the number of
    balanced components of the restriction."""
    return g.vertex_count - balanced_component_count(g, subset)


def graphic_closure(g: GainGraph, subset: Iterable[int] | None = None) -> frozenset[int]:
    """The subset plus every edge whose endpoints are already connected in it.

    A loop's endpoints are trivially connected, so every loop of the graph
    belongs to every closure, including the closure of the empty set.
    """
    s = normalize_edge_subset(g, subset)
    split = components(g, s)
    comp_of: dict[int, int] = {}
    for j, verts in enumerate(split.vertex_sets):
        for w in verts:
            comp_of[w] = j
    out = set(s)
    for e in g.edges:
        if e.id in s:
            continue
        if e.is_loop:
            out.add(e.id)
        else:
            ju = comp_of.get(e.u)
            if ju is not None and ju == comp_of.get(e.v):
                out.add(e.id)
    return frozenset(out)


def group_expansion(
    template: SimpleGraph, group: FiniteGroup, max_edges: int = 4096
) -> GainGraph:
    """Replace each template edge by one parallel edge per group element."""
    total = len(template.edges) * group.order
    if total > max_edges:
        raise BoundExceeded(f"expansion would have {total} edges, limit {max_edges}")
    triples = [
        (u, v, x) for (u, v) in template.edges for x in range(group.order)
    ]
    return gain_graph(group, template.vertex_count, triples)
