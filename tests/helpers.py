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
    BoundExceeded,
    ClosedSetLattice,
    Edge,
    FiniteGroup,
    GainGraph,
    HolonomyContext,
    MultiPoly,
    SimpleGraph,
    SpinAction,
    build_cyclic,
    component_subgroup,
    components,
    contract_link,
    count_inclexcl,
    delete_edge,
    fixed_set,
    gain_graph,
    group_expansion,
    holonomy_group,
    is_holonomy_closed,
    stabilizer_classes,
    standard_colors,
    zero_free_colors,
)
from gainchroma.counting import _elim_order, _elim_pins
from gainchroma.graphs import normalize_edge_subset
from gainchroma.groups import GROUP_ORDER_LIMIT, SPIN_COUNT_LIMIT, factorials_within
from gainchroma.holonomy import _EdgeWalk


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
    # the subset's edges at each vertex, in reversed id order
    incident: dict[int, list[Edge]] = {}
    for e in sorted(graph.edges, key=lambda e: e.id, reverse=True):
        if e.id in subset:
            for w in {e.u, e.v}:
                incident.setdefault(w, []).append(e)
    touched = sorted(incident)
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
            for e in incident[w]:
                other = e.v if e.u == w else e.u
                if other not in visited:
                    visited.add(other)
                    forest.add(e.id)
                    stack.append(other)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
    return frozenset(forest)


def oracle_tree_gains(graph: GainGraph, forest, base: int) -> dict[int, int]:
    """The gain of the path in ``forest`` from ``base`` to each vertex it
    reaches, by a depth-first walk of the forest's edges: the potential
    ``graphs.traverse`` computes, for any forest and any base."""
    mul, inv = graph.group.mul, graph.group.inv
    psi = {base: 0}
    stack = [base]
    while stack:
        w = stack.pop()
        for eid in forest:
            e = graph.edge(eid)
            if w not in (e.u, e.v):
                continue
            other, gain = (e.v, e.gain) if e.u == w else (e.u, inv[e.gain])
            if other not in psi:
                psi[other] = mul[psi[w]][gain]
                stack.append(other)
    return psi


def oracle_holonomy_subgroup(graph: GainGraph, component, forest, base: int) -> frozenset[int]:
    """The holonomy subgroup at ``base`` of a connected edge set, read
    through ``forest``, any maximal forest of it: the closure under
    multiplication of psi(u) * gain(e) * psi(v)**-1 over its other edges,
    psi being ``oracle_tree_gains``.  ``HolonomyContext`` takes the
    breadth-first forest and the smallest vertex; this takes any."""
    component, forest = frozenset(component), frozenset(forest)
    mul, inv = graph.group.mul, graph.group.inv
    psi = oracle_tree_gains(graph, forest, base)
    touched = {w for eid in component for w in (graph.edge(eid).u, graph.edge(eid).v)}
    if not (forest <= component and set(psi) == touched and len(forest) == len(touched) - 1):
        raise ValueError("not a maximal forest of a connected edge set through the base")
    gens = {mul[mul[psi[e.u]][e.gain]][inv[psi[e.v]]] for e in map(graph.edge, component - forest)}
    elements = {0}
    while True:
        grown = elements | {mul[x][y] for x in elements for y in gens}
        if grown == elements:
            return frozenset(elements)
        elements = grown


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
    """``(sets, mobius, bottomless)`` as the subset walk must give them,
    ``mobius`` mapping each closed set to its Möbius value, from a
    per-subset split, a holonomy context per component and the recursion
    mu(A) = -sum of mu(B) over closed B strictly inside A."""
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


def oracle_lattice_sum(lattice, factor):
    """``counting.lattice_sum`` folded over the closed sets one by one, each
    with its own Möbius value: the path the grouped terms replaced.  Each
    vertex no edge touches is a component with trivial holonomy.  A
    bottomless lattice has no Möbius values, so its sum is the trivial
    group's factor times 0."""
    factors = {}
    mobius = dict(zip(lattice.sets, lattice.mobius))
    trivial = factor(frozenset({0}))
    untouched = trivial**lattice.untouched
    total = trivial * 0
    for subset, subgroups in zip(lattice.sets, lattice.subgroups, strict=True):
        weight = mobius.get(subset, 0)
        if weight == 0:
            continue
        term = weight * untouched
        for subgroup in subgroups:
            if term == 0:
                break
            f = factors.get(subgroup)
            if f is None:
                f = factors[subgroup] = factor(subgroup)
            term = term * f
        total = total + term
    return total


def univariate(*coeffs: int) -> MultiPoly:
    """The one-variable polynomial with these coefficients, lowest degree
    first."""
    return MultiPoly(1, {(power,): c for power, c in enumerate(coeffs)})


def total_degree(poly: MultiPoly) -> int:
    """The largest exponent sum of the polynomial's terms, or -1 for the
    zero polynomial."""
    return max((sum(expo) for expo in poly.terms), default=-1)


def homogeneous_part(poly: MultiPoly, degree: int) -> MultiPoly:
    """The terms of the polynomial whose exponents sum to ``degree``."""
    return MultiPoly(poly.arity, {expo: c for expo, c in poly.terms.items() if sum(expo) == degree})


def oracle_interpolate(points) -> MultiPoly:
    """Lagrange interpolation through exact rational points, over coefficient
    lists lowest degree first: the path Newton's divided differences
    replaced.  Raises if a coefficient is not an integer."""
    total = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # basis * (x - xj)
            basis = [a - xj * b for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
            denom *= xi - xj
        for power, c in enumerate(basis):
            total[power] += c * yi / denom
    for c in total:
        if c.denominator != 1:
            raise ArithmeticError(f"coefficient {c} is not an integer")
    return univariate(*(int(c) for c in total))


def oracle_chromatic(graph: GainGraph) -> MultiPoly:
    """``chromatic_polynomial`` interpolated through ``count_inclexcl``
    counts over ``standard_colors`` at k = 0..|V|, where λ = k*|G| + 1: the
    path the lattice fold replaced."""
    order = graph.group.order
    return oracle_interpolate([
        (Fraction(k * order + 1), count_inclexcl(graph, standard_colors(graph.group, k)).value)
        for k in range(graph.vertex_count + 1)
    ])


def oracle_zero_free(graph: GainGraph) -> MultiPoly:
    """``zero_free_polynomial`` interpolated through ``count_inclexcl``
    counts over ``zero_free_colors`` at k = 1..|V|+1, where λ = k*|G|: the
    path the lattice fold replaced."""
    order = graph.group.order
    return oracle_interpolate([
        (Fraction(k * order), count_inclexcl(graph, zero_free_colors(graph.group, k)).value)
        for k in range(1, graph.vertex_count + 2)
    ])


def oracle_elim(graph: GainGraph, action: SpinAction, pinned: bool = False):
    """``count_elim`` on tuple keys, with a set of forbidden spins built for
    every table entry.  Unpinned, every placed vertex tries every spin its
    loops leave it.  Pinned, the vertices ``_elim_pins`` picks try the first
    spin of each stabilizer class and multiply the counts they enter by the
    class size, as ``count_elim`` does, so the stats must match too: the
    path the int keys replaced.  Returns ``(value, stats)``."""
    steps, sizes = _elim_order(graph)
    q = action.size
    pins = _elim_pins(steps, sizes, q) if pinned else set()
    class_size = {spins[0]: len(spins) for spins in stabilizer_classes(action)} if pins else {}
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
        if v in pins:
            domain = [s for s in domain if s in class_size]
        transitions += len(table) * len(domain)
        new = {}
        for spins, count in table.items():
            forbidden = {act[spins[i]][h] for i, h in backs}
            head = tuple(spins[i] for i in keep)
            for s in domain:
                if s not in forbidden:
                    k = head + (s,) * kept
                    new[k] = new.get(k, 0) + count * (class_size[s] if v in pins else 1)
        table = new
        if not table:
            break
        peak = max(peak, len(table))
    return table.get((), 0), {"width": max(sizes, default=0), "peak_states": peak, "transitions": transitions}


def oracle_brute(graph: GainGraph, action: SpinAction):
    """``count_brute`` with a set of forbidden spins built at every search
    node and one recursive call per vertex, the last one included: the path
    the spin masks replaced.  Returns ``(value, stats)``."""
    n = graph.vertex_count
    act, inv = action.act, graph.group.inv
    loop_gains = [set() for _ in range(n)]
    constraints = [[] for _ in range(n)]
    for e in graph.edges:
        if e.is_loop:
            loop_gains[e.u].add(e.gain)
        elif e.u < e.v:
            constraints[e.v].append((e.u, e.gain))
        else:
            constraints[e.u].append((e.v, inv[e.gain]))
    allowed = [
        [q for q in range(action.size) if all(act[q][h] != q for h in loop_gains[v])]
        for v in range(n)
    ]
    assigned = [0] * n
    total = visited = 0

    def descend(v):
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

    descend(0)
    return total, {"states_visited": visited}


def oracle_delcon(graph: GainGraph, action: SpinAction):
    """``count_delcon`` with a validated ``GainGraph`` per minor, built by
    ``graphs.delete_edge`` and ``graphs.contract_link``: the path the edge
    triples replaced.  Returns ``(value, stats)``."""
    m = action.size
    calls = 0

    def loops_only_value(minor):
        value = 1
        banned = [set() for _ in range(minor.vertex_count)]
        for e in minor.edges:
            banned[e.u] |= fixed_set(action, {e.gain})
        for v in range(minor.vertex_count):
            value *= m - len(banned[v])
        return value

    def recurse(minor):
        nonlocal calls
        calls += 1
        link = min((e for e in minor.edges if not e.is_loop), key=lambda e: e.id, default=None)
        if link is None:
            return loops_only_value(minor)
        return recurse(delete_edge(minor, link.id)) - recurse(contract_link(minor, link.id))

    label = {v: i for i, v in enumerate(sorted({w for e in graph.edges for w in (e.u, e.v)}))}
    core = GainGraph(graph.group, len(label), [Edge(e.id, label[e.u], label[e.v], e.gain) for e in graph.edges])
    value = recurse(core) * m ** (graph.vertex_count - len(label))
    return value, {"calls": calls}


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


def oracle_stabilizer_classes(action: SpinAction) -> tuple[tuple[int, ...], ...]:
    """``stabilizer_classes`` with the stabilizer of every spin listed
    element by element: the path the fixed-spin counts replaced."""
    classes = {}
    for q, row in enumerate(action.act):
        stabilizer = tuple(g for g, x in enumerate(row) if x == q)
        classes.setdefault(stabilizer, []).append(q)
    return tuple(tuple(spins) for spins in classes.values())


def find(walk: _EdgeWalk, v: int) -> tuple[int, int]:
    """The root of v in the walk's union-find and the gain of the tree path
    from the root to v: the lookup the walk's step makes inline."""
    parent, up, mul = walk.parent, walk.up, walk.graph.group.mul
    h = 0
    while parent[v] != v:
        h = mul[up[v]][h]
        v = parent[v]
    return v, h


def oracle_full_walk(walk: _EdgeWalk, leaf) -> None:
    """``_EdgeWalk.run`` without the pairs it drops: ``leaf(mask, sign,
    level)`` is called for every one of the 2**m edge subsets, each edge
    included before it is excluded, so every superset of a mask is a leaf
    before the mask.  The path the paired-off walk replaced."""
    edges, m = walk.edges, len(walk.edges)
    parent, up, size, sub, orders = walk.parent, walk.up, walk.size, walk.sub, walk.orders
    mul, inv = walk.graph.group.mul, walk.graph.group.inv
    merge = walk.graph.group.order + 1

    def descend(i, mask, sign, level):
        if i == m:
            leaf(mask, sign, level)
            return
        u, v, gain = edges[i]
        ru, hu = find(walk, u)
        rv, hv = find(walk, v)
        t = mul[mul[hu][gain]][inv[hv]]
        if ru == rv:
            before = sub[ru]
            sub[ru] = walk.join(before, t)
            rise = orders[sub[ru]] - orders[before]
        else:
            if size[ru] < size[rv]:
                ru, rv, t = rv, ru, inv[t]
            before = h = sub[ru]
            for y in walk._gens[sub[rv]]:
                h = walk.join(h, mul[mul[t][y]][inv[t]])
            parent[rv], up[rv], sub[ru] = ru, t, h
            size[ru] += size[rv]
            rise = merge + orders[h] - orders[before] - orders[sub[rv]]
        descend(i + 1, mask | 1 << i, -sign, level + rise)
        if ru != rv:
            size[ru] -= size[rv]
            parent[rv], up[rv] = rv, 0
        sub[ru] = before
        descend(i + 1, mask, sign, level)

    descend(0, 0, 1, len(parent))


def oracle_walk_inclexcl(graph: GainGraph, action: SpinAction) -> int:
    """``count_inclexcl``'s value as a signed sum over every leaf of
    ``oracle_full_walk``."""
    walk = _EdgeWalk(graph)
    total = 0

    def leaf(mask, sign, level):
        nonlocal total
        term = sign
        for r, p in enumerate(walk.parent):
            if p == r:
                term *= len(fixed_set(action, walk.subgroups[walk.sub[r]]))
        total += term

    oracle_full_walk(walk, leaf)
    return total * action.size ** (graph.vertex_count - len(walk.parent))


def oracle_walk_lattice(graph: GainGraph):
    """``(lattice, terms)``: ``enumerate_closed_sets`` over every leaf of
    ``oracle_full_walk``, each leaf finding its closure from the stored
    level of a superset, and ``ClosedSetLattice.terms`` summed set by set."""
    walk = _EdgeWalk(graph)
    m = len(walk.edges)
    level, where = {}, {}
    closed, mu = [], []

    def leaf(mask, sign, lv):
        level[mask] = lv
        for i in range(m):
            if not mask >> i & 1 and level[mask | 1 << i] == lv:
                j = where[mask | 1 << i]
                break
        else:
            j = len(closed)
            roots = sorted(walk.sub[r] for r, p in enumerate(walk.parent) if p == r)
            closed.append((mask, tuple(walk.subgroups[h] for h in roots)))
            mu.append(0)
        where[mask] = j
        mu[j] += sign

    oracle_full_walk(walk, leaf)
    order = sorted(range(len(closed)), key=lambda j: (bin(closed[j][0]).count("1"), j))
    bottomless = closed[order[0]][0] != 0
    lattice = ClosedSetLattice(
        tuple(sorted(e.id for e in graph.edges)),
        tuple(closed[j][0] for j in order),
        () if bottomless else tuple(mu[j] for j in order),
        bottomless,
        graph.vertex_count - len(walk.parent),
        tuple(closed[j][1] for j in order),
    )
    sums = {}
    for j in order:
        sums[closed[j][1]] = sums.get(closed[j][1], 0) + (0 if bottomless else mu[j])
    terms = tuple(
        (weight, tuple((h, subgroups.count(h)) for h in dict.fromkeys(subgroups)))
        for subgroups, weight in sums.items()
        if weight
    )
    return lattice, terms


def walk_gain(g: GainGraph, walk) -> int:
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


def graphic_closure(g: GainGraph, subset=None) -> frozenset[int]:
    """The subset plus every edge whose endpoints are already connected in it.

    A loop's endpoints are trivially connected, so every loop of the graph
    belongs to every closure, including the closure of the empty set.  On a
    balanced graph this is the holonomy closure.
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


def conjugate_subgroup(group: FiniteGroup, subgroup, by: int) -> frozenset[int]:
    """The conjugate subgroup by^-1 * H * by."""
    mul = group.mul
    return frozenset(mul[mul[group.inv[by]][g]][by] for g in subgroup)


def z4_on_cosets_of_z2() -> SpinAction:
    """Z4 acting on the two cosets of its subgroup {0, 2}: the cheapest
    abelian action that is not nearly regular, as 2 fixes both spins and
    1 and 3 fix none."""
    return SpinAction(build_cyclic(4), [[(q + g) % 2 for g in range(4)] for q in range(2)], name="Z4/Z2")


def nearly_regular_zeros(action: SpinAction) -> frozenset[int] | None:
    """The set Z of spins that every non-identity element fixes, when each
    one fixes exactly Z, so that the group acts freely off Z; None when the
    action is not nearly regular in this sense."""
    fixed = {fixed_set(action, {g}) for g in range(1, action.group.order)}
    return fixed.pop() if len(fixed) == 1 else None


def balance_counts(graph: GainGraph, subset) -> tuple[int, int]:
    """The numbers of balanced and of unbalanced components of an edge
    subset, a vertex it leaves isolated being a balanced component.  Each
    component gets potentials psi along a search, psi(v) = psi(u) * gain
    across an edge u->v, and is balanced when every edge agrees with them."""
    mul, inv = graph.group.mul, graph.group.inv
    chosen = [graph.edge(eid) for eid in subset]
    psi: dict[int, int] = {}
    balanced = unbalanced = 0
    for root in range(graph.vertex_count):
        if root in psi:
            continue
        psi[root] = 0
        members, stack = {root}, [root]
        while stack:
            w = stack.pop()
            for e in chosen:
                if e.u == w and e.v not in psi:
                    x, psi[e.v] = e.v, mul[psi[w]][e.gain]
                elif e.v == w and e.u not in psi:
                    x, psi[e.u] = e.u, mul[psi[w]][inv[e.gain]]
                else:
                    continue
                members.add(x)
                stack.append(x)
        if all(mul[psi[e.u]][e.gain] == psi[e.v] for e in chosen if e.u in members):
            balanced += 1
        else:
            unbalanced += 1
    return balanced, unbalanced


def block_permutation_action(block_sizes) -> SpinAction:
    """The direct product of symmetric groups on disjoint blocks, acting on
    the union of the blocks.

    Elements are tuples of one permutation per block, enumerated in product
    order with the identity first; spins are the block members, block-major.
    """
    if not block_sizes or any(b < 1 for b in block_sizes):
        raise ValueError("block sizes must be positive")
    if not factorials_within(GROUP_ORDER_LIMIT, block_sizes):
        raise BoundExceeded(f"blocks {tuple(block_sizes)} give a group order over the limit {GROUP_ORDER_LIMIT}")
    size = sum(block_sizes)
    if size > SPIN_COUNT_LIMIT:
        raise BoundExceeded(f"spin count {size} exceeds limit {SPIN_COUNT_LIMIT}")
    per_block = [list(itertools.permutations(range(b))) for b in block_sizes]
    elements = list(itertools.product(*per_block))
    index = {el: i for i, el in enumerate(elements)}
    mul = [
        [
            index[tuple(tuple(q[x] for x in p) for p, q in zip(a, b))]
            for b in elements
        ]
        for a in elements
    ]
    group = FiniteGroup(mul, name="x".join(f"S{b}" for b in block_sizes))
    offsets = []
    off = 0
    for b in block_sizes:
        offsets.append(off)
        off += b
    rows = []
    for i, b in enumerate(block_sizes):
        for x in range(b):
            rows.append(tuple(offsets[i] + el[i][x] for el in elements))
    return SpinAction(group, rows, name=f"blocks{tuple(block_sizes)}")


def equivalence_expansion(template: SimpleGraph, block_sizes) -> tuple[GainGraph, SpinAction]:
    """Gain graph and action whose totally frustrated states are exactly the
    colorings of the template with inequivalent (different-block) spins on
    adjacent vertices."""
    action = block_permutation_action(tuple(block_sizes))
    return group_expansion(template, action.group), action


def equivalence_direct_count(template: SimpleGraph, block_sizes) -> int:
    """Colorings with adjacent spins in different blocks, by enumeration."""
    block_of = [i for i, b in enumerate(block_sizes) for _ in range(b)]
    return sum(
        all(block_of[state[u]] != block_of[state[v]] for u, v in template.edges)
        for state in itertools.product(range(len(block_of)), repeat=template.vertex_count)
    )


def oracle_forest_count(graph: GainGraph) -> int:
    """Subsets of the graph's links (loops left out) that close no cycle,
    by a union-find over every subset."""
    links = [(e.u, e.v) for e in graph.edges if not e.is_loop]
    total = 0
    for chosen in itertools.product((False, True), repeat=len(links)):
        parent = list(range(graph.vertex_count))

        def root(v: int) -> int:
            while parent[v] != v:
                v = parent[v]
            return v

        for (u, v), keep in zip(links, chosen):
            if keep:
                ru, rv = root(u), root(v)
                if ru == rv:
                    break
                parent[ru] = rv
        else:
            total += 1
    return total
