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

``count_auto`` runs the first of elim, brute and inclexcl that is within
its bounds.  ``FAMILY`` sorts the counters by the helpers they share, and
``MethodReport.cross_checked`` asks for agreement across both families.
``lattice_sum`` is mobius's fold over the closed-set lattice;
``polynomials.grand_polynomial`` and ``regular_plus_zeroes`` run the same
fold, with polynomial factors, over ``holonomy.subset_terms``, which groups
the edge subsets as the lattice groups the closed sets, and
``chromatic_polynomial`` and ``zero_free_polynomial`` add the same terms
up as int coefficients, without ``lattice_sum``.  All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .groups import BoundExceeded, FiniteGroup, SpinAction, fixed_set, stabilizer_classes
from .graphs import GainGraph, balanced_component_count, check_action, loop_domains, touched_core
from .graphs import components  # noqa: F401  perfbench's tracer rebinds it in this namespace
from .holonomy import ClosedSetLattice, SubsetTerms, enumerate_closed_sets, signed_subset_sum


@dataclass(frozen=True)
class CountResult:
    value: int
    stats: dict[str, int]


# The work budgets: the most states or elimination transitions (brute,
# elim) and edge subsets (inclexcl) a counter takes on, read when it runs.
STATE_BUDGET = 10**8
SUBSET_BUDGET = 2**22

# The most vertices count_brute and links count_delcon take on.  Brute
# recurses once per vertex and delcon once per link, so both stay well under
# Python's default recursion limit of 1000, whatever the caller's own depth.
BRUTE_VERTEX_LIMIT = 400
DELCON_LINK_LIMIT = 400
# The most recursive calls count_delcon makes before it gives up.
DELCON_CALL_LIMIT = 10**6


def count_brute(g: GainGraph, a: SpinAction) -> CountResult:
    """Count states with no satisfied edge by backtracking enumeration.

    A partial state is abandoned as soon as any edge among the assigned
    vertices is satisfied, so only the bound |Q|**|V| is checked up front.
    Each vertex tries only its ``graphs.loop_domains`` spins.  At each
    search node the spins that the edges back to assigned vertices forbid
    are one int bitmask, and the last vertex is counted, not
    descended into: the popcount of its allowed spins minus the forbidden
    ones.  ``stats["states_visited"]`` still counts every spin tried at
    every vertex, the last one included.  With any spin it recurses once
    per vertex, so ``BRUTE_VERTEX_LIMIT`` caps the vertices.
    """
    check_action(g, a)
    n = g.vertex_count
    m = a.size
    if m**n > STATE_BUDGET:
        raise BoundExceeded(f"{m}**{n} states exceed the brute-force limit {STATE_BUDGET}")
    if m and n > BRUTE_VERTEX_LIMIT:
        raise BoundExceeded(f"{n} vertices exceed the brute-force depth limit {BRUTE_VERTEX_LIMIT}")
    if n == 0:
        return CountResult(1, {"states_visited": 0})
    act = a.act
    inv = g.group.inv
    allowed = loop_domains(g, a)
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in g.edges:
        if e.u < e.v:
            constraints[e.v].append((e.u, e.gain))
        elif e.u > e.v:
            constraints[e.u].append((e.v, inv[e.gain]))
    last = n - 1
    last_mask = sum(1 << q for q in allowed[last])
    assigned = [0] * n
    total = 0
    visited = 0

    def descend(v: int):
        nonlocal total, visited
        forbidden = 0
        for u, phi in constraints[v]:
            forbidden |= 1 << act[assigned[u]][phi]
        visited += len(allowed[v])
        if v == last:
            total += (last_mask & ~forbidden).bit_count()
            return
        for q in allowed[v]:
            if not forbidden >> q & 1:
                assigned[v] = q
                descend(v + 1)

    try:
        descend(0)
    finally:
        descend = None  # break the closure's cycle through its own cell
    return CountResult(total, {"states_visited": visited})


# A minor in count_delcon's recursion: the vertex count and the (u, v, gain)
# triple of each edge, in edge-id order.
Minor = tuple[int, tuple[tuple[int, int, int], ...]]


def _contract(minor: Minor, i: int, group: FiniteGroup) -> Minor:
    """The minor with its link i contracted, edge for edge as
    ``graphs.contract_link`` contracts it: the absorbed endpoint v is
    switched by gain(i)**-1 and merged into the other endpoint u, every
    vertex above v moves down by one, and a loop at v becomes a loop at u
    with gain gain(i) * h * gain(i)**-1."""
    vertex_count, edges = minor
    u, v, h = edges[i]
    mul = group.mul
    h_times = mul[h]  # x -> h * x, for an edge leaving v
    h_inv = group.inv[h]  # x -> x * h**-1, for an edge entering v
    label = [w if w < v else w - 1 for w in range(vertex_count)]
    label[v] = label[u]
    contracted = []
    for j, (a, b, x) in enumerate(edges):
        if j == i:
            continue
        if a == v:
            x = h_times[x]
        if b == v:
            x = mul[x][h_inv]
        contracted.append((label[a], label[b], x))
    return vertex_count - 1, tuple(contracted)


def count_delcon(g: GainGraph, a: SpinAction) -> CountResult:
    """Count by the deletion-contraction recursion on the lowest-id link.

    A minor is a vertex count and the (u, v, gain) triples of its edges in
    edge-id order, so the lowest-id link is the first non-loop triple:
    deletion drops it, and ``_contract`` contracts it as
    ``graphs.contract_link`` would.  A loops-only minor is evaluated
    directly as the product, over vertices, of |Q| minus the number of
    spins fixed by some loop gain there: the popcount of the OR of the
    loops' fixed-spin masks, each built once for a gain that occurs.  The
    recursion is as deep as the graph has links, so more than
    ``DELCON_LINK_LIMIT`` are refused before the first call, and it gives
    up past ``DELCON_CALL_LIMIT`` calls.  It starts from
    ``graphs.touched_core``, the minor on the vertices some edge touches;
    each other vertex takes any of the |Q| spins, a factor the result is
    multiplied by.
    """
    check_action(g, a)
    links = sum(not e.is_loop for e in g.edges)
    if links > DELCON_LINK_LIMIT:
        raise BoundExceeded(f"{links} links exceed the deletion-contraction depth limit {DELCON_LINK_LIMIT}")
    m = a.size
    act = a.act
    group = g.group
    fixed_mask = functools.cache(lambda h: sum(1 << q for q in range(m) if act[q][h] == q))
    calls = 0

    def loops_only_value(minor: Minor) -> int:
        vertex_count, edges = minor
        banned: dict[int, int] = {}
        for u, _, h in edges:
            banned[u] = banned.get(u, 0) | fixed_mask(h)
        value = m ** (vertex_count - len(banned))
        for mask in banned.values():
            value *= m - mask.bit_count()
        return value

    def recurse(minor: Minor) -> int:
        nonlocal calls
        calls += 1
        if calls > DELCON_CALL_LIMIT:
            raise BoundExceeded(f"deletion-contraction exceeded {DELCON_CALL_LIMIT} calls")
        vertex_count, edges = minor
        for i, (u, v, _) in enumerate(edges):
            if u != v:
                deleted = vertex_count, edges[:i] + edges[i + 1 :]
                return recurse(deleted) - recurse(_contract(minor, i, group))
        return loops_only_value(minor)

    core = touched_core(g)
    try:
        value = recurse(core) * m ** (g.vertex_count - core[0])
    finally:
        recurse = None  # break the closure's cycle through its own cell
    return CountResult(value, {"calls": calls})


def lattice_sum(lattice: ClosedSetLattice | SubsetTerms, factor: Callable[[frozenset[int]], Any]):
    """The sum, over the closed sets of a lattice, of the set's Möbius
    value times ``factor(H)`` per component, where H is the component's
    holonomy subgroup and a vertex the set leaves isolated is a component
    with H trivial; 0 for a bottomless lattice, which has no terms.  Over a
    graph's ``subset_terms`` it gives the same sum, as (-1)**|B| over all
    edge subsets B.  ``count_mobius`` folds a lattice with int factors, and
    the polynomials fold subset terms with ``MultiPoly`` factors.

    The summand depends only on the multiset of subgroups, so the sum runs
    over ``lattice.terms``, one product per multiset, and the vertices no
    edge touches multiply every product by the same power of the trivial
    group's factor.  ``factor`` is called once per distinct
    subgroup, and each power of a factor is computed once.  The empty sum
    is the trivial group's factor times 0, which is 0 for ints and the zero
    polynomial of the factors' arity; a product with a factor equal to it
    is skipped without multiplying.
    """
    factor = functools.cache(factor)
    factor_power = functools.cache(lambda subgroup, times: factor(subgroup) ** times)
    trivial = factor(frozenset({0}))
    untouched = trivial**lattice.untouched
    total = zero = trivial * 0
    for weight, parts in lattice.terms:
        if any(factor(subgroup) == zero for subgroup, _ in parts):
            continue
        term = weight * untouched
        for subgroup, times in parts:
            term = term * factor_power(subgroup, times)
        total = total + term
    return total


def count_inclexcl(g: GainGraph, a: SpinAction) -> CountResult:
    """Count by inclusion-exclusion over all edge subsets: each subset
    contributes (-1)**|A| times the product of holonomy fixed counts over its
    components, times |Q| per vertex it leaves isolated.

    ``stats["subsets"]`` reports all 2**m subsets, and ``stats["leaves"]``
    those the walk reached, the others cancelling in pairs.
    """
    check_action(g, a)
    m = len(g.edges)
    if 2**m > SUBSET_BUDGET:
        raise BoundExceeded(f"2**{m} subsets exceed the inclusion-exclusion limit {SUBSET_BUDGET}")
    total, leaves = signed_subset_sum(g, lambda h: len(fixed_set(a, h)))
    return CountResult(total, {"subsets": 1 << m, "leaves": leaves})


def count_mobius(g: GainGraph, a: SpinAction) -> CountResult:
    """Count by Möbius inversion over the holonomy-closed edge sets.

    A bottomless lattice (the graph has an identity loop, which every state
    satisfies) has no terms, so it gives zero.
    """
    check_action(g, a)
    lattice = enumerate_closed_sets(g)
    total = lattice_sum(lattice, lambda h: len(fixed_set(a, h)))
    return CountResult(total, {"closed_sets": len(lattice.masks)})


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


# The most keys an elimination table may hold.  An entry, an int key and an
# int count, takes about 104 bytes (measured with tracemalloc on tables of
# 2**18 keys; tuple keys took 160-256), and two tables are alive at once, so
# this keeps count_elim's tables near 52 MB; ``STATE_BUDGET`` bounds its work.
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


def count_elim(g: GainGraph, a: SpinAction) -> CountResult:
    """Count by a transfer matrix along ``_elim_order``'s vertex order.

    The table maps the spins of the frontier (placed vertices with an
    unplaced neighbour) to the number of frustrated partial states that
    extend them.  Each placed vertex takes its ``graphs.loop_domains``
    spins, except those its edges to placed vertices would satisfy.  A
    table holds at most |Q|**width keys, where width is the largest
    frontier, and the work is at most the sum over steps of
    |Q|**(frontier + 1).  Before any
    table is built, the first is checked against ``ELIM_TABLE_LIMIT`` and
    the second against ``STATE_BUDGET``, the same budget as brute's |Q|**|V|.

    A key is one int.  Each frontier vertex owns a slot of b bits, enough
    for any spin, from the step that places it to the one that retires it;
    a retired vertex's slot is cleared and reused, so there are at most
    width slots and equal frontier spins give equal keys.  Dropping the
    retired vertices is one AND per entry, placing v one OR.  The spins v's
    edges forbid depend only on the digits of its placed neighbours, the
    key's pattern under a back mask: each neighbour's row maps its spin to
    the mask of spins its edges to v forbid, and per distinct pattern the
    step caches the spins v may take, or their number when v retires at
    once.

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
    check_action(g, a)
    n = g.vertex_count
    q = a.size
    steps, sizes = _elim_order(g)
    width = max(sizes, default=0)
    if q**width > ELIM_TABLE_LIMIT:
        raise BoundExceeded(f"{q}**{width} frontier states exceed the elimination table limit {ELIM_TABLE_LIMIT}")
    work = sum(q ** (f + 1) for f in sizes)
    if work > STATE_BUDGET:
        raise BoundExceeded(f"{work} elimination transitions exceed the limit {STATE_BUDGET}")
    pins = _elim_pins(steps, sizes, q)
    class_size = {spins[0]: len(spins) for spins in stabilizer_classes(a)} if pins else {}
    act = a.act
    inv = g.group.inv
    domains = loop_domains(g, a)
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (other end, gain oriented towards v)
    for e in g.edges:
        if not e.is_loop:
            into[e.v].append((e.u, e.gain))
            into[e.u].append((e.v, inv[e.gain]))
    b = max(q - 1, 1).bit_length()
    digit = (1 << b) - 1
    slots: list[int | None] = [None] * width  # the frontier vertex in each slot
    shift_of: dict[int, int] = {}  # frontier vertex -> the bit its spin starts at
    table: dict[int, int] = {0: 1}
    peak = 1
    transitions = 0
    for v, gone in steps:
        gains: dict[int, set[int]] = {}
        for u, h in into[v]:
            if u in shift_of:
                gains.setdefault(shift_of[u], set()).add(h)
        back_mask = 0
        rows = []  # (shift, row): a back neighbour with spin d forbids v the spins in row[d]
        for shift, hs in gains.items():
            back_mask |= digit << shift
            row = []
            for image in act:
                mask = 0
                for x in {image[h] for h in hs}:  # parallel links often share images
                    mask |= 1 << x
                row.append(mask)
            rows.append((shift, row))

        def forbidden(pattern: int) -> int:
            mask = 0
            for shift, row in rows:
                mask |= row[pattern >> shift & digit]
            return mask

        drop = 0
        for u in gone:
            if u != v:
                shift = shift_of.pop(u)
                slots[shift // b] = None
                drop |= digit << shift
        keep = ~drop
        domain = domains[v]
        pinned = v in pins
        if pinned:
            domain = [s for s in domain if s in class_size]
        transitions += len(table) * len(domain)
        new: dict[int, int] = {}
        cache: dict[int, Any] = {}
        if v in gone:
            allowed = sum(1 << s for s in domain)
            for key, count in table.items():
                pattern = key & back_mask
                free = cache.get(pattern)
                if free is None:
                    free = cache[pattern] = len(domain) - (forbidden(pattern) & allowed).bit_count()
                if free:
                    base = key & keep
                    new[base] = new.get(base, 0) + count * free
        else:
            i = slots.index(None)
            slots[i] = v
            shift = shift_of[v] = i * b
            # The cached lists hold at most ELIM_TABLE_LIMIT spins.  They can
            # outgrow the new table only when v retires a back neighbour,
            # whose digit is in the pattern but not in the new key.
            room = ELIM_TABLE_LIMIT // max(len(domain), 1)
            for key, count in table.items():
                pattern = key & back_mask
                placed = cache.get(pattern)
                if placed is None:
                    if len(cache) == room:
                        cache.clear()
                    banned = forbidden(pattern)
                    placed = cache[pattern] = [s << shift for s in domain if not banned >> s & 1]
                base = key & keep
                for spin in placed:
                    k = base | spin
                    new[k] = new.get(k, 0) + count
            if pinned:
                new = {k: count * class_size[k >> shift & digit] for k, count in new.items()}
        table = new
        peak = max(peak, len(table))
    stats = {"width": width, "peak_states": peak, "transitions": transitions}
    return CountResult(table.get(0, 0), stats)


def count_auto(g: GainGraph, a: SpinAction) -> int:
    """Count with the first of elim, brute and inclexcl that is within its
    bounds, and return the bare value; brute goes before inclexcl when its
    |Q|**|V| states are at most the 2**|E| subsets.  Each counter checks
    its own bounds, and when all three refuse, the last refusal is raised.

    Elim comes first: its table after each step holds the distinct frontier
    spins of the partial states that brute, placing vertices in the same
    order, would hold at that depth, so it never visits more.
    """
    if a.size**g.vertex_count <= 2 ** len(g.edges):
        order = ("elim", "brute", "inclexcl")
    else:
        order = ("elim", "inclexcl", "brute")
    for name in order:
        try:
            return COUNTERS[name](g, a).value
        except BoundExceeded as exc:
            refusal = exc
    raise refusal


def theta(g: GainGraph, a: SpinAction) -> Fraction:
    """The count of totally frustrated states divided by |Q| to the power of
    the number of balanced components, as an exact rational."""
    b = balanced_component_count(g)
    if a.size == 0 and b > 0:
        raise ValueError("theta is undefined for an empty spin set on a graph with balanced components")
    return Fraction(count_auto(g, a), a.size**b)


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
    def cross_checked(self) -> bool:
        """The counters that ran agree, and they come from both families
        of ``FAMILY``."""
        return self.agree and {FAMILY[name] for name in self.results} == set(FAMILY.values())

    @property
    def value(self) -> int | None:
        values = {r.value for r in self.results.values()}
        return values.pop() if len(values) == 1 else None


# Counter name -> runner, in report order.  A runner takes the graph and
# the action.  The runners are lambdas so that each call looks count_* up in
# this module's globals, where perfbench's tracer rebinds them.
COUNTERS = {
    "brute": lambda g, a: count_brute(g, a),
    "delcon": lambda g, a: count_delcon(g, a),
    "inclexcl": lambda g, a: count_inclexcl(g, a),
    "mobius": lambda g, a: count_mobius(g, a),
    "elim": lambda g, a: count_elim(g, a),
}

# Counter name -> its family.  Brute and elim share ``graphs.loop_domains``,
# and delcon, inclexcl and mobius share ``graphs.touched_core``, so a fault
# in a shared helper can move a whole family alike: only counters of both
# families that agree cross-check a count.
FAMILY = {"brute": "states", "delcon": "subsets", "inclexcl": "subsets", "mobius": "subsets", "elim": "states"}


def verify_all(g: GainGraph, a: SpinAction) -> MethodReport:
    """Run every counter in ``COUNTERS`` and report agreement; counters
    that overrun their bounds are recorded instead of raising."""
    report = MethodReport()
    for name, run in COUNTERS.items():
        try:
            report.results[name] = run(g, a)
        except BoundExceeded as exc:
            report.errors[name] = str(exc)
    return report
