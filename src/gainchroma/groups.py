"""Finite groups as explicit multiplication tables, and their right actions
on finite spin sets.

Group elements and spins are bare integer indices; the identity element is
always index 0.  All tables are nested tuples, so every value built here is
immutable and safe to share across threads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

# Hard default ceilings.  Every algorithm downstream is exponential, so the
# point is to fail early and loudly, not to scale.
GROUP_ORDER_LIMIT = 5040
SPIN_COUNT_LIMIT = 4096


class BoundExceeded(RuntimeError):
    """A configured size or search bound would be exceeded."""


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``mul[g][h]`` is the product g*h, ``inv[g]`` the inverse of g, and the
    identity sits at index 0.  The constructor checks table shape, the
    identity row and column, and the existence of two-sided inverses; full
    associativity checking is the job of :func:`verify_group`.
    """

    __slots__ = ("order", "mul", "inv", "name")

    identity = 0

    def __init__(self, mul: Sequence[Sequence[int]], name: str = "G"):
        rows = tuple(tuple(row) for row in mul)
        n = len(rows)
        if n == 0:
            raise ValueError("a group needs at least the identity element")
        if n > GROUP_ORDER_LIMIT:
            raise BoundExceeded(f"group order {n} exceeds limit {GROUP_ORDER_LIMIT}")
        for g, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"mul row {g} has length {len(row)}, expected {n}")
            for h, x in enumerate(row):
                if not isinstance(x, int) or not 0 <= x < n:
                    raise ValueError(f"mul[{g}][{h}] = {x!r} is not an element index")
        for j in range(n):
            if rows[0][j] != j or rows[j][0] != j:
                raise ValueError("index 0 must be a two-sided identity")
        inverses = []
        for g in range(n):
            for h in range(n):
                if rows[g][h] == 0 and rows[h][g] == 0:
                    inverses.append(h)
                    break
            else:
                raise ValueError(f"element {g} has no two-sided inverse")
        self.order = n
        self.mul = rows
        self.inv = tuple(inverses)
        self.name = name

    def conjugate(self, g: int, by: int) -> int:
        """Return by^-1 * g * by."""
        return self.mul[self.mul[self.inv[by]][g]][by]

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, FiniteGroup) and self.mul == other.mul)

    def __hash__(self) -> int:
        return hash(self.mul)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _generators(mul: Sequence[Sequence[int]]) -> list[int] | None:
    """A generating set of an associative table, or None when the table is
    not associative.

    The set is found greedily: each element that the products of the
    generators so far (each one the last product times a generator) do not
    reach becomes a generator.  In a group the reached sets are subgroups,
    so each is at least twice the last and there are at most log2(order) + 1
    generators; a reached set whose size does not divide the next one's
    proves the table is no group.  Associativity is then checked by Light's
    test, (x*s)*y == x*(s*y) for all x, y and every generator s, in order**2
    steps per generator: the elements s that pass are closed under
    products, so when the generators pass, every element does.
    """
    n = len(mul)
    gens: list[int] = []
    reached = [True] + [False] * (n - 1)
    size = 1
    for g in range(n):
        if reached[g]:
            continue
        gens.append(g)
        frontier = [x for x in range(n) if reached[x]]
        while frontier:
            row = mul[frontier.pop()]
            for h in gens:
                y = row[h]
                if not reached[y]:
                    reached[y] = True
                    frontier.append(y)
        grown = sum(reached)
        if grown % size:
            return None
        size = grown
    for s in gens:
        ms = mul[s]
        for mx in mul:
            left = mul[mx[s]]
            for y in range(n):
                if left[y] != mx[ms[y]]:
                    return None
    return gens


def verify_group(group_or_table) -> bool:
    """Check the group axioms on a multiplication table.

    Accepts a :class:`FiniteGroup` or a raw square table, and returns False
    instead of raising, so untrusted tables can be vetted.  A raw table is
    first built into a :class:`FiniteGroup`, whose constructor checks its
    shape, entries, identity and inverses; a table over
    ``GROUP_ORDER_LIMIT`` raises :class:`BoundExceeded` from there.  A
    group's table has passed those checks already, so only associativity is
    left, checked over a generating set in order**2 * log2(order) steps at
    most.
    """
    group = group_or_table
    if not isinstance(group, FiniteGroup):
        try:
            group = FiniteGroup(group_or_table)
        except (ValueError, TypeError):
            return False
    return _generators(group.mul) is not None


def build_cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with mul[i][j] = (i + j) mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be at least 1")
    if n > GROUP_ORDER_LIMIT:
        raise BoundExceeded(f"group order {n} exceeds limit {GROUP_ORDER_LIMIT}")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(mul, name=f"Z{n}")


def factorials_within(limit: int, sizes: Iterable[int]) -> bool:
    """True when the product of d! over ``sizes`` is at most ``limit``.

    The product is multiplied up one factor at a time and given up as soon
    as it passes the limit, so a huge size costs no more than a small one.
    """
    product = 1
    for d in sizes:
        for k in range(2, d + 1):
            product *= k
            if product > limit:
                return False
    return True


def build_symmetric(d: int) -> FiniteGroup:
    """The symmetric group on d points, order d!.

    Elements are enumerated in lexicographic one-line order, so the identity
    permutation comes first.  mul composes left factor first: if p has index
    a and q index b, mul[a][b] is the index of x -> q[p[x]].
    """
    if d < 1:
        raise ValueError("symmetric group needs at least 1 point")
    if not factorials_within(GROUP_ORDER_LIMIT, [d]):
        raise BoundExceeded(f"symmetric group on {d} points has order over the limit {GROUP_ORDER_LIMIT}")
    perms = tuple(itertools.permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(q[x] for x in p)] for q in perms] for p in perms]
    return FiniteGroup(mul, name=f"S{d}")


class SpinAction:
    """A right action of a finite group on a finite spin set, as a table.

    ``act[q][g]`` is the image of spin q under element g.  The constructor
    checks shape, index ranges, and that the identity fixes every spin; the
    full right-action law is the job of :func:`verify_action`.
    """

    __slots__ = ("group", "size", "act", "name")

    def __init__(self, group: FiniteGroup, act: Sequence[Sequence[int]], name: str = "Q"):
        rows = tuple(tuple(row) for row in act)
        m = len(rows)
        if m > SPIN_COUNT_LIMIT:
            raise BoundExceeded(f"spin count {m} exceeds limit {SPIN_COUNT_LIMIT}")
        for q, row in enumerate(rows):
            if len(row) != group.order:
                raise ValueError(f"act row {q} has length {len(row)}, expected {group.order}")
            for g, x in enumerate(row):
                if not isinstance(x, int) or not 0 <= x < m:
                    raise ValueError(f"act[{q}][{g}] = {x!r} is not a spin index")
            if row[0] != q:
                raise ValueError(f"identity must fix spin {q}")
        self.group = group
        self.size = m
        self.act = rows
        self.name = name

    def fixed(self, g: int) -> frozenset[int]:
        """Spins fixed by a single group element."""
        return frozenset(q for q in range(self.size) if self.act[q][g] == q)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpinAction)
            and self.group == other.group
            and self.act == other.act
        )

    __hash__ = None  # mutable-looking tables; keyed by identity where needed

    def __repr__(self) -> str:
        return f"SpinAction({self.name!r}, size={self.size}, group={self.group.name!r})"


def verify_action(action: SpinAction) -> bool:
    """Check the right-action law (q*g)*h == q*(g*h) on every spin and
    group element g, for h in a generating set of the group: in a group the
    elements h that pass are closed under products, since (q*g)*(h*k) ==
    ((q*g)*h)*k.  Walks size * order * log2(order) triples at most, or
    size * order**2 when the group's table is not associative.
    """
    act, mul = action.act, action.group.mul
    rng = range(action.group.order)
    gens = _generators(mul)
    if gens is None:
        gens = rng
    for row in act:
        for g in rng:
            moved, mul_g = act[row[g]], mul[g]
            for h in gens:
                if moved[h] != row[mul_g[h]]:
                    return False
    return True


def regular_action(group: FiniteGroup) -> SpinAction:
    """The group acting on itself by right translation; only the identity
    has fixed points."""
    return SpinAction(group, group.mul, name=f"regular({group.name})")


def trivial_action(group: FiniteGroup, size: int) -> SpinAction:
    """Every spin fixed by every element."""
    if size < 1:
        raise ValueError("trivial action needs at least one spin")
    if size > SPIN_COUNT_LIMIT:
        raise BoundExceeded(f"spin count {size} exceeds limit {SPIN_COUNT_LIMIT}")
    rows = tuple((q,) * group.order for q in range(size))
    return SpinAction(group, rows, name=f"trivial({size})")


def disjoint_union_action(parts: Sequence[SpinAction], mults: Sequence[int]) -> SpinAction:
    """Disjoint union of mults[i] copies of each part's spin set.

    The group acts on the part coordinate only.  Spins are ordered part-major
    and copy-minor: part i, spin q, copy c lands at offset(i) + q*mults[i] + c,
    which makes every construction reproducible bit for bit.
    """
    if len(parts) != len(mults):
        raise ValueError("parts and mults must have the same length")
    if not parts:
        raise ValueError("need at least one part to determine the group")
    group = parts[0].group
    for part in parts[1:]:
        if part.group != group:
            raise ValueError("all parts must share one gain group")
    for k in mults:
        if not isinstance(k, int) or k < 0:
            raise ValueError("multiplicities must be nonnegative integers")
    total = sum(k * part.size for part, k in zip(parts, mults))
    if total > SPIN_COUNT_LIMIT:
        raise BoundExceeded(f"spin count {total} exceeds limit {SPIN_COUNT_LIMIT}")
    rows = []
    offset = 0
    for part, k in zip(parts, mults):
        for q in range(part.size):
            row_q = part.act[q]
            for c in range(k):
                rows.append(tuple(offset + row_q[g] * k + c for g in range(group.order)))
        offset += k * part.size
    label = " + ".join(f"{k}*{part.name}" for part, k in zip(parts, mults))
    return SpinAction(group, rows, name=label or "empty")


def standard_colors(group: FiniteGroup, k: int) -> SpinAction:
    """k regular copies of the group plus one globally fixed spin (size
    k*|G| + 1); every nonidentity element fixes exactly the extra spin."""
    return disjoint_union_action(
        [regular_action(group), trivial_action(group, 1)], [k, 1]
    )


def zero_free_colors(group: FiniteGroup, k: int) -> SpinAction:
    """k disjoint regular copies of the group (size k*|G|, fixed-point free
    for every nonidentity element)."""
    return disjoint_union_action([regular_action(group)], [k])


def subset_action(d: int) -> SpinAction:
    """The symmetric group on d points permuting all 2**d subsets elementwise.

    Subsets are encoded as bitmasks and ordered by mask value.
    """
    group = build_symmetric(d)
    m = 1 << d
    if m > SPIN_COUNT_LIMIT:
        raise BoundExceeded(f"spin count {m} exceeds limit {SPIN_COUNT_LIMIT}")
    perms = tuple(itertools.permutations(range(d)))
    rows = []
    for mask in range(m):
        members = [x for x in range(d) if mask >> x & 1]
        row = []
        for p in perms:
            image = 0
            for x in members:
                image |= 1 << p[x]
            row.append(image)
        rows.append(tuple(row))
    return SpinAction(group, rows, name=f"subsets({d})")


def stabilizer_classes(action: SpinAction) -> tuple[tuple[int, ...], ...]:
    """The spins grouped by their stabilizer subgroup, in one pass over the
    action table.

    Each class is in increasing spin order, and the classes are ordered by
    their first spin.  Two spins x, y share a class exactly when some
    permutation of the spins that commutes with the action maps x to y:
    x*g -> y*g on the orbit of x (and back on the orbit of y) is one, since
    Aut(G/K) is N(K)/K (tom Dieck, *Transformation Groups*, 1987, I.1).

    ``row.count(q)`` is |Stab(q)|.  When it is |G| the stabilizer is the
    whole group and when it is 1 the identity alone; only the other spins
    have their stabilizer listed.
    """
    whole = tuple(range(action.group.order))
    trivial = (FiniteGroup.identity,)
    classes: dict[tuple[int, ...], list[int]] = {}
    for q, row in enumerate(action.act):
        fixing = row.count(q)
        if fixing == len(whole):
            stabilizer = whole
        elif fixing == 1:
            stabilizer = trivial
        else:
            stabilizer = tuple(g for g, x in enumerate(row) if x == q)
        classes.setdefault(stabilizer, []).append(q)
    return tuple(tuple(spins) for spins in classes.values())


def fixed_set(action: SpinAction, subgroup: Iterable[int]) -> frozenset[int]:
    """Spins fixed by every element of the subgroup."""
    elems = frozenset(subgroup)
    act = action.act
    for g in elems:
        if not 0 <= g < action.group.order:
            raise ValueError(f"{g} is not an element of the group")
    return frozenset(
        q for q in range(action.size) if all(act[q][g] == q for g in elems)
    )


def generate_subgroup(group: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """The smallest subgroup containing the generators, by closure under
    multiplication starting from the identity."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < group.order:
            raise ValueError(f"{g} is not an element of the group")
    mul = group.mul
    elems = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul[x][g]
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


def conjugate_subgroup(group: FiniteGroup, subgroup: Iterable[int], by: int) -> frozenset[int]:
    """The conjugate subgroup by^-1 * H * by."""
    return frozenset(group.conjugate(g, by) for g in subgroup)
