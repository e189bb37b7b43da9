"""Application encodings: the Potts model on signed graphs, set coloring,
and equivalence-class coloring.

Each encoding ships with a direct evaluator that never touches the
gain-graph machinery, so the two routes genuinely cross-check each other.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable

from .groups import (
    BoundExceeded,
    FiniteGroup,
    GROUP_ORDER_LIMIT,
    SPIN_COUNT_LIMIT,
    SpinAction,
    build_symmetric,
    factorials_within,
    regular_action,
    subset_action,
)
from .graphs import GainGraph, SimpleGraph, gain_graph, group_expansion
from .counting import count_brute


@dataclass(frozen=True)
class SignedGraph:
    """Graph whose edges are marked +1 or -1."""

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((u, v, s) for u, v, s in self.edges))
        for u, v, s in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) has an endpoint out of range")
            if s not in (1, -1):
                raise ValueError(f"edge sign must be +1 or -1, got {s!r}")


def potts_gain_graph(signed: SignedGraph, group: FiniteGroup) -> GainGraph:
    """Encode a signed graph so its totally frustrated states are exactly the
    satisfied Potts states: a negative edge becomes one identity-gain edge, a
    positive edge becomes one edge per nonidentity gain."""
    if group.order < 2:
        raise ValueError("the Potts encoding needs a group with at least 2 elements")
    triples = []
    for u, v, s in signed.edges:
        if s < 0:
            triples.append((u, v, 0))
        else:
            triples.extend((u, v, x) for x in range(1, group.order))
    return gain_graph(group, signed.vertex_count, triples)


def _count_states(n: int, q: int, constraints: list[tuple[int, int, Callable[[int, int], bool]]]) -> int:
    """Assignments of ``range(q)`` to n vertices under which every
    ``(u, v, ok)`` has ``ok(s_u, s_v)``, by plain enumeration; each ``ok``
    is tabled first, so a state pays a lookup per constraint, not a call."""
    tables = [(u, v, [[ok(s, t) for t in range(q)] for s in range(q)]) for u, v, ok in constraints]
    total = 0
    for state in itertools.product(range(q), repeat=n):
        for u, v, allowed in tables:
            if not allowed[state[u]][state[v]]:
                break
        else:
            total += 1
    return total


def potts_direct_count(signed: SignedGraph, spin_count: int) -> int:
    """Spin assignments where every positive edge joins equal spins and every
    negative edge joins unequal spins, by plain enumeration."""
    constraints = [(u, v, operator.eq if s > 0 else operator.ne) for u, v, s in signed.edges]
    return _count_states(signed.vertex_count, spin_count, constraints)


def potts_satisfiable_count(
    signed: SignedGraph, group: FiniteGroup, max_states: int = 10**8
) -> int:
    """Number of satisfied Potts states, counted through the gain-graph
    encoding and verified against the direct evaluator."""
    phi = potts_gain_graph(signed, group)
    value = count_brute(phi, regular_action(group), max_states=max_states).value
    direct = potts_direct_count(signed, group.order)
    if value != direct:
        raise AssertionError(
            f"Potts encodings disagree: gain graph {value}, direct {direct}"
        )
    return value


def set_coloring_direct(template: SimpleGraph, k: int) -> int:
    """Assignments of subsets of a k-set such that across every edge no
    permutation carries one endpoint's subset onto the other's, by plain
    enumeration over states and permutations."""
    perms = list(itertools.permutations(range(k)))

    def image(mask: int, p) -> int:
        out = 0
        for x in range(k):
            if mask >> x & 1:
                out |= 1 << p[x]
        return out

    images = [{image(a, p) for p in perms} for a in range(1 << k)]
    constraints = [(u, v, lambda s, t: t not in images[s]) for u, v in template.edges]
    return _count_states(template.vertex_count, 1 << k, constraints)


SET_COLORING_K_LIMIT = 4


def set_coloring_routes(template: SimpleGraph, k: int) -> tuple[int, int]:
    """The count of proper set colorations through the symmetric-group
    expansion, and the count of the direct enumerator."""
    if k < 1:
        raise ValueError("set coloring needs k >= 1")
    if k > SET_COLORING_K_LIMIT:
        raise BoundExceeded(f"set coloring limited to k <= {SET_COLORING_K_LIMIT}")
    expansion = group_expansion(template, build_symmetric(k))
    return count_brute(expansion, subset_action(k)).value, set_coloring_direct(template, k)


def set_coloring_count(template: SimpleGraph, k: int) -> int:
    """Count proper set colorations through the symmetric-group expansion and
    verify against the direct enumerator."""
    value, direct = set_coloring_routes(template, k)
    if value != direct:
        raise AssertionError(
            f"set-coloring routes disagree: expansion {value}, direct {direct}"
        )
    return value


def block_permutation_action(block_sizes: tuple[int, ...] | list[int]) -> SpinAction:
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


def equivalence_expansion(
    template: SimpleGraph, block_sizes: tuple[int, ...] | list[int]
) -> tuple[GainGraph, SpinAction]:
    """Gain graph and action whose totally frustrated states are exactly the
    colorings of the template with inequivalent (different-block) spins on
    adjacent vertices."""
    action = block_permutation_action(tuple(block_sizes))
    graph = group_expansion(template, action.group)
    return graph, action


def equivalence_direct_count(
    template: SimpleGraph, block_sizes: tuple[int, ...] | list[int]
) -> int:
    """Colorings with adjacent spins in different blocks, by enumeration."""
    block_of = [i for i, b in enumerate(block_sizes) for _ in range(b)]
    constraints = [(u, v, lambda s, t: block_of[s] != block_of[t]) for u, v in template.edges]
    return _count_states(template.vertex_count, len(block_of), constraints)
