"""Application encodings: the Potts model on signed graphs and set coloring.

Each encoding ships with a direct evaluator that never touches the
gain-graph machinery, so the two routes genuinely cross-check each other.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable

from .groups import BoundExceeded, FiniteGroup, build_symmetric, regular_action, subset_action
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


def potts_routes(signed: SignedGraph, group: FiniteGroup) -> tuple[int, int]:
    """The number of satisfied Potts states through the gain-graph encoding,
    counted by brute force within ``counting.STATE_BUDGET``, and the number
    the direct evaluator gives."""
    phi = potts_gain_graph(signed, group)
    encoded = count_brute(phi, regular_action(group)).value
    return encoded, potts_direct_count(signed, group.order)


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
