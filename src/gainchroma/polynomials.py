"""Exact polynomial forms of the frustrated-state count.

The central object is the multivariate polynomial in the multiplicities
k1..kp of a family of spin parts: its value at (k1,...,kp) equals the count
of totally frustrated states over the disjoint union of ki copies of each
part.  Specializing the parts recovers the univariate chromatic polynomial
(one regular part plus one fixed spin), the zero-free chromatic polynomial
(one regular part), and the chromatic polynomial of the underlying graph
(one trivial part).

The grand, chromatic and zero-free polynomials fold Zaslavsky's balanced
expansion, grouped by ``holonomy.subset_terms``: each edge subset
contributes (-1)**|subset| times a factor per component, a vertex the
subset leaves isolated being a component with trivial holonomy.  A subset
and its holonomy closure have the same components and subgroups, so by
Rota's crosscut identity this equals the paper's Möbius sum over the
closed sets; ``regular_plus_zeroes`` still folds over the closed-set
lattice, a second route to the two-part grand polynomial.  The grand
polynomial folds with ``lattice_sum`` in ``MultiPoly`` arithmetic; the
univariate ones add int coefficients of powers of the spin count.

Every polynomial here is a ``MultiPoly``; the univariate ones have arity 1,
so they are evaluated as ``p.evaluate([x])`` and print in the spin count λ
with ``p.render(["λ"])``.
"""

from __future__ import annotations

import math
from operator import add
from typing import Mapping, Sequence

from .groups import BoundExceeded, SpinAction, fixed_set
from .graphs import GainGraph, SimpleGraph, check_action, loop_domains
from .graphs import components  # noqa: F401  perfbench's tracer rebinds it in this namespace
from .holonomy import ClosedSetLattice, SubsetTerms, enumerate_closed_sets, subset_terms
from .counting import count_auto  # noqa: F401  perfbench's tracer rebinds it in this namespace
from .counting import lattice_sum

PART_LIMIT = 8
# The most monomials a polynomial in the part multiplicities may have room
# for: C(|V| + p, p) with p parts, the count of exponent vectors of total
# degree at most |V|.  The fold's products grow to about that many terms, so
# the bound keeps ``grand_polynomial`` and ``leading_form`` near a second.
TERM_LIMIT = 10**5


class MultiPoly:
    """Multivariate polynomial over the integers in variables k1..kp.

    Terms map exponent vectors to nonzero integer coefficients.  Rendering
    uses graded lexicographic order, highest terms first.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.arity = arity
        clean: dict[tuple[int, ...], int] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != arity or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for arity {arity}")
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be exact integers")
            if coeff:
                clean[expo] = clean.get(expo, 0) + coeff
                if not clean[expo]:
                    del clean[expo]
        self.terms = clean

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value: int) -> "MultiPoly":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def linear(cls, arity: int, coeffs: Sequence[int]) -> "MultiPoly":
        """The homogeneous linear form sum coeffs[i] * k_{i+1}."""
        if len(coeffs) != arity:
            raise ValueError("one coefficient per variable")
        terms = {}
        for i, c in enumerate(coeffs):
            expo = tuple(1 if j == i else 0 for j in range(arity))
            terms[expo] = c
        return cls(arity, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest exponent sum, or -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_part(self, degree: int) -> "MultiPoly":
        return MultiPoly(
            self.arity, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def evaluate(self, values: Sequence[int]) -> int:
        if len(values) != self.arity:
            raise ValueError(f"expected {self.arity} values, got {len(values)}")
        total = 0
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, expo):
                term *= v**e
            total += term
        return total

    @classmethod
    def _unchecked(cls, arity: int, terms: dict[tuple[int, ...], int]) -> "MultiPoly":
        """The polynomial with the nonzero ``terms``, whose keys must already
        be exponent tuples of length ``arity`` and whose values ints; for
        results of arithmetic on valid polynomials."""
        poly = object.__new__(cls)
        poly.arity = arity
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + sign * coeff
        return MultiPoly._unchecked(self.arity, terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._unchecked(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly._unchecked(self.arity, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = tuple(map(add, ea, eb))
                terms[expo] = terms.get(expo, 0) + ca * cb
        return MultiPoly._unchecked(self.arity, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "MultiPoly":
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        out = MultiPoly.constant(self.arity, 1)
        for _ in range(power):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    __hash__ = None

    def render(self, names: Sequence[str] | None = None) -> str:
        """Graded-lex string such as ``4*k1^2 - 2*k1``."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"k{i + 1}" for i in range(self.arity)]
        ordered = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = []
        for expo in ordered:
            coeff = self.terms[expo]
            vars_part = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(expo)
                if e
            )
            mag = abs(coeff)
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = f"-{body}" if sign == "-" else body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"


def check_parts(g: GainGraph, parts: Sequence[SpinAction]):
    """Refuse spin parts that are none, of another group, or over a limit."""
    if not parts:
        raise ValueError("need at least one spin part")
    if len(parts) > PART_LIMIT:
        raise BoundExceeded(f"{len(parts)} spin parts exceed the limit {PART_LIMIT}")
    for part in parts:
        check_action(g, part)
    room = math.comb(g.vertex_count + len(parts), len(parts))
    if room > TERM_LIMIT:
        raise BoundExceeded(
            f"{g.vertex_count} vertices and {len(parts)} spin parts allow {room} terms, over the limit {TERM_LIMIT}"
        )


# What the polynomials fold: the graph's ``subset_terms`` or, with the
# same terms, its closed-set lattice.
Source = SubsetTerms | ClosedSetLattice


def grand_polynomial(g: GainGraph, parts: Sequence[SpinAction], source: Source | None = None) -> MultiPoly:
    """The multivariate count polynomial in the part multiplicities.

    Each edge subset contributes (-1)**|subset| times one linear factor per
    component: the sum over parts of ki times the part's fixed count under
    the component's holonomy group.  A vertex the subset leaves isolated is
    a component with trivial holonomy, whose factor is the sum of ki*|Qi|.
    A graph with an identity loop gives the zero polynomial.  ``source``,
    when given, must be the graph's ``subset_terms`` or its closed-set
    lattice; otherwise ``subset_terms`` is built, which refuses graphs over
    ``LATTICE_EDGE_LIMIT`` edges.
    """
    check_parts(g, parts)
    p = len(parts)
    if source is None:
        source = subset_terms(g)
    return lattice_sum(
        source,
        lambda h: MultiPoly.linear(p, [len(fixed_set(part, h)) for part in parts]),
        zero=MultiPoly.zero(p),
    )


def leading_form(g: GainGraph, parts: Sequence[SpinAction]) -> MultiPoly:
    """The homogeneous degree-|V| product: one linear factor per vertex whose
    part-i coefficient is the size of the vertex's ``graphs.loop_domains``
    in part i, |Qi| minus the spins fixed by some incident loop."""
    check_parts(g, parts)
    p = len(parts)
    sizes = [[len(domain) for domain in loop_domains(g, part)] for part in parts]
    total = MultiPoly.constant(p, 1)
    for coeffs in zip(*sizes):
        total = total * MultiPoly.linear(p, coeffs)
    return total


def regular_plus_zeroes(g: GainGraph) -> MultiPoly:
    """Two-variable specialization from balance statistics alone.

    With one regular part and one fixed spin, a component's factor is
    k1*|G| + k2 when it is balanced and k2 otherwise, so each closed set
    contributes mu * (k1*|G| + k2)**b * k2**(c - b) where c counts components
    and b the balanced ones, a vertex the set leaves isolated being a
    balanced component.  Must agree coefficientwise with the two-part grand
    polynomial.
    """
    order = g.group.order
    balanced_factor = MultiPoly.linear(2, [order, 1])
    k2 = MultiPoly.linear(2, [0, 1])
    # a component is balanced exactly when its holonomy group is trivial
    return lattice_sum(
        enumerate_closed_sets(g),
        lambda h: balanced_factor if len(h) == 1 else k2,
        zero=MultiPoly.zero(2),
    )


def _univariate(g: GainGraph, source: Source | None, unbalanced: int) -> MultiPoly:
    """The one-variable fold over the graph's terms, built when not given,
    as a ``MultiPoly`` of arity 1 in λ: each component with trivial
    holonomy, an isolated vertex among them, contributes a factor λ, and
    each other component the constant ``unbalanced``.  So a term with b
    factors λ and ``rest`` others adds mu * unbalanced**rest to the int
    coefficient of λ**b; a term whose weight is 0 adds nothing, and its mu
    takes part in no arithmetic."""
    if source is None:
        source = subset_terms(g)
    coeffs: dict[tuple[int], int] = {}
    for mu, parts in source.terms:
        b, rest = source.untouched, 0
        for h, times in parts:
            if len(h) == 1:
                b += times
            else:
                rest += times
        weight = unbalanced**rest
        if weight:
            coeffs[(b,)] = coeffs.get((b,), 0) + mu * weight
    return MultiPoly._unchecked(1, coeffs)


def chromatic_polynomial(g: GainGraph, source: Source | None = None) -> MultiPoly:
    """The count polynomial over spin sets made of k regular copies of the
    group plus one fixed spin, as a one-variable ``MultiPoly`` in the spin
    count λ = k*|G| + 1.

    A subgroup H fixes k*|G| + 1 = λ of those spins when it is trivial and
    only the fixed spin otherwise, so each edge subset contributes
    (-1)**|subset| * λ**b, where b counts its components with trivial
    holonomy, a vertex the subset leaves isolated being one such component
    (Zaslavsky's balanced expansion).  ``source``, when given, must be the
    graph's ``subset_terms`` or its closed-set lattice; otherwise
    ``subset_terms`` is built, which refuses graphs over
    ``LATTICE_EDGE_LIMIT`` edges.
    """
    return _univariate(g, source, 1)


def _without_nonidentity_loops(g: GainGraph) -> GainGraph:
    keep = [e for e in g.edges if not (e.is_loop and e.gain != 0)]
    return GainGraph(g.group, g.vertex_count, keep)


def zero_free_polynomial(g: GainGraph, source: Source | None = None) -> MultiPoly:
    """The count polynomial over spin sets made of k regular copies of the
    group, as a one-variable ``MultiPoly`` in the spin count λ = k*|G|.

    As ``chromatic_polynomial``, except that a nontrivial subgroup fixes no
    regular spin, so subsets with a component of nontrivial holonomy drop
    out.  Deleting nonidentity loops must not change the polynomial; that
    is verified before returning, with the stripped graph's own walk.
    ``source``, when given, must be the graph's ``subset_terms`` or its
    closed-set lattice.
    """
    poly = _univariate(g, source, 0)
    stripped = _without_nonidentity_loops(g)
    if len(stripped.edges) != len(g.edges):
        if _univariate(stripped, None, 0) != poly:
            raise ArithmeticError("zero-free polynomial changed under nonidentity loop deletion")
    return poly


def graph_chromatic(template: SimpleGraph) -> MultiPoly:
    """Ordinary chromatic polynomial of a graph, by deletion-contraction, as
    a one-variable ``MultiPoly``."""

    def recurse(n: int, edges: tuple[tuple[int, int], ...]) -> MultiPoly:
        if any(u == v for u, v in edges):
            return MultiPoly.zero(1)
        if not edges:
            return MultiPoly(1, {(n,): 1})
        u, v = edges[0]
        rest = edges[1:]

        def vmap(w: int) -> int:
            if w == v:
                w = u
            return w if w < v else w - 1

        merged = tuple((vmap(a), vmap(b)) for a, b in rest)
        return recurse(n, rest) - recurse(n - 1, merged)

    try:
        return recurse(template.vertex_count, template.edges)
    finally:
        recurse = None  # break the closure's cycle through its own cell
