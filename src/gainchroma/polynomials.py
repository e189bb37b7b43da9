"""Exact polynomial forms of the frustrated-state count.

The central object is the multivariate polynomial in the multiplicities
k1..kp of a family of spin parts: its value at (k1,...,kp) equals the count
of totally frustrated states over the disjoint union of ki copies of each
part.  Specializing the parts recovers the univariate chromatic polynomial
(one regular part plus one fixed spin), the zero-free chromatic polynomial
(one regular part), and the chromatic polynomial of the underlying graph
(one trivial part).

Univariate polynomials are recovered by exact rational interpolation from
counts, keeping one counting code path; integrality of the resulting
coefficients is asserted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .groups import (
    BoundExceeded,
    SpinAction,
    fixed_set,
    standard_colors,
    zero_free_colors,
)
from .graphs import GainGraph, SimpleGraph
from .graphs import components  # noqa: F401  perfbench's tracer rebinds it in this namespace
from .holonomy import ClosedSetLattice, HolonomyCache, enumerate_closed_sets
from .counting import count_auto, subset_sum

PART_LIMIT = 8


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

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + sign * coeff
        return MultiPoly(self.arity, terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(self.arity, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = tuple(x + y for x, y in zip(ea, eb))
                terms[expo] = terms.get(expo, 0) + ca * cb
        return MultiPoly(self.arity, terms)

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


class UniPoly:
    """Dense univariate polynomial with exact rational coefficients, lowest
    degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "UniPoly":
        return cls((value,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            - (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * other for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "UniPoly":
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        out = UniPoly.constant(1)
        for _ in range(power):
            out = out * self
        return out

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def integer_coefficients(self) -> tuple[int, ...]:
        """Coefficients as plain ints; raises if any is not integral."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ArithmeticError(f"coefficient {c} is not an integer")
            out.append(c.numerator)
        return tuple(out)

    def render(self, var: str = "λ") -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            if power == 0:
                body = str(abs(c))
            else:
                head = var if power == 1 else f"{var}^{power}"
                body = head if abs(c) == 1 else f"{abs(c)}*{head}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = f"-{body}" if sign == "-" else body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"UniPoly({self.render()})"


def _check_parts(g: GainGraph, parts: Sequence[SpinAction], max_parts: int = PART_LIMIT):
    if not parts:
        raise ValueError("need at least one spin part")
    if len(parts) > max_parts:
        raise BoundExceeded(f"{len(parts)} spin parts exceed the limit {max_parts}")
    for part in parts:
        if part.group != g.group:
            raise ValueError("every spin part must use the graph's group")


def grand_polynomial(
    g: GainGraph,
    parts: Sequence[SpinAction],
    max_edges: int = 18,
    lattice: ClosedSetLattice | None = None,
    cache: HolonomyCache | None = None,
) -> MultiPoly:
    """The multivariate count polynomial in the part multiplicities.

    Each holonomy-closed set contributes its Möbius value times one linear
    factor per component (sum over parts of ki times the part's fixed count
    under the component's holonomy group) and a factor sum ki*|Qi| per
    isolated vertex.  A bottomless lattice gives the zero polynomial.
    """
    _check_parts(g, parts)
    p = len(parts)
    if lattice is None:
        lattice = enumerate_closed_sets(g, max_edges=max_edges)
    if lattice.bottomless:
        return MultiPoly.zero(p)
    return subset_sum(
        g,
        lattice.mobius_from_bottom.items(),
        lambda h: MultiPoly.linear(p, [len(fixed_set(part, h)) for part in parts]),
        MultiPoly.linear(p, [part.size for part in parts]),
        cache or HolonomyCache(g),
        zero=MultiPoly.zero(p),
    )


def leading_form(g: GainGraph, parts: Sequence[SpinAction]) -> MultiPoly:
    """The homogeneous degree-|V| product: one linear factor per vertex whose
    part-i coefficient is |Qi| minus the spins fixed by some incident loop."""
    _check_parts(g, parts)
    p = len(parts)
    loop_gains: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e in g.edges:
        if e.is_loop:
            loop_gains[e.u].append(e.gain)
    total = MultiPoly.constant(p, 1)
    for v in range(g.vertex_count):
        coeffs = []
        for part in parts:
            banned: set[int] = set()
            for gain in loop_gains[v]:
                banned |= part.fixed(gain)
            coeffs.append(part.size - len(banned))
        total = total * MultiPoly.linear(p, coeffs)
    return total


def regular_plus_zeroes(
    g: GainGraph,
    max_edges: int = 18,
    lattice: ClosedSetLattice | None = None,
) -> MultiPoly:
    """Two-variable specialization from balance statistics alone.

    With one regular part and one fixed spin, a component's factor is
    k1*|G| + k2 when it is balanced and k2 otherwise, so each closed set
    contributes mu * (k1*|G| + k2)**b * k2**(c - b) where c counts components
    (isolated vertices included) and b the balanced ones.  Must agree
    coefficientwise with the two-part grand polynomial.
    """
    order = g.group.order
    if lattice is None:
        lattice = enumerate_closed_sets(g, max_edges=max_edges)
    if lattice.bottomless:
        return MultiPoly.zero(2)
    balanced_factor = MultiPoly.linear(2, [order, 1])
    k2 = MultiPoly.linear(2, [0, 1])
    # a component is balanced exactly when its holonomy group is trivial
    return subset_sum(
        g,
        lattice.mobius_from_bottom.items(),
        lambda h: balanced_factor if len(h) == 1 else k2,
        balanced_factor,
        HolonomyCache(g),
        zero=MultiPoly.zero(2),
    )


def _interpolate(points: Sequence[tuple[Fraction, int]]) -> UniPoly:
    """Lagrange interpolation through exact rational points."""
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


def chromatic_polynomial(g: GainGraph, max_vertices: int = 16) -> UniPoly:
    """The count polynomial over spin sets made of k regular copies of the
    group plus one fixed spin, as a polynomial in the spin count k*|G| + 1.

    Recovered by interpolating exact counts at k = 0..|V|; the coefficients
    must come out integral, anything else signals a bug.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise BoundExceeded(f"{n} vertices exceed the interpolation limit {max_vertices}")
    order = g.group.order
    lattice = enumerate_closed_sets(g) if len(g.edges) <= 18 else None
    cache = HolonomyCache(g)
    points = []
    for k in range(n + 1):
        colors = standard_colors(g.group, k)
        value = count_auto(g, colors, lattice=lattice, cache=cache)
        points.append((Fraction(k * order + 1), value))
    poly = _interpolate(points)
    poly.integer_coefficients()
    return poly


def _without_nonidentity_loops(g: GainGraph) -> GainGraph:
    keep = [e for e in g.edges if not (e.is_loop and e.gain != 0)]
    return GainGraph(g.group, g.vertex_count, keep)


def zero_free_polynomial(g: GainGraph, max_vertices: int = 16) -> UniPoly:
    """The count polynomial over spin sets made of k regular copies of the
    group, as a polynomial in the spin count k*|G|.

    Interpolated at k = 1..|V|+1 (k = 0 is the empty spin set, which is not
    an evaluation point of this polynomial).  Deleting nonidentity loops must
    not change it; that is verified before returning.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise BoundExceeded(f"{n} vertices exceed the interpolation limit {max_vertices}")
    order = g.group.order
    lattice = enumerate_closed_sets(g) if len(g.edges) <= 18 else None
    cache = HolonomyCache(g)
    points = []
    for k in range(1, n + 2):
        colors = zero_free_colors(g.group, k)
        value = count_auto(g, colors, lattice=lattice, cache=cache)
        points.append((Fraction(k * order), value))
    poly = _interpolate(points)
    poly.integer_coefficients()
    stripped = _without_nonidentity_loops(g)
    if len(stripped.edges) != len(g.edges):
        if zero_free_polynomial(stripped, max_vertices=max_vertices) != poly:
            raise ArithmeticError("zero-free polynomial changed under nonidentity loop deletion")
    return poly


def graph_chromatic(template: SimpleGraph) -> UniPoly:
    """Ordinary chromatic polynomial of a graph, by deletion-contraction."""
    lam = UniPoly.x()

    def recurse(n: int, edges: tuple[tuple[int, int], ...]) -> UniPoly:
        if any(u == v for u, v in edges):
            return UniPoly.zero()
        if not edges:
            return lam**n
        u, v = edges[0]
        rest = edges[1:]

        def vmap(w: int) -> int:
            if w == v:
                w = u
            return w if w < v else w - 1

        merged = tuple((vmap(a), vmap(b)) for a, b in rest)
        return recurse(n, rest) - recurse(n - 1, merged)

    return recurse(template.vertex_count, template.edges)
