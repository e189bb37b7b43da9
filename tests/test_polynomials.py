import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gainchroma import (
    MultiPoly,
    SimpleGraph,
    UniPoly,
    build_cyclic,
    build_symmetric,
    chromatic_polynomial,
    count_mobius,
    disjoint_union_action,
    enumerate_closed_sets,
    gain_graph,
    grand_polynomial,
    graph_chromatic,
    leading_form,
    regular_action,
    regular_plus_zeroes,
    standard_colors,
    trivial_action,
    zero_free_colors,
    zero_free_polynomial,
)
from gainchroma import counting, polynomials
from gainchroma.polynomials import _interpolate
from helpers import naive_count, oracle_interpolate, oracle_lattice_sum, random_graph

Z2 = build_cyclic(2)
Z3 = build_cyclic(3)
Z4 = build_cyclic(4)
S3 = build_symmetric(3)


def digon(group=Z2, gains=(0, 1)):
    return gain_graph(group, 2, [(0, 1, gains[0]), (0, 1, gains[1])])


class TestMultiPoly:
    def test_rendering(self):
        p = MultiPoly(1, {(2,): 4, (1,): -2})
        assert p.render() == "4*k1^2 - 2*k1"
        q = MultiPoly(2, {(2, 0): 4, (1, 1): 4, (0, 2): 1, (1, 0): -2, (0, 1): -1})
        assert q.render() == "4*k1^2 + 4*k1*k2 + k2^2 - 2*k1 - k2"
        assert MultiPoly.zero(3).render() == "0"
        assert MultiPoly.constant(2, -5).render() == "-5"

    def test_arithmetic(self):
        a = MultiPoly.linear(2, [2, 1])
        b = MultiPoly.linear(2, [0, 1])
        prod = a * a - a - b * a + b
        # (2k1+k2)^2 - (2k1+k2) - k2(2k1+k2) + k2 = (2k1+k2-k2)(2k1+k2-1)
        assert prod == MultiPoly(
            2, {(2, 0): 4, (1, 1): 2, (1, 0): -2}
        )

    def test_evaluate(self):
        p = MultiPoly(2, {(2, 0): 4, (1, 1): 4, (0, 2): 1, (1, 0): -4, (0, 1): -1})
        assert p.evaluate([1, 1]) == 4
        assert p.evaluate([0, 0]) == 0
        with pytest.raises(ValueError):
            p.evaluate([1])

    def test_degrees_and_parts(self):
        p = MultiPoly(1, {(2,): 4, (1,): -2})
        assert p.total_degree() == 2
        assert p.homogeneous_part(2) == MultiPoly(1, {(2,): 4})
        assert MultiPoly.zero(1).total_degree() == -1

    def test_zero_coefficients_dropped(self):
        p = MultiPoly(1, {(1,): 1}) - MultiPoly(1, {(1,): 1})
        assert p.is_zero and p.terms == {}

    def test_power(self):
        k = MultiPoly.linear(1, [1])
        assert (k**3).terms == {(3,): 1}
        assert (k**0).terms == {(0,): 1}


class TestMultiPolyArithmetic:
    """Arithmetic builds its results without the public constructor's
    checks; these pin what it must still guarantee."""

    @pytest.mark.parametrize(
        "terms, error",
        [
            ({(1,): 1}, ValueError),
            ({(1, 0, 0): 1}, ValueError),
            ({(-1, 0): 1}, ValueError),
            ({(1, 0): 1.5}, TypeError),
            ({(1, 0): Fraction(1)}, TypeError),
        ],
    )
    def test_public_constructor_still_checks(self, terms, error):
        with pytest.raises(error):
            MultiPoly(2, terms)

    def test_cancelled_terms_are_dropped(self):
        k1, k2 = MultiPoly.linear(2, [1, 0]), MultiPoly.linear(2, [0, 1])
        p = k1 * k1 + k2
        assert (p - p).terms == {}
        assert (p + (-p)).terms == {}
        assert (0 * p).terms == {} and (p * 0).terms == {}
        product = (k1 + k2) * (k1 - k2)
        assert product.terms == {(2, 0): 1, (0, 2): -1}
        assert product.render() == "k1^2 - k2^2"
        assert ((k1 - k2) ** 2 - k1 * k1 - k2 * k2).render() == "-2*k1*k2"

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=5),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=5),
        st.integers(-2, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_results_are_what_the_public_constructor_builds(self, a, b, c):
        def poly(triples):
            terms = {}
            for x, y, coeff in triples:
                terms[x, y] = terms.get((x, y), 0) + coeff
            return MultiPoly(2, terms)

        p, q = poly(a), poly(b)
        for result in (p + q, p - q, p * q, p**2, -p, p * c, c * q):
            assert all(result.terms.values())
            rebuilt = MultiPoly(2, result.terms)
            assert result == rebuilt and result.render() == rebuilt.render()
        # the sum and product agree with evaluation, term for term
        for point in ([0, 1], [2, -1], [3, 5]):
            assert (p * q - p).evaluate(point) == p.evaluate(point) * (q.evaluate(point) - 1)


class TestUniPoly:
    def test_rendering(self):
        assert UniPoly((0, -1, 1)).render() == "λ^2 - λ"
        assert UniPoly((-1, 1)).render() == "λ - 1"
        assert UniPoly.zero().render() == "0"
        assert UniPoly((3,)).render() == "3"

    def test_arithmetic_and_eval(self):
        lam = UniPoly.x()
        p = lam * (lam - UniPoly.constant(1))
        assert p.evaluate(5) == 20
        assert p.degree() == 2
        assert (p - p).is_zero

    def test_integer_coefficients(self):
        assert UniPoly((Fraction(2), Fraction(1))).integer_coefficients() == (2, 1)
        with pytest.raises(ArithmeticError):
            UniPoly((Fraction(1, 2),)).integer_coefficients()


class TestGrandPolynomial:
    def test_lone_vertex(self):
        g = gain_graph(Z2, 1, [])
        assert grand_polynomial(g, [regular_action(Z2)]) == MultiPoly(1, {(1,): 2})

    def test_k2_identity_link(self):
        g = gain_graph(Z2, 2, [(0, 1, 0)])
        assert grand_polynomial(g, [regular_action(Z2)]) == MultiPoly(
            1, {(2,): 4, (1,): -2}
        )

    def test_loop_vertex_two_parts(self):
        g = gain_graph(Z2, 1, [(0, 0, 1)])
        parts = [regular_action(Z2), trivial_action(Z2, 1)]
        assert grand_polynomial(g, parts) == MultiPoly(2, {(1, 0): 2})

    def test_identity_loop_zero(self):
        g = gain_graph(Z2, 1, [(0, 0, 0)])
        assert grand_polynomial(g, [regular_action(Z2)]).is_zero

    def test_empty_graph_constant_one(self):
        g = gain_graph(Z2, 0, [])
        assert grand_polynomial(g, [regular_action(Z2)]) == MultiPoly.constant(1, 1)

    def test_group_mismatch_rejected(self):
        g = gain_graph(Z2, 1, [])
        with pytest.raises(ValueError):
            grand_polynomial(g, [regular_action(Z3)])

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_oracle_identity(self, seed):
        # evaluating the polynomial equals naive counting on a concretely
        # assembled disjoint-union spin set
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3])
        g = random_graph(rng, group, max_vertices=3, max_edges=4)
        parts = rng.choice(
            [
                [regular_action(group)],
                [regular_action(group), trivial_action(group, 1)],
                [trivial_action(group, 2), regular_action(group)],
            ]
        )
        poly = grand_polynomial(g, parts)
        for mults in itertools.product(range(3), repeat=len(parts)):
            action = disjoint_union_action(parts, list(mults))
            assert poly.evaluate(list(mults)) == naive_count(g, action)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_degree_and_leading_form(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3])
        g = random_graph(rng, group, max_vertices=3, max_edges=4)
        parts = [regular_action(group), trivial_action(group, 1)]
        poly = grand_polynomial(g, parts)
        top = leading_form(g, parts)
        if not poly.is_zero:
            assert poly.total_degree() == g.vertex_count
        assert poly.homogeneous_part(g.vertex_count) == top


class TestLeadingForm:
    def test_k2(self):
        g = gain_graph(Z2, 2, [(0, 1, 0)])
        assert leading_form(g, [regular_action(Z2)]) == MultiPoly(1, {(2,): 4})

    def test_loop_vertex(self):
        g = gain_graph(Z2, 1, [(0, 0, 1)])
        assert leading_form(g, [regular_action(Z2)]) == MultiPoly(1, {(1,): 2})

    def test_loops_only_equals_grand(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(1, 3)
            triples = [
                (v, v, rng.randrange(3)) for v in range(n) for _ in range(rng.randint(0, 2))
            ]
            g = gain_graph(Z3, n, triples)
            parts = [regular_action(Z3), trivial_action(Z3, 2)]
            assert grand_polynomial(g, parts) == leading_form(g, parts)


class TestRegularPlusZeroes:
    def test_k2(self):
        g = gain_graph(Z2, 2, [(0, 1, 0)])
        lam = MultiPoly.linear(2, [2, 1])
        assert regular_plus_zeroes(g) == lam * lam - lam

    def test_loop_vertex(self):
        g = gain_graph(Z2, 1, [(0, 0, 1)])
        assert regular_plus_zeroes(g) == MultiPoly(2, {(1, 0): 2})

    def test_identity_loop(self):
        g = gain_graph(Z2, 1, [(0, 0, 0)])
        assert regular_plus_zeroes(g).is_zero

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_matches_two_part_grand(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3, S3])
        g = random_graph(rng, group, max_vertices=4, max_edges=5)
        parts = [regular_action(group), trivial_action(group, 1)]
        assert regular_plus_zeroes(g) == grand_polynomial(g, parts)


class TestChromaticPolynomial:
    def test_k2(self):
        g = gain_graph(Z2, 2, [(0, 1, 1)])
        assert chromatic_polynomial(g) == UniPoly((0, -1, 1))

    def test_nonidentity_loop(self):
        for group, gain in [(Z2, 1), (Z3, 2), (S3, 5)]:
            g = gain_graph(group, 1, [(0, 0, gain)])
            assert chromatic_polynomial(g) == UniPoly((-1, 1))

    def test_identity_loop(self):
        g = gain_graph(Z3, 1, [(0, 0, 0)])
        assert chromatic_polynomial(g).is_zero

    def test_unbalanced_digon(self):
        # counts are (|Q| - 1)^2 at every standard spin set, so the
        # polynomial must be (lambda - 1)^2
        assert chromatic_polynomial(digon()) == UniPoly((1, -2, 1))

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_interpolates_brute_counts(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3])
        g = random_graph(rng, group, max_vertices=3, max_edges=5)
        poly = chromatic_polynomial(g)
        for k in range(4):
            action = standard_colors(group, k)
            lam = k * group.order + 1
            assert poly.evaluate(lam) == naive_count(g, action)

    def test_deletion_contraction_identity(self):
        from gainchroma import contract_link, delete_edge

        rng = random.Random(47)
        for _ in range(10):
            g = random_graph(rng, Z3, max_vertices=4, max_edges=5)
            links = [e for e in g.edges if not e.is_loop]
            if not links:
                continue
            e = rng.choice(links)
            whole = chromatic_polynomial(g)
            assert whole == chromatic_polynomial(delete_edge(g, e.id)) - chromatic_polynomial(
                contract_link(g, e.id)
            )


class TestZeroFreePolynomial:
    def test_k2(self):
        g = gain_graph(Z2, 2, [(0, 1, 1)])
        assert zero_free_polynomial(g) == UniPoly((0, -1, 1))

    def test_nonidentity_loop_is_discardable(self):
        # a nonidentity loop is never satisfied under regular colors, so the
        # polynomial is that of the bare vertex: brute counts are 2, 4 at
        # k = 1, 2 over Z2, giving the polynomial lambda itself
        g = gain_graph(Z2, 1, [(0, 0, 1)])
        assert naive_count(g, zero_free_colors(Z2, 1)) == 2
        assert naive_count(g, zero_free_colors(Z2, 2)) == 4
        assert zero_free_polynomial(g) == UniPoly((0, 1))

    def test_identity_loop(self):
        g = gain_graph(Z2, 1, [(0, 0, 0)])
        assert zero_free_polynomial(g).is_zero

    def test_loop_deletion_invariance(self):
        rng = random.Random(53)
        for _ in range(10):
            g = random_graph(rng, Z4, max_vertices=3, max_edges=4)
            stripped = gain_graph(
                g.group,
                g.vertex_count,
                [(e.u, e.v, e.gain) for e in g.edges if not (e.is_loop and e.gain != 0)],
            )
            assert zero_free_polynomial(g) == zero_free_polynomial(stripped)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_interpolates_brute_counts(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3])
        g = random_graph(rng, group, max_vertices=3, max_edges=5)
        poly = zero_free_polynomial(g)
        for k in range(1, 4):
            action = zero_free_colors(group, k)
            assert poly.evaluate(k * group.order) == naive_count(g, action)

    def test_deletion_contraction_for_links(self):
        from gainchroma import contract_link, delete_edge

        rng = random.Random(59)
        for _ in range(10):
            g = random_graph(rng, Z3, max_vertices=4, max_edges=5)
            links = [e for e in g.edges if not e.is_loop]
            if not links:
                continue
            e = rng.choice(links)
            assert zero_free_polynomial(g) == zero_free_polynomial(
                delete_edge(g, e.id)
            ) - zero_free_polynomial(contract_link(g, e.id))


class TestGraphChromatic:
    def test_k2(self):
        assert graph_chromatic(SimpleGraph(2, ((0, 1),))) == UniPoly((0, -1, 1))

    def test_triangle(self):
        lam = UniPoly.x()
        one = UniPoly.constant(1)
        expected = lam * (lam - one) * (lam - UniPoly.constant(2))
        assert graph_chromatic(SimpleGraph(3, ((0, 1), (1, 2), (0, 2)))) == expected

    def test_loop_kills(self):
        assert graph_chromatic(SimpleGraph(1, ((0, 0),))).is_zero

    def test_matches_trivial_action_counts(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randint(1, 4)
            edges = tuple(
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 5))
            )
            template = SimpleGraph(n, edges)
            g = gain_graph(Z3, n, [(u, v, rng.randrange(3)) for u, v in edges])
            poly = graph_chromatic(template)
            for m in range(1, 4):
                action = trivial_action(Z3, m)
                assert poly.evaluate(m) == naive_count(g, action)


class TestSpecializationIdentities:
    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_three_specializations(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3])
        g = random_graph(rng, group, max_vertices=3, max_edges=4)
        chrom = chromatic_polynomial(g)
        zf = zero_free_polynomial(g)
        underlying = graph_chromatic(
            SimpleGraph(g.vertex_count, tuple((e.u, e.v) for e in g.edges))
        )
        for k in range(0, 3):
            assert chrom.evaluate(k * group.order + 1) == naive_count(
                g, standard_colors(group, k)
            )
            if k >= 1:
                assert zf.evaluate(k * group.order) == naive_count(
                    g, zero_free_colors(group, k)
                )
                assert underlying.evaluate(k) == naive_count(g, trivial_action(group, k))


def _fold_graphs():
    """Graphs for comparing the grouped fold with the per-set one: the edge
    cases, then seeded random Z2/Z4/S3 graphs, which have loops (identity
    loops among them, so some lattices are bottomless) and parallel edges."""
    rng = random.Random(2718)
    graphs = [
        gain_graph(Z2, 0, []),
        gain_graph(Z4, 3, []),
        gain_graph(S3, 2, [(0, 1, 1), (1, 1, 0)]),
        gain_graph(Z4, 3, [(0, 1, 1), (0, 1, 1), (1, 2, 3), (1, 2, 3), (1, 1, 2), (2, 0, 0)]),
        gain_graph(S3, 3, [(0, 1, 1), (1, 2, 3), (2, 0, 5), (0, 0, 4), (0, 1, 1)]),
        # closed sets with three components of one subgroup
        gain_graph(Z2, 6, [(0, 1, 1), (2, 3, 1), (4, 5, 0), (1, 2, 0)]),
        gain_graph(Z4, 7, [(0, 1, 1), (2, 3, 2), (4, 5, 3), (5, 6, 0), (6, 4, 1), (1, 1, 2)]),
    ]
    for i in range(45):
        group = (Z2, Z4, S3)[i % 3]
        graphs.append(random_graph(rng, group, max_vertices=7 if i % 2 else 5, max_edges=8))
    return graphs


FOLD_GRAPHS = _fold_graphs()


def _spin_sets(group):
    return [
        regular_action(group),
        trivial_action(group, 2),
        standard_colors(group, 1),
        zero_free_colors(group, 2),
        standard_colors(group, 3),
    ]


class TestGroupedFold:
    """The grouped fold against the per-closed-set fold it replaced, with the
    same factors: the package function is run once as it is and once with
    its ``lattice_sum`` swapped for the oracle."""

    def test_the_graphs_cover_the_edge_cases(self):
        lattices = [enumerate_closed_sets(g) for g in FOLD_GRAPHS]
        assert sum(lat.bottomless for lat in lattices) >= 3
        assert any(g.vertex_count == 0 for g in FOLD_GRAPHS)
        assert any(not g.edges for g in FOLD_GRAPHS if g.vertex_count)
        assert any(e.is_loop and e.gain != 0 for g in FOLD_GRAPHS for e in g.edges)
        assert any(len(g.edges) != len({(e.u, e.v, e.gain) for e in g.edges}) for g in FOLD_GRAPHS)
        assert sum(len(lat.terms) < len(lat.sets) for lat in lattices) >= 20
        assert any(times >= 3 for lat in lattices for _, _, parts in lat.terms for _, times in parts)

    @pytest.mark.parametrize("index", range(len(FOLD_GRAPHS)))
    def test_terms_regroup_the_closed_sets(self, index):
        lat = enumerate_closed_sets(FOLD_GRAPHS[index])
        assert lat.terms is lat.terms
        if lat.bottomless:
            assert lat.terms == ()
            return
        assert sum(mu for mu, _, _ in lat.terms) == sum(lat.mobius_from_bottom.values())
        keys = [(lone, frozenset(parts)) for _, lone, parts in lat.terms]
        assert len(set(keys)) == len(keys)
        for mu, lone, parts in lat.terms:
            assert mu != 0
            members = [
                a for a, n, subgroups in zip(lat.sets, lat.isolated, lat.subgroups)
                if n == lone and sorted(map(sorted, subgroups)) == sorted(
                    sorted(h) for h, times in parts for _ in range(times)
                )
            ]
            assert mu == sum(lat.mobius_from_bottom[a] for a in members)

    @pytest.mark.parametrize("index", range(len(FOLD_GRAPHS)))
    def test_polynomials_match_the_per_set_fold(self, index, monkeypatch):
        g = FOLD_GRAPHS[index]
        group = g.group
        lat = enumerate_closed_sets(g)
        part_lists = [
            [regular_action(group)],
            [regular_action(group), trivial_action(group, 1)],
            [trivial_action(group, 2), standard_colors(group, 1), regular_action(group)],
        ]
        fast = [grand_polynomial(g, parts, lattice=lat) for parts in part_lists]
        fast_balance = regular_plus_zeroes(g, lattice=lat)
        with monkeypatch.context() as m:
            m.setattr(polynomials, "lattice_sum", oracle_lattice_sum)
            slow = [grand_polynomial(g, parts, lattice=lat) for parts in part_lists]
            slow_balance = regular_plus_zeroes(g, lattice=lat)
        assert [p.render() for p in fast] == [p.render() for p in slow]
        assert fast == slow and fast_balance == slow_balance

    @pytest.mark.parametrize("index", range(len(FOLD_GRAPHS)))
    def test_mobius_count_matches_the_per_set_fold(self, index, monkeypatch):
        g = FOLD_GRAPHS[index]
        lat = enumerate_closed_sets(g)
        spins = _spin_sets(g.group)
        fast = [count_mobius(g, a, lattice=lat) for a in spins]
        with monkeypatch.context() as m:
            m.setattr(counting, "lattice_sum", oracle_lattice_sum)
            slow = [count_mobius(g, a, lattice=lat) for a in spins]
        assert fast == slow


_nodes = st.lists(
    st.tuples(st.fractions(min_value=-20, max_value=20, max_denominator=6), st.integers(-10**6, 10**6)),
    max_size=9,
    unique_by=lambda point: point[0],
)


class TestNewtonInterpolation:
    @given(_nodes, st.booleans())
    @example([(Fraction(3), 7)], False)
    @example([(Fraction(1, 2), 0), (Fraction(2), 0), (Fraction(-3), 0)], False)
    @example([], False)
    @settings(max_examples=150, deadline=None)
    def test_matches_lagrange(self, points, all_zero):
        if all_zero:
            points = [(x, 0) for x, _ in points]
        newton = _interpolate(points)
        assert newton == oracle_interpolate(points)
        assert all(newton.evaluate(x) == y for x, y in points)

    def test_interpolation_points_of_the_chromatic_polynomials(self):
        # integer nodes k*|G| (+ 1) with exact counts, as the package uses them
        g = gain_graph(S3, 4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 5), (1, 1, 3)])
        lat = enumerate_closed_sets(g)
        for colors, x in ((standard_colors, lambda k: 6 * k + 1), (zero_free_colors, lambda k: 6 * k)):
            points = [(Fraction(x(k)), count_mobius(g, colors(S3, k), lattice=lat).value) for k in range(1, 6)]
            assert _interpolate(points) == oracle_interpolate(points)
