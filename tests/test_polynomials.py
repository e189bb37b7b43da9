import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gainchroma
from gainchroma import (
    BoundExceeded,
    MultiPoly,
    SimpleGraph,
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
    verify_all,
    zero_free_colors,
    zero_free_polynomial,
)
from gainchroma import counting, holonomy, polynomials
from helpers import (
    naive_count,
    oracle_chromatic,
    oracle_interpolate,
    oracle_lattice_sum,
    oracle_zero_free,
    random_graph,
    univariate,
)

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


class TestUnivariate:
    """The univariate polynomials are ``MultiPoly`` of arity 1, printed in λ."""

    def test_rendering(self):
        assert univariate(0, -1, 1).render(["λ"]) == "λ^2 - λ"
        assert univariate(-1, 1).render(["λ"]) == "λ - 1"
        assert MultiPoly.zero(1).render(["λ"]) == "0"
        assert univariate(3).render(["λ"]) == "3"
        assert univariate(1, 0, -4).render(["λ"]) == "-4*λ^2 + 1"

    def test_arithmetic_and_eval(self):
        lam = MultiPoly.linear(1, [1])
        p = lam * (lam - MultiPoly.constant(1, 1))
        assert p.evaluate([5]) == 20
        assert p.total_degree() == 2
        assert (p - p).is_zero

    def test_integer_coefficients(self):
        # the interpolation oracle reads off exact integers and refuses the rest
        assert oracle_interpolate([(Fraction(0), 1), (Fraction(1), 3)]) == univariate(1, 2)
        with pytest.raises(ArithmeticError):
            oracle_interpolate([(Fraction(0), 0), (Fraction(2), 1)])

    def test_every_polynomial_is_a_multipoly(self):
        g = gain_graph(Z2, 2, [(0, 1, 1)])
        parts = [regular_action(Z2), trivial_action(Z2, 1)]
        template = SimpleGraph(2, ((0, 1),))
        polys = [
            grand_polynomial(g, parts),
            leading_form(g, parts),
            regular_plus_zeroes(g),
            chromatic_polynomial(g),
            zero_free_polynomial(g),
            graph_chromatic(template),
        ]
        assert all(type(p) is MultiPoly for p in polys)
        assert [p.arity for p in polys] == [2, 2, 2, 1, 1, 1]
        assert not hasattr(gainchroma, "UniPoly")
        assert not hasattr(polynomials, "UniPoly")


class TestGrandPolynomial:
    def test_lone_vertex(self):
        g = gain_graph(Z2, 1, [])
        assert grand_polynomial(g, [regular_action(Z2)]) == MultiPoly(1, {(1,): 2})

    def test_k2_identity_link(self):
        g = gain_graph(Z2, 2, [(0, 1, 0)])
        assert grand_polynomial(g, [regular_action(Z2)]) == MultiPoly(
            1, {(2,): 4, (1,): -2}
        )

    def test_a_part_of_another_group_is_refused_as_any_action_is(self):
        g = gain_graph(Z2, 2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="^action and graph use different groups$"):
            polynomials.check_parts(g, [regular_action(Z2), regular_action(build_cyclic(3))])

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
        assert chromatic_polynomial(g) == univariate(0, -1, 1)

    def test_nonidentity_loop(self):
        for group, gain in [(Z2, 1), (Z3, 2), (S3, 5)]:
            g = gain_graph(group, 1, [(0, 0, gain)])
            assert chromatic_polynomial(g) == univariate(-1, 1)

    def test_identity_loop(self):
        g = gain_graph(Z3, 1, [(0, 0, 0)])
        assert chromatic_polynomial(g).is_zero

    def test_unbalanced_digon(self):
        # counts are (|Q| - 1)^2 at every standard spin set, so the
        # polynomial must be (lambda - 1)^2
        assert chromatic_polynomial(digon()) == univariate(1, -2, 1)

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
            assert poly.evaluate([lam]) == naive_count(g, action)

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
        assert zero_free_polynomial(g) == univariate(0, -1, 1)

    def test_nonidentity_loop_is_discardable(self):
        # a nonidentity loop is never satisfied under regular colors, so the
        # polynomial is that of the bare vertex: brute counts are 2, 4 at
        # k = 1, 2 over Z2, giving the polynomial lambda itself
        g = gain_graph(Z2, 1, [(0, 0, 1)])
        assert naive_count(g, zero_free_colors(Z2, 1)) == 2
        assert naive_count(g, zero_free_colors(Z2, 2)) == 4
        assert zero_free_polynomial(g) == univariate(0, 1)

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

    def test_loop_deletion_check_does_not_recurse(self, monkeypatch):
        calls = []
        original = polynomials.zero_free_polynomial

        def watched(g, lattice=None):
            calls.append(g)
            return original(g, lattice)

        monkeypatch.setattr(polynomials, "zero_free_polynomial", watched)
        g = gain_graph(Z3, 2, [(0, 1, 1), (0, 0, 2)])
        assert polynomials.zero_free_polynomial(g) == univariate(0, -1, 1)
        assert calls == [g]

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_interpolates_brute_counts(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3])
        g = random_graph(rng, group, max_vertices=3, max_edges=5)
        poly = zero_free_polynomial(g)
        for k in range(1, 4):
            action = zero_free_colors(group, k)
            assert poly.evaluate([k * group.order]) == naive_count(g, action)

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
        assert graph_chromatic(SimpleGraph(2, ((0, 1),))) == univariate(0, -1, 1)

    def test_triangle(self):
        lam = MultiPoly.linear(1, [1])
        one = MultiPoly.constant(1, 1)
        expected = lam * (lam - one) * (lam - MultiPoly.constant(1, 2))
        assert graph_chromatic(SimpleGraph(3, ((0, 1), (1, 2), (0, 2)))) == expected

    def test_loop_kills(self):
        assert graph_chromatic(SimpleGraph(1, ((0, 0),))).is_zero

    def test_forest_is_read_off_without_building_powers(self, monkeypatch):
        # a 6-edge path and a 3-edge star among 60 vertices: λ**(n-m) * (λ-1)**m
        template = SimpleGraph(60, tuple((v, v + 1) for v in range(6)) + ((10, 11), (10, 12), (10, 13)))
        lam = MultiPoly.linear(1, [1])
        expected = lam**51 * (lam - MultiPoly.constant(1, 1))**9
        calls = 0
        multiply = MultiPoly.__mul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return multiply(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counted)
        assert graph_chromatic(template) == expected
        # each of the 2**9 leaves used to build λ**n by n multiplications
        assert calls < template.vertex_count

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
                assert poly.evaluate([m]) == naive_count(g, action)


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
            assert chrom.evaluate([k * group.order + 1]) == naive_count(
                g, standard_colors(group, k)
            )
            if k >= 1:
                assert zf.evaluate([k * group.order]) == naive_count(
                    g, zero_free_colors(group, k)
                )
                assert underlying.evaluate([k]) == naive_count(g, trivial_action(group, k))


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
        assert any(times >= 3 for lat in lattices for _, parts in lat.terms for _, times in parts)

    @pytest.mark.parametrize("index", range(len(FOLD_GRAPHS)))
    def test_terms_regroup_the_closed_sets(self, index):
        lat = enumerate_closed_sets(FOLD_GRAPHS[index])
        assert lat.terms is lat.terms
        if lat.bottomless:
            assert lat.terms == ()
            return
        assert sum(mu for mu, _ in lat.terms) == sum(lat.mobius_from_bottom.values())
        keys = [frozenset(parts) for _, parts in lat.terms]
        assert len(set(keys)) == len(keys)
        for mu, parts in lat.terms:
            assert mu != 0
            members = [
                a for a, subgroups in zip(lat.sets, lat.subgroups)
                if sorted(map(sorted, subgroups)) == sorted(
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
        fast_balance = regular_plus_zeroes(g)
        with monkeypatch.context() as m:
            m.setattr(polynomials, "lattice_sum", oracle_lattice_sum)
            slow = [grand_polynomial(g, parts, lattice=lat) for parts in part_lists]
            slow_balance = regular_plus_zeroes(g)
        assert [p.render() for p in fast] == [p.render() for p in slow]
        assert fast == slow and fast_balance == slow_balance

    @pytest.mark.parametrize("index", range(len(FOLD_GRAPHS)))
    def test_mobius_count_matches_the_per_set_fold(self, index, monkeypatch):
        g = FOLD_GRAPHS[index]
        spins = _spin_sets(g.group)
        fast = [count_mobius(g, a) for a in spins]
        with monkeypatch.context() as m:
            m.setattr(counting, "lattice_sum", oracle_lattice_sum)
            slow = [count_mobius(g, a) for a in spins]
        assert fast == slow


def _six_vertex_s3_graphs():
    """Connected S3 graphs with 6 vertices and 10 edges, the size of the
    poly_lattice benchmark, nonidentity loops among the extra edges."""
    rng = random.Random(1995)
    graphs = []
    for _ in range(4):
        tree = [(rng.randrange(v), v, rng.randrange(6)) for v in range(1, 6)]
        extra = [(rng.randrange(6), rng.randrange(6), rng.randrange(1, 6)) for _ in range(5)]
        graphs.append(gain_graph(S3, 6, tree + extra))
    return graphs


UNIVARIATE_GRAPHS = FOLD_GRAPHS + _six_vertex_s3_graphs()


class TestUnivariateFold:
    """The chromatic and zero-free polynomials, one fold over the closed-set
    lattice each, against the route they replaced: interpolation through
    counts at |V| + 1 spin sets."""

    def test_the_graphs_cover_the_edge_cases(self):
        # FOLD_GRAPHS has the rest; see TestGroupedFold
        assert any(
            v not in {w for e in g.edges for w in (e.u, e.v)}
            for g in UNIVARIATE_GRAPHS
            if g.edges
            for v in range(g.vertex_count)
        )
        assert sum(g.group == S3 and g.vertex_count == 6 and len(g.edges) == 10 for g in UNIVARIATE_GRAPHS) == 4

    def test_interpolation_points_of_the_chromatic_polynomials(self):
        for g in UNIVARIATE_GRAPHS:
            lat = enumerate_closed_sets(g)
            assert chromatic_polynomial(g) == chromatic_polynomial(g, lattice=lat) == oracle_chromatic(g)
            assert zero_free_polynomial(g) == zero_free_polynomial(g, lattice=lat) == oracle_zero_free(g)

    def test_the_zero_free_fold_multiplies_no_zero_polynomial(self, monkeypatch):
        # a component with nontrivial holonomy contributes the zero
        # polynomial, which ends its product before any multiplication
        operands = []
        mul = MultiPoly.__mul__

        def watched(self, other):
            operands.append((self, other))
            return mul(self, other)

        graphs = _six_vertex_s3_graphs()
        polys = []
        with monkeypatch.context() as m:
            m.setattr(MultiPoly, "__mul__", watched)
            m.setattr(MultiPoly, "__rmul__", watched)
            for g in graphs:
                operands.clear()
                polys.append(zero_free_polynomial(g))
                assert operands
                assert not [pair for pair in operands if any(x == 0 or x == MultiPoly.zero(1) for x in pair)]
        assert polys == [oracle_zero_free(g) for g in graphs]

    def test_refuses_nineteen_edges_before_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a counter was called")

        # every lattice consumer, called the way a caller without a lattice does
        consumers = (
            chromatic_polynomial,
            zero_free_polynomial,
            lambda g: count_mobius(g, regular_action(g.group)),
            lambda g: grand_polynomial(g, [regular_action(g.group)]),
            regular_plus_zeroes,
            enumerate_closed_sets,
        )
        g = gain_graph(S3, 12, [(v, (v + 1) % 12, v % 6) for v in range(12)] + [(v, v + 2, 1) for v in range(7)])
        assert len(g.edges) == 19
        with monkeypatch.context() as m:
            for name in ("brute", "delcon", "inclexcl", "mobius", "elim", "auto"):
                m.setattr(counting, f"count_{name}", refuse)
            m.setattr(polynomials, "count_auto", refuse)
            for consume in consumers:
                with pytest.raises(BoundExceeded, match="19 edges"):
                    consume(g)

        # the limit has one home, and every consumer reads it there
        monkeypatch.setattr(holonomy, "LATTICE_EDGE_LIMIT", 3)
        small = gain_graph(S3, 3, [(0, 1, 1), (1, 2, 3), (2, 0, 2)])
        for consume in consumers:
            consume(small)
        g = gain_graph(S3, 3, [(0, 1, 1), (1, 2, 3), (2, 0, 2), (0, 1, 4)])
        for consume in consumers:
            with pytest.raises(BoundExceeded, match="4 edges exceed the closed-set enumeration limit 3"):
                consume(g)
        report = verify_all(g, regular_action(S3))
        assert list(report.errors) == ["mobius"] and "limit 3" in report.errors["mobius"]
        assert report.agree and "mobius" not in report.results
