import random
import re
import time
from fractions import Fraction

import pytest

from gainchroma import (
    SignedGraph,
    SimpleGraph,
    build_cyclic,
    contract_link,
    count_brute,
    gain_graph,
    group_expansion,
    potts_direct_count,
    potts_gain_graph,
    set_coloring_direct,
    subset_action,
    verify_group,
    zero_free_polynomial,
)
from gainchroma import BoundExceeded, models
from gainchroma.models import potts_routes, set_coloring_routes
from helpers import block_permutation_action, equivalence_direct_count, equivalence_expansion, naive_count

Z2 = build_cyclic(2)
Z3 = build_cyclic(3)


def random_signed(rng, max_vertices=5, max_edges=6) -> SignedGraph:
    n = rng.randint(1, max_vertices)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_edges))
    )
    return SignedGraph(n, edges)


class TestPottsEncoding:
    def test_negative_edge(self):
        phi = potts_gain_graph(SignedGraph(2, ((0, 1, -1),)), Z2)
        assert len(phi.edges) == 1 and phi.edges[0].gain == 0

    def test_positive_edge(self):
        phi = potts_gain_graph(SignedGraph(2, ((0, 1, 1),)), Z3)
        assert sorted(e.gain for e in phi.edges) == [1, 2]

    def test_mixed_parallel(self):
        phi = potts_gain_graph(SignedGraph(2, ((0, 1, 1), (0, 1, -1))), Z3)
        assert len(phi.edges) == 1 + (3 - 1)

    def test_rejects_trivial_group(self):
        with pytest.raises(ValueError):
            potts_gain_graph(SignedGraph(1, ()), build_cyclic(1))


class TestPottsCounts:
    def test_negative_k2_z3(self):
        assert potts_routes(SignedGraph(2, ((0, 1, -1),)), Z3) == (6, 6)

    def test_positive_k2_z2(self):
        assert potts_routes(SignedGraph(2, ((0, 1, 1),)), Z2) == (2, 2)

    def test_positive_triangle_z2(self):
        signed = SignedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
        assert potts_routes(signed, Z2) == (2, 2)

    def test_direct_evaluator_basics(self):
        # hand enumeration for a path +- over 2 spins: s0 == s1 != s2
        signed = SignedGraph(3, ((0, 1, 1), (1, 2, -1)))
        assert potts_direct_count(signed, 2) == 2

    def test_random_consistency(self):
        rng = random.Random(67)
        for _ in range(50):
            signed = random_signed(rng)
            group = rng.choice([Z2, Z3])
            value, direct = potts_routes(signed, group)
            assert value == direct == potts_direct_count(signed, group.order)

    def test_zero_free_evaluation(self):
        # the satisfiable count is the zero-free polynomial at |G|
        rng = random.Random(71)
        for _ in range(15):
            signed = random_signed(rng, max_vertices=4, max_edges=4)
            group = rng.choice([Z2, Z3])
            phi = potts_gain_graph(signed, group)
            value, direct = potts_routes(signed, group)
            assert value == direct
            assert zero_free_polynomial(phi).evaluate([group.order]) == value


def positive_path(n: int) -> SignedGraph:
    return SignedGraph(n, tuple((v, v + 1, 1) for v in range(n - 1)))


class TestDirectStateLimit:
    """The direct evaluators enumerate every state, so both routes refuse
    past ``models.DIRECT_STATE_LIMIT`` states before either one counts."""

    @pytest.mark.parametrize(
        "run,message",
        [
            (lambda: potts_routes(positive_path(13), Z3), "3**13 states"),
            (lambda: set_coloring_routes(SimpleGraph(5, ((0, 1),)), 4), "16**5 states"),
        ],
        ids=["potts", "setcolor"],
    )
    def test_the_limit_is_checked_before_either_route_counts(self, run, message, monkeypatch):
        def refuse(*args):
            raise AssertionError("a route ran")

        for name in ("count_brute", "potts_direct_count", "set_coloring_direct", "_count_states"):
            monkeypatch.setattr(models, name, refuse)
        start = time.perf_counter()
        with pytest.raises(BoundExceeded, match=rf"^{re.escape(message)} exceed the direct enumeration limit 1000000$"):
            run()
        assert time.perf_counter() - start < 0.1

    def test_the_limit_counts_every_state(self, monkeypatch):
        monkeypatch.setattr(models, "DIRECT_STATE_LIMIT", 3**4)
        assert potts_routes(positive_path(4), Z3) == (3, 3)
        with pytest.raises(BoundExceeded, match=r"3\*\*5 states"):
            potts_routes(positive_path(5), Z3)
        monkeypatch.setattr(models, "DIRECT_STATE_LIMIT", 4**2)
        assert set_coloring_routes(SimpleGraph(2, ((0, 1),)), 2) == (10, 10)
        with pytest.raises(BoundExceeded, match=r"4\*\*3 states"):
            set_coloring_routes(SimpleGraph(3, ()), 2)


class TestSetColoring:
    def test_k2_k1(self):
        assert set_coloring_routes(SimpleGraph(2, ((0, 1),)), 1) == (2, 2)

    def test_k2_k2(self):
        assert set_coloring_routes(SimpleGraph(2, ((0, 1),)), 2) == (10, 10)

    def test_edgeless(self):
        for n, k in [(1, 2), (2, 2), (3, 1)]:
            assert set_coloring_routes(SimpleGraph(n, ()), k) == (2 ** (k * n),) * 2

    def test_direct_matches_expansion_route(self):
        rng = random.Random(73)
        for _ in range(8):
            n = rng.randint(1, 3)
            edges = tuple(
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))
            )
            template = SimpleGraph(n, edges)
            k = rng.randint(1, 3)
            direct = set_coloring_direct(template, k)
            assert set_coloring_routes(template, k) == (direct, direct)

    def test_huge_blocks_are_refused_before_their_order_is_computed(self):
        from gainchroma import BoundExceeded

        for blocks in ((10**9,), (3, 10**9), (2,) * 10**5):
            start = time.perf_counter()
            with pytest.raises(BoundExceeded, match="over the limit"):
                block_permutation_action(blocks)
            assert time.perf_counter() - start < 0.1

    def test_k_bound(self):
        from gainchroma import BoundExceeded

        with pytest.raises(BoundExceeded):
            set_coloring_routes(SimpleGraph(1, ()), 5)

    def test_deletion_contraction_on_expansion(self):
        # counting set colorations through the expansion obeys the link rule
        k = 2
        action = subset_action(k)
        group = action.group
        for edges in [((0, 1),), ((0, 1), (1, 2))]:
            template = SimpleGraph(max(max(e) for e in edges) + 1, edges)
            phi = group_expansion(template, group)
            links = [e for e in phi.edges if not e.is_loop]
            e = links[0]
            whole = count_brute(phi, action).value
            deleted = count_brute(gain_graph(
                group, phi.vertex_count,
                [(f.u, f.v, f.gain) for f in phi.edges if f.id != e.id],
            ), action).value
            contracted = count_brute(contract_link(phi, e.id), action).value
            assert whole == deleted - contracted

    def test_not_polynomial_in_any_natural_variable(self):
        # fit a degree-2 polynomial through the first three points in each of
        # k, 2**k, k!, then check the fourth point refutes every fit
        routes = {k: set_coloring_routes(SimpleGraph(2, ((0, 1),)), k) for k in (1, 2, 3, 4)}
        assert routes == {1: (2, 2), 2: (10, 10), 3: (44, 44), 4: (186, 186)}
        points = {k: value for k, (value, _) in routes.items()}

        def quadratic_through(xs, ys):
            # Lagrange, exact
            def evaluate(x):
                total = Fraction(0)
                for i, (xi, yi) in enumerate(zip(xs, ys)):
                    term = Fraction(yi)
                    for j, xj in enumerate(xs):
                        if i != j:
                            term *= Fraction(x - xj, xi - xj)
                    total += term
                return total

            return evaluate

        import math

        for variable in (lambda k: k, lambda k: 2**k, lambda k: math.factorial(k)):
            xs = [variable(k) for k in (1, 2, 3)]
            fit = quadratic_through(xs, [points[1], points[2], points[3]])
            assert fit(variable(4)) != points[4]


class TestEquivalenceColoring:
    def test_block_group_is_a_group(self):
        action = block_permutation_action((2, 2))
        assert action.group.order == 4
        assert verify_group(action.group)
        # right action law
        act, mul = action.act, action.group.mul
        for q in range(action.size):
            for g in range(4):
                for h in range(4):
                    assert act[act[q][g]][h] == act[q][mul[g][h]]

    def test_two_singleton_blocks_is_proper_coloring(self):
        graph, action = equivalence_expansion(SimpleGraph(2, ((0, 1),)), (1, 1))
        assert count_brute(graph, action).value == 2
        assert equivalence_direct_count(SimpleGraph(2, ((0, 1),)), (1, 1)) == 2

    def test_single_block_has_no_states(self):
        graph, action = equivalence_expansion(SimpleGraph(2, ((0, 1),)), (2,))
        assert count_brute(graph, action).value == 0

    def test_mixed_blocks(self):
        graph, action = equivalence_expansion(SimpleGraph(2, ((0, 1),)), (2, 1))
        assert count_brute(graph, action).value == 4

    def test_matches_direct_on_random_instances(self):
        rng = random.Random(79)
        for _ in range(10):
            n = rng.randint(1, 3)
            edges = tuple(
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))
            )
            template = SimpleGraph(n, edges)
            blocks = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
            graph, action = equivalence_expansion(template, blocks)
            assert count_brute(graph, action).value == equivalence_direct_count(
                template, blocks
            )
            assert naive_count(graph, action) == equivalence_direct_count(template, blocks)


class TestSignedGraphValidation:
    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            SignedGraph(2, ((0, 1, 0),))

    def test_rejects_bad_endpoint(self):
        with pytest.raises(ValueError):
            SignedGraph(1, ((0, 1, 1),))
