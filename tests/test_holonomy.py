import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gainchroma import (
    HolonomyContext,
    build_cyclic,
    build_symmetric,
    component_subgroup,
    components,
    conjugate_subgroup,
    count_inclexcl,
    enumerate_closed_sets,
    gain_graph,
    generate_subgroup,
    h_fixed_count,
    holonomy_closure,
    holonomy_generators,
    holonomy_group,
    is_balanced,
    is_holonomy_closed,
    regular_action,
    satisfied_edges,
    standard_colors,
    subset_action,
    switch,
    trivial_action,
    walk_gain,
)
from helpers import dfs_forest, oracle_closed_sets, oracle_inclexcl, powerset, random_graph

Z2 = build_cyclic(2)
Z3 = build_cyclic(3)
Z4 = build_cyclic(4)
S3 = build_symmetric(3)


def digon(group=Z2, gains=(0, 1)):
    return gain_graph(group, 2, [(0, 1, gains[0]), (0, 1, gains[1])])


class TestGenerators:
    def test_tree_has_none(self):
        g = gain_graph(S3, 3, [(0, 1, 2), (1, 2, 4)])
        ctx = HolonomyContext(g, g.edge_ids)
        assert holonomy_generators(ctx, 0) == ()

    def test_triangle_identity_forest(self):
        for gval in range(1, 4):
            g = gain_graph(Z4, 3, [(0, 1, 0), (0, 2, 0), (1, 2, gval)])
            ctx = HolonomyContext(g, g.edge_ids)
            gens = holonomy_generators(ctx, 0)
            # walk_gain computes the same fundamental walk directly
            assert gens == (walk_gain(g, [0, 0, 1, 2, 2, 1, 0]),)
            assert gens == (gval,)

    def test_loop_at_base(self):
        g = gain_graph(S3, 1, [(0, 0, 5)])
        ctx = HolonomyContext(g, g.edge_ids)
        assert holonomy_generators(ctx, 0) == (5,)

    def test_generator_identity_iff_balanced_walk(self):
        # the edge set of the fundamental walk (forest plus the one extra
        # edge) is balanced exactly when the generator is the identity
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, Z4, max_vertices=4, max_edges=6)
            ctx = HolonomyContext(g, g.edge_ids)
            for j, comp in enumerate(ctx.split.edge_sets):
                forest_part = ctx.forest & comp
                for eid, gen in zip(sorted(comp - ctx.forest), holonomy_generators(ctx, j)):
                    assert (gen == 0) == is_balanced(g, forest_part | {eid})


class TestHolonomyGroup:
    def test_balanced_connected_is_trivial(self):
        g = gain_graph(S3, 3, [(0, 1, 3), (1, 2, 2), (0, 2, S3.mul[3][2])])
        assert is_balanced(g)
        assert component_subgroup(g, g.edge_ids) == frozenset({0})

    def test_z4_loop(self):
        g = gain_graph(Z4, 1, [(0, 0, 2)])
        assert component_subgroup(g, g.edge_ids) == frozenset({0, 2})

    def test_two_loops_generate(self):
        g = gain_graph(S3, 1, [(0, 0, 1), (0, 0, 3)])
        assert component_subgroup(g, g.edge_ids) == generate_subgroup(S3, [1, 3])

    def test_not_connected_rejected(self):
        g = gain_graph(Z2, 4, [(0, 1, 0), (2, 3, 0)])
        with pytest.raises(ValueError):
            component_subgroup(g, g.edge_ids)


class TestHFixedCount:
    def test_isolated_vertex_counts_all_spins(self):
        g = gain_graph(Z2, 1, [])
        assert h_fixed_count(g, trivial_action(Z2, 5), frozenset()) == 5

    def test_unbalanced_digon_regular(self):
        assert h_fixed_count(digon(), regular_action(Z2), frozenset({0, 1})) == 0

    def test_unbalanced_digon_standard(self):
        assert h_fixed_count(digon(), standard_colors(Z2, 1), frozenset({0, 1})) == 1

    def test_disconnected_rejected(self):
        g = gain_graph(Z2, 4, [(0, 1, 0), (2, 3, 0)])
        with pytest.raises(ValueError):
            h_fixed_count(g, regular_action(Z2), g.edge_ids)


class TestClosure:
    def test_digon_identity_edge_is_closed(self):
        g = digon()
        assert holonomy_closure(g, frozenset({0})) == frozenset({0})
        assert is_holonomy_closed(g, frozenset({0}))

    def test_digon_full_set_closed(self):
        g = digon()
        assert holonomy_closure(g, frozenset({0, 1})) == frozenset({0, 1})

    def test_empty_set_with_loops(self):
        g = gain_graph(Z2, 1, [(0, 0, 1)])
        assert holonomy_closure(g, frozenset()) == frozenset()
        h = gain_graph(Z2, 1, [(0, 0, 0)])
        assert holonomy_closure(h, frozenset()) == frozenset({0})
        assert not is_holonomy_closed(h, frozenset())

    def test_parallel_identity_edges_not_closed(self):
        g = digon(gains=(0, 0))
        assert not is_holonomy_closed(g, frozenset({0}))

    def test_full_edge_set_always_closed(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, S3, max_vertices=4, max_edges=6)
            assert is_holonomy_closed(g, g.edge_ids)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_extensive_and_idempotent(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, Z4, max_vertices=4, max_edges=6)
        ids = sorted(g.edge_ids)
        a = frozenset(e for e in ids if rng.random() < 0.4)
        closed = holonomy_closure(g, a)
        assert closed >= a
        assert holonomy_closure(g, closed) == closed

    def test_unbalanced_digon_chord_excluded(self):
        # third parallel edge with a fresh gain joins only if its holonomy
        # falls in the subgroup generated by the others
        g = gain_graph(Z4, 2, [(0, 1, 0), (0, 1, 2), (0, 1, 1)])
        closed = holonomy_closure(g, frozenset({0, 1}))
        assert closed == frozenset({0, 1})
        full = holonomy_closure(g, frozenset({0, 2}))
        assert full == frozenset({0, 1, 2})  # holonomy 2 lies in <1> = Z4


class TestLattice:
    def test_digon_lattice(self):
        lat = enumerate_closed_sets(digon())
        assert [sorted(s) for s in lat.sets] == [[], [0], [1], [0, 1]]
        assert [lat.mobius_from_bottom[s] for s in lat.sets] == [1, -1, -1, 1]
        assert not lat.bottomless

    def test_single_identity_edge(self):
        g = gain_graph(Z2, 2, [(0, 1, 0)])
        lat = enumerate_closed_sets(g)
        assert [sorted(s) for s in lat.sets] == [[], [0]]
        assert [lat.mobius_from_bottom[s] for s in lat.sets] == [1, -1]

    def test_identity_loop_bottomless(self):
        g = gain_graph(Z2, 2, [(0, 1, 1), (0, 0, 0)])
        lat = enumerate_closed_sets(g)
        assert lat.bottomless
        assert lat.mobius_from_bottom == {}

    def test_mobius_sums_vanish(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, Z3, max_vertices=4, max_edges=6)
            lat = enumerate_closed_sets(g)
            if lat.bottomless:
                continue
            for a in lat.sets:
                total = sum(
                    lat.mobius_from_bottom[b] for b in lat.sets if b <= a
                )
                assert total == (1 if not a else 0)

    def test_membership_matches_direct_filter(self):
        # the memoized enumeration must agree with the one-shot closure test
        rng = random.Random(9)
        for _ in range(15):
            g = random_graph(rng, Z4, max_vertices=4, max_edges=5)
            lat = enumerate_closed_sets(g)
            expected = {s for s in powerset(g.edge_ids) if is_holonomy_closed(g, s)}
            assert set(lat.sets) == expected


def _walk_test_graphs(seed: int, count: int):
    """Seeded random Z2/Z4/S3 multigraphs with loops, identity loops, parallel
    edges and isolated vertices, plus graphs with no edges and no vertices.

    Every fourth graph is a larger S3 graph, so that components with
    non-commuting holonomy merge and union-find paths grow two links long."""
    rng = random.Random(seed)
    yield gain_graph(S3, 0, [])
    yield gain_graph(Z2, 3, [])
    yield gain_graph(S3, 3, [(0, 1, 1), (1, 0, 3), (1, 2, 2), (2, 2, 0)])
    for i in range(count):
        large = i % 4 == 3
        group = S3 if large else (Z2, Z4, S3)[i % 3]
        n = rng.randint(4, 6) if large else rng.randint(1, 5)
        triples = []
        for _ in range(rng.randint(7, 10) if large else rng.randint(0, 7)):
            u = rng.randrange(n)
            v = u if rng.random() < 0.2 else rng.randrange(n)
            triples.append((u, v, rng.randrange(group.order)))
        if triples and rng.random() < 0.3:
            triples.append(triples[0])  # an exact parallel duplicate
        yield gain_graph(group, n, triples)


def _conjugacy_class(group, subgroup):
    return min(tuple(sorted(conjugate_subgroup(group, subgroup, x))) for x in range(group.order))


class TestSubsetWalk:
    GRAPHS = list(_walk_test_graphs(seed=31, count=60))

    def test_the_graphs_cover_every_feature(self):
        edges = [e for g in self.GRAPHS for e in g.edges]
        assert any(e.is_loop and e.gain == 0 for e in edges)
        assert any(e.is_loop and e.gain != 0 for e in edges)
        assert any(len(components(g).isolated) for g in self.GRAPHS if g.edges)
        assert any(
            len({(e.u, e.v) for e in g.edges}) < len(g.edges) for g in self.GRAPHS
        )
        assert {g.group for g in self.GRAPHS} == {Z2, Z4, S3}

    def test_lattice_matches_the_oracle(self):
        for g in self.GRAPHS:
            lat = enumerate_closed_sets(g)
            sets, mobius, bottomless = oracle_closed_sets(g)
            assert lat.sets == sets
            assert lat.mobius_from_bottom == mobius
            assert lat.bottomless == bottomless
            for a, lone, subgroups in zip(lat.sets, lat.isolated, lat.subgroups, strict=True):
                split = components(g, a)
                assert lone == len(split.isolated)
                assert sorted(_conjugacy_class(g.group, h) for h in subgroups) == sorted(
                    _conjugacy_class(g.group, component_subgroup(g, c)) for c in split.edge_sets
                )

    def test_inclexcl_matches_the_oracle(self):
        for g in self.GRAPHS:
            actions = [regular_action(g.group), standard_colors(g.group, 1), trivial_action(g.group, 2)]
            if g.group == S3:
                actions.append(subset_action(3))
            for action in actions:
                assert count_inclexcl(g, action).value == oracle_inclexcl(g, action)

    def test_crosscut_identity_from_the_closure_alone(self):
        # mu(empty, A) is the sum of (-1)**|B| over the B whose closure is A;
        # with no bottom (an identity loop) every such sum vanishes
        rng = random.Random(47)
        for i in range(30):
            g = random_graph(rng, (Z2, Z4, S3)[i % 3], max_vertices=4, max_edges=6)
            sums = collections.Counter()
            for b in powerset(g.edge_ids):
                sums[holonomy_closure(g, b)] += (-1) ** len(b)
            lat = enumerate_closed_sets(g)
            for a in powerset(g.edge_ids):
                if lat.bottomless or not is_holonomy_closed(g, a):
                    assert sums[a] == 0
                else:
                    assert sums[a] == lat.mobius_from_bottom[a]


class TestChoiceIndependence:
    def test_forest_choice(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng, S3, max_vertices=5, max_edges=7)
            bfs_ctx = HolonomyContext(g, g.edge_ids)
            alt = dfs_forest(g, g.edge_ids)
            dfs_ctx = HolonomyContext(g, g.edge_ids, forest=alt)
            for j in range(len(bfs_ctx.split.edge_sets)):
                assert holonomy_group(bfs_ctx, j) == holonomy_group(dfs_ctx, j)

    def test_basepoint_conjugacy(self):
        rng = random.Random(23)
        action = subset_action(3)
        for _ in range(30):
            g = random_graph(rng, S3, max_vertices=4, max_edges=6)
            ctx = HolonomyContext(g, g.edge_ids)
            for j, verts in enumerate(ctx.split.vertex_sets):
                base_group = holonomy_group(ctx, j)
                base_fixed = len(
                    [q for q in range(action.size) if all(action.act[q][x] == q for x in base_group)]
                )
                for alt_base in sorted(verts):
                    bases = list(ctx.bases)
                    bases[j] = alt_base
                    alt_ctx = HolonomyContext(g, g.edge_ids, bases=bases)
                    alt_group = holonomy_group(alt_ctx, j)
                    # conjugate subgroups, hence equal fixed-set sizes
                    assert any(
                        conjugate_subgroup(S3, base_group, alpha) == alt_group
                        for alpha in range(6)
                    )
                    alt_fixed = len(
                        [q for q in range(action.size) if all(action.act[q][x] == q for x in alt_group)]
                    )
                    assert alt_fixed == base_fixed

    def test_switching_conjugates_and_preserves(self):
        rng = random.Random(29)
        actions = [regular_action(S3), subset_action(3), standard_colors(S3, 1)]
        for _ in range(25):
            g = random_graph(rng, S3, max_vertices=4, max_edges=6)
            eta = tuple(rng.randrange(6) for _ in range(g.vertex_count))
            switched = switch(g, eta)
            split = components(g)
            for comp in split.edge_sets:
                before = component_subgroup(g, comp)
                after = component_subgroup(switched, comp)
                assert any(
                    conjugate_subgroup(S3, before, alpha) == after for alpha in range(6)
                )
                for action in actions:
                    assert h_fixed_count(g, action, comp) == h_fixed_count(
                        switched, action, comp
                    )
            # closure membership is switching invariant
            ids = sorted(g.edge_ids)
            a = frozenset(e for e in ids if rng.random() < 0.5)
            assert holonomy_closure(g, a) == holonomy_closure(switched, a)

    def test_balanced_iff_trivial(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, Z4, max_vertices=4, max_edges=6)
            for comp in components(g).edge_sets:
                assert is_balanced(g, comp) == (
                    component_subgroup(g, comp) == frozenset({0})
                )


class TestSatisfiedSetsAreClosed:
    @pytest.mark.parametrize("group,action_maker", [
        (Z2, lambda grp: regular_action(grp)),
        (Z3, lambda grp: standard_colors(grp, 1)),
        (S3, lambda grp: subset_action(3)),
        (Z4, lambda grp: trivial_action(grp, 2)),
    ])
    def test_every_state(self, group, action_maker):
        rng = random.Random(37)
        action = action_maker(group)
        for _ in range(8):
            g = random_graph(rng, group, max_vertices=3, max_edges=5)
            verdicts = {}
            for state in itertools.product(range(action.size), repeat=g.vertex_count):
                sat = satisfied_edges(g, action, state)
                if sat not in verdicts:
                    verdicts[sat] = is_holonomy_closed(g, sat)
                assert verdicts[sat], f"state {state} satisfied a non-closed set {sorted(sat)}"


class TestContextValidation:
    def test_rejects_non_forest(self):
        g = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        with pytest.raises(ValueError):
            HolonomyContext(g, g.edge_ids, forest=frozenset({0, 1, 2}))

    def test_rejects_non_spanning_forest(self):
        g = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        with pytest.raises(ValueError):
            HolonomyContext(g, g.edge_ids, forest=frozenset({0}))

    def test_rejects_cycle_with_plausible_edge_count(self):
        # triangle on {0,1,2} has the right count for a 4-vertex tree but
        # misses a vertex and carries a cycle
        g = gain_graph(Z2, 4, [(0, 1, 0), (1, 2, 0), (0, 2, 0), (2, 3, 0), (0, 3, 0)])
        with pytest.raises(ValueError):
            HolonomyContext(g, g.edge_ids, forest=frozenset({0, 1, 2}))

    def test_rejects_loop_in_forest(self):
        g = gain_graph(Z2, 1, [(0, 0, 1)])
        with pytest.raises(ValueError):
            HolonomyContext(g, g.edge_ids, forest=frozenset({0}))

    def test_rejects_base_outside_component(self):
        g = gain_graph(Z2, 3, [(0, 1, 0)])
        with pytest.raises(ValueError):
            HolonomyContext(g, g.edge_ids, bases=[2])
