import random

import pytest
from hypothesis import given, settings, strategies as st

from gainchroma import (
    Edge,
    GainGraph,
    SimpleGraph,
    balanced_component_count,
    build_cyclic,
    build_symmetric,
    components,
    contract_link,
    delete_edge,
    gain_graph,
    group_expansion,
    is_balanced,
    regular_action,
    satisfied_edges,
    spanning_forest,
    standard_colors,
    switch,
    switch_state,
    trivial_action,
)
from gainchroma import BoundExceeded, cli, graphs, harness
from gainchroma.graphs import loop_domains, traverse
from gainchroma.groups import fixed_set
from helpers import graphic_closure, naive_count, oracle_tree_gains, powerset, random_graph, walk_gain

Z2 = build_cyclic(2)
Z3 = build_cyclic(3)
Z4 = build_cyclic(4)
S3 = build_symmetric(3)


def digon(gain_a=0, gain_b=1, group=Z2):
    return gain_graph(group, 2, [(0, 1, gain_a), (0, 1, gain_b)])


class TestConstruction:
    def test_rejects_bad_endpoint(self):
        with pytest.raises(ValueError):
            gain_graph(Z2, 2, [(0, 2, 0)])

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            gain_graph(Z2, 2, [(0, 1, 2)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            GainGraph(Z2, 2, [Edge(0, 0, 1, 0), Edge(0, 0, 1, 1)])

    def test_over_the_vertex_limit_is_refused(self):
        with pytest.raises(BoundExceeded, match=f"vertex count {graphs.VERTEX_LIMIT + 1} exceeds limit"):
            GainGraph(Z2, graphs.VERTEX_LIMIT + 1, [])
        assert GainGraph(Z2, graphs.VERTEX_LIMIT, []).vertex_count == graphs.VERTEX_LIMIT
        assert cli.VERTEX_LIMIT == graphs.VERTEX_LIMIT

    def test_incident_ids_sorted(self):
        g = gain_graph(Z3, 3, [(1, 2, 0), (0, 1, 1), (0, 0, 2)])
        assert g.incident_ids(0) == (1, 2)
        assert g.incident_ids(1) == (0, 1)


class TestSwitching:
    def test_identity_switch(self):
        g = digon()
        assert switch(g, (0, 0)) == g

    def test_cancels_link_gain(self):
        g = gain_graph(Z3, 2, [(0, 1, 1)])
        # eta_u = gain, eta_v = identity: new gain is gain^-1 * gain = 1
        assert switch(g, (1, 0)).edge(0).gain == 0

    def test_loop_conjugation(self):
        s3 = S3
        g = gain_graph(s3, 1, [(0, 0, 3)])
        for h in range(6):
            switched = switch(g, (h,))
            assert switched.edge(0).gain == s3.mul[s3.mul[s3.inv[h]][3]][h]

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_composition_is_pointwise_product(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, S3)
        n = g.vertex_count
        eta = tuple(rng.randrange(6) for _ in range(n))
        theta_fn = tuple(rng.randrange(6) for _ in range(n))
        combined = tuple(S3.mul[a][b] for a, b in zip(eta, theta_fn))
        assert switch(switch(g, eta), theta_fn) == switch(g, combined)

    def test_switch_state(self):
        reg = regular_action(Z2)
        assert switch_state((0,), (1,), reg) == (1,)
        assert switch_state((0, 1), (0, 0), reg) == (0, 1)
        triv = trivial_action(Z2, 3)
        assert switch_state((2, 0), (1, 1), triv) == (2, 0)


class TestSatisfiedEdges:
    def test_identity_edge_equal_spins(self):
        g = gain_graph(Z2, 2, [(0, 1, 0)])
        assert satisfied_edges(g, regular_action(Z2), (1, 1)) == frozenset({0})

    def test_regular_loop_never_satisfied(self):
        g = gain_graph(Z2, 1, [(0, 0, 1)])
        reg = regular_action(Z2)
        assert satisfied_edges(g, reg, (0,)) == frozenset()
        assert satisfied_edges(g, reg, (1,)) == frozenset()

    def test_digon_split_verdict(self):
        g = digon()
        assert satisfied_edges(g, regular_action(Z2), (0, 1)) == frozenset({1})

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_switching_preserves_satisfied_sets(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, Z4)
        action = standard_colors(Z4, 1)
        eta = tuple(rng.randrange(4) for _ in range(g.vertex_count))
        for _ in range(5):
            state = tuple(rng.randrange(action.size) for _ in range(g.vertex_count))
            assert satisfied_edges(
                switch(g, eta), action, switch_state(state, eta, action)
            ) == satisfied_edges(g, action, state)


class TestLoopDomains:
    def test_each_domain_is_the_spins_no_loop_gain_fixes(self):
        partial = 0  # domains that some loop cuts short but not to nothing
        for seed in range(300):
            inst = harness.random_instance(random.Random(seed), 5, 8)
            g, a = inst.graph, inst.action
            domains = loop_domains(g, a)
            assert len(domains) == g.vertex_count
            for v, domain in enumerate(domains):
                banned = set()
                for e in g.edges:
                    if e.u == e.v == v:
                        banned |= fixed_set(a, {e.gain})
                assert domain == sorted(set(range(a.size)) - banned)
                partial += 0 < len(domain) < a.size
        assert partial >= 10

    def test_identity_loop_bans_every_spin_and_no_loop_none(self):
        a = standard_colors(S3, 2)
        g = gain_graph(S3, 3, [(0, 0, 0), (1, 1, 1), (0, 1, 2)])
        domains = loop_domains(g, a)
        assert domains[0] == []
        assert domains[2] == list(range(a.size))
        assert domains[1] == sorted(set(range(a.size)) - a.fixed(1))
        assert 0 < len(domains[1]) < a.size


class TestDeleteContract:
    def test_delete_k2(self):
        g = gain_graph(Z2, 2, [(0, 1, 0)])
        d = delete_edge(g, 0)
        assert d.vertex_count == 2 and d.edges == ()

    def test_delete_keeps_other_ids(self):
        g = gain_graph(Z2, 2, [(0, 1, 0), (0, 1, 1), (0, 0, 1)])
        d = delete_edge(g, 1)
        assert sorted(d.edge_ids) == [0, 2]

    def test_contract_identity_k2(self):
        g = gain_graph(Z2, 2, [(0, 1, 0)])
        c = contract_link(g, 0)
        assert c.vertex_count == 1 and c.edges == ()

    def test_contract_digon_leaves_loop(self):
        g = digon()
        c = contract_link(g, 0)
        assert c.vertex_count == 1
        (loop,) = c.edges
        assert loop.is_loop and loop.gain == 1 and loop.id == 1

    def test_contract_identity_triangle(self):
        g = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        c = contract_link(g, 0)
        assert c.vertex_count == 2
        assert sorted(e.id for e in c.edges) == [1, 2]
        assert all(not e.is_loop and e.gain == 0 for e in c.edges)

    def test_contract_loop_rejected(self):
        g = gain_graph(Z2, 1, [(0, 0, 1)])
        with pytest.raises(ValueError):
            contract_link(g, 0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_contract_shape_invariant(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, Z3)
        links = [e for e in g.edges if not e.is_loop]
        if not links:
            return
        e = rng.choice(links)
        c = contract_link(g, e.id)
        assert c.vertex_count == g.vertex_count - 1
        assert c.edge_ids == g.edge_ids - {e.id}

    def test_contract_nonidentity_gain_switches_neighbors(self):
        # path 0 -1-> 1 -g-> 2, contract the g edge: surviving edge keeps a
        # gain equivalent up to switching; count agreement is the real check
        g = gain_graph(Z3, 3, [(0, 1, 1), (1, 2, 2)])
        c = contract_link(g, 1)
        assert c.vertex_count == 2
        reg = regular_action(Z3)
        assert naive_count(c, reg) == reg.size * (reg.size - 1)


class TestComponents:
    def test_empty_subset(self):
        g = gain_graph(Z2, 3, [(0, 1, 0)])
        split = components(g, frozenset())
        assert split.edge_sets == ()
        assert split.isolated == (0, 1, 2)

    def test_two_disjoint_links(self):
        g = gain_graph(Z2, 4, [(0, 1, 0), (2, 3, 1)])
        split = components(g)
        assert len(split.edge_sets) == 2
        assert split.isolated == ()

    def test_triangle_single_component(self):
        g = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        split = components(g)
        assert split.edge_sets == (frozenset({0, 1, 2}),)

    def test_loop_covers_vertex(self):
        g = gain_graph(Z2, 2, [(0, 0, 1)])
        split = components(g)
        assert split.edge_sets == (frozenset({0}),)
        assert split.isolated == (1,)


class TestSpanningForest:
    def test_triangle_lowest_ids(self):
        g = gain_graph(Z2, 3, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])
        assert spanning_forest(g) == frozenset({0, 1})

    def test_forest_is_itself(self):
        g = gain_graph(Z2, 4, [(0, 1, 0), (1, 2, 1), (3, 3, 1)])
        assert spanning_forest(g, frozenset({0, 1})) == frozenset({0, 1})

    def test_digon_lower_id(self):
        assert spanning_forest(digon()) == frozenset({0})

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_forest_is_maximal_and_acyclic(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, Z2, max_vertices=5, max_edges=8)
        forest = spanning_forest(g)
        split = components(g)
        assert len(forest) == sum(len(v) - 1 for v in split.vertex_sets)
        # acyclic: the forest's own components have |edges| = |vertices| - 1
        fsplit = components(g, forest)
        assert all(
            len(es) == len(vs) - 1
            for es, vs in zip(fsplit.edge_sets, fsplit.vertex_sets)
        )


class TestTraverse:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_potentials_are_tree_path_gains(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, S3, max_vertices=5, max_edges=8)
        split, forest, psi = traverse(g)
        mul, inv = S3.mul, S3.inv
        assert all(psi[min(verts)] == 0 for verts in split.vertex_sets)
        for eid in forest:
            e = g.edge(eid)
            assert mul[psi[e.u]][e.gain] == psi[e.v]
        for verts in split.vertex_sets:
            # the same gains by an independent walk of the forest
            assert oracle_tree_gains(g, forest, min(verts)) == {v: psi[v] for v in verts}
            # rerooted along the same forest, every gain is taken relative to the new root
            root = max(verts)
            repsi = oracle_tree_gains(g, forest, root)
            assert repsi == {v: mul[inv[psi[root]]][psi[v]] for v in verts}


class TestWalkGain:
    def test_empty_walk(self):
        assert walk_gain(digon(), []) == 0

    def test_single_edge(self):
        g = gain_graph(Z3, 2, [(0, 1, 2)])
        assert walk_gain(g, [0, 0, 1]) == 2

    def test_forward_then_back(self):
        g = gain_graph(S3, 2, [(0, 1, 4)])
        assert walk_gain(g, [0, 0, 1, 0, 0]) == 0

    def test_malformed(self):
        g = gain_graph(Z3, 3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            walk_gain(g, [0, 0, 2])
        with pytest.raises(ValueError):
            walk_gain(g, [0, 0])


class TestBalance:
    def test_forest_balanced(self):
        g = gain_graph(S3, 3, [(0, 1, 3), (1, 2, 5)])
        assert is_balanced(g)

    def test_digon_unbalanced(self):
        assert not is_balanced(digon())

    def test_product_cycle_balanced(self):
        for group in (Z4, S3):
            for g1 in range(group.order):
                for g2 in range(group.order):
                    closing = group.inv[group.mul[g1][g2]]
                    tri = gain_graph(group, 3, [(0, 1, g1), (1, 2, g2), (2, 0, closing)])
                    assert walk_gain(tri, [0, 0, 1, 1, 2, 2, 0]) == 0
                    assert is_balanced(tri)

    def test_balanced_component_count(self):
        g = gain_graph(Z2, 3, [])
        assert balanced_component_count(g) == 3
        h = gain_graph(Z2, 3, [(0, 1, 0), (0, 1, 1)])
        assert balanced_component_count(h) == 1
        tri = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        assert balanced_component_count(tri) == 1

    def test_balanced_component_count_traverses_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return traverse(*args, **kwargs)

        monkeypatch.setattr(graphs, "traverse", counted)
        # a balanced Z3 triangle, an unbalanced digon, an unbalanced loop
        # and an isolated vertex
        g = gain_graph(Z3, 7, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 0), (3, 4, 1), (5, 5, 1)])
        assert balanced_component_count(g) == 2
        assert len(calls) == 1
        # against one balance test per component, on every edge subset
        rng = random.Random(5)
        for _ in range(40):
            h = random_graph(rng, S3, max_vertices=5, max_edges=7)
            for subset in powerset(h.edge_ids):
                split = components(h, subset)
                expected = len(split.isolated) + sum(is_balanced(h, comp) for comp in split.edge_sets)
                calls.clear()
                assert balanced_component_count(h, subset) == expected
                assert len(calls) == 1

    def test_frame_rank_examples(self):
        # the frame-matroid rank is |V| minus the balanced components
        g = gain_graph(Z2, 4, [])
        assert g.vertex_count - balanced_component_count(g) == 0
        unbal = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
        assert unbal.vertex_count - balanced_component_count(unbal) == 3
        bal = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        assert bal.vertex_count - balanced_component_count(bal) == 2

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_balance_switching_invariant(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, Z4, max_vertices=4, max_edges=6)
        eta = tuple(rng.randrange(4) for _ in range(g.vertex_count))
        for subset in (g.edge_ids, spanning_forest(g)):
            assert is_balanced(g, subset) == is_balanced(switch(g, eta), subset)
        assert balanced_component_count(g) == balanced_component_count(switch(g, eta))

    def test_frame_rank_is_a_matroid_rank(self):
        g = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 1), (0, 2, 0), (0, 0, 1), (1, 2, 0)])
        subsets = list(powerset(g.edge_ids))
        rank = {s: g.vertex_count - balanced_component_count(g, s) for s in subsets}
        for a in subsets:
            assert 0 <= rank[a] <= len(a)  # subcardinal
            for b in subsets:
                if a <= b:
                    assert rank[a] <= rank[b]  # monotone
                union = a | b
                inter = a & b
                assert rank[union] + rank[inter] <= rank[a] + rank[b]  # submodular


class TestGraphicClosure:
    def test_digon_closure(self):
        assert graphic_closure(digon(), frozenset({0})) == frozenset({0, 1})

    def test_empty_closure_is_loops(self):
        g = gain_graph(Z2, 2, [(0, 1, 0), (0, 0, 1), (1, 1, 0)])
        assert graphic_closure(g, frozenset()) == frozenset({1, 2})

    def test_chord_enters(self):
        g = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
        assert graphic_closure(g, frozenset({0, 1})) == frozenset({0, 1, 2})

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_closure_operator_laws(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, Z2, max_vertices=4, max_edges=6)
        ids = sorted(g.edge_ids)
        for _ in range(6):
            a = frozenset(e for e in ids if rng.random() < 0.5)
            b = a | frozenset(e for e in ids if rng.random() < 0.3)
            ca = graphic_closure(g, a)
            assert ca >= a  # extensive
            assert graphic_closure(g, ca) == ca  # idempotent
            assert ca <= graphic_closure(g, b)  # monotone


class TestGroupExpansion:
    def test_k2_z2(self):
        g = group_expansion(SimpleGraph(2, ((0, 1),)), Z2)
        assert len(g.edges) == 2
        assert sorted(e.gain for e in g.edges) == [0, 1]

    def test_k2_s3(self):
        g = group_expansion(SimpleGraph(2, ((0, 1),)), S3)
        assert len(g.edges) == 6

    def test_edgeless(self):
        g = group_expansion(SimpleGraph(3, ()), S3)
        assert g.edges == () and g.vertex_count == 3
