import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gainchroma import (
    FiniteGroup,
    HolonomyContext,
    MultiPoly,
    build_cyclic,
    build_symmetric,
    chromatic_polynomial,
    component_subgroup,
    components,
    conjugate_subgroup,
    count_delcon,
    count_elim,
    count_inclexcl,
    count_mobius,
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
    verify_group,
    walk_gain,
    zero_free_colors,
    zero_free_polynomial,
)
from gainchroma import counting, harness, holonomy
from gainchroma.cli import VERTEX_LIMIT
from helpers import (
    dfs_forest,
    naive_count,
    oracle_closed_sets,
    oracle_holonomy_subgroup,
    oracle_inclexcl,
    oracle_walk_inclexcl,
    oracle_walk_lattice,
    powerset,
    random_graph,
)

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
        # a vertex the set leaves uncovered is a component with trivial group
        # and no edges: an identity loop there joins, an identity link does not
        k = gain_graph(Z3, 2, [(0, 1, 0), (1, 1, 0), (1, 1, 2)])
        assert holonomy_closure(k, frozenset()) == frozenset({1})
        # the same with vertex 0 covered: the link stays out in either orientation
        k = gain_graph(Z3, 3, [(0, 2, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
        assert holonomy_closure(k, frozenset({0})) == frozenset({0, 3})
        # and so does an identity link between two components
        k = gain_graph(Z2, 4, [(0, 1, 0), (2, 3, 0), (1, 2, 0)])
        assert holonomy_closure(k, frozenset({0, 1})) == frozenset({0, 1})

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
        # a loop at a covered vertex is the case u = v of the same rule
        h = gain_graph(Z4, 2, [(0, 1, 0), (0, 1, 2), (1, 1, 2), (1, 1, 1), (0, 0, 3)])
        assert holonomy_closure(h, frozenset({0, 1})) == frozenset({0, 1, 2})
        # psi(1) = 1 in Z3 and the tree has trivial holonomy: only the
        # identity loop joins, whose walk gain psi(1) * 0 * psi(1)^-1 is 0
        t = gain_graph(Z3, 2, [(0, 1, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2)])
        assert holonomy_closure(t, frozenset({0})) == frozenset({0, 1})


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

    def test_bottomless_lattice_has_no_terms(self):
        g = gain_graph(Z3, 3, [(0, 1, 1), (1, 2, 2), (2, 0, 0), (1, 1, 0)])
        lat = enumerate_closed_sets(g)
        assert lat.bottomless and len(lat.sets) > 1
        assert len(lat.subgroups) == len(lat.sets)
        assert lat.terms == ()

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
            touched = {w for e in g.edges for w in (e.u, e.v)}
            assert lat.untouched == g.vertex_count - len(touched)
            # a touched vertex the set leaves isolated is a trivial component
            tuples = {}
            for a, subgroups in zip(lat.sets, lat.subgroups, strict=True):
                split = components(g, a)
                expected = [component_subgroup(g, c) for c in split.edge_sets]
                expected += [frozenset({0})] * len(touched.intersection(split.isolated))
                assert sorted(_conjugacy_class(g.group, h) for h in subgroups) == sorted(
                    _conjugacy_class(g.group, h) for h in expected
                )
                # equal multisets of subgroups come as equal tuples
                multiset = frozenset(collections.Counter(subgroups).items())
                assert tuples.setdefault(multiset, subgroups) == subgroups

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

    def test_lattice_matches_the_oracle_on_harness_graphs(self):
        rng = random.Random(61)
        graphs = [harness.random_instance(rng, max_vertices=6, max_edges=9).graph for _ in range(150)]
        assert any(e.is_loop and e.gain == 0 for g in graphs for e in g.edges)
        assert any(len(g.edges) == 9 for g in graphs)
        for g in graphs:
            lat = enumerate_closed_sets(g)
            assert (lat.sets, lat.mobius_from_bottom, lat.bottomless) == oracle_closed_sets(g)


def _connected_multigraph(rng, group, n, m):
    """A connected multigraph on n vertices with m edges, loops and parallel
    edges allowed and no identity loop: a random spanning tree, then random
    edges, shuffled (the shape of the benchmark's lattice workloads)."""
    triples = [(rng.randrange(v), v, rng.randrange(group.order)) for v in range(1, n)]
    while len(triples) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        triples.append((u, v, rng.randrange(1, group.order) if u == v else rng.randrange(group.order)))
    rng.shuffle(triples)
    return gain_graph(group, n, triples)


def _assert_matches_the_full_walk(g, actions):
    lattice = enumerate_closed_sets(g)
    expected, terms = oracle_walk_lattice(g)
    # the same masks in the same order, Möbius values and subgroup tuples
    assert lattice == expected
    assert lattice.terms == terms
    for action in actions:
        assert count_inclexcl(g, action).value == oracle_walk_inclexcl(g, action)


class TestPairedWalk:
    """The walk drops the pairs of subsets that differ by an edge of the
    closure of the edges before it; the lattice and inclexcl must come out
    as the full walk over all 2**m subsets gives them."""

    def test_harness_seeds_match_the_full_walk(self):
        for seed in range(2000):
            inst = harness.random_instance(random.Random(seed), max_vertices=6, max_edges=10)
            _assert_matches_the_full_walk(inst.graph, [inst.action])

    def test_benchmark_shapes_match_the_full_walk(self):
        rng = random.Random(73)
        for i in range(24):
            group = (Z3, S3)[i % 2]
            g = _connected_multigraph(rng, group, 6, 10 + i % 3 // 2)
            _assert_matches_the_full_walk(g, [standard_colors(group, 1), regular_action(group)])

    def test_parallel_links_drop_leaves(self):
        # a Z3 triangle with parallel links: once a link is in, its exact
        # twin changes nothing, and so does any link inside a component
        # whose holonomy is already all of Z3
        g = gain_graph(Z3, 3, [(0, 1, 1), (0, 1, 1), (1, 2, 0), (1, 2, 2), (2, 0, 1), (0, 1, 0)])
        leaves = []
        holonomy._EdgeWalk(g).run(lambda mask, sign, level: leaves.append(mask))
        assert len(leaves) == 20 < 2 ** len(g.edges)
        for action in (standard_colors(Z3, 1), regular_action(Z3), trivial_action(Z3, 3)):
            assert count_inclexcl(g, action).value == oracle_inclexcl(g, action) == naive_count(g, action)

    @pytest.mark.parametrize("action", [zero_free_colors(Z3, 0), trivial_action(Z3, 1), regular_action(Z3)],
                             ids=lambda a: f"{a.size} spins")
    def test_lowest_edge_identity_loop_reaches_no_leaf(self, action):
        # every subset pairs off at the first edge, so the sum is 0 times the
        # factor of the untouched vertices, also when |Q| = 0
        g = gain_graph(Z3, 5, [(1, 1, 0), (0, 1, 2), (1, 2, 1)])
        leaves = []
        holonomy._EdgeWalk(g).run(lambda mask, sign, level: leaves.append(mask))
        assert leaves == []
        assert count_inclexcl(g, action).value == 0 == naive_count(g, action)
        assert count_inclexcl(gain_graph(Z3, 2, [(0, 0, 0)]), action).value == 0
        assert enumerate_closed_sets(g).bottomless


# Two groups given only by their tables: the Klein four-group as XOR, and S3
# with its non-identity elements relabelled.
KLEIN = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)], name="klein")
_RELABEL = (0, 3, 5, 1, 4, 2)
S3_TABLE = FiniteGroup(
    [[_RELABEL[S3.mul[_RELABEL.index(a)][_RELABEL.index(b)]] for b in range(6)] for a in range(6)],
    name="s3-table",
)


def _level(g, subset):
    """The walk's level f(B), from the breadth-first split and a fresh
    holonomy subgroup per component."""
    touched = {w for e in g.edges for w in (e.u, e.v)}
    split = components(g, subset)
    lone = len(touched - set().union(*split.vertex_sets))
    merged = len(touched) - len(split.edge_sets) - lone
    return merged * (g.group.order + 1) + lone + sum(len(component_subgroup(g, c)) for c in split.edge_sets)


class TestWalkLevel:
    """An edge outside B lies in the closure of B exactly when adding it
    leaves the level where it is; the closed-set walk rests on that."""

    GROUPS = (Z2, Z4, S3, KLEIN, S3_TABLE)

    def test_the_table_groups_are_groups(self):
        assert verify_group(KLEIN) and verify_group(S3_TABLE)
        assert any(S3_TABLE.mul[a][b] != S3_TABLE.mul[b][a] for a in range(6) for b in range(6))

    def test_level_is_flat_exactly_on_the_closure(self):
        rng = random.Random(67)
        flat = rising = 0
        for i in range(100):
            g = random_graph(rng, self.GROUPS[i % 5], max_vertices=5, max_edges=8)
            ids = sorted(g.edge_ids)
            for _ in range(4):
                b = frozenset(e for e in ids if rng.random() < 0.5)
                closure = holonomy_closure(g, b)
                for e in set(ids) - b:
                    same = _level(g, b | {e}) == _level(g, b)
                    assert same == (e in closure)
                    flat += same
                    rising += not same
        assert flat > 100 and rising > 100

    def test_the_walk_level_is_the_independent_one(self):
        rng = random.Random(71)
        for i in range(25):
            g = random_graph(rng, self.GROUPS[i % 5], max_vertices=5, max_edges=7)
            walk = holonomy._EdgeWalk(g)
            levels = {}
            walk.run(lambda mask, sign, level: levels.__setitem__(mask, level))
            for mask, level in levels.items():
                assert level == _level(g, {walk.ids[i] for i in range(len(walk.ids)) if mask >> i & 1})


class TestUntouchedVertices:
    """A vertex no edge touches is isolated in every edge subset, so the
    walk's leaves never visit it."""

    @staticmethod
    def _graph():
        # 12 edges among the first 8 of cli.VERTEX_LIMIT vertices, no identity loop
        rng = random.Random(53)
        triples = [(v, v + 1, rng.randrange(3)) for v in range(7)] + [(0, 7, 1), (2, 2, 1)]
        triples += [(rng.randrange(8), rng.randrange(8), rng.randrange(1, 3)) for _ in range(3)]
        return gain_graph(Z3, VERTEX_LIMIT, triples)

    def test_counts_and_polynomials_on_the_largest_file(self):
        g = self._graph()
        assert len(g.edges) == 12
        core = gain_graph(Z3, 8, [(e.u, e.v, e.gain) for e in g.edges])
        spare = MultiPoly(1, {(VERTEX_LIMIT - 8,): 1})
        for action in (standard_colors(Z3, 1), regular_action(Z3)):
            value = count_elim(g, action).value
            assert value > 0
            assert count_inclexcl(g, action).value == count_mobius(g, action).value == value
        assert chromatic_polynomial(g) == chromatic_polynomial(core) * spare
        assert zero_free_polynomial(g) == zero_free_polynomial(core) * spare
        assert chromatic_polynomial(g).evaluate([4]) == count_elim(g, standard_colors(Z3, 1)).value

    def test_the_leaves_look_up_touched_vertices_only(self, monkeypatch):
        g = self._graph()
        m = len(g.edges)
        calls = 0
        find = holonomy._EdgeWalk.find

        def counted(self, v):
            nonlocal calls
            calls += 1
            if calls > 2**m * 2 * m:
                raise AssertionError("the walk looks up untouched vertices")
            return find(self, v)

        monkeypatch.setattr(holonomy._EdgeWalk, "find", counted)
        lattice = enumerate_closed_sets(g)
        assert calls <= 2**m * 2 * m
        assert lattice.untouched == VERTEX_LIMIT - 8
        assert all(len(subgroups) <= 8 for subgroups in lattice.subgroups)

    def test_the_closed_set_leaves_look_up_no_vertex(self, monkeypatch):
        # two lookups per include step, one include step per inner node of
        # the walk's tree, and none at a leaf
        g = self._graph()
        m = len(g.edges)
        calls = 0
        find = holonomy._EdgeWalk.find

        def counted(self, v):
            nonlocal calls
            calls += 1
            return find(self, v)

        monkeypatch.setattr(holonomy._EdgeWalk, "find", counted)
        enumerate_closed_sets(g)
        assert calls <= 2 * (2**m - 1)

    def test_the_walk_reaches_every_superset_first(self):
        # With keep_closed each leaf comes once and after its supersets that
        # are leaves; every closed set is a leaf, and a leaf B that is not
        # closed comes after a leaf B | e with e in the closure of B, which
        # the closed-set walk reads its closure from.  Without keep_closed
        # the leaves are those of nonzero sign.
        g = self._graph()
        m = len(g.edges)
        walk = holonomy._EdgeWalk(g)
        seen = []
        walk.run(lambda mask, sign, level: seen.append((mask, sign)), keep_closed=True)
        position = {mask: j for j, (mask, _) in enumerate(seen)}
        assert len(position) == len(seen) < 2**m

        def edge_set(mask):
            return frozenset(walk.ids[i] for i in range(m) if mask >> i & 1)

        closed = set(oracle_walk_lattice(g)[0].masks)
        assert closed <= set(position)
        for mask, j in position.items():
            supersets = [mask | 1 << i for i in range(m) if not mask >> i & 1]
            assert all(position[s] < j for s in supersets if s in position)
            closure = holonomy_closure(g, edge_set(mask))
            assert (closure == edge_set(mask)) == (mask in closed)
            if mask not in closed:
                assert any(s in position and edge_set(s) <= closure for s in supersets)
        signed = []
        holonomy._EdgeWalk(g).run(lambda mask, sign, level: signed.append((mask, sign)))
        assert signed == [(mask, sign) for mask, sign in seen if sign]

    def test_delcon_recurses_on_touched_vertices_only(self, monkeypatch):
        g = self._graph()
        action = standard_colors(Z3, 1)
        largest = 0
        contract = counting._contract

        def watched(minor, i, group):
            nonlocal largest
            vertex_count = minor[0]
            largest = max(largest, vertex_count)
            if vertex_count > 8:
                raise AssertionError(f"the recursion sees {vertex_count} vertices")
            return contract(minor, i, group)

        monkeypatch.setattr(counting, "_contract", watched)
        result = count_delcon(g, action)
        assert largest == 8
        assert result.value == count_elim(g, action).value
        # the recursion is the one on the whole graph: same links, same ids
        assert result.stats["calls"] == 2615


class TestChoiceIndependence:
    def test_the_oracle_matches_the_default_forest_and_bases(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_graph(rng, S3, max_vertices=5, max_edges=7)
            ctx = HolonomyContext(g, g.edge_ids)
            for j, comp in enumerate(ctx.split.edge_sets):
                forest = ctx.forest & comp
                assert oracle_holonomy_subgroup(g, comp, forest, ctx.bases[j]) == holonomy_group(ctx, j)

    def test_the_oracle_refuses_bad_forests_and_bases(self):
        triangle = gain_graph(Z2, 4, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        for forest, base in (({0, 1, 2}, 0), ({0}, 0), ({0, 1}, 3)):
            with pytest.raises(ValueError):
                oracle_holonomy_subgroup(triangle, triangle.edge_ids, forest, base)

    def test_forest_choice(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng, S3, max_vertices=5, max_edges=7)
            bfs_ctx = HolonomyContext(g, g.edge_ids)
            alt = dfs_forest(g, g.edge_ids)
            for j, comp in enumerate(bfs_ctx.split.edge_sets):
                dfs_group = oracle_holonomy_subgroup(g, comp, alt & comp, bfs_ctx.bases[j])
                assert holonomy_group(bfs_ctx, j) == dfs_group

    def test_basepoint_conjugacy(self):
        rng = random.Random(23)
        action = subset_action(3)
        moved = 0
        for _ in range(30):
            g = random_graph(rng, S3, max_vertices=4, max_edges=6)
            ctx = HolonomyContext(g, g.edge_ids)
            for j, verts in enumerate(ctx.split.vertex_sets):
                base_group = holonomy_group(ctx, j)
                base_fixed = len(
                    [q for q in range(action.size) if all(action.act[q][x] == q for x in base_group)]
                )
                comp = ctx.split.edge_sets[j]
                for alt_base in sorted(verts):
                    alt_group = oracle_holonomy_subgroup(g, comp, ctx.forest & comp, alt_base)
                    moved += alt_group != base_group
                    # conjugate subgroups, hence equal fixed-set sizes
                    assert any(
                        conjugate_subgroup(S3, base_group, alpha) == alt_group
                        for alpha in range(6)
                    )
                    alt_fixed = len(
                        [q for q in range(action.size) if all(action.act[q][x] == q for x in alt_group)]
                    )
                    assert alt_fixed == base_fixed
        # some bases see a different conjugate, so the check has teeth
        assert moved > 0

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
