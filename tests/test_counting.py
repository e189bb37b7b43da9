import functools
import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gainchroma import (
    BoundExceeded,
    CountResult,
    MethodReport,
    build_cyclic,
    build_symmetric,
    count_auto,
    count_brute,
    count_delcon,
    count_elim,
    count_inclexcl,
    count_mobius,
    SpinAction,
    disjoint_union_action,
    fixed_set,
    gain_graph,
    regular_action,
    stabilizer_classes,
    standard_colors,
    subset_action,
    switch,
    theta,
    trivial_action,
    verify_all,
    zero_free_colors,
)
from gainchroma import SimpleGraph, contract_link, counting, harness, polynomials
from helpers import (
    naive_count,
    oracle_brute,
    oracle_delcon,
    oracle_elim,
    oracle_forest_count,
    oracle_stabilizer_classes,
    random_graph,
    z4_on_cosets_of_z2,
)

Z2 = build_cyclic(2)
Z3 = build_cyclic(3)
Z4 = build_cyclic(4)
S3 = build_symmetric(3)

ALL_COUNTERS = [count_brute, count_delcon, count_inclexcl, count_mobius]


def loop_vertex(group, gain):
    return gain_graph(group, 1, [(0, 0, gain)])


def digon(group=Z2, gains=(0, 1)):
    return gain_graph(group, 2, [(0, 1, gains[0]), (0, 1, gains[1])])


class TestBruteForce:
    def test_edgeless_power(self):
        g = gain_graph(Z3, 4, [])
        assert count_brute(g, regular_action(Z3)).value == 3**4

    def test_empty_graph_counts_one(self):
        g = gain_graph(Z3, 0, [])
        assert count_brute(g, regular_action(Z3)).value == 1
        assert count_brute(g, zero_free_colors(Z3, 0)).value == 1

    def test_empty_spin_set(self):
        g = gain_graph(Z3, 2, [(0, 1, 1)])
        assert count_brute(g, zero_free_colors(Z3, 0)).value == 0

    @pytest.mark.parametrize("group,gain", [(Z2, 0), (Z2, 1), (Z4, 3), (S3, 4)])
    def test_single_link(self, group, gain):
        g = gain_graph(group, 2, [(0, 1, gain)])
        for action in (regular_action(group), standard_colors(group, 1)):
            q = action.size
            assert count_brute(g, action).value == q * (q - 1)

    def test_digon_standard_colors(self):
        g = digon()
        assert naive_count(g, standard_colors(Z2, 1)) == 4
        assert count_brute(g, standard_colors(Z2, 1)).value == 4

    def test_bound(self, monkeypatch):
        g = gain_graph(Z2, 4, [])
        monkeypatch.setattr(counting, "STATE_BUDGET", 100)
        with pytest.raises(BoundExceeded, match=r"^5\*\*4 states exceed the brute-force limit 100$"):
            count_brute(g, standard_colors(Z2, 2))

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3, S3])
        g = random_graph(rng, group, max_vertices=4, max_edges=6)
        action = rng.choice(
            [regular_action(group), trivial_action(group, 2), standard_colors(group, 1)]
        )
        assert count_brute(g, action).value == naive_count(g, action)


class TestDeletionContraction:
    @pytest.mark.parametrize("group,gain", [(Z2, 1), (Z4, 1), (Z4, 2), (S3, 3)])
    def test_single_loop_vertex(self, group, gain):
        g = loop_vertex(group, gain)
        for action in (
            regular_action(group),
            standard_colors(group, 1),
            subset_action(3) if group is S3 else trivial_action(group, 3),
        ):
            expected = action.size - len(fixed_set(action, {gain}))
            assert count_delcon(g, action).value == expected

    def test_two_loop_vertices_with_identity_link(self):
        # loop g at one vertex, loop h at the other, identity link between
        g = gain_graph(Z3, 2, [(0, 0, 1), (1, 1, 2), (0, 1, 0)])
        action = standard_colors(Z3, 1)
        q = action.size
        assert count_delcon(g, action).value == (q - 1) * (q - 2)

    def test_identity_loop_kills(self):
        g = gain_graph(Z2, 1, [(0, 0, 0)])
        assert count_delcon(g, regular_action(Z2)).value == 0

    def test_call_budget(self, monkeypatch):
        monkeypatch.setattr(counting, "DELCON_CALL_LIMIT", 1)
        g = gain_graph(Z2, 3, [(0, 1, 0)] * 1)
        with pytest.raises(BoundExceeded, match="exceeded 1 calls"):
            count_delcon(g, regular_action(Z2))

    def test_link_bound_is_checked_before_the_first_call(self, monkeypatch):
        def no_minors(*args):
            raise AssertionError("the recursion started")

        monkeypatch.setattr(counting, "_contract", no_minors)
        monkeypatch.setattr(counting, "DELCON_LINK_LIMIT", 1)
        # loops do not count against the bound
        g = gain_graph(Z2, 3, [(0, 1, 0), (1, 2, 1), (2, 2, 1)])
        with pytest.raises(BoundExceeded, match="2 links"):
            count_delcon(g, regular_action(Z2))

    def test_calls_are_twice_the_forests_less_one(self):
        # the recursion branches once per link that is not yet a loop, so its
        # leaves are the forests of the link multigraph, T_G(2, 1) of them
        forests = set()
        for seed in range(300):
            inst = harness.random_instance(random.Random(seed), 5, 8)
            f = oracle_forest_count(inst.graph)
            forests.add(f)
            assert count_delcon(inst.graph, inst.action).stats["calls"] == 2 * f - 1, inst.describe()
        assert len(forests) > 20

    def test_long_cycle_is_refused_not_a_recursion_error(self):
        n = 1500
        g = gain_graph(Z3, n, [(v, (v + 1) % n, v % 3) for v in range(n)])
        a = standard_colors(Z3, 1)
        with pytest.raises(BoundExceeded, match=f"{n} links"):
            count_delcon(g, a)
        report = verify_all(g, a)
        assert "delcon" in report.errors
        assert set(report.results) == {"elim"}
        assert report.agree

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3, Z4])
        g = random_graph(rng, group, max_vertices=4, max_edges=6)
        action = rng.choice(
            [regular_action(group), standard_colors(group, 1), trivial_action(group, 3)]
        )
        assert count_delcon(g, action).value == count_brute(g, action).value


def harness_instances(count=2000):
    """The instances ``harness.random_instance`` draws at (6, 9) from seeds
    0, 1, ...: every group and action kind in its pool."""
    for seed in range(count):
        yield harness.random_instance(random.Random(seed), 6, 9)


class TestAgainstTheGraphRecordPaths:
    """Brute and delcon run on plain ints; the oracles keep the per-node
    spin set, the recursion into the last vertex and a ``GainGraph`` per
    minor.  Values and stats must be equal, instance for instance."""

    def test_brute_matches_its_oracle(self):
        for inst in harness_instances():
            result = count_brute(inst.graph, inst.action)
            assert (result.value, result.stats) == oracle_brute(inst.graph, inst.action), inst.describe()

    def test_delcon_matches_its_oracle(self):
        for inst in harness_instances():
            result = count_delcon(inst.graph, inst.action)
            assert (result.value, result.stats) == oracle_delcon(inst.graph, inst.action), inst.describe()

    @pytest.mark.parametrize("group", [S3, Z4], ids=["S3", "Z4"])
    def test_light_contraction_is_contract_link(self, group):
        rng = random.Random(f"contract:{group.order}")
        for _ in range(100):
            n = rng.randint(2, 5)
            triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(group.order)) for _ in range(rng.randint(1, 7))]
            triples += [(v, v, rng.randrange(group.order)) for v in range(n) if rng.random() < 0.6]
            rng.shuffle(triples)
            g = gain_graph(group, n, triples)
            for i, e in enumerate(g.edges):
                if e.is_loop:
                    continue
                c = contract_link(g, e.id)
                expected = c.vertex_count, tuple((f.u, f.v, f.gain) for f in c.edges)
                assert counting._contract((n, tuple(triples)), i, group) == expected

    def test_contracted_loops_are_conjugated(self):
        # Deeper in the recursion a contraction absorbs a vertex that carries
        # a loop; merging that loop with its gain unconjugated gives 158 here,
        # in the same 27 calls.
        inst = harness.random_instance(random.Random(194), 6, 9)
        g, a = inst.graph, inst.action
        assert (inst.group_name, a.name, g.vertex_count) == ("S3", "subsets(3)", 3)
        assert [(e.u, e.v, e.gain) for e in g.edges] == [(1, 2, 3), (2, 1, 4), (1, 1, 2), (0, 2, 0), (2, 0, 5), (1, 0, 5)]
        assert count_brute(g, a).value == 160
        assert oracle_delcon(g, a) == (160, {"calls": 27})
        assert count_delcon(g, a) == counting.CountResult(160, {"calls": 27})


class TestInclusionExclusion:
    def test_identity_link(self):
        g = gain_graph(Z3, 2, [(0, 1, 0)])
        a = regular_action(Z3)
        assert count_inclexcl(g, a).value == 9 - 3

    def test_single_loop_regular(self):
        g = loop_vertex(Z2, 1)
        assert count_inclexcl(g, regular_action(Z2)).value == 2

    def test_digon_regular(self):
        assert count_inclexcl(digon(), regular_action(Z2)).value == 0

    def test_bound(self, monkeypatch):
        g = gain_graph(Z2, 2, [(0, 1, 0)] * 5)
        monkeypatch.setattr(counting, "SUBSET_BUDGET", 16)
        with pytest.raises(BoundExceeded, match=r"^2\*\*5 subsets exceed the inclusion-exclusion limit 16$"):
            count_inclexcl(g, regular_action(Z2))

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3, S3])
        g = random_graph(rng, group, max_vertices=4, max_edges=6)
        action = rng.choice(
            [regular_action(group), standard_colors(group, 1), trivial_action(group, 2)]
        )
        assert count_inclexcl(g, action).value == count_brute(g, action).value


class TestMobius:
    def test_digon_term_by_term(self):
        # mu values (1, -1, -1, 1) against h products (4, 2, 2, 0)
        assert count_mobius(digon(), regular_action(Z2)).value == 4 - 2 - 2 + 0

    def test_identity_loop_is_zero(self):
        g = gain_graph(Z2, 2, [(0, 1, 1), (1, 1, 0)])
        assert count_mobius(g, regular_action(Z2)).value == 0
        assert count_brute(g, regular_action(Z2)).value == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z4, S3])
        g = random_graph(rng, group, max_vertices=4, max_edges=6)
        action = rng.choice(
            [regular_action(group), standard_colors(group, 1), trivial_action(group, 2)]
        )
        assert count_mobius(g, action).value == count_brute(g, action).value


class TestTheta:
    def test_balanced_link(self):
        g = gain_graph(Z2, 2, [(0, 1, 0)])
        assert theta(g, standard_colors(Z2, 1)) == Fraction(6, 3)

    def test_k3_one_twisted_edge(self):
        g = gain_graph(Z2, 3, [(0, 1, 0), (0, 2, 0), (1, 2, 1)])
        assert theta(g, regular_action(Z2)) == 2

    def test_lone_vertex(self):
        g = gain_graph(Z3, 1, [])
        for action in (regular_action(Z3), standard_colors(Z3, 2)):
            assert theta(g, action) == 1

    def test_no_balanced_component(self):
        # the divisor is |Q|**0 = 1, also for an empty spin set
        g = loop_vertex(Z2, 1)
        assert theta(g, regular_action(Z2)) == 2
        assert theta(g, zero_free_colors(Z2, 0)) == 0

    def test_empty_spin_set_with_balance_rejected(self):
        g = gain_graph(Z3, 1, [])
        with pytest.raises(ValueError):
            theta(g, zero_free_colors(Z3, 0))

    def test_empty_spin_set_is_rejected_before_counting(self, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("theta counted before checking its divisor")

        monkeypatch.setattr(counting, "count_auto", no_count)
        g = gain_graph(Z3, 3, [(0, 1, 1), (1, 2, 2)])
        with pytest.raises(ValueError, match="empty spin set"):
            theta(g, zero_free_colors(Z3, 0))

    def test_multiplicative_on_disjoint_union(self):
        rng = random.Random(13)
        for _ in range(10):
            g1 = random_graph(rng, Z3, max_vertices=3, max_edges=4)
            g2 = random_graph(rng, Z3, max_vertices=3, max_edges=4)
            shift = g1.vertex_count
            combined = gain_graph(
                Z3,
                g1.vertex_count + g2.vertex_count,
                [(e.u, e.v, e.gain) for e in g1.edges]
                + [(e.u + shift, e.v + shift, e.gain) for e in g2.edges],
            )
            action = standard_colors(Z3, 1)
            assert count_brute(combined, action).value == (
                count_brute(g1, action).value * count_brute(g2, action).value
            )
            assert theta(combined, action) == theta(g1, action) * theta(g2, action)


class TestVerifyAll:
    def test_agreement_on_examples(self):
        cases = [
            (digon(), regular_action(Z2)),
            (gain_graph(Z2, 2, [(0, 1, 0), (1, 1, 0)]), regular_action(Z2)),
            (gain_graph(S3, 3, [(0, 1, 2), (1, 2, 3), (0, 2, 4)]), subset_action(3)),
        ]
        for g, a in cases:
            report = verify_all(g, a)
            assert report.agree and not report.errors
            assert report.value == naive_count(g, a)

    def test_reports_bound_overruns(self, monkeypatch):
        g = gain_graph(Z2, 5, [])
        monkeypatch.setattr(counting, "STATE_BUDGET", 10)
        report = verify_all(g, standard_colors(Z2, 3))
        assert report.errors["brute"] == "7**5 states exceed the brute-force limit 10"
        assert report.agree  # the remaining methods still agree

    def test_only_agreement_across_both_families_is_a_cross_check(self):
        three = CountResult(3, {})
        assert not MethodReport({"brute": three, "elim": three}).cross_checked
        assert MethodReport({"brute": three, "delcon": three}).cross_checked
        assert not MethodReport({"brute": three, "delcon": CountResult(4, {})}).cross_checked
        assert not MethodReport().cross_checked

    def test_identity_loop_zeroes_every_method(self):
        g = gain_graph(Z2, 2, [(0, 1, 1), (1, 1, 0)])
        report = verify_all(g, regular_action(Z2))
        assert not report.errors
        assert set(report.results) == {"brute", "delcon", "inclexcl", "mobius", "elim"}
        assert report.agree and report.value == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_switching_invariance(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3, Z4, S3])
        g = random_graph(rng, group, max_vertices=4, max_edges=6)
        action = standard_colors(group, 1)
        eta = tuple(rng.randrange(group.order) for _ in range(g.vertex_count))
        assert count_brute(g, action).value == count_brute(switch(g, eta), action).value


def ring_with_chords(rng, group, n, m):
    """A ring plus chords of span 2 and then 3, taken by span and then by
    start vertex until there are m edges; gains and orientations random."""
    pairs = [(v, (v + span) % n) for span in (1, 2, 3) for v in range(n)][:m]
    return gain_graph(
        group,
        n,
        [(u, v, rng.randrange(group.order)) if rng.random() < 0.5 else (v, u, rng.randrange(group.order))
         for u, v in pairs],
    )


def relabel_and_switch(rng, g):
    """A copy of g under a random vertex permutation and switching, which
    count the same states."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    moved = gain_graph(g.group, g.vertex_count, [(perm[e.u], perm[e.v], e.gain) for e in g.edges])
    return switch(moved, [rng.randrange(g.group.order) for _ in range(g.vertex_count)])


def elim_actions(group):
    actions = [
        regular_action(group),
        standard_colors(group, 1),
        trivial_action(group, 2),
        disjoint_union_action([regular_action(group), trivial_action(group, 2)], [1, 1]),
    ]
    if group is S3:
        actions.append(subset_action(3))
    return actions


def s3_on_three_points():
    """S3 permuting {0, 1, 2}: the three stabilizers are distinct."""
    return SpinAction(S3, [[p[x] for p in itertools.permutations(range(3))] for x in range(3)], name="points")


# actions whose stabilizer classes span several orbits, or are all singletons
PIN_ACTIONS = [
    disjoint_union_action([z4_on_cosets_of_z2(), regular_action(Z4)], [1, 1]),
    disjoint_union_action([z4_on_cosets_of_z2(), regular_action(Z4)], [2, 2]),
    disjoint_union_action([regular_action(S3), subset_action(3), trivial_action(S3, 1)], [1, 1, 2]),
    disjoint_union_action([regular_action(Z3), trivial_action(Z3, 1)], [3, 2]),
    subset_action(3),
    s3_on_three_points(),
]


def pins_of(g, action):
    steps, sizes = counting._elim_order(g)
    return counting._elim_pins(steps, sizes, action.size)


class TestElimination:
    def test_matches_brute_on_seeded_graphs(self):
        rng = random.Random(41)
        for _ in range(120):
            group = rng.choice([Z2, Z3, Z4, S3])
            g = random_graph(rng, group, max_vertices=6, max_edges=9)
            for action in elim_actions(group):
                assert count_elim(g, action).value == count_brute(g, action).value

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute(self, seed):
        rng = random.Random(seed)
        group = rng.choice([Z2, Z3, Z4, S3])
        g = random_graph(rng, group, max_vertices=5, max_edges=8)
        action = rng.choice(elim_actions(group))
        assert count_elim(g, action).value == count_brute(g, action).value

    @pytest.mark.parametrize(
        "n,triples",
        [
            (0, []),  # no vertices
            (3, []),  # no edges
            (2, [(0, 1, 1), (1, 1, 0)]),  # identity loop
            (3, [(0, 1, 2), (1, 1, 3), (2, 2, 4), (2, 2, 5)]),  # nonidentity loops
            (2, [(0, 1, 3), (0, 1, 3), (0, 1, 3)]),  # exact parallel duplicates
            (2, [(0, 1, 3), (1, 0, 3), (0, 1, 4)]),  # parallel, reversed and distinct gains
            (5, [(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 4), (3, 4, 5)]),  # pendant path on a triangle
            (6, [(0, 1, 1), (1, 2, 2), (4, 5, 3)]),  # disconnected, one isolated vertex
        ],
    )
    def test_special_shapes(self, n, triples):
        g = gain_graph(S3, n, triples)
        for action in elim_actions(S3):
            assert count_elim(g, action).value == count_brute(g, action).value
        if any(u == v and gain == 0 for u, v, gain in triples):
            assert count_elim(g, regular_action(S3)).value == 0

    def test_pendant_star_and_isolated_vertices_factor(self):
        g = gain_graph(Z3, 7, [(0, v, v % 3) for v in range(1, 5)])
        action = standard_colors(Z3, 1)
        q = action.size
        assert count_elim(g, action).value == q * (q - 1) ** 4 * q**2

    @pytest.mark.parametrize(
        "group,action,n,m",
        [
            (Z3, standard_colors(Z3, 1), 13, 26),
            (Z4, regular_action(Z4), 13, 26),
            (S3, regular_action(S3), 9, 24),
        ],
    )
    def test_rings_with_chords_match_brute(self, group, action, n, m):
        rng = random.Random(n * m + group.order)
        g = ring_with_chords(rng, group, n, m)
        assert count_elim(g, action).value == count_brute(g, action).value

    def test_invariant_under_relabelling_and_switching(self):
        rng = random.Random(3)
        for _ in range(40):
            group = rng.choice([Z3, Z4, S3])
            g = random_graph(rng, group, max_vertices=6, max_edges=9)
            action = rng.choice(elim_actions(group))
            assert count_elim(relabel_and_switch(rng, g), action).value == count_elim(g, action).value
        ring = ring_with_chords(rng, S3, 12, 23)
        action = regular_action(S3)
        assert count_elim(relabel_and_switch(rng, ring), action).value == count_elim(ring, action).value

    def test_stats(self):
        g = gain_graph(Z3, 4, [(0, 1, 1), (1, 2, 2), (2, 3, 0)])
        result = count_elim(g, regular_action(Z3))
        assert result.value == 3 * 2**3
        assert result.stats["width"] == 1
        assert 1 <= result.stats["peak_states"] <= 3
        assert result.stats["transitions"] > 0

    def test_identity_loop_at_the_first_vertex_empties_the_table(self):
        # vertex 0 is placed first and has no spin left; the later steps run
        # over an empty table and change nothing
        g = gain_graph(Z3, 4, [(0, 0, 0), (0, 1, 1), (1, 2, 2), (2, 3, 0)])
        assert counting._elim_order(g)[0][0][0] == 0
        for action in (regular_action(Z3), standard_colors(Z3, 1)):
            result = count_elim(g, action)
            assert result.value == 0
            assert (result.value, result.stats) == oracle_elim(g, action)
            assert result.stats == {"width": 1, "peak_states": 1, "transitions": 0}

    def test_bound_is_checked_before_any_table(self, monkeypatch):
        class Untouchable:
            def __getitem__(self, index):
                raise AssertionError("a spin was looked up before the bound was checked")

        k12 = gain_graph(S3, 12, [(u, v, (u + v) % 6) for u in range(12) for v in range(u + 1, 12)])
        action = standard_colors(S3, 1)
        assert action.size == 7
        with pytest.raises(BoundExceeded):
            count_elim(k12, action)
        fake = type("Spins", (), {"group": S3, "size": 7, "act": Untouchable()})()
        monkeypatch.setattr(counting, "STATE_BUDGET", 7**10)
        with pytest.raises(BoundExceeded, match="elimination table limit"):
            count_elim(k12, fake)

    def test_table_limit_holds_whatever_max_states_says(self, monkeypatch):
        # a work budget far past any table still leaves the table limit
        k10 = gain_graph(Z3, 10, [(u, v, 0) for u in range(10) for v in range(u + 1, 10)])
        action = trivial_action(Z3, 5)
        assert 5**9 > counting.ELIM_TABLE_LIMIT
        monkeypatch.setattr(counting, "STATE_BUDGET", 10**30)
        with pytest.raises(BoundExceeded, match="table limit"):
            count_elim(k10, action)

    def test_work_is_checked_against_max_states_before_any_table(self, monkeypatch):
        class Untouchable:
            def __getitem__(self, index):
                raise AssertionError("a spin was looked up before the bound was checked")

        n = 4096
        cycle = gain_graph(Z3, n, [(v, (v + 1) % n, 0) for v in range(n)])
        fake = type("Spins", (), {"group": Z3, "size": 3, "act": Untouchable()})()
        # every frontier is at most 2 wide, so the table limit passes, and the
        # work, more than 3 transitions per vertex, does not
        monkeypatch.setattr(counting, "STATE_BUDGET", 3 * n)
        with pytest.raises(BoundExceeded, match=f"elimination transitions exceed the limit {3 * n}$"):
            count_elim(cycle, fake)

    @pytest.mark.parametrize("shape", ["cycle", "star"])
    def test_vertex_limit_sized_sparse_graphs(self, shape):
        n = 4096
        if shape == "cycle":
            g = gain_graph(Z3, n, [(v, (v + 1) % n, 0) for v in range(n)])
            expected = 2**n + 2  # the chromatic polynomial of C_n at 3
        else:
            g = gain_graph(Z3, n, [(0, v, v % 3) for v in range(1, n)])
            expected = 3 * 2 ** (n - 1)
        result = count_elim(g, regular_action(Z3))
        assert result.value == expected
        assert result.stats["width"] <= 2

    def test_pin_matches_the_unpinned_oracle(self):
        rng = random.Random(43)
        for _ in range(150):
            group = rng.choice([Z2, Z3, Z4, S3])
            g = random_graph(rng, group, max_vertices=7, max_edges=10)
            for action in elim_actions(group) + [a for a in PIN_ACTIONS if a.group is group]:
                result = count_elim(g, action)
                value, stats = oracle_elim(g, action)
                assert result.value == value
                assert result.stats["width"] == stats["width"]
                assert result.stats["peak_states"] <= stats["peak_states"]
                assert result.stats["transitions"] <= stats["transitions"]

    @pytest.mark.parametrize("action", PIN_ACTIONS + elim_actions(S3) + elim_actions(Z4), ids=lambda a: a.name)
    def test_each_class_pair_has_an_automorphism(self, action):
        act, order = action.act, action.group.order
        classes = stabilizer_classes(action)
        assert sorted(q for spins in classes for q in spins) == list(range(action.size))
        assert [spins[0] for spins in classes] == sorted(spins[0] for spins in classes)
        for spins in classes:
            for x, y in itertools.product(spins, repeat=2):
                # x*g -> y*g on the orbit of x, y*g -> x*g on the orbit of y
                sigma = list(range(action.size))
                for g in range(order):
                    sigma[act[y][g]] = act[x][g]
                for g in range(order):
                    sigma[act[x][g]] = act[y][g]
                assert sorted(sigma) == list(range(action.size))
                assert all(sigma[act[z][g]] == act[sigma[z]][g] for z in range(action.size) for g in range(order))
        other = [(x, y) for x in range(action.size) for y in range(action.size)
                 if not any(x in spins and y in spins for spins in classes)]
        for x, y in other:
            assert {g for g in range(order) if act[x][g] == x} != {g for g in range(order) if act[y][g] == y}

    def test_classes_of_stock_actions(self):
        assert stabilizer_classes(regular_action(S3)) == (tuple(range(6)),)
        assert stabilizer_classes(standard_colors(Z3, 2)) == ((0, 1, 2, 3, 4, 5), (6,))
        assert len(stabilizer_classes(subset_action(3))) == 4  # each subset pairs with its complement
        assert len(stabilizer_classes(s3_on_three_points())) == 3

    def test_classes_match_the_per_spin_oracle(self):
        # every action the harness draws, S4's stock actions, and the pin
        # actions, whose stabilizers are neither the whole group nor trivial
        S4 = build_symmetric(4)
        actions = list(PIN_ACTIONS) + [subset_action(3)]
        for name, build in harness.GROUP_BUILDERS.items():
            group = build()
            actions += [regular_action(group)] + [trivial_action(group, size) for size in range(1, 5)]
            for k in range(harness._STANDARD_K_CAP[name] + 1):
                actions += [standard_colors(group, k), zero_free_colors(group, k)]
        actions += [regular_action(S4)]
        actions += [f(S4, k) for f in (standard_colors, zero_free_colors) for k in range(3)]
        for action in actions:
            assert stabilizer_classes(action) == oracle_stabilizer_classes(action)

    def test_pin_matches_brute_where_classes_span_orbits(self):
        rng = random.Random(44)
        for _ in range(80):
            for action in PIN_ACTIONS:
                g = random_graph(rng, action.group, max_vertices=5, max_edges=8)
                assert count_elim(g, action).value == count_brute(g, action).value

    def test_all_singleton_classes_try_every_spin(self):
        rng = random.Random(45)
        action = s3_on_three_points()
        g = ring_with_chords(rng, S3, 8, 16)
        result = count_elim(g, action)
        value, stats = oracle_elim(g, action)
        assert result.value == value == count_brute(g, action).value
        assert result.stats == stats

    @pytest.mark.parametrize("action", [regular_action(S3), standard_colors(S3, 1), subset_action(3)], ids=lambda a: a.name)
    def test_pinned_vertex_carrying_loops(self, action):
        rng = random.Random(46)
        ring = ring_with_chords(rng, S3, 7, 14)
        (pin,) = pins_of(ring, action)
        for gains in ([1], [3, 4], [1, 2, 5]):
            g = gain_graph(S3, 7, [(e.u, e.v, e.gain) for e in ring.edges] + [(pin, pin, h) for h in gains])
            assert pins_of(g, action) == {pin}
            assert count_elim(g, action).value == oracle_elim(g, action)[0] == count_brute(g, action).value

    def test_ring_plus_a_pendant_vertex(self):
        rng = random.Random(47)
        ring = ring_with_chords(rng, S3, 7, 14)
        g = gain_graph(S3, 8, [(e.u, e.v, e.gain) for e in ring.edges] + [(7, 3, 2)])
        action = regular_action(S3)
        steps, _ = counting._elim_order(g)
        assert steps[0][0] == 7 and 7 in steps[1][1]  # the pendant starts and retires at once
        assert pins_of(g, action) != {7}
        result = count_elim(g, action)
        value, stats = oracle_elim(g, action)
        assert result.value == value == count_brute(g, action).value
        assert result.stats["transitions"] * 4 < stats["transitions"]

    def test_one_pin_per_component(self):
        rng = random.Random(48)
        a = ring_with_chords(rng, Z4, 5, 8)
        b = ring_with_chords(rng, Z4, 4, 6)
        triples = [(e.u, e.v, e.gain) for e in a.edges] + [(e.u + 5, e.v + 5, e.gain) for e in b.edges]
        g = gain_graph(Z4, 10, triples + [(9, 9, 1)])  # vertex 9 is isolated but for a loop
        for action in elim_actions(Z4) + PIN_ACTIONS[:2]:
            pins = pins_of(g, action)
            assert len(pins & set(range(5))) == 1 and len(pins & set(range(5, 9))) == 1 and len(pins) == 2
            lone = count_elim(gain_graph(Z4, 1, [(0, 0, 1)]), action).value
            value = count_elim(g, action).value
            assert value == oracle_elim(g, action)[0]
            assert value == count_elim(a, action).value * count_elim(b, action).value * lone

    def test_pin_saves_work_on_the_s3_ring(self):
        # a deterministic guard: a lost pin shows here without any timing
        g = ring_with_chords(random.Random(222), S3, 9, 24)
        action = regular_action(S3)
        result = count_elim(g, action)
        value, stats = oracle_elim(g, action)
        assert result.value == value
        assert result.stats["transitions"] * 5 <= stats["transitions"]
        assert result.stats["peak_states"] <= stats["peak_states"]


def reused_slots(g):
    """How many steps of ``_elim_order`` place a vertex into a key slot that
    a retired vertex freed: count_elim takes the lowest free slot, so a
    freed one whenever there is one."""
    steps, _ = counting._elim_order(g)
    free = reused = 0
    for v, gone in steps:
        free += len(gone - {v})
        if v not in gone and free:
            free -= 1
            reused += 1
    return reused


# |Q| = 0, 1, ..., 5: slots of 1, 1, 1, 2, 2 and 3 bits
PACKING_ACTIONS = [
    zero_free_colors(Z4, 0),
    trivial_action(Z4, 1),
    z4_on_cosets_of_z2(),
    disjoint_union_action([z4_on_cosets_of_z2(), trivial_action(Z4, 1)], [1, 1]),
    regular_action(Z4),
    standard_colors(Z4, 1),
]


class TestAgainstTheTupleKeys:
    """Elim keys its tables by ints, one slot of bits per frontier vertex,
    and caches the spins each back-neighbour pattern allows; the pinned
    oracle keeps tuple keys and a set of forbidden spins per entry.  Values
    and stats must be equal, instance for instance."""

    def test_harness_instances(self):
        for seed in range(2000):
            inst = harness.random_instance(random.Random(seed), 6, 10)
            result = count_elim(inst.graph, inst.action)
            assert (result.value, result.stats) == oracle_elim(inst.graph, inst.action, pinned=True), inst.describe()

    @pytest.mark.parametrize(
        "group,action,n,m,width,reused",
        [
            (Z3, standard_colors(Z3, 1), 13, 26, 4, 8),
            (Z4, regular_action(Z4), 13, 26, 4, 8),
            (S3, regular_action(S3), 9, 24, 5, 3),
        ],
        ids=["Z3", "Z4", "S3"],
    )
    def test_ring_sparse_shapes(self, group, action, n, m, width, reused):
        for seed in range(3):
            g = ring_with_chords(random.Random(f"slots:{seed}"), group, n, m)
            assert reused_slots(g) == reused
            result = count_elim(g, action)
            assert result.stats["width"] == width
            assert (result.value, result.stats) == oracle_elim(g, action, pinned=True)

    @pytest.mark.parametrize("action", PACKING_ACTIONS, ids=lambda a: f"{a.size}-spins")
    def test_slot_widths(self, action):
        assert [a.size for a in PACKING_ACTIONS] == list(range(6))
        rng = random.Random(f"packing:{action.size}")
        a = ring_with_chords(rng, Z4, 5, 9)
        b = ring_with_chords(rng, Z4, 4, 7)
        two = gain_graph(Z4, 10, [(e.u, e.v, e.gain) for e in a.edges] + [(e.u + 5, e.v + 5, e.gain) for e in b.edges])
        shapes = [
            gain_graph(Z4, 0, []),  # no vertices
            gain_graph(Z4, 3, [(1, 1, 1)]),  # isolated vertices, one with a loop
            ring_with_chords(rng, Z4, 8, 16),
            two,  # two components and an isolated vertex
        ]
        for g in shapes:
            result = count_elim(g, action)
            assert (result.value, result.stats) == oracle_elim(g, action, pinned=True)
            assert result.value == count_brute(g, action).value
        assert count_elim(two, action).value == count_elim(a, action).value * count_elim(b, action).value * action.size


class TestCountAuto:
    def test_matches_methods(self):
        rng = random.Random(19)
        for _ in range(15):
            group = rng.choice([Z2, Z3])
            g = random_graph(rng, group, max_vertices=4, max_edges=6)
            action = standard_colors(group, 1)
            assert count_auto(g, action) == count_brute(g, action).value

    @staticmethod
    def record_choices(monkeypatch):
        chosen = []
        for name in ("brute", "inclexcl", "mobius", "elim"):
            original = getattr(counting, f"count_{name}")

            def recorded(*args, _name=name, _original=original, **kw):
                chosen.append(_name)
                return _original(*args, **kw)

            monkeypatch.setattr(counting, f"count_{name}", recorded)
        return chosen

    @pytest.mark.parametrize(
        "g,action",
        [
            (gain_graph(Z3, 2, [(0, 1, 1), (0, 1, 2), (1, 0, 1), (0, 0, 1)]), regular_action(Z3)),
            (gain_graph(Z3, 10, [(0, 1, 1), (2, 3, 2)]), standard_colors(Z3, 1)),
            (gain_graph(Z3, 8, [(v, v + 1, v % 3) for v in range(7)] * 4), standard_colors(Z3, 1)),
        ],
    )
    def test_runs_elim_within_its_bounds(self, g, action, monkeypatch):
        chosen = self.record_choices(monkeypatch)
        assert count_auto(g, action) == count_brute(g, action).value
        assert chosen == ["elim"]

    def test_falls_back_when_elim_is_over_its_bounds(self, monkeypatch):
        chosen = self.record_choices(monkeypatch)
        # K10 with 5 colours: 5**9 frontier states pass the table limit,
        # while brute's 5**10 states are within STATE_BUDGET
        k10 = gain_graph(Z3, 10, [(u, v, 0) for u in range(10) for v in range(u + 1, 10)])
        assert count_auto(k10, trivial_action(Z3, 5)) == 0
        assert chosen == ["elim", "brute"]
        # ten vertices and two edges: elim's work passes a STATE_BUDGET of
        # 10, brute's 4**10 states too, and inclexcl's 4 subsets do not
        sparse = gain_graph(Z3, 10, [(0, 1, 1), (2, 3, 2)])
        action = standard_colors(Z3, 1)
        expected = count_brute(sparse, action).value
        monkeypatch.setattr(counting, "STATE_BUDGET", 10)
        chosen.clear()
        assert count_auto(sparse, action) == expected
        assert chosen == ["elim", "inclexcl"]

    def test_raises_only_when_every_counter_is_over_its_bound(self, monkeypatch):
        k12 = gain_graph(S3, 12, [(u, v, (u + v) % 6) for u in range(12) for v in range(u + 1, 12)])
        with pytest.raises(BoundExceeded):
            count_auto(k12, standard_colors(S3, 1))
        small = gain_graph(Z3, 6, [(v, (v + 1) % 6, 1) for v in range(6)])
        action = standard_colors(Z3, 1)
        expected = count_brute(small, action).value

        def auto(states, subsets):
            monkeypatch.setattr(counting, "STATE_BUDGET", states)
            monkeypatch.setattr(counting, "SUBSET_BUDGET", subsets)
            return count_auto(small, action)

        with pytest.raises(BoundExceeded):
            auto(1, 1)
        assert auto(1, 2**6) == expected
        assert auto(4**6, 1) == expected

    def test_counts_the_twenty_vertex_ring(self):
        # 4**20 states and 2**26 subsets are both over the default bounds
        rng = random.Random(20)
        ring = ring_with_chords(rng, Z3, 20, 26)
        action = standard_colors(Z3, 1)
        assert action.size == 4
        result = count_elim(ring, action)
        assert count_auto(ring, action) == result.value > 0
        assert result.stats["width"] == 3
        assert result.stats["peak_states"] <= 4**3
        assert count_auto(relabel_and_switch(rng, ring), action) == result.value


class TestNoReferenceCycles:
    """A counter or polynomial frees its tables when it returns, without
    waiting for the cyclic garbage collector."""

    @staticmethod
    def _runs(g, a):
        template = SimpleGraph(g.vertex_count, tuple((e.u, e.v) for e in g.edges))
        parts = [regular_action(g.group), trivial_action(g.group, 1)]
        runs = {name: functools.partial(run, g, a) for name, run in counting.COUNTERS.items()}
        runs["chromatic"] = functools.partial(polynomials.chromatic_polynomial, g)
        runs["zero_free"] = functools.partial(polynomials.zero_free_polynomial, g)
        runs["grand"] = functools.partial(polynomials.grand_polynomial, g, parts)
        runs["regular_plus_zeroes"] = functools.partial(polynomials.regular_plus_zeroes, g)
        runs["graph_chromatic"] = functools.partial(polynomials.graph_chromatic, template)
        return runs

    @pytest.mark.parametrize("case", ["harness seed 5", "nonidentity loops"])
    def test_runs_leave_no_cyclic_garbage(self, case):
        if case == "harness seed 5":
            inst = harness.random_instance(random.Random(5), max_vertices=6, max_edges=9)
            g, a = inst.graph, inst.action
        else:
            # zero_free_polynomial builds a second lattice for this one
            g = gain_graph(S3, 4, [(0, 1, 1), (1, 2, 3), (2, 0, 0), (2, 3, 5), (1, 1, 2), (3, 3, 4)])
            a = standard_colors(S3, 1)
        assert len(g.edges) >= 6
        for name, run in self._runs(g, a).items():
            run()  # first-use caches are not garbage
            gc.collect()
            gc.disable()
            try:
                run()
                assert (name, gc.collect()) == (name, 0)
            finally:
                gc.enable()
