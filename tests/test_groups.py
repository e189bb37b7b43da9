import itertools
import random

import pytest
from hypothesis import given, strategies as st

from gainchroma import (
    BoundExceeded,
    FiniteGroup,
    SpinAction,
    build_cyclic,
    build_symmetric,
    conjugate_subgroup,
    disjoint_union_action,
    fixed_set,
    generate_subgroup,
    regular_action,
    standard_colors,
    subset_action,
    trivial_action,
    verify_action,
    verify_group,
    zero_free_colors,
)


def assert_right_action(action: SpinAction):
    group = action.group
    act, mul = action.act, group.mul
    for q in range(action.size):
        assert act[q][0] == q
        for g in range(group.order):
            for h in range(group.order):
                assert act[act[q][g]][h] == act[q][mul[g][h]]


def naive_associative(mul) -> bool:
    n = len(mul)
    return all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


class TestBuildCyclic:
    def test_trivial(self):
        g = build_cyclic(1)
        assert g.order == 1
        assert g.mul == ((0,),)

    def test_involution(self):
        g = build_cyclic(2)
        assert g.mul[1][1] == 0

    def test_modular_inverse(self):
        g = build_cyclic(3)
        assert g.inv[1] == 2

    def test_order_bound_checked_before_building(self):
        # a table of 10**18 entries would never finish; the bound must come first
        with pytest.raises(BoundExceeded):
            build_cyclic(10**9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_cyclic(0)

    @given(st.integers(1, 24))
    def test_is_a_group(self, n):
        assert verify_group(build_cyclic(n))


class TestBuildSymmetric:
    @pytest.mark.parametrize("d,order", [(1, 1), (3, 6), (4, 24)])
    def test_orders(self, d, order):
        assert build_symmetric(d).order == order

    def test_identity_first(self):
        s3 = build_symmetric(3)
        # element 0 composed with anything is that thing
        assert all(s3.mul[0][b] == b for b in range(6))

    def test_lexicographic_enumeration(self):
        # composition table matches recomputed permutation composition
        s3 = build_symmetric(3)
        perms = list(itertools.permutations(range(3)))
        for a, p in enumerate(perms):
            for b, q in enumerate(perms):
                composed = tuple(q[p[x]] for x in range(3))
                assert perms[s3.mul[a][b]] == composed

    def test_is_a_group(self):
        assert verify_group(build_symmetric(4))

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            build_symmetric(8)


class TestVerifyGroup:
    def test_accepts_z2(self):
        assert verify_group(build_cyclic(2)) is True
        assert verify_group([[0, 1], [1, 0]]) is True

    def test_rejects_missing_inverse(self):
        assert verify_group([[0, 1], [1, 1]]) is False

    def test_rejects_bad_shape(self):
        assert verify_group([[0, 1]]) is False
        assert verify_group([[0, 1], [1]]) is False
        assert verify_group([]) is False

    def test_rejects_bad_identity(self):
        assert verify_group([[1, 0], [0, 1]]) is False

    def test_matches_exhaustive_triple_check(self):
        # random 3x3 tables with identity row/column forced; the naive
        # all-triples check is the oracle
        rng = random.Random(42)
        disagreements = 0
        for _ in range(200):
            mul = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
            for i in range(1, 3):
                for j in range(1, 3):
                    mul[i][j] = rng.randrange(3)
            has_inverses = all(
                any(mul[g][h] == 0 and mul[h][g] == 0 for h in range(3))
                for g in range(3)
            )
            expected = has_inverses and naive_associative(mul)
            assert verify_group(mul) == expected
            if not expected:
                disagreements += 1
        assert disagreements > 0  # the sample really contains invalid tables


class TestActions:
    def test_regular_translation(self):
        z2 = build_cyclic(2)
        a = regular_action(z2)
        assert a.act[0][1] == 1 and a.act[1][1] == 0

    @pytest.mark.parametrize("builder", [lambda: build_cyclic(3), lambda: build_symmetric(3)])
    def test_regular_fixed_point_free(self, builder):
        a = regular_action(builder())
        for g in range(1, a.group.order):
            assert a.fixed(g) == frozenset()
        assert a.fixed(0) == frozenset(range(a.size))

    def test_regular_size(self):
        assert regular_action(build_symmetric(3)).size == 6

    def test_trivial_all_fixed(self):
        a = trivial_action(build_cyclic(2), 3)
        for g in range(2):
            assert len(a.fixed(g)) == 3
        b = trivial_action(build_symmetric(3), 2)
        for g in range(6):
            assert b.fixed(g) == frozenset({0, 1})

    def test_trivial_needs_a_spin(self):
        with pytest.raises(ValueError):
            trivial_action(build_cyclic(2), 0)

    def test_standard_sizes(self):
        assert standard_colors(build_cyclic(2), 1).size == 3
        assert standard_colors(build_cyclic(3), 0).size == 1
        assert standard_colors(build_symmetric(3), 2).size == 13

    def test_standard_single_shared_fixed_spin(self):
        for group, k in [(build_cyclic(2), 1), (build_cyclic(4), 2), (build_symmetric(3), 1)]:
            a = standard_colors(group, k)
            fixed_sets = {a.fixed(g) for g in range(1, group.order)}
            assert len(fixed_sets) == 1
            (common,) = fixed_sets
            assert len(common) == 1

    def test_standard_k0_all_fixed(self):
        a = standard_colors(build_cyclic(3), 0)
        assert all(a.fixed(g) == frozenset({0}) for g in range(3))

    def test_zero_free(self):
        a = zero_free_colors(build_cyclic(2), 2)
        assert a.size == 4
        assert all(a.fixed(g) == frozenset() for g in range(1, 2))
        assert zero_free_colors(build_cyclic(5), 0).size == 0

    def test_zero_free_single_copy_is_the_regular_action(self):
        z3 = build_cyclic(3)
        assert zero_free_colors(z3, 1).act == regular_action(z3).act

    def test_subset_action_d2(self):
        a = subset_action(2)
        # masks: 0 = {}, 1 = {0}, 2 = {1}, 3 = {0,1}; element 1 is the swap
        assert a.act[1][1] == 2
        assert a.act[0][1] == 0 and a.act[3][1] == 3
        # oracle: enumerate the four subsets under the swap
        assert len(a.fixed(1)) == 2

    def test_subset_action_d3_size(self):
        assert subset_action(3).size == 8

    @pytest.mark.parametrize(
        "make",
        [
            lambda: regular_action(build_symmetric(3)),
            lambda: trivial_action(build_cyclic(4), 3),
            lambda: standard_colors(build_cyclic(3), 2),
            lambda: zero_free_colors(build_cyclic(4), 2),
            lambda: subset_action(3),
            lambda: disjoint_union_action(
                [regular_action(build_cyclic(4)), trivial_action(build_cyclic(4), 2)],
                [2, 3],
            ),
        ],
    )
    def test_right_action_law(self, make):
        assert_right_action(make())

    def test_spin_bound(self):
        with pytest.raises(BoundExceeded):
            trivial_action(build_cyclic(2), 5000)

    def test_spin_bound_checked_before_building(self):
        with pytest.raises(BoundExceeded):
            trivial_action(build_cyclic(2), 10**12)


class TestVerifyAction:
    def test_stock_constructors_pass(self):
        s3, z4 = build_symmetric(3), build_cyclic(4)
        for action in (
            regular_action(s3),
            trivial_action(z4, 3),
            standard_colors(s3, 2),
            zero_free_colors(z4, 2),
            subset_action(3),
            disjoint_union_action([regular_action(s3), subset_action(3)], [2, 1]),
        ):
            assert verify_action(action)

    def test_rejects_left_multiplication(self):
        # q*g = g*q is a left action; S3 is not abelian, so the right law fails
        s3 = build_symmetric(3)
        left = SpinAction(s3, [[s3.mul[g][q] for g in range(6)] for q in range(6)])
        assert not verify_action(left)


class TestDisjointUnion:
    def test_matches_standard_colors(self):
        z2 = build_cyclic(2)
        a = disjoint_union_action([regular_action(z2), trivial_action(z2, 1)], [1, 1])
        assert a.size == 3
        assert a.act == standard_colors(z2, 1).act

    def test_zero_multiplicity(self):
        a = disjoint_union_action([regular_action(build_cyclic(2))], [0])
        assert a.size == 0

    def test_trivial_copies(self):
        a = disjoint_union_action([trivial_action(build_cyclic(3), 2)], [3])
        assert a.size == 6
        assert all(a.fixed(g) == frozenset(range(6)) for g in range(3))

    def test_rejects_mixed_groups(self):
        with pytest.raises(ValueError):
            disjoint_union_action(
                [regular_action(build_cyclic(2)), regular_action(build_cyclic(3))],
                [1, 1],
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            disjoint_union_action([regular_action(build_cyclic(2))], [1, 2])


class TestSubgroups:
    def test_empty_generators(self):
        assert generate_subgroup(build_cyclic(5), []) == frozenset({0})

    def test_z4_even_part(self):
        assert generate_subgroup(build_cyclic(4), [2]) == frozenset({0, 2})

    def test_s3_generates_whole_group(self):
        s3 = build_symmetric(3)
        perms = list(itertools.permutations(range(3)))
        transposition = perms.index((0, 2, 1))
        cycle = perms.index((1, 2, 0))
        assert len(generate_subgroup(s3, [transposition, cycle])) == 6

    @given(st.integers(2, 12), st.data())
    def test_closure_properties(self, n, data):
        group = build_cyclic(n)
        gens = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        sub = generate_subgroup(group, gens)
        assert 0 in sub
        for a in sub:
            assert group.inv[a] in sub
            for b in sub:
                assert group.mul[a][b] in sub

    def test_fixed_set_basics(self):
        z2 = build_cyclic(2)
        reg = regular_action(z2)
        assert fixed_set(reg, frozenset({0})) == frozenset({0, 1})
        assert fixed_set(reg, frozenset({0, 1})) == frozenset()
        std = standard_colors(z2, 1)
        assert fixed_set(std, frozenset({0, 1})) == frozenset({2})

    def test_fixed_set_is_intersection_of_generators(self):
        s3 = build_symmetric(3)
        action = subset_action(3)
        rng = random.Random(7)
        for _ in range(20):
            gens = [rng.randrange(6) for _ in range(rng.randint(0, 3))]
            sub = generate_subgroup(s3, gens)
            expected = frozenset(range(action.size))
            for g in gens:
                expected &= action.fixed(g)
            assert fixed_set(action, sub) == expected

    def test_conjugation_preserves_fixed_size(self):
        s3 = build_symmetric(3)
        for action in (subset_action(3), standard_colors(s3, 1), regular_action(s3)):
            for gens in ([1], [3], [1, 2]):
                sub = generate_subgroup(s3, gens)
                for alpha in range(6):
                    conj = conjugate_subgroup(s3, sub, alpha)
                    assert len(fixed_set(action, conj)) == len(fixed_set(action, sub))


class TestFiniteGroupValidation:
    def test_rejects_identity_elsewhere(self):
        with pytest.raises(ValueError):
            FiniteGroup([[1, 0], [0, 1]])

    def test_rejects_no_inverse(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 2]])

    def test_equality_ignores_name(self):
        assert build_cyclic(3) == FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]], name="other")
