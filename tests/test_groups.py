import itertools
import random
import time

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
from gainchroma import groups


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

    def test_a_huge_degree_is_refused_before_its_order_is_computed(self):
        # 10**9! has billions of digits; the bound stops the product at 8!
        start = time.perf_counter()
        with pytest.raises(BoundExceeded, match="symmetric group on 1000000000 points"):
            build_symmetric(10**9)
        assert time.perf_counter() - start < 0.1


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

    @staticmethod
    def has_inverses(mul) -> bool:
        n = len(mul)
        return all(any(mul[g][h] == 0 and mul[h][g] == 0 for h in range(n)) for g in range(n))

    def test_corrupted_entries_match_exhaustive_triple_check(self):
        rng = random.Random(7)
        rejected = 0
        for group in (build_cyclic(6), build_symmetric(3), build_cyclic(8), build_cyclic(2)):
            n = group.order
            for _ in range(60):
                mul = [list(row) for row in group.mul]
                for _ in range(rng.randint(1, 2)):
                    mul[rng.randrange(1, n)][rng.randrange(1, n)] = rng.randrange(n)
                expected = self.has_inverses(mul) and naive_associative(mul)
                assert verify_group(mul) == expected
                rejected += not expected
        assert rejected > 100

    def test_rejects_a_corrupted_cyclic_table(self):
        mul = [list(row) for row in build_cyclic(6).mul]
        mul[1][3] = 5  # was 4; identity and inverses survive
        assert self.has_inverses(mul)
        assert verify_group(mul) is False

    @pytest.mark.parametrize(
        "mul",
        [
            # the smallest loop that is not a group: a Latin square of order
            # 5 with identity 0 in which every element is its own inverse
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
            # Z8 with the intercalate at rows 2, 6 and columns 3, 7 swapped:
            # still a Latin square with identity, inverses and x*1 = x+1, so
            # 1 alone reaches every element and only associativity fails
            [
                [(x + y) % 8 if (x % 4, y % 4) != (2, 3) else (x + y + 4) % 8 for y in range(8)]
                for x in range(8)
            ],
        ],
    )
    def test_rejects_loops_that_are_not_groups(self, mul):
        assert all(sorted(row) == list(range(len(mul))) for row in mul)
        assert all(sorted(col) == list(range(len(mul))) for col in zip(*mul))
        assert self.has_inverses(mul)
        assert not naive_associative(mul)
        assert verify_group(mul) is False

    def test_raw_table_over_the_order_limit_raises(self, monkeypatch):
        # only invalid tables give False; the order bound is not a verdict
        table = [list(row) for row in build_cyclic(4).mul]
        monkeypatch.setattr(groups, "GROUP_ORDER_LIMIT", 3)
        with pytest.raises(BoundExceeded):
            verify_group(table)
        assert verify_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]]) is True

    def test_rejects_tables_that_are_not_lists_of_rows(self):
        assert verify_group(5) is False
        assert verify_group([5, 6]) is False
        assert verify_group([["a", "b"], ["b", "a"]]) is False

    @pytest.mark.parametrize("group", [build_cyclic(1), build_cyclic(12), build_symmetric(4)])
    def test_accepts_stock_groups_and_their_tables(self, group):
        assert verify_group(group) is True
        assert verify_group([list(row) for row in group.mul]) is True


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

    @staticmethod
    def naive_right_action(action) -> bool:
        act, mul = action.act, action.group.mul
        rng = range(action.group.order)
        return all(act[act[q][g]][h] == act[q][mul[g][h]] for q in range(action.size) for g in rng for h in rng)

    def test_corrupted_entries_match_exhaustive_check(self):
        rng = random.Random(8)
        rejected = 0
        s3, z4 = build_symmetric(3), build_cyclic(4)
        for action in (regular_action(s3), standard_colors(z4, 1), subset_action(3), trivial_action(z4, 2)):
            for _ in range(40):
                act = [list(row) for row in action.act]
                act[rng.randrange(action.size)][rng.randrange(1, action.group.order)] = rng.randrange(action.size)
                corrupted = SpinAction(action.group, act)
                expected = self.naive_right_action(corrupted)
                assert verify_action(corrupted) == expected
                rejected += not expected
        assert rejected > 100

    def test_checks_every_element_over_a_table_that_is_no_group(self):
        # the trivial action obeys the law over any table; a translation by a
        # non-associative loop does not, and is caught though 1 alone reaches
        # every element of the loop
        mul = [[(x + y) % 8 if (x % 4, y % 4) != (2, 3) else (x + y + 4) % 8 for y in range(8)] for x in range(8)]
        loop = FiniteGroup(mul, name="loop")
        assert verify_action(trivial_action(loop, 2))
        assert not verify_action(SpinAction(loop, mul))


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
