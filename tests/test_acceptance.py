"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line (visible
with ``pytest -s``) and asserts exactness; every tolerance here is zero.
The random suite is seeded, so runs are reproducible.
"""

import itertools
import random

import pytest

from gainchroma import (
    HolonomyContext,
    SignedGraph,
    SimpleGraph,
    build_cyclic,
    build_symmetric,
    component_subgroup,
    contract_link,
    count_brute,
    count_inclexcl,
    delete_edge,
    disjoint_union_action,
    fixed_set,
    gain_graph,
    grand_polynomial,
    graph_chromatic,
    group_expansion,
    holonomy_closure,
    holonomy_group,
    is_balanced,
    is_holonomy_closed,
    leading_form,
    chromatic_polynomial,
    regular_action,
    regular_plus_zeroes,
    satisfied_edges,
    standard_colors,
    subset_action,
    switch,
    theta,
    trivial_action,
    verify_all,
    zero_free_colors,
    zero_free_polynomial,
)
from gainchroma.harness import Instance, random_instance
from gainchroma.models import potts_routes, set_coloring_routes
from helpers import (
    balance_counts,
    dfs_forest,
    homogeneous_part,
    naive_count,
    nearly_regular_zeros,
    oracle_holonomy_subgroup,
    total_degree,
    univariate,
    z4_on_cosets_of_z2,
)

SUITE_SEED = 93
SUITE_SIZE = 320
STATE_CAP = 10**5

Z2 = build_cyclic(2)
Z3 = build_cyclic(3)
S3 = build_symmetric(3)


@pytest.fixture(scope="module")
def suite() -> list[Instance]:
    rng = random.Random(SUITE_SEED)
    return [random_instance(rng) for _ in range(SUITE_SIZE)]


def report(number: int, name: str, failures: list):
    verdict = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {name}: {verdict}")
    assert not failures, f"criterion {number} failures: {failures[:5]}"


def test_criterion_1_cross_method_agreement(suite):
    failures = []
    for inst in suite:
        outcome = verify_all(inst.graph, inst.action)
        if outcome.errors or not outcome.agree:
            failures.append(
                (inst.describe(), {k: r.value for k, r in outcome.results.items()}, outcome.errors)
            )
    assert len(suite) >= 300
    report(1, "cross-method agreement on random suite", failures)


def test_criterion_2_formula_fixtures():
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append((label, got, want))

    # one vertex with one loop: count is |Q| - |Fix(gain)|
    fixture_actions = [
        regular_action(Z3),
        standard_colors(Z2, 2),
        trivial_action(Z3, 3),
        subset_action(3),
    ]
    for action in fixture_actions:
        group = action.group
        for gain in range(1, group.order):
            g = gain_graph(group, 1, [(0, 0, gain)])
            outcome = verify_all(g, action)
            check(
                f"loop gain {gain} under {action.name}",
                (outcome.agree, outcome.value),
                (True, action.size - len(fixed_set(action, {gain}))),
            )

    # two loop-decorated vertices joined by an identity link, for spin sets
    # where all nonidentity elements fix equally many spins
    pairs = [
        (standard_colors(Z3, 1), 1, 2),
        (standard_colors(Z2, 2), 1, 1),
        (regular_action(S3), 1, 3),
        (trivial_action(Z3, 2), 1, 2),
    ]
    perms = list(itertools.permutations(range(3)))
    swap_a = perms.index((1, 0, 2))
    swap_b = perms.index((0, 2, 1))
    pairs.append((subset_action(3), swap_a, swap_b))
    for action, gg, hh in pairs:
        group = action.group
        f = len(fixed_set(action, {gg}))
        if f != len(fixed_set(action, {hh})):
            failures.append(("fixture pair has unequal fixed counts", action.name, (gg, hh)))
            continue
        g = gain_graph(group, 2, [(0, 0, gg), (1, 1, hh), (0, 1, 0)])
        q = action.size
        expected = (q - f) * (q - f - 1) + len(fixed_set(action, {hh}) - fixed_set(action, {gg}))
        outcome = verify_all(g, action)
        check(
            f"two-loop link fixture under {action.name}",
            (outcome.agree, outcome.value),
            (True, expected),
        )

    # the digon with one twisted edge: (|Q| - 1)^2 + k2 - 1 over a grid
    for group, twist in [(Z2, 1), (Z3, 2)]:
        digon = gain_graph(group, 2, [(0, 1, 0), (0, 1, twist)])
        parts = [regular_action(group), trivial_action(group, 1)]
        poly = grand_polynomial(digon, parts)
        for k1 in range(4):
            for k2 in range(4):
                q = k1 * group.order + k2
                expected = (q - 1) ** 2 + k2 - 1
                action = disjoint_union_action(parts, [k1, k2])
                check(
                    f"digon grid {group.name} k=({k1},{k2}) brute",
                    count_brute(digon, action).value,
                    expected,
                )
                check(
                    f"digon grid {group.name} k=({k1},{k2}) poly",
                    poly.evaluate([k1, k2]),
                    expected,
                )

    # univariate fixtures
    for group, gain in [(Z2, 1), (S3, 4)]:
        loop = gain_graph(group, 1, [(0, 0, gain)])
        check(f"loop chromatic over {group.name}", chromatic_polynomial(loop), univariate(-1, 1))
    for group, gain in [(Z2, 0), (Z3, 1)]:
        k2 = gain_graph(group, 2, [(0, 1, gain)])
        check(f"K2 chromatic over {group.name}", chromatic_polynomial(k2), univariate(0, -1, 1))

    report(2, "closed-form fixtures", failures)


def test_criterion_3_evaluation_theorem(suite):
    failures = []
    for inst in suite:
        g = inst.graph
        group = g.group
        chrom = chromatic_polynomial(g)
        zf = zero_free_polynomial(g)
        underlying = graph_chromatic(
            SimpleGraph(g.vertex_count, tuple((e.u, e.v) for e in g.edges))
        )
        for k in range(5):
            lam = k * group.order + 1
            count = count_inclexcl(g, standard_colors(group, k)).value
            if chrom.evaluate([lam]) != count:
                failures.append((inst.describe(), "standard", k, count, chrom.render()))
            zf_count = count_inclexcl(g, zero_free_colors(group, k)).value
            if zf.evaluate([k * group.order]) != zf_count:
                failures.append((inst.describe(), "zero-free", k, zf_count, zf.render()))
            if k >= 1:
                triv_count = count_inclexcl(g, trivial_action(group, k)).value
                if underlying.evaluate([k]) != triv_count:
                    failures.append((inst.describe(), "trivial", k, triv_count))
        # spot brute-force confirmation where the state space is tiny
        if (group.order + 1) ** g.vertex_count <= 2 * 10**4:
            action = standard_colors(group, 1)
            if chrom.evaluate([group.order + 1]) != naive_count(g, action):
                failures.append((inst.describe(), "brute spot check"))
    report(3, "chromatic evaluation identities", failures)


def _grand_poly_instances():
    rng = random.Random(7)
    fixtures = [
        gain_graph(Z2, 2, [(0, 1, 0)]),
        gain_graph(Z2, 2, [(0, 1, 0), (0, 1, 1)]),
        gain_graph(Z2, 1, [(0, 0, 1)]),
        gain_graph(Z2, 2, [(0, 1, 0), (0, 0, 1)]),
        gain_graph(Z3, 3, [(0, 1, 1), (1, 2, 2), (2, 2, 1)]),
        gain_graph(Z2, 1, [(0, 0, 0)]),
        gain_graph(Z3, 0, []),
    ]
    for _ in range(8):
        group = rng.choice([Z2, Z3])
        n = rng.randint(1, 3)
        triples = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(group.order))
            for _ in range(rng.randint(0, 4))
        ]
        fixtures.append(gain_graph(group, n, triples))
    return fixtures


def test_criterion_4_grand_polynomial():
    failures = []
    for g in _grand_poly_instances():
        group = g.group
        part_families = [
            [regular_action(group)],
            [regular_action(group), trivial_action(group, 1)],
            [trivial_action(group, 2), regular_action(group), trivial_action(group, 1)],
        ]
        for parts in part_families:
            poly = grand_polynomial(g, parts)
            for mults in itertools.product(range(4), repeat=len(parts)):
                action = disjoint_union_action(parts, list(mults))
                expected = count_brute(g, action).value
                if poly.evaluate(list(mults)) != expected:
                    failures.append((repr(g), mults, poly.render(), expected))
            if poly.terms and total_degree(poly) != g.vertex_count:
                failures.append((repr(g), "degree", total_degree(poly)))
            if homogeneous_part(poly, g.vertex_count) != leading_form(g, parts):
                failures.append((repr(g), "leading form mismatch"))
        two_parts = [regular_action(group), trivial_action(group, 1)]
        if regular_plus_zeroes(g) != grand_polynomial(g, two_parts):
            failures.append((repr(g), "regular-plus-zeroes mismatch"))
    report(4, "grand polynomial identities", failures)


def test_criterion_5_holonomy_lemmas(suite):
    failures = []
    checked_states = 0
    for index, inst in enumerate(suite):
        g, action = inst.graph, inst.action
        full = g.edge_ids
        ctx = HolonomyContext(g, full)
        alt_forest = dfs_forest(g, full)
        order = g.group.order
        rng = random.Random(SUITE_SEED * 1000 + index)
        eta = tuple(rng.randrange(order) for _ in range(g.vertex_count))
        switched = switch(g, eta)
        for j, comp in enumerate(ctx.split.edge_sets):
            # forest choice independence
            if holonomy_group(ctx, j) != oracle_holonomy_subgroup(g, comp, alt_forest & comp, ctx.bases[j]):
                failures.append((inst.describe(), "forest choice", j))
            # basepoint conjugacy: equal fixed-set sizes at every base
            base_size = len(fixed_set(action, holonomy_group(ctx, j)))
            for alt_base in sorted(ctx.split.vertex_sets[j]):
                moved = oracle_holonomy_subgroup(g, comp, ctx.forest & comp, alt_base)
                if len(fixed_set(action, moved)) != base_size:
                    failures.append((inst.describe(), "basepoint", j, alt_base))
            # switching invariance of the fixed count
            if len(fixed_set(action, component_subgroup(switched, comp))) != len(
                fixed_set(action, component_subgroup(g, comp))
            ):
                failures.append((inst.describe(), "switching h", j))
            # balanced iff trivial holonomy
            if is_balanced(g, comp) != (component_subgroup(g, comp) == frozenset({0})):
                failures.append((inst.describe(), "balance/trivial", j))
        # closure membership is switching invariant
        some = frozenset(e for e in sorted(full) if rng.random() < 0.5)
        if holonomy_closure(g, some) != holonomy_closure(switched, some):
            failures.append((inst.describe(), "switching closure"))
        # every satisfied set of every state is holonomy closed
        if action.size ** g.vertex_count <= STATE_CAP:
            verdicts: dict[frozenset, bool] = {}
            for state in itertools.product(range(action.size), repeat=g.vertex_count):
                sat = satisfied_edges(g, action, state)
                verdict = verdicts.get(sat)
                if verdict is None:
                    verdict = is_holonomy_closed(g, sat)
                    verdicts[sat] = verdict
                if not verdict:
                    failures.append((inst.describe(), "satisfied set not closed", state))
                    break
                checked_states += 1
    assert checked_states > 10**5  # the cap really admits full enumerations
    report(5, "holonomy lemma suite", failures)


def _one_point_union(rng):
    """A balanced part glued to an arbitrary part at a single shared vertex."""
    group = rng.choice([Z2, Z3])
    na = rng.randint(1, 3)
    nb = rng.randint(1, 3)
    shared = na  # last vertex of the balanced part, first of the other
    balanced_triples = [
        (rng.randint(0, na), rng.randint(0, na), 0) for _ in range(rng.randint(0, 3))
    ]
    eta = [rng.randrange(group.order) for _ in range(na + 1)]
    left = switch(gain_graph(group, na + 1, balanced_triples), eta)
    right_triples = [
        (
            rng.randint(0, nb),
            rng.randint(0, nb),
            rng.randrange(group.order),
        )
        for _ in range(rng.randint(0, 3))
    ]
    right = gain_graph(group, nb + 1, right_triples)
    combined = gain_graph(
        group,
        na + 1 + nb,
        [(e.u, e.v, e.gain) for e in left.edges]
        + [(e.u + shared, e.v + shared, e.gain) for e in right.edges],
    )
    return group, left, right, combined


def test_criterion_6_theta_multiplicativity():
    failures = []
    rng = random.Random(11)
    built = 0
    while built < 20:
        group, left, right, combined = _one_point_union(rng)
        if not is_balanced(left):
            continue
        built += 1
        action = standard_colors(group, 1)
        product = theta(left, action) * theta(right, action)
        whole = theta(combined, action)
        if whole != product:
            failures.append((repr(combined), whole, product))

    # the witness: complete graph on |Q|+1 vertices, all identity except one
    # edge, regular spins; separating off that edge breaks multiplicativity
    witness = gain_graph(Z2, 3, [(0, 1, 0), (0, 2, 0), (1, 2, 1)])
    action = regular_action(Z2)
    whole = theta(witness, action)
    edge_part = gain_graph(Z2, 2, [(0, 1, 1)])  # the twisted edge with its endpoints
    rest = delete_edge(witness, 2)
    t_edge = theta(edge_part, action)
    t_rest = theta(rest, action)
    if not (whole == 2 and t_edge == 1 and t_rest == 1 and whole != t_edge * t_rest):
        failures.append(("witness", whole, t_edge, t_rest))
    report(6, "theta multiplicativity and its limit", failures)


def test_criterion_7_applications():
    failures = []
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 5)
        signed = SignedGraph(
            n,
            tuple(
                (rng.randrange(n), rng.randrange(n), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 6))
            ),
        )
        group = rng.choice([Z2, Z3])
        value, direct = potts_routes(signed, group)
        if value != direct:
            failures.append(("potts", signed))

    if set_coloring_routes(SimpleGraph(2, ((0, 1),)), 2) != (10, 10):
        failures.append(("set coloring K2 k=2",))

    # deletion-contraction for set coloring, checked on expansions
    for edges, k in [(((0, 1),), 2), (((0, 1),), 3), (((0, 1), (1, 2)), 2), (((0, 1), (2, 3)), 2)]:
        n = max(max(e) for e in edges) + 1
        action = subset_action(k)
        phi = group_expansion(SimpleGraph(n, edges), action.group)
        e = phi.edges[0]
        whole = count_brute(phi, action).value
        deleted = count_brute(delete_edge(phi, e.id), action).value
        contracted = count_brute(contract_link(phi, e.id), action).value
        if whole != deleted - contracted:
            failures.append(("set coloring delcon", edges, k, whole, deleted, contracted))
    report(7, "application encodings", failures)


def test_criterion_8_documented_exclusions():
    # The six-edge figure-based fixtures cannot be reconstructed from text
    # and are excluded by design.  For the link-plus-loop two-part family the
    # closed form asserted here is the one the brute-force oracle yields,
    # (|Q| - k2) * (|Q| - 1); the alternative printed form (|Q| - 2)^2 is
    # rejected by the same oracle and is recorded in the reviewer notes.
    failures = []
    for group, twist in [(Z2, 1), (Z3, 1), (Z3, 2)]:
        phi1 = gain_graph(group, 2, [(0, 1, 0), (0, 0, twist)])
        parts = [regular_action(group), trivial_action(group, 1)]
        poly = grand_polynomial(phi1, parts)
        disputed_holds_everywhere = True
        for k1 in range(4):
            for k2 in range(4):
                q = k1 * group.order + k2
                expected = (q - k2) * (q - 1)
                action = disjoint_union_action(parts, [k1, k2])
                got = count_brute(phi1, action).value
                if got != expected or poly.evaluate([k1, k2]) != expected:
                    failures.append((group.name, k1, k2, got, expected))
                if got != (q - 2) ** 2:
                    disputed_holds_everywhere = False
        if disputed_holds_everywhere:
            failures.append((group.name, "oracle failed to refute the disputed form"))
    report(8, "documented exclusions and oracle-backed corrections", failures)


def _edge_subsets(g):
    ids = sorted(g.edge_ids)
    return itertools.chain.from_iterable(itertools.combinations(ids, r) for r in range(len(ids) + 1))


def test_criterion_9_nearly_regular_counts_follow_balance():
    # An action is nearly regular when every non-identity element fixes
    # the same spins Z.  Then a component's fixed count is |Q| when it is
    # balanced and |Z| otherwise, so the count is the balance polynomial
    # sum over S of (-1)**|S| |Q|**b(S) |Z|**u(S).
    failures = []
    regular = 0
    for seed in range(400):
        inst = random_instance(random.Random(seed), 4, 6)
        g, action = inst.graph, inst.action
        zeros = nearly_regular_zeros(action)
        if zeros is None:
            continue
        regular += 1
        expected = 0
        for subset in _edge_subsets(g):
            b, u = balance_counts(g, subset)
            expected += (-1) ** len(subset) * action.size**b * len(zeros) ** u
        got = count_brute(g, action).value
        if got != expected:
            failures.append((inst.describe(), got, expected))
    if regular != 375:
        failures.append(("nearly regular draws", regular))
    report(9, "nearly regular counts follow balance", failures)


def test_criterion_10_balance_does_not_fix_other_counts():
    # Off the nearly regular actions balance is not enough: a vertex with
    # loops h and k and one with loops h and h have the same balanced edge
    # sets, only the empty one, but count |Q| - |Fix(h) | Fix(k)| and
    # |Q| - |Fix(h)| states, which differ when Fix(k) is not inside Fix(h).
    def balanced_sets(g):
        return {subset for subset in _edge_subsets(g) if balance_counts(g, subset)[1] == 0}

    failures = []
    z4_cosets = z4_on_cosets_of_z2()
    for action in (
        subset_action(3),
        z4_cosets,
        disjoint_union_action([z4_cosets, regular_action(z4_cosets.group)], [1, 1]),
    ):
        if nearly_regular_zeros(action) is not None:
            failures.append((action.name, "nearly regular"))
            continue
        others = range(1, action.group.order)
        h, k = next(
            (h, k) for h in others for k in others if not fixed_set(action, {k}) <= fixed_set(action, {h})
        )
        mixed = gain_graph(action.group, 1, [(0, 0, h), (0, 0, k)])
        doubled = gain_graph(action.group, 1, [(0, 0, h), (0, 0, h)])
        if balanced_sets(mixed) != balanced_sets(doubled) or count_brute(mixed, action) == count_brute(doubled, action):
            failures.append((action.name, h, k))
    report(10, "balance does not determine other counts", failures)
