import random

import pytest

from gainchroma import (
    BoundExceeded,
    build_cyclic,
    build_symmetric,
    counting,
    gain_graph,
    harness,
    regular_action,
    standard_colors,
    trivial_action,
    zero_free_colors,
)
from gainchroma.harness import (
    CHECKS,
    GROUP_BUILDERS,
    Instance,
    check_instance,
    check_satisfied_closure,
    random_instance,
    run_suite,
)
from helpers import oracle_satisfied_closure


def closed_below_two_edges(graph, subset):
    """A stand-in for closedness that fails on every set of two or more
    edges, so that the first failing state shows the enumeration order."""
    return len(subset) < 2


class TestGeneratedInstances:
    def test_respects_caps_and_pools(self):
        rng = random.Random(2)
        kinds = set()
        groups = set()
        for _ in range(120):
            inst = random_instance(rng)
            assert 1 <= inst.graph.vertex_count <= 5
            assert len(inst.graph.edges) <= 8
            assert inst.group_name in GROUP_BUILDERS
            groups.add(inst.group_name)
            kinds.add(inst.action_kind)
            assert inst.action.group == inst.graph.group
        assert groups == set(GROUP_BUILDERS)
        assert {"regular", "trivial", "standard", "subset"} <= kinds

    def test_balanced_instances_occur(self):
        rng = random.Random(3)
        flags = [random_instance(rng).balanced for _ in range(60)]
        assert any(flags) and not all(flags)


class TestDescribe:
    @pytest.mark.parametrize(
        "kind,actions",
        [
            ("trivial", [lambda g: trivial_action(g, 1), lambda g: trivial_action(g, 3)]),
            ("standard", [lambda g: standard_colors(g, 1), lambda g: standard_colors(g, 2)]),
            ("zero_free", [lambda g: zero_free_colors(g, 0), lambda g: zero_free_colors(g, 2)]),
        ],
    )
    def test_instances_differing_only_in_the_action_describe_differently(self, kind, actions):
        # a failure line names the action's k or size, so it can be rebuilt
        group = build_cyclic(3)
        g = gain_graph(group, 2, [(0, 1, 1)])
        texts = [Instance(g, make(group), "Z3", kind, False).describe() for make in actions]
        assert texts[0] != texts[1]
        assert all(f"action={kind}[{make(group).name}]" in text for make, text in zip(actions, texts))

    def test_names_the_spins_of_a_union(self):
        group = build_cyclic(3)
        inst = Instance(gain_graph(group, 1, []), standard_colors(group, 2), "Z3", "standard", False)
        assert inst.describe() == "group=Z3 action=standard[2*regular(Z3) + 1*trivial(1)] vertices=1 edges=[]"


class TestSuiteRunner:
    def test_deterministic(self):
        first = run_suite(5, 8)
        second = run_suite(5, 8)
        assert first.passed == second.passed
        assert first.failures == second.failures

    def test_all_checks_tallied(self):
        report = run_suite(4, 10)
        assert report.ok
        assert set(report.passed) == set(CHECKS)
        assert all(count == 10 for count in report.passed.values())

    def test_zero_instances_vacuous(self):
        report = run_suite(1, 0)
        assert report.ok
        assert all(count == 0 for count in report.passed.values())

    def test_a_later_refusal_keeps_the_failures_found_before_it(self, monkeypatch):
        # the first instance fails a check and the second is over a bound:
        # the suite stops there and reports the failure, not the refusal
        calls = []

        def first_fails_then_refuses(inst, rng):
            calls.append(inst)
            if len(calls) == 1:
                return [harness.CheckResult("method_agreement", False, "counts diverge")]
            raise BoundExceeded("over a bound")

        monkeypatch.setattr(harness, "check_instance", first_fails_then_refuses)
        report = run_suite(1, 3)
        assert len(calls) == 2 and report.count == 1
        assert [failure[:2] for failure in report.failures] == [("method_agreement", "counts diverge")]
        # with no failure before it, the refusal itself is raised
        calls.append(None)
        with pytest.raises(BoundExceeded, match="over a bound"):
            run_suite(1, 3)

    def test_each_instance_graph_is_counted_by_inclexcl_once(self, monkeypatch):
        # among verify_all's counters, whose count the three checks that
        # need it share
        original = counting.count_inclexcl
        graphs = []

        def watched(g, a, **kwargs):
            graphs.append(g)
            return original(g, a, **kwargs)

        monkeypatch.setattr(counting, "count_inclexcl", watched)
        monkeypatch.setattr(harness, "count_inclexcl", watched)
        rng = random.Random(6)
        balanced = 0
        for _ in range(30):
            inst = random_instance(rng)
            graphs.clear()
            assert all(result.passed for result in check_instance(inst, rng))
            assert sum(g is inst.graph for g in graphs) == 1
            balanced += inst.balanced
        assert balanced > 0


class TestSatisfiedClosure:
    def test_rejects_an_action_of_another_group(self):
        g = gain_graph(build_cyclic(3), 2, [(0, 1, 1)])
        inst = Instance(g, regular_action(build_cyclic(2)), "Z3", "regular", False)
        with pytest.raises(ValueError):
            check_satisfied_closure(inst, random.Random(0))

    @staticmethod
    def instances(seed, count):
        rng = random.Random(seed)
        return [random_instance(rng) for _ in range(count)]

    def test_matches_the_product_loop(self):
        for inst in self.instances(11, 150):
            result = check_satisfied_closure(inst, random.Random(0))
            assert (result.passed, result.detail) == oracle_satisfied_closure(inst)

    def test_first_failure_matches_the_product_loop(self, monkeypatch):
        monkeypatch.setattr(harness, "is_holonomy_closed", closed_below_two_edges)
        failed = 0
        for inst in self.instances(12, 150):
            result = check_satisfied_closure(inst, random.Random(0))
            expected = oracle_satisfied_closure(inst, closed=closed_below_two_edges)
            assert (result.passed, result.detail) == expected
            failed += not result.passed
        assert failed > 20

    def test_sampled_branch_matches_the_product_loop(self, monkeypatch):
        monkeypatch.setattr(harness, "is_holonomy_closed", closed_below_two_edges)
        for inst in self.instances(13, 60):
            for cap in (0, 10**5):
                monkeypatch.setattr(harness, "CLOSURE_STATE_CAP", cap)
                result = check_satisfied_closure(inst, random.Random(7))
                expected = oracle_satisfied_closure(inst, state_cap=cap, rng=random.Random(7), closed=closed_below_two_edges)
                assert (result.passed, result.detail) == expected

    @pytest.mark.parametrize(
        "n,triples,action",
        [
            (0, [], regular_action(build_cyclic(3))),  # one empty state
            (3, [], regular_action(build_cyclic(3))),  # no edges
            (2, [(0, 1, 1)], trivial_action(build_cyclic(3), 1)),  # one spin
            (3, [(2, 2, 1), (2, 0, 4), (1, 0, 3), (0, 1, 3)], regular_action(build_symmetric(3))),
        ],
    )
    def test_edge_cases_match_the_product_loop(self, n, triples, action, monkeypatch):
        g = gain_graph(action.group, n, triples)
        inst = Instance(g, action, action.group.name, "regular", False)
        assert check_satisfied_closure(inst, random.Random(0)).passed
        monkeypatch.setattr(harness, "is_holonomy_closed", lambda graph, subset: False)
        result = check_satisfied_closure(inst, random.Random(0))
        assert (result.passed, result.detail) == oracle_satisfied_closure(inst, closed=lambda graph, subset: False)
