import random

import pytest

from gainchroma import build_cyclic, build_symmetric, gain_graph, harness, regular_action, trivial_action
from gainchroma.harness import (
    CHECKS,
    GROUP_BUILDERS,
    Instance,
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


class TestSatisfiedClosure:
    def test_rejects_an_action_of_another_group(self):
        g = gain_graph(build_cyclic(3), 2, [(0, 1, 1)])
        inst = Instance(g, regular_action(build_cyclic(2)), "Z3", "regular", False)
        with pytest.raises(ValueError):
            check_satisfied_closure(inst)

    @staticmethod
    def instances(seed, count):
        rng = random.Random(seed)
        return [random_instance(rng) for _ in range(count)]

    def test_matches_the_product_loop(self):
        for inst in self.instances(11, 150):
            result = check_satisfied_closure(inst)
            assert (result.passed, result.detail) == oracle_satisfied_closure(inst)

    def test_first_failure_matches_the_product_loop(self, monkeypatch):
        monkeypatch.setattr(harness, "is_holonomy_closed", closed_below_two_edges)
        failed = 0
        for inst in self.instances(12, 150):
            result = check_satisfied_closure(inst)
            expected = oracle_satisfied_closure(inst, closed=closed_below_two_edges)
            assert (result.passed, result.detail) == expected
            failed += not result.passed
        assert failed > 20

    def test_sampled_branch_matches_the_product_loop(self, monkeypatch):
        monkeypatch.setattr(harness, "is_holonomy_closed", closed_below_two_edges)
        for inst in self.instances(13, 60):
            for cap in (0, 10**5):
                result = check_satisfied_closure(inst, state_cap=cap, rng=random.Random(7))
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
        assert check_satisfied_closure(inst).passed
        monkeypatch.setattr(harness, "is_holonomy_closed", lambda graph, subset: False)
        result = check_satisfied_closure(inst)
        assert (result.passed, result.detail) == oracle_satisfied_closure(inst, closed=lambda graph, subset: False)
