import random

import pytest

from gainchroma import build_cyclic, gain_graph, regular_action
from gainchroma.harness import (
    CHECKS,
    GROUP_BUILDERS,
    Instance,
    check_satisfied_closure,
    random_instance,
    run_suite,
)


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
