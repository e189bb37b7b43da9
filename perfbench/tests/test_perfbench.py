"""Tests for the benchmark itself: tracer, generators, output checks, and a
smoke run of every workload.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import filecmp
import json
import os
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from gainchroma import counting, graphs, holonomy, polynomials  # noqa: E402


def test_self_time_on_toy_call_tree(monkeypatch):
    toy = types.ModuleType("perfbench_toy")
    exec("def c():\n    return 1\n"
         "def b():\n    return c()\n"
         "def a():\n    return b() + b()\n", toy.__dict__)
    holder = types.ModuleType("perfbench_toy_holder")
    holder.b = toy.b
    monkeypatch.setitem(sys.modules, toy.__name__, toy)
    monkeypatch.setitem(sys.modules, holder.__name__, holder)
    originals = (toy.a, toy.b, toy.c)
    ticks = iter(range(100))

    with tracing.Tracer(clock=lambda: next(ticks)) as tracer:
        for fn in originals:
            tracer.trace(fn, fn.__name__)
        assert holder.b is not originals[1]
        assert toy.a() == 2

    # a spans 0..9 around b at 1..4 and 5..8, each around c at 2..3 and 6..7
    assert tracer.self_times() == {"a": (1, 3), "b": (2, 4), "c": (2, 2)}
    assert tracer.child_counts("b") == {"c": 2}
    assert (toy.a, toy.b, toy.c) == originals
    assert holder.b is originals[1]


def test_install_rebinds_every_namespace_and_restores():
    components = graphs.components
    subgroup = holonomy.HolonomyCache.__dict__["subgroup"]
    count_auto = counting.count_auto
    with tracing.Tracer() as tracer:
        tracing.install(tracer)
        for module in (graphs, counting, holonomy, polynomials):
            assert module.components is not components
        assert polynomials.count_auto is not count_auto
        assert holonomy.HolonomyCache.__dict__["subgroup"] is not subgroup
    for module in (graphs, counting, holonomy, polynomials):
        assert module.components is components
    assert polynomials.count_auto is count_auto
    assert holonomy.HolonomyCache.__dict__["subgroup"] is subgroup


def test_generators_are_connected_and_seeded():
    for seed in range(20):
        edges = workloads.random_multigraph(random.Random(seed), 6, 6, 11)
        assert edges == workloads.random_multigraph(random.Random(seed), 6, 6, 11)
        assert len(edges) == 11
        assert not any(u == v and gain == 0 for u, v, gain in edges)
        graph = graphs.gain_graph(workloads.groups.build_symmetric(3), 6, [tuple(e) for e in edges])
        assert len(graphs.components(graph).vertex_sets) == 1
        ring = workloads.ring_with_chords(random.Random(seed), 4, 13, 26)
        assert ring == workloads.ring_with_chords(random.Random(seed), 4, 13, 26)
        assert all(min((u - v) % 13, (v - u) % 13) <= 3 for u, v, _ in ring)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_is_deterministic_per_seed(name, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d in dirs:
        d.mkdir()
    rounds = [workloads.WORKLOADS[name]().setup(seed, str(d)) for seed, d in zip((7, 7, 8), dirs)]
    files = sorted(os.listdir(dirs[0]))
    assert files == sorted(os.listdir(dirs[1]))
    assert filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)[0] == files
    if name == "verify_small":
        assert rounds[0] == rounds[1] != rounds[2]
    else:
        assert filecmp.cmpfiles(dirs[0], dirs[2], files, shallow=False)[0] == []


def _corrupt(name, output):
    if name == "count_dense":
        return output[0], output[1].replace('"agree": true', '"agree": false')
    if name == "poly_lattice":
        report = json.loads(output[1])
        report["chromatic"] += " + 1"
        return output[0], json.dumps(report)
    if name == "verify_small":
        return 4, output[1]
    return output + 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_and_corrupted_output_fails(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    item = workload.setup(1, str(tmp_path))[0][0]
    records = run.timed(workload.op, [item])
    assert run.failed_ops(workload, records) == 0
    (_, output, latency, ref_latency), = records
    assert latency > 0 and ref_latency > 0
    assert run.failed_ops(workload, [(item, _corrupt(name, output), latency)]) == 1
    assert run.failed_ops(workload, [(item, RuntimeError("op raised"), latency)]) == 1


def test_timed_scales_by_the_kernel_speed_around_each_group(monkeypatch):
    speeds = iter([1.0, 3.0, 1.0])  # kernel slice times, in units of NOMINAL_S
    monkeypatch.setattr(run.calibrate, "measure", lambda budget: next(speeds) * run.calibrate.NOMINAL_S)
    ticks = iter([0.0, 0.12, 1.0, 1.12])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(ticks))
    records = run.timed(lambda item: item, ["a", "b"])
    # each op takes 0.12 s, more than CAL_EVERY_S, so it is a group of its
    # own; the kernel ran half as fast as nominal around both (the mean of
    # 1 and 3), so each op is 0.06 reference seconds
    assert [r[1] for r in records] == ["a", "b"]
    assert [r[2] for r in records] == pytest.approx([0.12, 0.12])
    assert [r[3] for r in records] == pytest.approx([0.06, 0.06])


def test_calibration_slice_leaves_the_collector_as_it_was():
    import gc

    import calibrate

    assert gc.isenabled()
    assert calibrate.slice_s() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert calibrate.slice_s() > 0 and not gc.isenabled()
    finally:
        gc.enable()


def test_poly_check_catches_an_error_that_vanishes_at_the_nodes(tmp_path):
    workload = workloads.WORKLOADS["poly_lattice"]()
    path = workload.setup(1, str(tmp_path))[0][0]
    code, text = workload.op(path)
    assert workload.check(path, (code, text))
    order = json.loads(Path(path).read_text())["group"]["n"]
    report = json.loads(text)
    report["zero_free"] += f" + λ - {order}"  # zero at the node λ = |G|
    assert not workload.check(path, (code, json.dumps(report)))


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    workload = workloads.WORKLOADS["verify_small"]()
    rounds = workload.setup(1, str(tmp_path))
    result = run.traced_run(workload, rounds[:1], 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(rounds[0])
    assert set(result["metrics"]) == {name for name, _, _ in tracing.LAYER_METRICS}
    assert result["metrics"]["harness.check.method_agreement.calls"]["value"] == len(rounds[0])
    assert (tmp_path / "spans-verify_small.json.gz").exists()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WORKLOADS[n].why for n in run.NAMES]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_command_line_run_prints_end_to_end_metrics():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_small", "--seconds", "0",
         "--seed", "3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert "failed_ops_frac" in done.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
