"""Seeded end-to-end benchmark of gainchroma, with a separate traced run for
per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own single process, with no threads; ``all`` runs
them one after another, each in a child process.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print the same numbers for
people.

With ``--trace 0`` the run times one op per item, in whole rounds, until
the ops have taken ``--seconds`` in all, and reports the end-to-end metrics:

* ``setup_s``: median over fresh processes, started between rounds across
  the run, of the time from process start until the instances are
  generated, written and parsed back, which includes ``import gainchroma``;
* ``ops_per_s``: ops divided by the sum of their latencies;
* ``op_p50_s``: median op latency;
* ``peak_rss_mb``: peak resident memory of the workload's process.

Op latencies are reported in reference seconds: wall seconds scaled by how
fast the machine ran a fixed calibration kernel just before and after the
op (see calibrate.py), so that the speed swings of a shared host cancel
out; so is ``setup_s``.  The wall-second figures are printed beside them.
``op_p90_s`` (only when a run has at least 100 ops) and
``failed_ops_frac`` are printed for people; failed ops also show in
``failed``.

With ``--trace 1`` the run makes one untraced pass and then the same ops
again with every layer boundary traced, reports the per-layer metrics of the
traced pass and the tracing overhead, and writes the spans to
``perfbench/out/spans-<workload>.json.gz``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("count_dense", "poly_lattice", "verify_small", "ring_sparse")
SETUP_PROBES = 16
CAL_EVERY_S = 0.1
CAL_SHARE = 0.05
PROBE_CAL_S = 0.01
DEFAULT_SEED = 1


def timed(op, items) -> list[tuple[object, object, float, float]]:
    """Run ``op`` on each item and return (item, output, latency,
    ref_latency) records: an op's wall time, and that time in reference
    seconds (see calibrate.py).  An op that raises records the exception
    as its output.

    The calibration kernel runs before the first op and after each group
    of ops that has taken CAL_EVERY_S, for CAL_SHARE of the group's time,
    outside the ops' timing; the ops of a group are scaled by the kernel's
    speed before and after it."""
    records = []
    clock = time.perf_counter
    before = calibrate.measure(CAL_SHARE * CAL_EVERY_S)
    group = []
    busy = 0.0
    for n, item in enumerate(items, 1):
        start = clock()
        try:
            output = op(item)
        except Exception as exc:  # a failed op is counted, and the run goes on
            output = exc
        latency = clock() - start
        group.append((item, output, latency))
        busy += latency
        if busy >= CAL_EVERY_S or n == len(items):
            after = calibrate.measure(CAL_SHARE * busy)
            factor = calibrate.scale(before, after)
            records += [(i, o, t, t * factor) for i, o, t in group]
            group, busy, before = [], 0.0, after
    return records


def run_rounds(op, rounds: list[list], seconds: float, between=None) -> list[tuple[object, object, float, float]]:
    """Run whole rounds, cycling through them, until the ops have taken
    ``seconds`` in all, or until every op of a round has raised, which
    leaves nothing to measure.  ``between(busy)`` runs after each round,
    outside the timing, with the op time so far."""
    records = []
    busy = 0.0
    for items in itertools.cycle(rounds):
        batch = timed(op, items)
        records += batch
        busy += sum(r[2] for r in batch)
        if busy >= seconds or all(isinstance(r[1], Exception) for r in batch):
            return records
        if between:
            between(busy)


def failed_ops(workload, records) -> int:
    """Ops that raised, exited nonzero or failed their output check.
    Called outside the timed region."""
    failed = 0
    for item, output, *_ in records:
        try:
            ok = not isinstance(output, Exception) and workload.check(item, output)
        except Exception:  # a malformed output fails its check
            ok = False
        failed += not ok
    return failed


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that only sets the workload up, and
    that time in reference seconds."""
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        before = calibrate.measure(PROBE_CAL_S)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe", workdir],
            check=True,
        )
        wall = time.perf_counter() - start
        return wall, wall * calibrate.scale(before, calibrate.measure(PROBE_CAL_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads  # imports gainchroma, so only once main() has put src/ on the path

    workload = workloads.WORKLOADS[name]()
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        rounds = workload.setup(seed, workdir)
        if trace:
            return traced_run(workload, rounds, seconds)
        # Set-up probes are spread over the run, between rounds, so that
        # their median samples the same slow and fast phases of the machine
        # as the ops do.
        probes = []

        def probe_when_due(busy):
            if len(probes) < SETUP_PROBES * busy / seconds:
                probes.append(setup_probe(name, seed))

        records = run_rounds(workload.op, rounds, seconds, probe_when_due)
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(name, seed))
        failed = failed_ops(workload, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = len(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Timings in wall seconds (column 0) and in reference seconds
    # (column 1), which the result reports; see calibrate.py.
    timings = {}
    for col in (0, 1):
        latencies = sorted(r[2 + col] for r in records)
        timings[col] = {
            "setup_s": statistics.median(p[col] for p in probes),
            "ops_per_s": ops / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": statistics.quantiles(latencies, n=10)[-1] if ops >= 100 else None,
        }
    busy = sum(r[2] for r in records)
    print(f"{name}: seed {seed}, {ops} ops in {busy:.3f} s of wall time")
    print(f"  {'':16s} {'reference':>12s} {'wall':>12s}")
    for key, unit in (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_s", "s"), ("op_p90_s", "s")):
        if timings[1][key] is None:
            print(f"  {key:16s} not reported: {ops} ops, fewer than 100")
        else:
            print(f"  {key:16s} {timings[1][key]:12.6f} {timings[0][key]:12.6f} {unit}")
    print(f"  {'failed_ops_frac':16s} {failed / ops:12.6f} ratio")
    print(f"  {'peak_rss_mb':16s} {peak_rss_mb:12.3f} MB")
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {
            "setup_s": metric(timings[1]["setup_s"], "s"),
            "ops_per_s": metric(timings[1]["ops_per_s"], "ops/s"),
            "op_p50_s": metric(timings[1]["op_p50_s"], "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def traced_run(workload, rounds, seconds) -> dict:
    """Untraced pass, then the same ops traced; per-layer metrics of the
    traced pass."""
    import tracer as tracing

    plain = run_rounds(workload.op, rounds, seconds / 2)
    items = [r[0] for r in plain]
    with tracing.Tracer() as tracer:
        tracing.install(tracer)
        traced = timed(tracer.span("bench.op", workload.op), items)
    failed = failed_ops(workload, plain) + failed_ops(workload, traced)
    plain_wall = sum(r[2] for r in plain)
    traced_wall = sum(r[2] for r in traced)
    values = tracing.layer_values(tracer, len(traced), plain_wall, traced_wall)
    tracer.write(os.path.join(OUT, f"spans-{workload.name}.json.gz"))

    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    print(f"{workload.name}: {len(items)} ops, untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s")
    shares = [(v, k) for k, v in values.items() if k.endswith(".self_s")]
    for value, name in sorted(shares, reverse=True):
        if value:
            print(f"  {name:40s} {value:10.4f} s  {value / traced_wall:7.1%} of traced wall")
    for name, value in values.items():
        if not name.endswith(".self_s"):
            print(f"  {name:40s} {value:g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {name: metric(value, units[name]) for name, value in values.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        *lines, last = done.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # The run length has one home: run_seconds in BENCHMARK.json, which is
    # also the value to pass; --seconds 0 makes one round, for smoke tests.
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "gainchroma")):
        print(f"error: no gainchroma package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload]().setup(args.seed, args.setup_probe)
        return 0
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
