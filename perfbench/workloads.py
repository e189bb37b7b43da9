"""Seeded instance generators and the four benchmark workloads.

A workload turns a seed into rounds of items during set-up, runs one op per
item, and checks each op's output with an independent recount.  The program
only ever sees the generated instances: files in the CLI instance format for
the CLI workloads, and instances parsed back from such files for
``count_auto``.

Every round holds the same mix of instance shapes, and a run always finishes
the round it is in, so the op mix of a run does not depend on where the
deadline falls.  Where a workload mixes two groups, a round holds one Z3 and
two S3 instances: with an even mix the median op would sit on the boundary
between the two groups' latencies and jump from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

from gainchroma import cli, counting, graphs, groups, harness

GROUPS = {
    "Z3": {"kind": "cyclic", "n": 3},
    "Z4": {"kind": "cyclic", "n": 4},
    "S3": {"kind": "symmetric", "d": 3},
}
ORDERS = {"Z3": 3, "Z4": 4, "S3": 6}
REGULAR = {"kind": "regular"}
STANDARD_1 = {"kind": "standard_colors", "k": 1}


def random_multigraph(rng: random.Random, order: int, vertices: int, edges: int) -> list[list[int]]:
    """Edges [u, v, gain] of a connected multigraph with loops and parallel
    edges allowed.

    A random spanning tree keeps the graph connected.  Loops never carry the
    identity gain: an identity loop makes every count zero at once, which
    would turn an op into a no-op.
    """
    triples = []
    for v in range(1, vertices):
        u = rng.randrange(v)
        pair = [u, v] if rng.random() < 0.5 else [v, u]
        triples.append(pair + [rng.randrange(order)])
    while len(triples) < edges:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        triples.append([u, v, rng.randrange(1, order) if u == v else rng.randrange(order)])
    rng.shuffle(triples)
    return triples


def ring_with_chords(rng: random.Random, order: int, vertices: int, edges: int) -> list[list[int]]:
    """Edges [u, v, gain] of a ring plus chords of span 2 and 3,
    taken by span and then by start vertex until there are ``edges`` edges;
    gains and orientations are random.

    Brute's cost grows with the count, and with chords at random places it
    varied threefold between seeds; with this fixed layout it varies by a
    few tenths.
    """
    pairs = [(v, (v + span) % vertices) for span in (1, 2, 3) for v in range(vertices)]
    if edges > len(pairs):
        raise ValueError(f"at most {len(pairs)} edges fit with span 3")
    return [
        [u, v, rng.randrange(order)] if rng.random() < 0.5 else [v, u, rng.randrange(order)]
        for u, v in pairs[:edges]
    ]


def write_instance(group: str, spins: list[dict], vertices: int, edges: list[list[int]], path: str) -> cli.ParsedInstance:
    """Write an instance file and return it parsed back by the CLI parser,
    after checking that the round trip rebuilt the generated graph."""
    spec = {
        "comment": os.path.basename(path),
        "group": GROUPS[group],
        "spins": spins,
        "graph": {"vertices": vertices, "edges": edges},
    }
    text = json.dumps(spec)
    parsed = cli.parse_instance(text)
    if parsed.graph != graphs.gain_graph(parsed.group, vertices, [tuple(e) for e in edges]):
        raise RuntimeError(f"instance {path} did not survive the parse round trip")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return parsed


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI in-process and return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def evaluate_rendered(text: str, values: dict[str, int]) -> int:
    """Evaluate a polynomial as rendered by ``MultiPoly.render`` or
    ``UniPoly.render``, such as ``4*k1^2*k2 - 2*k1 + 3``."""
    total = 0
    for sign, body in _TERM.findall(text):
        term = 1
        for factor in body.strip().split("*"):
            name, _, power = factor.partition("^")
            base = int(name) if name.isdigit() else values[name]
            term *= base ** int(power or 1)
        total += -term if sign == "-" else term
    return total


class Workload:
    """``rounds`` rounds of one item per shape; one op per item, and
    ``check`` compares an op's output with an independent recount."""

    name = ""
    why = ""
    rounds = 1
    shapes: list = []

    def setup(self, seed: int, workdir: str) -> list[list]:
        rng = random.Random(f"{self.name}:{seed}")
        return [[self.item(rng, workdir, f"{r}-{j}", shape) for j, shape in enumerate(self.shapes)]
                for r in range(self.rounds)]

    def item(self, rng: random.Random, workdir: str, key: str, shape):
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, output) -> bool:
        raise NotImplementedError


class CountDense(Workload):
    # The CLI default runs all four counters.  The 2^m layers (components,
    # HolonomyContext, closed-set enumeration, the inclexcl fold) do nearly
    # all the work, and each call builds its own HolonomyCache.  Each extra
    # edge roughly doubles an op; 11 edges keeps about 65 ops in an 18-second
    # run, so the median and the throughput settle.
    name = "count_dense"
    why = "count --method all on connected 6-vertex Z3/S3 multigraphs with 11 edges: the 2^m subset layers dominate"
    rounds = 40
    shapes = ["Z3", "S3", "S3"]

    def item(self, rng, workdir, key, group):
        path = os.path.join(workdir, f"{self.name}-{key}.json")
        write_instance(group, [STANDARD_1], 6, random_multigraph(rng, ORDERS[group], 6, 11), path)
        return path

    def op(self, path):
        return run_cli(["count", path, "--method", "all", "--json"])

    def check(self, path, output):
        code, text = output
        report = json.loads(text)
        methods = ("brute", "delcon", "inclexcl", "mobius")
        return (
            code == 0
            and report["agree"] is True
            and all("value" in report[m] for m in methods)
        )


class PolyLattice(Workload):
    # One graph against many spin sets: the closed-set lattice is reused
    # across the interpolation points, so the holonomy cache mostly hits,
    # yet the lattice is rebuilt several times per op.  The polynomials
    # layer works only here.
    name = "poly_lattice"
    why = "poly --chromatic --zero-free on connected 6-vertex Z3/S3 multigraphs with 10 edges: one lattice, many spin sets"
    rounds = 30
    shapes = ["Z3", "S3", "S3"]

    def __init__(self):
        self.expected: dict[str, tuple[int, int, int, int]] = {}

    def item(self, rng, workdir, key, group):
        path = os.path.join(workdir, f"{self.name}-{key}.json")
        spins = [REGULAR, {"kind": "trivial", "size": 1}]
        write_instance(group, spins, 6, random_multigraph(rng, ORDERS[group], 6, 10), path)
        return path

    def op(self, path):
        return run_cli(["poly", path, "--chromatic", "--zero-free", "--json"])

    def _expected(self, path):
        """|G|, the vertex count n, the brute counts for lambda = |G| + 1
        and for lambda = |G|, and the inclexcl count for lambda = (n + 2)|G|.

        The grand polynomial at multiplicities (1, 1) counts the spin set
        regular + trivial(1), which is standard_colors(1), so it shares the
        first count.  These points are interpolation nodes of the CLI, which
        an interpolation fits exactly whatever its degree; the last point
        is one past the nodes of the zero-free polynomial, so only a
        correct polynomial passes through it.  Brute would pass its state
        limit there, so inclexcl counts it."""
        got = self.expected.get(path)
        if got is None:
            with open(path, encoding="utf-8") as handle:
                inst = cli.parse_instance(handle.read())
            g, group = inst.graph, inst.group
            n = g.vertex_count
            got = (group.order, n) + tuple(
                counting.count_brute(g, action).value
                for action in (groups.standard_colors(group, 1), groups.zero_free_colors(group, 1))
            ) + (counting.count_inclexcl(g, groups.zero_free_colors(group, n + 2)).value,)
            self.expected[path] = got
        return got

    def check(self, path, output):
        code, text = output
        report = json.loads(text)
        order, n, chromatic, zero_free, zero_free_far = self._expected(path)
        return (
            code == 0
            and evaluate_rendered(report["grand"], {"k1": 1, "k2": 1}) == chromatic
            and evaluate_rendered(report["chromatic"], {"λ": order + 1}) == chromatic
            and evaluate_rendered(report["zero_free"], {"λ": order}) == zero_free
            and evaluate_rendered(report["zero_free"], {"λ": (n + 2) * order}) == zero_free_far
        )


class VerifySmall(Workload):
    # The same subset layers on many tiny graphs under the default harness
    # caps.  Per-call fixed costs (table builds, per-call caches, parsing,
    # harness checks) outweigh per-subset costs, so a kernel that buys
    # per-subset speed with per-call precomputation shows its cost here.
    # An op's cost is set mostly by its instance's edge and vertex counts,
    # so each round holds one harness seed per pair of counts; drawn freely,
    # a few large instances more or less would move the whole run, and the
    # median would move with the mix from seed to seed.
    name = "verify_small"
    why = "verify --count 1 over harness seeds (<=5 vertices, <=8 edges), one per edge and vertex count a round: per-call fixed costs dominate"
    rounds = 24
    max_vertices = 5
    max_edges = 8

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        cells = [(m, n) for m in range(self.max_edges + 1) for n in range(1, self.max_vertices + 1)]
        waiting: dict[tuple[int, int], list[int]] = {cell: [] for cell in cells}
        rounds = []
        while len(rounds) < self.rounds:
            s = rng.randrange(2**31)
            # run_suite draws its first instance from random.Random(seed)
            g = harness.random_instance(random.Random(s), self.max_vertices, self.max_edges).graph
            waiting[len(g.edges), g.vertex_count].append(s)
            if all(waiting.values()):
                rounds.append([waiting[cell].pop(0) for cell in cells])
        return rounds

    def op(self, seed):
        return run_cli(["verify", "--seed", str(seed), "--count", "1", "--json"])

    def check(self, seed, output):
        code, text = output
        report = json.loads(text)
        return code == 0 and report["instances"] == 1 and report["failures"] == []


class RingSparse(Workload):
    # Many vertices, sparse structure: |Q|^n <= 2^m, so count_auto picks
    # brute, which does nearly all the work while the subset layers do none.
    # Structural counting (elimination, reductions) shows here, and a faster
    # subset kernel should change nothing.  Deletion-contraction passes its
    # call bound on graphs like these, so the check recounts a copy that is
    # switched and relabelled by a random rotation and reflection of the
    # ring: brute searches it in another order but keeps its pruning.
    # A round holds one Z3, one Z4 and three S3 rings.  The S3 rings cost
    # the most and vary least from instance to instance, and with three of
    # five ops in a round the median op is always one of them; with one of
    # each, the median fell where the Z3 and Z4 latencies overlap.
    name = "ring_sparse"
    why = "count_auto on rings with chords of span <=3 (Z3 n=13, Z4 n=13, S3 n=9): count_auto picks brute, which does the work"
    rounds = 10
    shapes = [("Z3", STANDARD_1, 13, 26), ("Z4", REGULAR, 13, 26)] + [("S3", REGULAR, 9, 24)] * 3

    def __init__(self):
        self.expected: dict[str, int] = {}

    def item(self, rng, workdir, key, shape):
        group, spins, n, m = shape
        path = os.path.join(workdir, f"{self.name}-{key}.json")
        inst = write_instance(group, [spins], n, ring_with_chords(rng, ORDERS[group], n, m), path)
        turn, flip = rng.randrange(n), rng.choice((1, -1))
        perm = [(flip * v + turn) % n for v in range(n)]
        eta = [rng.randrange(ORDERS[group]) for _ in range(n)]
        return key, inst.graph, inst.spins[0], perm, eta

    def op(self, item):
        _, graph, action, _, _ = item
        return counting.count_auto(graph, action)

    def check(self, item, output):
        key, graph, action, perm, eta = item
        if key not in self.expected:
            moved = [(perm[e.u], perm[e.v], e.gain) for e in graph.edges]
            copy = graphs.switch(graphs.gain_graph(graph.group, graph.vertex_count, moved), eta)
            self.expected[key] = counting.count_auto(copy, action)
        return output == self.expected[key]


WORKLOADS = {w.name: w for w in (CountDense, PolyLattice, VerifySmall, RingSparse)}
