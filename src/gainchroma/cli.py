"""Command-line interface and the JSON instance file format.

An instance file is a single JSON document::

    {
      "comment": "optional free text",
      "group": {"kind": "cyclic", "n": 2},
      "spins": [{"kind": "regular"}, {"kind": "trivial", "size": 1}],
      "graph": {"vertices": 2, "edges": [[0, 1, 0], [0, 1, 1]]},
      "signed_graph": {"vertices": 2, "edges": [[0, 1, "+"]]}
    }

Group kinds: ``cyclic`` (n), ``symmetric`` (d), ``table`` (mul; identity must
sit at index 0 and the table is fully verified).  Spin kinds: ``regular``,
``trivial`` (size), ``standard_colors`` (k), ``zero_free`` (k), ``subsets``
(symmetric groups only), ``table`` (act).  Graph edges are [from, to, gain]
triples with the gain read in the from->to orientation.  The signed block is
only needed by the ``potts`` command; signs are "+" or "-", and "−" (U+2212,
the minus sign) reads as "-".

Exit codes: 0 success, 2 parse error or invalid argument, 3 bound exceeded,
4 divergence or verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .groups import (
    BoundExceeded,
    FiniteGroup,
    SpinAction,
    build_cyclic,
    build_symmetric,
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
from .graphs import VERTEX_LIMIT, GainGraph, SimpleGraph, gain_graph
from .holonomy import (
    HolonomyContext,
    holonomy_closure,
    holonomy_generators,
    subset_terms,
)
from .counting import COUNTERS, verify_all
from .polynomials import (
    check_parts,
    chromatic_polynomial,
    grand_polynomial,
    graph_chromatic,
    zero_free_polynomial,
)
from .models import SignedGraph, potts_routes, set_coloring_routes
from .harness import run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_DIVERGE = 4


class InstanceError(ValueError):
    """Instance file does not parse to valid inputs; message carries the path."""


@dataclass
class ParsedInstance:
    group: FiniteGroup
    spins: tuple[SpinAction, ...]
    graph: GainGraph
    signed: SignedGraph | None
    spec: dict


def _expect(condition: bool, where: str, message: str):
    if not condition:
        raise InstanceError(f"{where}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _get_int(obj: dict, where: str, key: str, minimum: int = 0) -> int:
    _expect(key in obj, where, f"missing field {key!r}")
    value = obj[key]
    _expect(_is_int(value), f"{where}.{key}", "must be an integer")
    _expect(value >= minimum, f"{where}.{key}", f"must be at least {minimum}")
    return value


def _int_table(value, where: str) -> list[list[int]]:
    """A table given as a list of lists of integers; JSON booleans are not
    integers here, although Python counts them as such."""
    _expect(isinstance(value, list) and all(isinstance(row, list) for row in value), where, "must be a list of lists")
    _expect(all(_is_int(x) for row in value for x in row), where, "entries must be integers")
    return value


def _parse_group(spec, where: str = "group") -> FiniteGroup:
    _expect(isinstance(spec, dict), where, "must be an object")
    kind = spec.get("kind")
    if kind == "cyclic":
        return build_cyclic(_get_int(spec, where, "n", minimum=1))
    if kind == "symmetric":
        return build_symmetric(_get_int(spec, where, "d", minimum=1))
    if kind == "table":
        _expect("mul" in spec, where, "missing field 'mul'")
        mul = _int_table(spec["mul"], f"{where}.mul")
        try:
            group = FiniteGroup(mul, name="table")
        except ValueError:
            group = None
        _expect(group is not None and verify_group(group), f"{where}.mul", "is not a valid group table with identity at index 0")
        return group
    raise InstanceError(f"{where}.kind: unknown group kind {kind!r}")


def _parse_spin(spec, group: FiniteGroup, group_spec: dict, where: str) -> SpinAction:
    _expect(isinstance(spec, dict), where, "must be an object")
    kind = spec.get("kind")
    if kind == "regular":
        return regular_action(group)
    if kind == "trivial":
        return trivial_action(group, _get_int(spec, where, "size", minimum=1))
    if kind == "standard_colors":
        return standard_colors(group, _get_int(spec, where, "k"))
    if kind == "zero_free":
        return zero_free_colors(group, _get_int(spec, where, "k"))
    if kind == "subsets":
        _expect(group_spec["kind"] == "symmetric", where, "'subsets' needs a symmetric group")
        return subset_action(group_spec["d"])
    if kind == "table":
        _expect("act" in spec, where, "missing field 'act'")
        act = _int_table(spec["act"], f"{where}.act")
        try:
            action = SpinAction(group, act, name="table")
        except (ValueError, TypeError) as exc:
            raise InstanceError(f"{where}.act: {exc}") from exc
        _expect(verify_action(action), f"{where}.act", "is not a right action")
        return action
    raise InstanceError(f"{where}.kind: unknown spin kind {kind!r}")


def _parse_edges(spec, where: str, label: str, read_label) -> tuple[int, list[tuple]]:
    """Vertex count and [from, to, label] triples of a graph block; the label
    is checked and converted by ``read_label(value, slot)``."""
    _expect(isinstance(spec, dict), where, "must be an object")
    n = _get_int(spec, where, "vertices")
    if n > VERTEX_LIMIT:
        raise BoundExceeded(f"{where}.vertices: vertex count {n} exceeds limit {VERTEX_LIMIT}")
    edges = spec.get("edges", [])
    _expect(isinstance(edges, list), f"{where}.edges", "must be a list")
    triples = []
    for i, entry in enumerate(edges):
        slot = f"{where}.edges[{i}]"
        _expect(isinstance(entry, list) and len(entry) == 3, slot, f"must be [from, to, {label}]")
        u, v, value = entry
        _expect(_is_int(u) and _is_int(v), slot, "endpoints must be integers")
        _expect(0 <= u < n and 0 <= v < n, slot, "endpoint out of range")
        triples.append((u, v, read_label(value, slot)))
    return n, triples


def _parse_graph(spec, group: FiniteGroup, where: str = "graph") -> GainGraph:
    def read_gain(gain, slot: str) -> int:
        _expect(_is_int(gain), slot, "gain must be an integer")
        _expect(0 <= gain < group.order, slot, f"gain {gain} outside group of order {group.order}")
        return gain

    return gain_graph(group, *_parse_edges(spec, where, "gain", read_gain))


_SIGN_CHARS = {"+": 1, "-": -1, "−": -1}


def _read_sign(sign, slot: str) -> int:
    _expect(isinstance(sign, str) and sign in _SIGN_CHARS, slot, "sign must be '+', '-' or '−' (U+2212)")
    return _SIGN_CHARS[sign]


def _parse_signed(spec, where: str = "signed_graph") -> SignedGraph:
    n, triples = _parse_edges(spec, where, "sign", _read_sign)
    return SignedGraph(n, tuple(triples))


def parse_instance(text: str) -> ParsedInstance:
    try:
        spec = json.loads(text)
    except ValueError as exc:  # also an integer literal too long to convert
        raise InstanceError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError("not valid JSON: nested too deeply") from exc
    _expect(isinstance(spec, dict), "instance", "must be a JSON object")
    _expect("group" in spec, "instance", "missing 'group'")
    group = _parse_group(spec["group"])
    spins_spec = spec.get("spins", [])
    _expect(isinstance(spins_spec, list), "spins", "must be a list")
    spins = tuple(
        _parse_spin(entry, group, spec["group"], f"spins[{i}]")
        for i, entry in enumerate(spins_spec)
    )
    _expect("graph" in spec, "instance", "missing 'graph'")
    graph = _parse_graph(spec["graph"], group)
    signed = _parse_signed(spec["signed_graph"]) if "signed_graph" in spec else None
    return ParsedInstance(group, spins, graph, signed, spec)


def render_instance(inst: ParsedInstance) -> str:
    """Serialize back to the file format; parse(render(x)) rebuilds x."""
    return json.dumps(inst.spec, indent=2, sort_keys=False)


def load_instance(path: str) -> ParsedInstance:
    if path == "-":
        return parse_instance(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _combined_action(inst: ParsedInstance, mults: list[int] | None) -> SpinAction:
    if not inst.spins:
        raise InstanceError("spins: at least one spin part is required for counting")
    if mults is None:
        mults = [1] * len(inst.spins)
    if len(mults) != len(inst.spins):
        raise InstanceError(
            f"--mults needs {len(inst.spins)} entries, got {len(mults)}"
        )
    return disjoint_union_action(list(inst.spins), mults)


@contextmanager
def _any_length_ints():
    """Let ints of any length convert to decimal text inside the block.

    Python refuses to convert an int of over 4,300 digits (its default
    limit), and exact counts can be longer.  ``parse_instance`` relies on
    the limit to reject over-long JSON literals, so commands lift it only
    once their input is parsed, and the old limit comes back on exit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _emit(report: dict, as_json: bool, lines: list[str]):
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def _int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InstanceError(f"expected a comma-separated integer list, got {text!r}") from exc


def cmd_count(args) -> int:
    inst = load_instance(args.file)
    action = _combined_action(inst, _int_list(args.mults) if args.mults else None)
    with _any_length_ints():
        report: dict = {"command": "count", "method": args.method, "spins": action.size}
        lines = []
        started = time.perf_counter()
        if args.method == "all":
            outcome = verify_all(inst.graph, action)
            for name, result in outcome.results.items():
                report[name] = {"value": result.value, "stats": result.stats}
                lines.append(f"{name}: {result.value}")
            for name, error in outcome.errors.items():
                report[name] = {"error": error}
                lines.append(f"{name}: bound exceeded ({error})")
            if outcome.results:
                report["agree"] = outcome.agree
                report["cross_checked"] = outcome.cross_checked
                if outcome.cross_checked or not outcome.agree:
                    lines.append(f"agree: {'yes' if outcome.agree else 'NO'}")
                else:
                    lines.append(f"agree: not cross-checked, only {', '.join(outcome.results)} ran")
                exit_code = EXIT_OK if outcome.agree else EXIT_DIVERGE
            else:  # every counter refused, so there is nothing to compare
                exit_code = EXIT_BOUND
        else:
            result = COUNTERS[args.method](inst.graph, action)
            report["value"] = result.value
            report["stats"] = result.stats
            lines.append(f"{args.method}: {result.value}")
            exit_code = EXIT_OK
        if args.timings:
            report["seconds"] = time.perf_counter() - started
            lines.append(f"seconds: {report['seconds']:.3f}")
        _emit(report, args.json, lines)
        return exit_code


def cmd_poly(args) -> int:
    inst = load_instance(args.file)
    if not inst.spins:
        raise InstanceError("spins: at least one spin part is required")
    parts = list(inst.spins)
    if args.parts:
        indices = _int_list(args.parts)
        for i in indices:
            if not 0 <= i < len(parts):
                raise InstanceError(f"--parts index {i} out of range")
        parts = [parts[i] for i in indices]
    check_parts(inst.graph, parts)
    terms = subset_terms(inst.graph)
    polys = {"grand": grand_polynomial(inst.graph, parts, source=terms)}
    if args.chromatic:
        polys["chromatic"] = chromatic_polynomial(inst.graph, source=terms)
    if args.zero_free:
        try:
            polys["zero_free"] = zero_free_polynomial(inst.graph, source=terms)
        except ArithmeticError as exc:  # its loop-deletion check failed
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DIVERGE
    if args.graph_chromatic:
        template = SimpleGraph(inst.graph.vertex_count, tuple((e.u, e.v) for e in inst.graph.edges))
        polys["graph_chromatic"] = graph_chromatic(template)
    with _any_length_ints():
        texts = {name: poly.render(None if name == "grand" else ["λ"]) for name, poly in polys.items()}
        _emit({"command": "poly", **texts}, args.json, [f"{name}: {text}" for name, text in texts.items()])
    return EXIT_OK


def cmd_holonomy(args) -> int:
    inst = load_instance(args.file)
    subset = frozenset(_int_list(args.edges)) if args.edges != "all" else inst.graph.edge_ids
    unknown = subset - inst.graph.edge_ids
    if unknown:
        raise InstanceError(f"--edges: unknown edge ids {sorted(unknown)}")
    ctx = HolonomyContext(inst.graph, subset)
    report: dict = {"command": "holonomy", "edges": sorted(subset), "components": []}
    lines = [f"edge set: {sorted(subset)}"]
    for j in range(len(ctx.split.edge_sets)):
        gens = holonomy_generators(ctx, j)
        subgroup = generate_subgroup(inst.graph.group, gens)
        entry = {
            "base": ctx.bases[j],
            "edges": sorted(ctx.split.edge_sets[j]),
            "generators": list(gens),
            "subgroup": sorted(subgroup),
            "fixed_sizes": [len(fixed_set(a, subgroup)) for a in inst.spins],
        }
        report["components"].append(entry)
        lines.append(
            f"component {j}: base={entry['base']} generators={entry['generators']} "
            f"subgroup order={len(subgroup)} fixed sizes={entry['fixed_sizes']}"
        )
    closure = holonomy_closure(inst.graph, subset)
    closed = closure == subset
    report["closure"] = sorted(closure)
    report["closed"] = closed
    report["isolated"] = list(ctx.split.isolated)
    lines.append(f"closure: {sorted(closure)}")
    lines.append(f"closed: {'yes' if closed else 'no'}")
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    suite = run_suite(
        args.seed,
        args.count,
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
    )
    report: dict = {
        "command": "verify",
        "seed": suite.seed,
        "instances": suite.count,
        "passed": suite.passed,
        "failures": [
            {"check": name, "detail": detail, "instance": inst}
            for name, detail, inst in suite.failures
        ],
    }
    lines = [f"seed {suite.seed}, {suite.count} instances"]
    for name in sorted(suite.passed):
        lines.append(f"{name}: {suite.passed[name]} pass")
    if suite.failures:
        name, detail, inst = suite.failures[0]
        lines.append(f"FAIL {name}: {detail}")
        lines.append(f"  instance: {inst}")
        lines.append(f"total failures: {len(suite.failures)}")
    else:
        lines.append("all checks passed")
    _emit(report, args.json, lines)
    return EXIT_OK if suite.ok else EXIT_DIVERGE


def cmd_potts(args) -> int:
    inst = load_instance(args.file)
    if inst.signed is None:
        raise InstanceError("instance: missing 'signed_graph' block required by potts")
    encoded, direct = potts_routes(inst.signed, inst.group)
    agree = encoded == direct
    report = {
        "command": "potts",
        "count": encoded,
        "direct": direct,
        "agree": agree,
    }
    lines = [
        f"satisfiable states: {encoded}",
        f"direct check: {direct}",
        f"agree: {'yes' if agree else 'NO'}",
    ]
    _emit(report, args.json, lines)
    return EXIT_OK if agree else EXIT_DIVERGE


def _parse_edge_pairs(text: str, n: int) -> tuple[tuple[int, int], ...]:
    pairs = []
    if text.strip():
        for chunk in text.split(","):
            bits = chunk.split("-")
            if len(bits) != 2:
                raise InstanceError(f"--edges: expected 'u-v' pairs, got {chunk!r}")
            try:
                u, v = int(bits[0]), int(bits[1])
            except ValueError as exc:
                raise InstanceError(f"--edges: expected integers in {chunk!r}") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"--edges: endpoint out of range in {chunk!r}")
            pairs.append((u, v))
    return tuple(pairs)


def cmd_setcolor(args) -> int:
    template = SimpleGraph(args.vertices, _parse_edge_pairs(args.edges, args.vertices))
    value, direct = set_coloring_routes(template, args.k)
    agree = value == direct
    report = {"command": "setcolor", "k": args.k, "count": value, "verified": agree}
    lines = [f"set colorations with k={args.k}: {value}"]
    if agree:
        lines.append("direct check: agree")
    else:
        report["direct"] = direct
        lines += [f"direct check: {direct}", "agree: NO"]
        print(f"error: set-coloring routes disagree: expansion {value}, direct {direct}", file=sys.stderr)
    _emit(report, args.json, lines)
    return EXIT_OK if agree else EXIT_DIVERGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainchroma",
        description="Exact counting of totally frustrated states of gain graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("count", help="count totally frustrated states")
    p.add_argument("file", help="instance file, or - for stdin")
    p.add_argument(
        "--method",
        choices=[*COUNTERS, "all"],
        default="all",
    )
    p.add_argument("--mults", default="", help="comma list of part multiplicities")
    add_json(p)
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.set_defaults(run=cmd_count)

    p = sub.add_parser("poly", help="print the multivariate count polynomial")
    p.add_argument("file")
    p.add_argument("--parts", default="", help="comma list of spin part indices")
    p.add_argument("--chromatic", action="store_true")
    p.add_argument("--zero-free", action="store_true", dest="zero_free")
    p.add_argument("--graph-chromatic", action="store_true", dest="graph_chromatic")
    add_json(p)
    p.set_defaults(run=cmd_poly)

    p = sub.add_parser("holonomy", help="holonomy report for an edge set")
    p.add_argument("file")
    p.add_argument("--edges", default="all", help="comma list of edge ids, or 'all'")
    add_json(p)
    p.set_defaults(run=cmd_holonomy)

    p = sub.add_parser("verify", help="run the seeded random cross-check suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-vertices", type=int, default=5, dest="max_vertices")
    p.add_argument("--max-edges", type=int, default=8, dest="max_edges")
    add_json(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("potts", help="count satisfied Potts states")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(run=cmd_potts)

    p = sub.add_parser("setcolor", help="count proper set colorations")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", default="", help="comma list of u-v pairs")
    p.add_argument("--k", type=int, required=True)
    add_json(p)
    p.set_defaults(run=cmd_setcolor)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the
    rest of the process.  ``parse_args`` keeps no state between calls, and
    help and usage text are formatted against the streams of the moment."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
