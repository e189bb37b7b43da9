import json
import re
import sys
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gainchroma import BoundExceeded, CountResult, gain_graph
from gainchroma import cli, counting, harness, holonomy, polynomials
from gainchroma.holonomy import LATTICE_EDGE_LIMIT
from gainchroma.counting import COUNTERS
from gainchroma.cli import (
    EXIT_BOUND,
    EXIT_DIVERGE,
    EXIT_PARSE,
    InstanceError,
    build_parser,
    main,
    parse_instance,
    render_instance,
)
from helpers import oracle_chromatic, oracle_zero_free

DIGON = {
    "comment": "two parallel edges over Z2, one twisted",
    "group": {"kind": "cyclic", "n": 2},
    "spins": [{"kind": "regular"}],
    "graph": {"vertices": 2, "edges": [[0, 1, 0], [0, 1, 1]]},
}

K2_STANDARD = {
    "group": {"kind": "cyclic", "n": 2},
    "spins": [{"kind": "standard_colors", "k": 1}],
    "graph": {"vertices": 2, "edges": [[0, 1, 0]]},
}

LOOP_VERTEX = {
    "group": {"kind": "cyclic", "n": 2},
    "spins": [{"kind": "regular"}, {"kind": "trivial", "size": 1}],
    "graph": {"vertices": 1, "edges": [[0, 0, 1]]},
}

IDENTITY_LOOP = {
    "group": {"kind": "cyclic", "n": 2},
    "spins": [{"kind": "regular"}],
    "graph": {"vertices": 1, "edges": [[0, 0, 0]]},
}

POTTS = {
    "group": {"kind": "cyclic", "n": 3},
    "spins": [],
    "graph": {"vertices": 2, "edges": []},
    "signed_graph": {"vertices": 2, "edges": [[0, 1, "-"]]},
}

S3_RING = {
    "comment": "a ring of nine vertices with every chord of span 2 and six of span 3, over S3",
    "group": {"kind": "symmetric", "d": 3},
    "spins": [{"kind": "regular"}],
    "graph": {
        "vertices": 9,
        "edges": [[v, (v + span) % 9, (v + 2 * span) % 6] for span in (1, 2, 3) for v in range(9)][:24],
    },
}

TABLE_INSTANCE = {
    "group": {"kind": "table", "mul": [[0, 1], [1, 0]]},
    "spins": [{"kind": "table", "act": [[0, 1], [1, 0], [2, 2]]}],
    "graph": {"vertices": 2, "edges": [[0, 1, 1]]},
}


def write(tmp_path, payload, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParsing:
    def test_round_trip(self):
        for payload in (DIGON, K2_STANDARD, LOOP_VERTEX, POTTS, TABLE_INSTANCE):
            inst = parse_instance(json.dumps(payload))
            again = parse_instance(render_instance(inst))
            assert again.group == inst.group
            assert again.spins == inst.spins
            assert again.graph == inst.graph
            assert again.signed == inst.signed

    def test_symmetric_group_and_subsets(self):
        for d, order in ((1, 1), (2, 2), (3, 6), (4, 24)):
            inst = parse_instance(
                json.dumps(
                    {
                        "group": {"kind": "symmetric", "d": d},
                        "spins": [{"kind": "subsets"}],
                        "graph": {"vertices": 1, "edges": []},
                    }
                )
            )
            assert inst.group.order == order
            assert inst.spins[0].size == 2**d

    def test_located_errors(self):
        bad_gain = json.loads(json.dumps(DIGON))
        bad_gain["graph"]["edges"][0][2] = 5
        with pytest.raises(InstanceError, match=r"graph\.edges\[0\]"):
            parse_instance(json.dumps(bad_gain))

        bad_spin = json.loads(json.dumps(DIGON))
        bad_spin["spins"] = [{"kind": "nonsense"}]
        with pytest.raises(InstanceError, match=r"spins\[0\]"):
            parse_instance(json.dumps(bad_spin))

        with pytest.raises(InstanceError, match="JSON"):
            parse_instance("{not json")

    def test_table_group_must_be_a_group(self):
        bad = {
            "group": {"kind": "table", "mul": [[0, 1], [1, 1]]},
            "spins": [],
            "graph": {"vertices": 1, "edges": []},
        }
        with pytest.raises(InstanceError, match="group"):
            parse_instance(json.dumps(bad))

    def test_large_table_group_and_action_parse_fast(self):
        # associativity and the action law are checked over a generating
        # set, in order**2 steps per generator rather than order**3 in all
        import time

        n = 200
        z200 = [[(i + j) % n for j in range(n)] for i in range(n)]
        text = json.dumps({
            "group": {"kind": "table", "mul": z200},
            "spins": [{"kind": "table", "act": z200}],
            "graph": {"vertices": 2, "edges": [[0, 1, 1]]},
        })
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            parsed = parse_instance(text)
            best = min(best, time.perf_counter() - start)
        assert parsed.group.order == n and parsed.spins[0].size == n
        assert best < 0.1
        corrupted = json.loads(text)
        corrupted["group"]["mul"][3][5] = 9  # identity and inverses survive
        with pytest.raises(InstanceError, match="group"):
            parse_instance(json.dumps(corrupted))
        corrupted = json.loads(text)
        corrupted["spins"][0]["act"][3][5] = 9
        with pytest.raises(InstanceError, match=r"spins\[0\].act: is not a right action"):
            parse_instance(json.dumps(corrupted))

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"group": ' + "1" * 5000 + "}"])
    def test_unreadable_json_is_a_parse_error(self, text, tmp_path, capsys):
        # nesting past the recursion limit, and an integer too long to convert
        with pytest.raises(InstanceError, match="not valid JSON"):
            parse_instance(text)
        path = tmp_path / "unreadable.json"
        path.write_text(text)
        assert main(["count", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: not valid JSON")

    @pytest.mark.parametrize(
        "where, change",
        [
            ("group.mul", {"group": {"kind": "table", "mul": [[0, 1], [1, False]]}}),
            ("spins[0].act", {"spins": [{"kind": "table", "act": [[0, 1], [True, False], [2, 2]]}]}),
        ],
    )
    def test_booleans_are_not_table_entries(self, where, change):
        # read as 0 and 1, both tables would be valid
        with pytest.raises(InstanceError, match=rf"{re.escape(where)}: entries must be integers"):
            parse_instance(json.dumps(dict(TABLE_INSTANCE, **change)))

    def test_subsets_needs_symmetric_kind(self):
        bad = {
            "group": {"kind": "cyclic", "n": 2},
            "spins": [{"kind": "subsets"}],
            "graph": {"vertices": 1, "edges": []},
        }
        with pytest.raises(InstanceError, match="symmetric"):
            parse_instance(json.dumps(bad))


class TestCountCommand:
    def test_all_methods_stats_are_pinned(self, tmp_path, capsys):
        # the subset walk drops pairs: the stats report all 2**m subsets,
        # the leaves the walk reached, and every closed set
        edges = [[0, 1, 1], [1, 2, 4], [2, 3, 0], [3, 4, 2], [4, 5, 5], [0, 1, 3],
                 [2, 2, 1], [5, 0, 0], [1, 3, 2], [4, 4, 3], [0, 1, 1]]
        payload = {
            "group": {"kind": "symmetric", "d": 3},
            "spins": [{"kind": "standard_colors", "k": 1}],
            "graph": {"vertices": 6, "edges": edges},
        }
        assert main(["count", write(tmp_path, payload), "--method", "all", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["agree"] is True and report["mobius"]["value"] == 25446
        assert report["inclexcl"]["stats"] == {"subsets": 2048, "leaves": 826}
        assert report["mobius"]["stats"] == {"closed_sets": 667}

    def test_digon_all_methods(self, tmp_path, capsys):
        code = main(["count", write(tmp_path, DIGON), "--method", "all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agree: yes" in out
        assert "brute: 0" in out

    def test_k2_standard(self, tmp_path, capsys):
        code = main(["count", write(tmp_path, K2_STANDARD), "--method", "brute"])
        out = capsys.readouterr().out
        assert code == 0
        assert "brute: 6" in out

    def test_identity_loop(self, tmp_path, capsys):
        code = main(["count", write(tmp_path, IDENTITY_LOOP)])
        out = capsys.readouterr().out
        assert code == 0
        assert "agree: yes" in out and ": 0" in out

    def test_mults_combines_parts(self, tmp_path, capsys):
        code = main(["count", write(tmp_path, LOOP_VERTEX), "--mults", "2,3", "--method", "brute"])
        out = capsys.readouterr().out
        assert code == 0
        assert "brute: 4" in out  # 2k1 at k1=2

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["count", str(path)]) == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit(self, capsys):
        assert main(["count", "/nonexistent/path.json"]) == EXIT_PARSE

    def test_bound_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(counting, "STATE_BUDGET", 1)
        assert main(["count", write(tmp_path, DIGON), "--method", "brute"]) == EXIT_BOUND
        assert capsys.readouterr().err == "error: 2**2 states exceed the brute-force limit 1\n"

    @pytest.mark.parametrize("spin", [{"kind": "regular"}, {"kind": "subsets"}])
    def test_a_huge_symmetric_group_exits_3(self, spin, tmp_path, capsys):
        huge = {**DIGON, "group": {"kind": "symmetric", "d": 10**9}, "spins": [spin]}
        assert main(["count", write(tmp_path, huge)]) == EXIT_BOUND
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: symmetric group on 1000000000 points has order over the limit 5040\n"

    @pytest.mark.parametrize("bound", [{}, {"STATE_BUDGET": 1000}])
    def test_elim_bound_exits_3_without_traceback(self, bound, tmp_path, capsys, monkeypatch):
        for name, value in bound.items():
            monkeypatch.setattr(counting, name, value)
        k12 = {
            "group": {"kind": "symmetric", "d": 3},
            "spins": [{"kind": "standard_colors", "k": 1}],
            "graph": {"vertices": 12, "edges": [[u, v, (u + v) % 6] for u in range(12) for v in range(u + 1, 12)]},
        }
        assert main(["count", write(tmp_path, k12), "--method", "elim"]) == EXIT_BOUND
        err = capsys.readouterr().err
        assert err.startswith("error:") and "elimination" in err and "Traceback" not in err

    def test_wide_instance_exits_3_before_elim_builds_a_table(self, tmp_path, capsys, monkeypatch):
        # K10 over S3 with 7 spins: elim's frontier reaches 9 vertices, whose
        # 7**9 keys are within max_states = 10**8 but far over the table
        # limit; brute's 7**10 states and the 45 edges are over the other
        # bounds.  delcon's bound counts calls, which take seconds to run
        # out here, so it is made to refuse at once.
        import gainchroma.counting as counting
        from gainchroma import BoundExceeded

        class Untouchable:
            def __getitem__(self, index):
                raise AssertionError("elim looked up a spin, so it started a table")

        def refuse(*args, **kw):
            raise BoundExceeded("deletion-contraction exceeded its calls")

        real = counting.count_elim

        def guarded(g, a, **bounds):
            spins = type("Spins", (), {"group": a.group, "size": a.size, "act": Untouchable()})()
            return real(g, spins, **bounds)

        monkeypatch.setattr(counting, "count_delcon", refuse)
        monkeypatch.setattr(counting, "count_elim", guarded)
        k10 = {
            "group": {"kind": "symmetric", "d": 3},
            "spins": [{"kind": "standard_colors", "k": 1}],
            "graph": {"vertices": 10, "edges": [[u, v, (u + v) % 6] for u in range(10) for v in range(u + 1, 10)]},
        }
        assert main(["count", write(tmp_path, k10)]) == EXIT_BOUND
        out = capsys.readouterr().out
        assert "elim: bound exceeded (7**9 frontier states" in out

    def test_no_agreement_is_claimed_when_every_counter_refuses(self, tmp_path, capsys, monkeypatch):
        # nothing ran, so there is nothing to agree or disagree: no agree
        # line or key, and the refusal's exit code
        import gainchroma.counting as counting

        def refuse(*args, **kw):
            raise BoundExceeded("over a bound")

        for name in COUNTERS:
            monkeypatch.setattr(counting, f"count_{name}", refuse)
        path = write(tmp_path, DIGON)
        assert main(["count", path]) == EXIT_BOUND
        assert capsys.readouterr().out == "".join(f"{name}: bound exceeded (over a bound)\n" for name in COUNTERS)
        assert main(["count", path, "--json"]) == EXIT_BOUND
        payload = json.loads(capsys.readouterr().out)
        assert "agree" not in payload
        assert all(payload[name] == {"error": "over a bound"} for name in COUNTERS)

    def test_long_cycle_counts_by_elim_alone_exits_0_not_cross_checked(self, tmp_path, capsys):
        # delcon recurses once per link; over its link bound it refuses
        # instead of running into the recursion limit
        n = 1500
        cycle = {
            "group": {"kind": "cyclic", "n": 3},
            "spins": [{"kind": "standard_colors", "k": 1}],
            "graph": {"vertices": n, "edges": [[v, (v + 1) % n, v % 3] for v in range(n)]},
        }
        path = write(tmp_path, cycle)
        assert main(["count", path, "--method", "elim", "--json"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert main(["count", path, "--json"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["agree"] is True and report["elim"]["value"] == value
        assert "links exceed" in report["delcon"]["error"]
        # elim ran alone, so nothing checked its count
        assert report["cross_checked"] is False
        assert main(["count", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "agree: yes" not in lines
        assert lines[-1] == "agree: not cross-checked, only elim ran"
        assert "Traceback" not in captured.err
        assert main(["count", path, "--method", "delcon"]) == EXIT_BOUND
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and f"{n} links" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_deep_graph_is_refused_by_brute_instead_of_recursing(self, tmp_path, capsys):
        # brute recurses once per vertex, and 1**3000 states pass its state
        # budget, so its vertex bound must refuse before the first call
        deep = {
            "group": {"kind": "cyclic", "n": 2},
            "spins": [{"kind": "trivial", "size": 1}],
            "graph": {"vertices": 3000, "edges": [[2998, 2999, 1]]},
        }
        path = write(tmp_path, deep)
        assert main(["count", path]) == 0
        captured = capsys.readouterr()
        assert "brute: bound exceeded (3000 vertices exceed" in captured.out
        assert "agree: yes" in captured.out and captured.err == ""
        assert main(["count", path, "--method", "brute"]) == EXIT_BOUND
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: 3000 vertices exceed")
        # with no spin brute does not recurse, so it still counts at once
        none = {**deep, "spins": [{"kind": "zero_free", "k": 0}], "graph": {"vertices": 500, "edges": []}}
        path = write(tmp_path, none)
        assert main(["count", path, "--method", "brute"]) == 0
        assert capsys.readouterr().out == "brute: 0\n"

    def test_divergence_exit(self, tmp_path, capsys, monkeypatch):
        # a deliberately broken counter must trip the agreement gate
        import gainchroma.counting as counting

        def wrong(g, a):
            return CountResult(12345, {})

        monkeypatch.setattr(counting, "count_delcon", wrong)
        code = main(["count", write(tmp_path, DIGON), "--method", "all"])
        out = capsys.readouterr().out
        assert code == EXIT_DIVERGE
        assert "agree: NO" in out

    def test_json_output(self, tmp_path, capsys):
        code = main(["count", write(tmp_path, DIGON), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["agree"] is True
        assert payload["brute"]["value"] == 0

    def test_json_stats_of_brute_and_delcon_are_pinned(self, tmp_path, capsys):
        # brute tries 2 spins at vertex 0 and 2 at vertex 1 under each;
        # delcon makes 1 + 2 calls on the digon and 2 on its one-link deletion
        assert main(["count", write(tmp_path, DIGON), "--method", "all", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["brute"] == {"value": 0, "stats": {"states_visited": 6}}
        assert payload["delcon"] == {"value": 0, "stats": {"calls": 5}}

    def test_json_stats_of_elim_are_pinned(self, tmp_path, capsys):
        # a frontier of five vertices, three of them placed into slots that
        # retired vertices freed; the figures are those of the tuple-keyed tables
        assert main(["count", write(tmp_path, S3_RING), "--method", "elim", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 134850
        assert payload["stats"] == {"width": 5, "peak_states": 525, "transitions": 10585}

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, DIGON)
        main(["count", path])
        first = capsys.readouterr().out
        main(["count", path])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("as_json", [False, True])
    def test_timings_add_only_the_seconds(self, as_json, tmp_path, capsys):
        argv = ["count", write(tmp_path, DIGON), *(["--json"] if as_json else [])]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--timings"]) == 0
        timed = capsys.readouterr().out
        if as_json:
            plain, timed = json.loads(plain), json.loads(timed)
            assert list(timed) == [*plain, "seconds"]
            seconds = timed.pop("seconds")
            assert isinstance(seconds, float) and seconds >= 0
            assert timed == plain
        else:
            lines = timed.splitlines()
            extra = [i for i, line in enumerate(lines) if line.startswith("seconds:")]
            assert len(extra) == 1
            assert re.fullmatch(r"seconds: \d+\.\d{3}", lines.pop(extra[0]))
            assert lines == plain.splitlines()


class TestPolyCommand:
    def test_k2_regular(self, tmp_path, capsys):
        payload = {
            "group": {"kind": "cyclic", "n": 2},
            "spins": [{"kind": "regular"}],
            "graph": {"vertices": 2, "edges": [[0, 1, 0]]},
        }
        code = main(["poly", write(tmp_path, payload)])
        out = capsys.readouterr().out
        assert code == 0
        assert "grand: 4*k1^2 - 2*k1" in out

    def test_chromatic_loop_vertex(self, tmp_path, capsys):
        code = main(["poly", write(tmp_path, LOOP_VERTEX), "--chromatic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chromatic: λ - 1" in out

    def test_identity_loop_zero(self, tmp_path, capsys):
        code = main(["poly", write(tmp_path, IDENTITY_LOOP), "--chromatic", "--zero-free"])
        out = capsys.readouterr().out
        assert code == 0
        assert "grand: 0" in out
        assert "chromatic: 0" in out
        assert "zero_free: 0" in out

    @pytest.mark.parametrize("as_json", [False, True])
    def test_failed_zero_free_check_exits_4(self, as_json, tmp_path, capsys, monkeypatch):
        # a loop deletion that drops every edge must trip the zero-free check
        payload = {
            "group": {"kind": "cyclic", "n": 3},
            "spins": [{"kind": "regular"}],
            "graph": {"vertices": 2, "edges": [[0, 1, 0], [0, 0, 1]]},
        }
        monkeypatch.setattr(polynomials, "_without_nonidentity_loops", lambda g: gain_graph(g.group, g.vertex_count, []))
        argv = ["poly", write(tmp_path, payload), "--zero-free"]
        code = main(argv + ["--json"] if as_json else argv)
        captured = capsys.readouterr()
        assert code == EXIT_DIVERGE
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""

    def test_parts_selection(self, tmp_path, capsys):
        code = main(["poly", write(tmp_path, LOOP_VERTEX), "--parts", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "grand: 2*k1" in out

    def test_graph_chromatic(self, tmp_path, capsys):
        code = main(["poly", write(tmp_path, K2_STANDARD), "--graph-chromatic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "graph_chromatic: λ^2 - λ" in out

    def test_many_vertices_exit_3_before_the_lattice(self, tmp_path, capsys, monkeypatch):
        # C(403, 3) exponent vectors fit under degree 400 in three variables;
        # the fold would print tens of MB after a minute or more
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice or its fold was started")

        monkeypatch.setattr(cli, "subset_terms", refuse)
        monkeypatch.setattr(polynomials, "lattice_sum", refuse)
        payload = {
            "group": {"kind": "symmetric", "d": 3},
            "spins": [{"kind": "regular"}, {"kind": "trivial", "size": 1}, {"kind": "trivial", "size": 2}],
            "graph": {"vertices": 400, "edges": [[0, 1, 1]]},
        }
        assert main(["poly", write(tmp_path, payload), "--chromatic", "--json"]) == EXIT_BOUND
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(polynomials.TERM_LIMIT) in captured.err

    def test_seventeen_vertices_print_both_polynomials(self, tmp_path, capsys):
        # nine edges over S3 with an isolated vertex and a nonidentity loop
        edges = [[v, v + 1, v % 6] for v in range(6)] + [[0, 3, 4], [8, 12, 2], [15, 15, 1]]
        payload = {
            "group": {"kind": "symmetric", "d": 3},
            "spins": [{"kind": "regular"}],
            "graph": {"vertices": 17, "edges": edges},
        }
        assert main(["poly", write(tmp_path, payload), "--chromatic", "--zero-free"]) == 0
        lines = capsys.readouterr().out.splitlines()
        g = parse_instance(json.dumps(payload)).graph
        assert lines[1:] == [
            f"chromatic: {oracle_chromatic(g).render(['λ'])}",
            f"zero_free: {oracle_zero_free(g).render(['λ'])}",
        ]


class TestPolyGuards:
    """``poly`` folds the subset walk's terms and builds no closed-set
    lattice, and still refuses a graph over ``LATTICE_EDGE_LIMIT`` edges
    before any walk starts."""

    @staticmethod
    def _refuse_lattices(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a closed-set lattice was built")

        for module in (holonomy, counting):
            monkeypatch.setattr(module, "enumerate_closed_sets", refuse)

    def test_poly_builds_no_lattice(self, tmp_path, capsys, monkeypatch):
        # an S3 graph with a nonidentity loop, so the zero-free check walks
        # the stripped graph too, and an untouched vertex
        edges = [[0, 1, 1], [1, 2, 3], [2, 0, 5], [2, 3, 2], [3, 0, 4], [1, 1, 2], [0, 1, 1]]
        payload = {
            "group": {"kind": "symmetric", "d": 3},
            "spins": [{"kind": "regular"}, {"kind": "trivial", "size": 1}],
            "graph": {"vertices": 5, "edges": edges},
        }
        path = write(tmp_path, payload)
        g = parse_instance(json.dumps(payload)).graph
        self._refuse_lattices(monkeypatch)
        assert main(["poly", path, "--chromatic", "--zero-free"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            f"chromatic: {oracle_chromatic(g).render(['λ'])}",
            f"zero_free: {oracle_zero_free(g).render(['λ'])}",
        ]
        parts = parse_instance(json.dumps(payload)).spins
        assert polynomials.grand_polynomial(g, parts).render() == lines[0].removeprefix("grand: ")
        assert polynomials.chromatic_polynomial(g) == oracle_chromatic(g)
        assert polynomials.zero_free_polynomial(g) == oracle_zero_free(g)

    def test_nineteen_edges_exit_3_before_any_walk(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a subset walk was started")

        self._refuse_lattices(monkeypatch)
        monkeypatch.setattr(holonomy._EdgeWalk, "__init__", refuse)
        edges = [[v, (v + 1) % 12, v % 6] for v in range(12)] + [[v, v + 2, 1] for v in range(7)]
        payload = {
            "group": {"kind": "symmetric", "d": 3},
            "spins": [{"kind": "regular"}],
            "graph": {"vertices": 12, "edges": edges},
        }
        assert main(["poly", write(tmp_path, payload), "--chromatic", "--zero-free"]) == EXIT_BOUND
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: 19 edges exceed the edge-subset walk limit {LATTICE_EDGE_LIMIT}\n"


class TestLongAnswers:
    def test_print_in_full_while_inputs_stay_under_the_limit(self, tmp_path, capsys):
        # 4,000 lone vertices over 13 spins: 13**4000 has 4,456 digits, over
        # Python's default int-to-text limit of 4,300
        payload = {
            "group": {"kind": "symmetric", "d": 3},
            "spins": [{"kind": "standard_colors", "k": 2}],
            "graph": {"vertices": 4000, "edges": []},
        }
        digits = str(Decimal(13**4000))
        limit = sys.get_int_max_str_digits()
        path = write(tmp_path, payload)
        for argv, expected in [
            (["count", path, "--method", "elim"], f"elim: {digits}\n"),
            (["count", path, "--method", "elim", "--json"], f'"value": {digits},'),
            (["poly", path], f"grand: {digits}*k1^4000\n"),
            (["poly", path, "--json"], f'"grand": "{digits}*k1^4000"'),
        ]:
            assert main(argv) == 0
            assert expected in capsys.readouterr().out
            assert sys.get_int_max_str_digits() == limit
        # the limit still rejects over-long integers on the way in
        assert main(["count", path, "--method", "elim", "--mults", "1" * 5000]) == EXIT_PARSE
        assert main(["poly", path, "--parts", "0" * 5000]) == EXIT_PARSE
        assert capsys.readouterr().out == ""
        assert sys.get_int_max_str_digits() == limit


class TestHolonomyCommand:
    def test_digon_full_set(self, tmp_path, capsys):
        code = main(["holonomy", write(tmp_path, DIGON), "--edges", "0,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "subgroup order=2" in out
        assert "fixed sizes=[0]" in out
        assert "closed: yes" in out

    def test_balanced_subset(self, tmp_path, capsys):
        code = main(["holonomy", write(tmp_path, DIGON), "--edges", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "subgroup order=1" in out

    def test_empty_set_with_identity_loop(self, tmp_path, capsys):
        code = main(["holonomy", write(tmp_path, IDENTITY_LOOP), "--edges", ""])
        out = capsys.readouterr().out
        assert code == 0
        assert "closure: [0]" in out
        assert "closed: no" in out

    def test_unknown_edge_ids(self, tmp_path, capsys):
        assert main(["holonomy", write(tmp_path, DIGON), "--edges", "7"]) == EXIT_PARSE


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code = main(["verify", "--seed", "1", "--count", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out

    def test_passing_run_prints_the_fixed_report(self, capsys):
        # the instance description appears only on failure lines
        assert main(["verify", "--seed", "2", "--count", "4"]) == 0
        assert capsys.readouterr().out == (
            "seed 2, 4 instances\n"
            "balanced_evaluation: 4 pass\n"
            "deletion_contraction: 4 pass\n"
            "method_agreement: 4 pass\n"
            "satisfied_closure: 4 pass\n"
            "switching_invariance: 4 pass\n"
            "all checks passed\n"
        )
        assert main(["verify", "--seed", "2", "--count", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "command": "verify",
            "seed": 2,
            "instances": 4,
            "passed": {name: 4 for name in harness.CHECKS},
            "failures": [],
        }

    def test_zero_count_vacuous(self, capsys):
        code = main(["verify", "--seed", "1", "--count", "0"])
        assert code == 0

    def test_deterministic(self, capsys):
        main(["verify", "--seed", "3", "--count", "6"])
        first = capsys.readouterr().out
        main(["verify", "--seed", "3", "--count", "6"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "option,value,name",
        [("--count", "-1", "count"), ("--max-vertices", "0", "max_vertices"), ("--max-edges", "-1", "max_edges")],
    )
    def test_impossible_sizes_exit_2_naming_the_argument(self, option, value, name, capsys):
        code = main(["verify", option, value])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == f"error: {name} must be at least {int(value) + 1}, got {value}\n"

    @pytest.mark.parametrize(
        "option,most", [("--max-vertices", cli.VERTEX_LIMIT), ("--max-edges", LATTICE_EDGE_LIMIT)]
    )
    def test_sizes_over_the_caps_exit_3_before_any_draw(self, option, most, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was drawn before the sizes were checked")

        monkeypatch.setattr(harness, "random_instance", refuse)
        code = main(["verify", option, str(most + 1)])
        captured = capsys.readouterr()
        assert code == EXIT_BOUND
        assert captured.out == ""
        name = option[2:].replace("-", "_")
        assert captured.err == f"error: {name} must be at most {most}, got {most + 1}\n"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_a_counter_over_its_bound_exits_3_not_4(self, as_json, capsys):
        # one of these instances has 33 vertices, 8**33 states for brute:
        # a refusal, not a failed verification
        argv = ["verify", "--max-vertices", "40", "--count", "3"]
        code = main(argv + ["--json"] if as_json else argv)
        captured = capsys.readouterr()
        assert code == EXIT_BOUND
        assert captured.out == ""
        assert captured.err.startswith("error: brute: ") and captured.err.count("\n") == 1

    def test_a_divergence_beside_a_refusal_still_exits_4(self, capsys, monkeypatch):
        # brute refuses the 33-vertex instance, and the counters that ran
        # disagree there: a failed verification, not a refusal
        import gainchroma.counting as counting

        original = counting.count_mobius

        def wrong(g, a, **kwargs):
            result = original(g, a, **kwargs)
            return CountResult(result.value + 1, result.stats)

        monkeypatch.setattr(counting, "count_mobius", wrong)
        code = main(["verify", "--max-vertices", "40", "--count", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_DIVERGE
        assert "FAIL method_agreement: counts diverge" in captured.out
        assert captured.err == ""

    def test_mutation_is_caught(self, capsys, monkeypatch):
        # break the Möbius counter and require a reported counterexample
        import gainchroma.counting as counting

        original = counting.count_mobius

        def wrong(g, a, **kwargs):
            result = original(g, a, **kwargs)
            return CountResult(result.value + 1, result.stats)

        monkeypatch.setattr(counting, "count_mobius", wrong)
        code = main(["verify", "--seed", "1", "--count", "4"])
        out = capsys.readouterr().out
        assert code == EXIT_DIVERGE
        assert "FAIL method_agreement" in out
        assert "instance:" in out


class TestPottsAndSetcolor:
    def test_potts_negative_k2(self, tmp_path, capsys):
        code = main(["potts", write(tmp_path, POTTS)])
        out = capsys.readouterr().out
        assert code == 0
        assert "satisfiable states: 6" in out
        assert "agree: yes" in out

    def test_potts_needs_signed_block(self, tmp_path, capsys):
        assert main(["potts", write(tmp_path, DIGON)]) == EXIT_PARSE

    def test_setcolor_k2(self, capsys):
        code = main(["setcolor", "--vertices", "2", "--edges", "0-1", "--k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "10" in out

    @pytest.mark.parametrize("as_json", [False, True])
    def test_setcolor_divergence_exit(self, as_json, capsys, monkeypatch):
        # a deliberately broken direct route must trip the agreement gate
        import gainchroma.models as models

        monkeypatch.setattr(models, "set_coloring_direct", lambda template, k: 12345)
        argv = ["setcolor", "--vertices", "2", "--edges", "0-1", "--k", "2"]
        code = main(argv + ["--json"] if as_json else argv)
        captured = capsys.readouterr()
        assert code == EXIT_DIVERGE
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        if as_json:
            payload = json.loads(captured.out)
            assert payload["verified"] is False
            assert (payload["count"], payload["direct"]) == (10, 12345)
        else:
            assert "agree: NO" in captured.out

    def test_setcolor_over_the_vertex_limit_names_it(self, capsys):
        code = main(["setcolor", "--vertices", "5000", "--k", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_BOUND
        assert captured.out == ""
        assert captured.err == f"error: vertex count 5000 exceeds limit {cli.VERTEX_LIMIT}\n"

    @pytest.mark.parametrize("command", ["potts", "setcolor"])
    def test_over_the_direct_enumeration_limit_exits_3(self, command, tmp_path, capsys):
        if command == "potts":
            edges = [[v, v + 1, "+"] for v in range(12)]
            payload = dict(POTTS, signed_graph={"vertices": 13, "edges": edges})
            argv, states = ["potts", write(tmp_path, payload)], "3**13"
        else:
            argv, states = ["setcolor", "--vertices", "5", "--edges", "0-1", "--k", "4"], "16**5"
        assert main(argv) == EXIT_BOUND
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {states} states exceed the direct enumeration limit 1000000\n"

    def test_positive_triangle(self, tmp_path, capsys):
        payload = {
            "group": {"kind": "cyclic", "n": 2},
            "spins": [],
            "graph": {"vertices": 3, "edges": []},
            "signed_graph": {
                "vertices": 3,
                "edges": [[0, 1, "+"], [1, 2, "+"], [0, 2, "+"]],
            },
        }
        code = main(["potts", write(tmp_path, payload)])
        out = capsys.readouterr().out
        assert code == 0
        assert "satisfiable states: 2" in out


class TestSignedEdges:
    def test_bad_sign_names_every_accepted_spelling(self, tmp_path, capsys):
        payload = dict(POTTS, signed_graph={"vertices": 2, "edges": [[0, 1, "*"]]})
        assert main(["potts", write(tmp_path, payload)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: signed_graph.edges[0]: sign must be '+', '-' or '−' (U+2212)\n"

    @pytest.mark.parametrize("edge", [[True, False, "+"], [0, 1, ["+"]]])
    def test_bad_edge_is_a_parse_error(self, edge, tmp_path, capsys):
        payload = dict(POTTS, signed_graph={"vertices": 2, "edges": [edge]})
        with pytest.raises(InstanceError, match=r"signed_graph\.edges\[0\]"):
            parse_instance(json.dumps(payload))
        assert main(["potts", write(tmp_path, payload)]) == EXIT_PARSE


class TestInvalidArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "DIGON", "--mults=-1"],
            ["setcolor", "--vertices", "2", "--edges", "0-1", "--k", "-1"],
            ["setcolor", "--vertices", "-1", "--k", "1"],
            ["potts", "TRIVIAL_GROUP_POTTS"],
        ],
    )
    def test_exit_2_without_traceback(self, argv, tmp_path, capsys):
        files = {"DIGON": DIGON, "TRIVIAL_GROUP_POTTS": dict(POTTS, group={"kind": "cyclic", "n": 1})}
        argv = [write(tmp_path, files[a]) if a in files else a for a in argv]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["count", "DIGON", "--max-subsets", "-1"], "--max-subsets"),
            (["count", "DIGON", "--max-states=-1"], "--max-states"),
            (["count", "DIGON", "--method", "brute", "--max-states", "-1"], "--max-states"),
            (["count", "DIGON", "--method", "inclexcl", "--max-subsets", "-1"], "--max-subsets"),
            (["potts", "POTTS", "--max-states", "-1"], "--max-states"),
        ],
    )
    def test_negative_budget_exits_2_before_any_counter(self, argv, option, tmp_path, capsys, monkeypatch):
        # the work budgets are fixed limits, which no option sets
        def refuse(*args, **kwargs):
            raise AssertionError("a counter ran")

        monkeypatch.setattr(cli, "verify_all", refuse)
        monkeypatch.setattr(cli, "potts_routes", refuse)
        monkeypatch.setattr(cli, "COUNTERS", dict.fromkeys(COUNTERS, refuse))
        files = {"DIGON": DIGON, "POTTS": POTTS}
        argv = [write(tmp_path, files[a]) if a in files else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_PARSE
        unrecognized = " ".join(argv[next(i for i, a in enumerate(argv) if a.startswith(option)) :])
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {unrecognized}\n")

    def test_positive_budget_option_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["count", write(tmp_path, DIGON), "--max-states", "1"])
        assert exit_info.value.code == EXIT_PARSE
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --max-states 1\n")

    @pytest.mark.parametrize(
        "changes",
        [
            {"group": {"kind": "cyclic", "n": 10**9}},
            {"spins": [{"kind": "trivial", "size": 10**12}]},
        ],
    )
    def test_huge_tables_exit_3(self, changes, tmp_path, capsys):
        assert main(["count", write(tmp_path, dict(DIGON, **changes))]) == EXIT_BOUND


    @pytest.mark.parametrize("block", ["graph", "signed_graph"])
    def test_huge_vertex_count_exits_3_before_allocating(self, block, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a graph was built before the vertex bound was checked")

        monkeypatch.setattr(cli, {"graph": "gain_graph", "signed_graph": "SignedGraph"}[block], refuse)
        edge = [0, 1, "+" if block == "signed_graph" else 0]
        payload = dict(POTTS, **{block: {"vertices": 10**12, "edges": [edge]}})
        assert main(["potts", write(tmp_path, payload)]) == EXIT_BOUND
        assert f"{block}.vertices" in capsys.readouterr().err


def _count_method_choices():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a for a in commands.choices["count"]._actions if a.dest == "method").choices


class TestSingleMethod:
    def test_method_choices_are_the_counter_table(self):
        assert list(_count_method_choices()) == [*COUNTERS, "all"]

    @pytest.mark.parametrize("name", list(COUNTERS))
    @pytest.mark.parametrize("payload", [K2_STANDARD, LOOP_VERTEX, TABLE_INSTANCE])
    def test_matches_the_all_report(self, name, payload, tmp_path, capsys):
        path = write(tmp_path, payload)
        assert main(["count", path, "--method", "all", "--json"]) == 0
        everything = json.loads(capsys.readouterr().out)
        assert main(["count", path, "--method", name, "--json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert single["value"] == everything[name]["value"]
        assert single["stats"] == everything[name]["stats"]


class TestSharedParser:
    """``main`` parses with one parser per process, built on its first call;
    ``build_parser`` stays the constructor of a fresh one."""

    @staticmethod
    def run(calls, capsys, fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:  # usage errors and --help
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_calls_print_what_a_fresh_parser_prints(self, tmp_path, capsys):
        path = write(tmp_path, DIGON)
        calls = [
            ["count"],
            ["count", "--help"],
            ["count", path, "--json"],
            ["poly", path, "--chromatic", "--zero-free", "--json"],
            ["verify", "--count", "1", "--json"],
        ]
        cli._parser.cache_clear()
        shared = self.run(calls + calls, capsys, fresh=False)
        fresh = self.run(calls, capsys, fresh=True)
        assert shared == fresh + fresh
        assert [code for code, _, _ in fresh] == [EXIT_PARSE, 0, 0, 0, 0]
        assert fresh[0][2].startswith("usage: gainchroma count")
        assert fresh[1][1].startswith("usage: gainchroma count")

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        built = []

        def counted():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(5):
                assert main(["setcolor", "--vertices", "2", "--edges", "0-1", "--k", "1"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert capsys.readouterr().out.count("set colorations with k=1: 2\n") == 5

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        import os
        import subprocess
        import sys

        import gainchroma

        src = os.path.dirname(os.path.dirname(gainchroma.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)

        def run(*argv):
            # development mode reports an unclosed file as a ResourceWarning
            return subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "gainchroma", *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )

        done = run("count", write(tmp_path, DIGON), "--json")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert json.loads(done.stdout)["agree"] is True
        done = run("count", str(tmp_path / "missing.json"))
        assert done.returncode == EXIT_PARSE
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


# Small instance documents for fuzzing: well-formed blocks with small sizes,
# each value replaced by arbitrary JSON one time in ten.
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.floats(allow_nan=True), st.text(max_size=3)
)
_junk = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _or_junk(valid):
    return st.integers(0, 9).flatmap(lambda roll: _junk if roll == 9 else valid)


# group and action tables: mostly valid ones, sometimes random rows
_known_tables = st.sampled_from([[[0]], [[0, 1], [1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], [[0, 1], [1, 1]], [[0, 0, 0]]])
_random_rows = st.lists(st.lists(_or_junk(st.integers(0, 3)), max_size=4), max_size=4)
_tables = st.integers(0, 3).flatmap(lambda roll: _random_rows if roll == 3 else _known_tables)
_group = _or_junk(
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("cyclic"), "n": _or_junk(st.integers(1, 4))}),
        st.fixed_dictionaries({"kind": st.just("symmetric"), "d": _or_junk(st.integers(1, 3))}),
        st.fixed_dictionaries({"kind": st.just("table"), "mul": _or_junk(_tables)}),
    )
)
_spin = _or_junk(
    st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["regular", "subsets"])}),
        st.fixed_dictionaries({"kind": st.just("trivial"), "size": _or_junk(st.integers(1, 3))}),
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["standard_colors", "zero_free"]), "k": _or_junk(st.integers(0, 2))}
        ),
        st.fixed_dictionaries({"kind": st.just("table"), "act": _or_junk(_tables)}),
    )
)


def _block(label):
    end = _or_junk(st.integers(0, 4))
    edge = _or_junk(st.tuples(end, end, _or_junk(label)).map(list))
    return _or_junk(
        st.fixed_dictionaries(
            {"vertices": _or_junk(st.integers(0, 5))}, optional={"edges": _or_junk(st.lists(edge, max_size=6))}
        )
    )


_document = _or_junk(
    st.fixed_dictionaries(
        {"group": _group, "graph": _block(st.integers(0, 2)), "spins": _or_junk(st.lists(_spin, min_size=1, max_size=3))},
        optional={"signed_graph": _block(st.sampled_from(["+", "-", "−", "x"])), "comment": _junk},
    )
)
_TOKENS = ['{', '}', '[', ']', ',', ':', '"group"', '"kind"', '"cyclic"', '"n"', '"graph"', '"vertices"',
           '"edges"', '"spins"', '"regular"', '1', '-1', '0', 'null', 'true', '1e999', '[' * 40]
_commands = st.sampled_from(
    [
        ["count", "--json"],
        ["count", "--method", "mobius"],
        ["count", "--mults", "2,0"],
        ["poly", "--chromatic", "--zero-free", "--graph-chromatic"],
        ["poly", "--parts", "1", "--json"],
        ["holonomy", "--json"],
        ["holonomy", "--edges", "0,1"],
        ["potts"],
    ]
)
_fuzz = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestFuzz:
    @given(_document)
    @_fuzz
    def test_parse_instance_raises_only_parse_and_bound_errors(self, document):
        try:
            parse_instance(json.dumps(document))
        except (InstanceError, BoundExceeded):
            pass

    @given(st.one_of(st.text(max_size=30), st.lists(st.sampled_from(_TOKENS), max_size=20).map("".join)))
    @_fuzz
    def test_parse_instance_on_arbitrary_text(self, text):
        try:
            parse_instance(text)
        except (InstanceError, BoundExceeded):
            pass

    @given(_document, _commands)
    @_fuzz
    def test_every_document_ends_in_exit_0_2_or_3(self, tmp_path, capsys, document, argv):
        path = write(tmp_path, document)
        code = main([argv[0], path, *argv[1:]])
        err = capsys.readouterr().err
        assert code in (0, EXIT_PARSE, EXIT_BOUND), err
        assert "Traceback" not in err
        assert (code == 0) == (err == ""), err
