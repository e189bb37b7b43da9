import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gainchroma import BoundExceeded, CountResult
from gainchroma import cli
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
        inst = parse_instance(
            json.dumps(
                {
                    "group": {"kind": "symmetric", "d": 3},
                    "spins": [{"kind": "subsets"}],
                    "graph": {"vertices": 1, "edges": []},
                }
            )
        )
        assert inst.group.order == 6
        assert inst.spins[0].size == 8

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

    def test_bound_exit(self, tmp_path, capsys):
        assert (
            main(["count", write(tmp_path, DIGON), "--method", "brute", "--max-states", "1"])
            == EXIT_BOUND
        )

    @pytest.mark.parametrize("bound", [[], ["--max-states", "1000"]])
    def test_elim_bound_exits_3_without_traceback(self, bound, tmp_path, capsys):
        k12 = {
            "group": {"kind": "symmetric", "d": 3},
            "spins": [{"kind": "standard_colors", "k": 1}],
            "graph": {"vertices": 12, "edges": [[u, v, (u + v) % 6] for u in range(12) for v in range(u + 1, 12)]},
        }
        assert main(["count", write(tmp_path, k12), "--method", "elim", *bound]) == EXIT_BOUND
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

    def test_long_cycle_counts_by_elim_and_delcon_exits_3(self, tmp_path, capsys):
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
        assert "Traceback" not in captured.err
        assert main(["count", path, "--method", "delcon"]) == EXIT_BOUND
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and f"{n} links" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_divergence_exit(self, tmp_path, capsys, monkeypatch):
        # a deliberately broken counter must trip the agreement gate
        import gainchroma.counting as counting

        def wrong(g, a, max_calls=10**6):
            return CountResult(12345, "delcon", {})

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

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, DIGON)
        main(["count", path])
        first = capsys.readouterr().out
        main(["count", path])
        second = capsys.readouterr().out
        assert first == second


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

    def test_zero_count_vacuous(self, capsys):
        code = main(["verify", "--seed", "1", "--count", "0"])
        assert code == 0

    def test_deterministic(self, capsys):
        main(["verify", "--seed", "3", "--count", "6"])
        first = capsys.readouterr().out
        main(["verify", "--seed", "3", "--count", "6"])
        second = capsys.readouterr().out
        assert first == second

    def test_mutation_is_caught(self, capsys, monkeypatch):
        # break the Möbius counter and require a reported counterexample
        import gainchroma.counting as counting

        original = counting.count_mobius

        def wrong(g, a, **kwargs):
            result = original(g, a, **kwargs)
            return CountResult(result.value + 1, "mobius", result.stats)

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
            return subprocess.run(
                [sys.executable, "-m", "gainchroma", *argv], capture_output=True, text=True, env=env, timeout=120
            )

        done = run("count", write(tmp_path, DIGON), "--json")
        assert done.returncode == 0, done.stderr
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
