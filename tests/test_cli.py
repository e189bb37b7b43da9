import json

import pytest

from gainchroma import CountResult
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
