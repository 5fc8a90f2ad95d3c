from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import ccg.cli
import ccg.game
import ccg.instances
import ccg.potential
from ccg import CoalitionalGame, CongestionGame, NeReport, Partition, PureProfile, find_deviation
from ccg.cli import main, render_text
from ccg.game import validate_profile
from ccg.gamefile import dumps_json, load_game_file, write_game_file
from ccg.instances import (
    no_ne_overlap_fixture,
    no_ne_triple_fixture,
    parametric_two_resource_fixture,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def triple_file(tmp_path):
    fx = no_ne_triple_fixture()
    path = tmp_path / "triple.json"
    write_game_file(path, fx.game, fx.partition)
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    fx = no_ne_triple_fixture()
    path = tmp_path / "pairs.json"
    write_game_file(path, fx.game, Partition.from_one_based([[1, 2], [3, 4]]))
    return str(path)


@pytest.fixture
def linear_file(tmp_path):
    fx = parametric_two_resource_fixture((1, 2, 3), (2, 4, 6))
    path = tmp_path / "linear.json"
    write_game_file(path, fx.game, fx.partition)
    return str(path)


@pytest.fixture
def nonlinear_file(tmp_path):
    fx = parametric_two_resource_fixture((0, 12, 16), (0, 12, 16))
    path = tmp_path / "nonlinear.json"
    write_game_file(path, fx.game, fx.partition)
    return str(path)


@pytest.fixture
def split_choice_file(tmp_path):
    """Sub-agent 1 plays R1 and R2 together or R12 alone, sub-agent 2 one of
    the three, each alone: the equilibria put sub-agent 1 on R1 and R2."""
    path = tmp_path / "split.json"
    game = {
        "resources": ["R1", "R2", "R12"],
        "players": 2,
        "costs": {"R1": [1, 5], "R2": [1, 5], "R12": [10, 20]},
        "strategies": {"1": [["R1", "R2"], ["R12"]], "2": [["R1"], ["R2"], ["R12"]]},
        "partition": [[1], [2]],
    }
    path.write_text(json.dumps(game))
    return str(path)


@pytest.fixture
def one_letter_split_file(tmp_path):
    """As `split_choice_file`, over the one-letter resources A, B and AB:
    sub-agent 1 plays A and B together or AB alone."""
    path = tmp_path / "one_letter_split.json"
    game = {
        "resources": ["A", "B", "AB"],
        "players": 2,
        "costs": {"A": [1, 5], "B": [1, 5], "AB": [1, 20]},
        "strategies": {"1": [["A", "B"], ["AB"]], "2": [["A"], ["B"], ["AB"]]},
        "partition": [[1], [2]],
    }
    path.write_text(json.dumps(game))
    return str(path)


def run_json(capsys, *argv) -> tuple[dict, int]:
    code = main([*argv, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    return report, code


class TestSolve:
    def test_crossed_strategy_sets_report_a_playable_profile(self, capsys, tmp_path):
        # Agent 1 can only use B and agent 2 only A; sorting the block's
        # choices would hand agent 1 resource A.
        path = tmp_path / "crossed.json"
        path.write_text(
            json.dumps(
                {
                    "resources": ["A", "B"],
                    "players": 2,
                    "costs": {"A": [0, 1], "B": [0, 1]},
                    "strategies": {"1": [["B"]], "2": [["A"]]},
                    "partition": [[1, 2]],
                }
            )
        )
        report, code = run_json(capsys, "solve", str(path))
        assert code == 0
        game, partition = load_game_file(str(path))
        cg = CoalitionalGame(game, partition)
        [equilibrium] = report["traces"]["enumeration"]["equilibria"]
        assert equilibrium["profile"] == [[["B"], ["A"]]]
        s = PureProfile(tuple(tuple(c) for block in equilibrium["profile"] for c in block))
        validate_profile(game, s)
        assert find_deviation(cg, s) is None

    def test_brute_empty_set_exits_3(self, capsys, triple_file):
        report, code = run_json(capsys, "solve", triple_file)
        assert code == 3
        assert report["verdicts"] == {"method": "brute", "ne_found": False, "count": 0}

    def test_brute_finds_equilibria(self, capsys, pair_file):
        report, code = run_json(capsys, "solve", pair_file)
        assert code == 0
        assert report["verdicts"]["ne_found"]

    def test_constructive_method(self, capsys, pair_file):
        report, code = run_json(capsys, "solve", pair_file, "--method", "theorem1")
        assert code == 0
        trace = report["traces"]["solve"]
        assert trace["case"] == "distinct"
        assert trace["result"] == [[["A"], ["B"]], [["A"], ["B"]]]

    def test_text_labels_a_multi_resource_choice_as_matrix_does(self, capsys, split_choice_file):
        # joined with no separator, {R1, R2} would read as a resource named R1R2
        assert main(["solve", split_choice_file]) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "2 pure Nash equilibrium profile(s):",
            "  R1+R2 | R1  (x1)",
            "  R1+R2 | R2  (x1)",
        ]
        assert main(["matrix", split_choice_file]) == 0
        assert "R1+R2" in capsys.readouterr().out.splitlines()[1]

    def test_one_letter_choices_label_apart(self, capsys, one_letter_split_file):
        # {A, B} is A+B, never AB, the label of the resource AB
        assert main(["solve", one_letter_split_file]) == 0
        assert capsys.readouterr().out.splitlines()[1:4] == ["  A+B | AB  (x1)", "  AB | A  (x1)", "  AB | B  (x1)"]
        report, code = run_json(capsys, "potential", one_letter_split_file)
        assert code == 0
        assert [row["profile"] for row in report["traces"]["potential_table"]][2:4] == [["A+B", "AB"], ["AB", "A"]]
        report, code = run_json(capsys, "matrix", one_letter_split_file)
        assert code == 0
        assert report["traces"]["matrix"]["rows"] == ["A+B", "AB"]
        assert report["traces"]["matrix"]["cols"] == ["A", "B", "AB"]

    def test_constructive_method_text_labels_choices(self, capsys, tmp_path):
        path = tmp_path / "r12.json"
        game = CongestionGame.simple(("R1", "R2"), {"R1": (1, 2, 3, 4), "R2": (1, 2, 3, 4)})
        write_game_file(path, game, Partition.from_one_based([[1, 2], [3, 4]]))
        report, code = run_json(capsys, "solve", str(path), "--method", "theorem1")
        assert code == 0
        assert main(["solve", str(path), "--method", "theorem1"]) == 0
        result = " | ".join(",".join(c for [c] in block) for block in report["traces"]["solve"]["result"])
        assert capsys.readouterr().out.splitlines()[0] == f"constructed equilibrium: {result}"

    def test_constructive_method_rejects_triple_block(self, capsys, triple_file):
        assert main(["solve", triple_file, "--method", "theorem1"]) == 4

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_directory_exits_2(self, capsys, tmp_path):
        assert main(["solve", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["solve", str(path)]) == 2
        assert "'utf-8' codec can't decode" in capsys.readouterr().err

    def test_invalid_game_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "resources": ["A"],
                    "players": 2,
                    "costs": {"A": [3, 1]},
                    "strategies": "simple",
                    "partition": [[1], [2]],
                }
            )
        )
        assert main(["solve", str(path)]) == 2

    @pytest.mark.parametrize("command", ["solve", "potential"])
    def test_unknown_strategies_key_exits_2(self, capsys, tmp_path, command):
        # an entry for a sub-agent 3 that this two-agent game does not have
        path = tmp_path / "extra.json"
        strategies = {"1": [["A"], ["B"]], "2": [["A"], ["B"]], "3": [["B"]]}
        path.write_text(json.dumps(
            {"resources": ["A", "B"], "players": 2, "costs": {"A": [1, 2], "B": [1, 3]},
             "strategies": strategies, "partition": [[1], [2]]}
        ))
        assert main([command, str(path)]) == 2
        assert "'strategies' key '3' is not a sub-agent id from 1 to 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "matrix"])
    @pytest.mark.parametrize("joined", ["A+B", "A,B", "A | B"])
    def test_resource_id_holding_a_label_separator_exits_2(self, capsys, tmp_path, command, joined):
        # labels join a choice's ids with "+" and a block's choices with ",",
        # so the resource "A+B" would be labelled as the choice {A, B}; text
        # reports join a profile's blocks with " | ", which "A | B" would split
        path = tmp_path / "joined.json"
        path.write_text(json.dumps(
            {"resources": ["A", "B", joined], "players": 2, "costs": {r: [1, 2] for r in ("A", "B", joined)},
             "strategies": {"1": [["A", "B"], [joined]], "2": [["A"], [joined]]}, "partition": [[1], [2]]}
        ))
        assert main([command, str(path)]) == 2
        assert "may not hold '+', ',' or '|'" in capsys.readouterr().err


class TestPotential:
    def test_linear_game_exits_0(self, capsys, linear_file):
        report, code = run_json(capsys, "potential", linear_file)
        assert code == 0
        assert report["verdicts"]["has_potential"]
        assert report["traces"]["potential_table"]

    def test_nonlinear_game_exits_3_with_witness(self, capsys, nonlinear_file):
        report, code = run_json(capsys, "potential", nonlinear_file)
        assert code == 3
        assert not report["verdicts"]["has_potential"]
        (witness,) = report["witnesses"]
        assert witness["residual"] == 8
        assert report["verdicts"]["equivalence"]["applicable"]
        assert report["verdicts"]["equivalence"]["consistent"]

    def test_discrete_partition_has_potential(self, capsys, tmp_path):
        fx = no_ne_triple_fixture()
        path = tmp_path / "discrete.json"
        write_game_file(path, fx.game, Partition.discrete(4))
        report, code = run_json(capsys, "potential", str(path))
        assert code == 0
        assert report["verdicts"]["has_potential"]

    def test_inapplicable_partition_shape_reported(self, capsys, tmp_path):
        # all singletons: no pair, so the equivalence does not bind, but the
        # game still has a potential despite nonlinear costs
        fx = no_ne_triple_fixture()
        path = tmp_path / "singles.json"
        write_game_file(path, fx.game, Partition.discrete(4))
        report, code = run_json(capsys, "potential", str(path))
        assert code == 0
        e = report["verdicts"]["equivalence"]
        assert e["applicable"] is False and e["consistent"] is None
        assert report["verdicts"]["has_potential"] and not report["verdicts"]["all_linear"]

    def test_non_simple_game_reports_linearity_without_equivalence(self, capsys, tmp_path):
        fx = no_ne_overlap_fixture()
        path = tmp_path / "overlap.json"
        write_game_file(path, fx.game, fx.partition)
        report, code = run_json(capsys, "potential", str(path))
        assert code == 3
        assert report["verdicts"]["equivalence"] is None
        assert {e["resource"] for e in report["traces"]["linearity"]} == {"A", "B", "C"}
        assert not report["verdicts"]["all_linear"]


class TestMatrix:
    def test_matrix_cells(self, capsys, triple_file):
        report, code = run_json(capsys, "matrix", triple_file)
        assert code == 0
        m = report["traces"]["matrix"]
        assert m["rows"] == ["A,A,A", "A,A,B", "A,B,B", "B,B,B"]
        assert m["cols"] == ["A", "B"]
        assert m["cells"][0][0] == [-54, -18]

    def test_requires_two_blocks(self, capsys, tmp_path):
        fx = no_ne_triple_fixture()
        path = tmp_path / "discrete.json"
        write_game_file(path, fx.game, Partition.discrete(4))
        assert main(["matrix", str(path)]) == 4

    def test_discrete_two_agent_game_is_ordinary_bimatrix(self, capsys, tmp_path):
        from ccg import CongestionGame

        g = CongestionGame.simple(("A", "B"), {"A": (1, 3), "B": (2, 4)})
        path = tmp_path / "bimatrix.json"
        write_game_file(path, g, Partition.discrete(2))
        report, code = run_json(capsys, "matrix", str(path))
        assert code == 0
        m = report["traces"]["matrix"]
        assert m["rows"] == ["A", "B"] and m["cols"] == ["A", "B"]
        assert m["cells"] == [[[-3, -3], [-1, -2]], [[-2, -1], [-4, -4]]]


class TestExamples:
    def test_all_pass(self, capsys):
        report, code = run_json(capsys, "examples", "--which", "all")
        assert code == 0
        assert report["verdicts"]["passed"]
        assert set(report["traces"]["fixtures"]) == {"2", "3", "4"}
        # the two expected discrepancies surface as witnesses
        cells = {tuple(w["cell"]) for w in report["witnesses"]}
        assert cells == {("A+B,A+B", "A+C"), ("A+C,A+C", "A+C")}

    @pytest.mark.parametrize("which", ["2", "3", "4"])
    def test_single_instance(self, capsys, which):
        report, code = run_json(capsys, "examples", "--which", which)
        assert code == 0
        assert set(report["traces"]["fixtures"]) == {which}


class TestGenerate:
    def test_emits_loadable_game(self, capsys, tmp_path):
        code = main(
            ["generate", "--players", "4", "--resources", "2", "--seed", "9", "--max-block", "2"]
        )
        assert code == 0
        text = capsys.readouterr().out
        from ccg.gamefile import loads_game

        game, partition = loads_game(text)
        assert game.n == 4
        assert partition.max_block_size <= 2

    def test_deterministic(self, capsys):
        main(["generate", "--players", "4", "--resources", "2", "--seed", "9"])
        first = capsys.readouterr().out
        main(["generate", "--players", "4", "--resources", "2", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "gen.json"
        report, code = run_json(
            capsys,
            "generate",
            "--players",
            "3",
            "--resources",
            "2",
            "--seed",
            "1",
            "--theorem2-shape",
            "--out",
            str(out),
        )
        assert code == 0 and out.exists()
        from ccg.gamefile import load_game_file

        _, partition = load_game_file(out)
        sizes = sorted(len(b) for b in partition.blocks)
        assert sizes == [1, 2]


    @pytest.mark.parametrize("target", [".", "missing/gen.json"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        argv = ["generate", "--players", "3", "--resources", "2", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path / target)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestExperiment:
    def test_pair_solver_sweep(self, capsys):
        report, code = run_json(
            capsys, "experiment", "theorem1", "--trials", "10", "--seed", "5"
        )
        assert code == 0
        assert report["verdicts"]["verified"] == 10
        assert report["verdicts"]["ne_nonempty"] == 10

    def test_linearity_sweep(self, capsys):
        report, code = run_json(
            capsys, "experiment", "theorem2", "--trials", "10", "--seed", "5"
        )
        assert code == 0
        confusion = report["verdicts"]["confusion"]
        assert confusion["linear+none"] == 0
        assert confusion["nonlinear+potential"] == 0

    def test_block_size_sweep_reports_injected_instance(self, capsys):
        report, code = run_json(
            capsys, "experiment", "pairs-vs-triples", "--trials", "3", "--seed", "5"
        )
        assert code == 0
        assert report["verdicts"]["injected_empty"]
        assert report["verdicts"]["empty_ne"] >= 1
        first = report["traces"]["counterexamples"][0]
        assert first["costs"]["A"] == [0, 12, 16, 18]

    def test_bad_trials_exit_2(self, capsys):
        assert main(["experiment", "theorem1", "--trials", "0", "--seed", "1"]) == 2

    @pytest.mark.parametrize(
        "kind, bound, value",
        [
            ("theorem1", "--max-players", "0"),
            ("theorem2", "--max-players", "2"),
            ("pairs-vs-triples", "--max-resources", "1"),
        ],
    )
    def test_bound_below_smallest_instance_exits_2(self, capsys, kind, bound, value):
        argv = ["experiment", kind, "--trials", "3", "--seed", "1", bound, value]
        assert main(argv) == 2
        assert "must be at least" in capsys.readouterr().err


class TestWorkDone:
    def test_potential_materializes_once(self, capsys, monkeypatch, tmp_path, linear_file, nonlinear_file):
        # affine costs: the closed form; non-affine costs: the first nonzero
        # deviation square on the kernel, or with none, as when every block
        # is a single agent, the path table from the same fibers. Neither
        # builds a utility table or runs the verification sweep.
        fx = parametric_two_resource_fixture((0, 12, 16), (0, 12, 16))
        discrete_file = str(tmp_path / "discrete.json")
        write_game_file(discrete_file, fx.game, Partition.discrete(fx.game.n))
        calls = dict.fromkeys(("materialize", "verify_exact_potential"), 0)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        # where each is defined, and every module that imports it
        for name, defined in (("materialize", ccg.game), ("verify_exact_potential", ccg.potential)):
            wrapper = counting(name, getattr(defined, name))
            for module in (ccg, ccg.cli, ccg.game, ccg.instances, ccg.potential):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        for path, code in ((linear_file, 0), (nonlinear_file, 3), (discrete_file, 0)):
            calls.update(dict.fromkeys(calls, 0))
            assert main(["potential", path]) == code
            assert calls == {"materialize": 0, "verify_exact_potential": 0}

    def test_theorem1_validates_the_game_once(self, capsys, monkeypatch, pair_file):
        # cli._load and solve_pair_ccg both require a valid game
        calls = []
        original = ccg.game.validate_game

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(ccg.game, "validate_game", counting)
        assert main(["solve", pair_file, "--method", "theorem1"]) == 0
        assert len(calls) == 1


class TestReportContract:
    def test_json_round_trips(self, capsys, pair_file):
        report, _ = run_json(capsys, "solve", pair_file)
        assert json.loads(json.dumps(report)) == report
        assert set(report) == {
            "command",
            "inputs",
            "input_digest",
            "verdicts",
            "witnesses",
            "traces",
            "timing",
        }

    def test_timing_is_the_last_key_of_every_report(self, capsys, pair_file):
        for argv in (
            ["solve", pair_file],
            ["solve", pair_file, "--method", "theorem1"],
            ["potential", pair_file],
            ["matrix", pair_file],
            ["examples", "--which", "2"],
            ["generate", "--players", "3", "--resources", "2", "--seed", "1"],
            ["experiment", "theorem1", "--trials", "1", "--seed", "1"],
        ):
            report, _ = run_json(capsys, *argv)
            assert list(report)[-1] == "timing"
            assert set(report["timing"]) == {"seconds"}

    def test_digest_pins_input_file(self, capsys, pair_file, triple_file):
        r1, _ = run_json(capsys, "solve", pair_file)
        r2, _ = run_json(capsys, "solve", triple_file)
        assert r1["input_digest"].startswith("sha256:")
        assert r1["input_digest"] != r2["input_digest"]

    def test_text_is_function_of_machine_report(self, capsys, nonlinear_file):
        report, _ = run_json(capsys, "potential", nonlinear_file)
        code = main(["potential", nonlinear_file])
        assert code == 3
        printed = capsys.readouterr().out.strip().splitlines()
        rendered = render_text(report).strip().splitlines()
        # the timing line reflects each run's own duration
        assert printed[:-1] == rendered[:-1]

    @pytest.mark.parametrize("name", ["t2_linear.json", "crossed.json"])
    def test_text_of_a_potential_table_is_function_of_machine_report(self, capsys, name):
        path = str(GOLDEN / name)
        report, _ = run_json(capsys, "potential", path)
        table = report["traces"]["potential_table"]
        assert table
        assert main(["potential", path]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        rendered = render_text(report).strip().splitlines()
        assert printed[:-1] == rendered[:-1]
        rows = [f"  {' | '.join(row['profile'])}: {row['value']}" for row in table]
        assert printed[1 : 1 + len(rows)] == rows

    def test_text_of_a_listing_reads_its_rows_as_from_a_parsed_report(self, split_choice_file, triple_file):
        # triple_file and fixture3.json have no equilibrium
        for path in (split_choice_file, triple_file, *(str(GOLDEN / n) for n in ("b1.json", "fixture3.json"))):
            args = ccg.cli._build_parser().parse_args(["solve", path])
            report, _ = args.func(args)
            report["timing"] = {"seconds": 0.5}
            assert type(report["traces"]["enumeration"]["equilibria"]) is NeReport
            assert render_text(report) == render_text(json.loads(dumps_json(report)))

    def test_threads_flag_does_not_change_output(self, capsys, pair_file):
        r1, _ = run_json(capsys, "solve", pair_file)
        r2, _ = run_json(capsys, "solve", pair_file, "--threads", "4")
        del r1["timing"], r2["timing"]
        assert r1 == r2

    def test_size_limit_env(self, capsys, pair_file, monkeypatch):
        monkeypatch.setenv("CCG_SIZE_LIMIT", "2")
        assert main(["solve", pair_file]) == 4
        monkeypatch.delenv("CCG_SIZE_LIMIT")
        assert main(["solve", pair_file]) == 0

    def test_size_limit_env_bounds_constructive_check(self, capsys, pair_file, monkeypatch):
        # a pair on two resources has C(3, 2) = 3 canonical strategies
        monkeypatch.setenv("CCG_SIZE_LIMIT", "2")
        assert main(["solve", pair_file, "--method", "theorem1"]) == 4
        assert "block 0 strategy space needs 3 entries, limit is 2" in capsys.readouterr().err
        monkeypatch.setenv("CCG_SIZE_LIMIT", "3")
        assert main(["solve", pair_file, "--method", "theorem1"]) == 0

    def test_size_limit_refuses_a_count_too_long_to_print(self, capsys, tmp_path, monkeypatch):
        # 3,000 agents on 40 resources: a profile count of over 4,300 digits
        monkeypatch.delenv("CCG_SIZE_LIMIT", raising=False)
        path = str(tmp_path / "g.json")
        assert main(["generate", "--players", "3000", "--resources", "40", "--seed", "1", "--max-block", "1",
                     "--out", path]) == 0
        capsys.readouterr()
        for command in ("solve", "potential"):
            assert main([command, path]) == 4
            err = capsys.readouterr().err
            assert re.search(r"needs a \d+-digit number of entries, limit is 10000000$", err.strip())
            assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_malformed_size_limit_env_exits_2(self, capsys, pair_file, monkeypatch, value):
        monkeypatch.setenv("CCG_SIZE_LIMIT", value)
        assert main(["solve", pair_file]) == 2
        assert "CCG_SIZE_LIMIT must be" in capsys.readouterr().err

    def test_digest_is_of_the_bytes_parsed(self, capsys, pair_file):
        import hashlib
        from pathlib import Path

        report, _ = run_json(capsys, "solve", pair_file)
        expected = "sha256:" + hashlib.sha256(Path(pair_file).read_bytes()).hexdigest()
        assert report["input_digest"] == expected


class TestRepeatedCalls:
    """`main` builds its parser once per process; later calls must behave
    exactly like a call in a fresh process."""

    @staticmethod
    def _calls(pair_file, bad_file):
        return [
            (["--format", "json", "solve", pair_file], {}),
            (["potential", pair_file], {}),
            (["solve", bad_file], {}),
            (["--threads", "0", "examples"], {}),
            (["solve", pair_file], {"CCG_SIZE_LIMIT": "2"}),
            (["--format", "json", "matrix", pair_file, "--threads", "3"], {}),
            (["generate", "--players", "3", "--resources", "2", "--seed", "1"], {}),
            (["experiment", "theorem1", "--trials", "0", "--seed", "1"], {}),
            (["--format", "json", "solve", pair_file], {}),
            (["--format", "xml", "solve", pair_file], {}),
            (["potential", pair_file, "--format", "json"], {}),
        ]

    @staticmethod
    def _run(capsys, monkeypatch, argv, env):
        with monkeypatch.context() as m:
            for key, value in env.items():
                m.setenv(key, value)
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        # the wall-clock timing is the only part that may differ
        out = re.sub(r'"seconds": [0-9.e-]+|\[[0-9.e-]+s\]', "<timing>", out)
        return code, out, err

    def test_sequence_matches_fresh_calls(self, capsys, monkeypatch, pair_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        calls = self._calls(pair_file, str(bad))
        alone = []
        for argv, env in calls:
            ccg.cli._build_parser.cache_clear()
            alone.append(self._run(capsys, monkeypatch, argv, env))
        ccg.cli._build_parser.cache_clear()
        together = [self._run(capsys, monkeypatch, argv, env) for argv, env in calls]
        assert ccg.cli._build_parser.cache_info().misses == 1
        assert together == alone
        assert [code for code, _, _ in together] == [0, 0, 2, 2, 4, 0, 0, 2, 0, 2, 0]
        assert "--threads must be at least 1" in together[3][2]
