from __future__ import annotations

import json
from fractions import Fraction

import pytest

from ccg import CoalitionalGame, Partition, coalition_utility, as_profile
from ccg.errors import GameFileError
from ccg.gamefile import dumps_game, game_to_dict, load_game_file, loads_game
from ccg.instances import no_ne_overlap_fixture, no_ne_triple_fixture


def test_round_trip_simple(triple_game):
    partition = Partition.from_one_based([[1, 2, 3], [4]])
    text = dumps_game(triple_game, partition)
    game2, partition2 = loads_game(text)
    assert game2 == triple_game
    assert partition2 == partition


def test_round_trip_subset_strategies(overlap_game):
    partition = Partition.from_one_based([[1, 2], [3]])
    game2, partition2 = loads_game(dumps_game(overlap_game, partition))
    assert game2 == overlap_game
    assert partition2 == partition


def test_reread_utilities_bit_identical(overlap_game):
    partition = Partition.from_one_based([[1, 2], [3]])
    game2, partition2 = loads_game(dumps_game(overlap_game, partition))
    cg1 = CoalitionalGame(overlap_game, partition)
    cg2 = CoalitionalGame(game2, partition2)
    s1 = as_profile(overlap_game, [("A", "B"), ("A", "C"), ("B", "C")])
    s2 = as_profile(game2, [("A", "B"), ("A", "C"), ("B", "C")])
    for k in range(2):
        assert coalition_utility(cg1, s1, k) == coalition_utility(cg2, s2, k)


def test_emission_is_deterministic(triple_game):
    partition = Partition.from_one_based([[4], [1, 2, 3]])
    assert dumps_game(triple_game, partition) == dumps_game(triple_game, partition)
    obj = game_to_dict(triple_game, partition)
    assert list(obj) == ["resources", "players", "costs", "strategies", "partition"]
    assert obj["resources"] == sorted(obj["resources"])
    assert obj["partition"] == [[1, 2, 3], [4]]


def test_rational_strings():
    game, _ = loads_game(
        json.dumps(
            {
                "resources": ["A"],
                "players": 2,
                "costs": {"A": ["1/3", "2/3"]},
                "strategies": "simple",
                "partition": [[1], [2]],
            }
        )
    )
    assert game.costs["A"].values == (Fraction(1, 3), Fraction(2, 3))


def test_fraction_emission():
    fx = no_ne_overlap_fixture()
    obj = game_to_dict(fx.game, fx.partition)
    assert obj["costs"]["A"] == [0, 3, 4]
    assert obj["strategies"]["1"] == [["A", "B"], ["A", "C"], ["B", "C"]]


def test_floats_rejected():
    with pytest.raises(GameFileError, match="floats"):
        loads_game(
            json.dumps(
                {
                    "resources": ["A"],
                    "players": 1,
                    "costs": {"A": [0.5]},
                    "strategies": "simple",
                    "partition": [[1]],
                }
            )
        )


@pytest.mark.parametrize("key", ["resources", "players", "costs", "strategies", "partition"])
def test_missing_keys(key):
    obj = game_to_dict(no_ne_triple_fixture().game, Partition.from_one_based([[1, 2, 3], [4]]))
    del obj[key]
    with pytest.raises(GameFileError, match="missing"):
        loads_game(json.dumps(obj))


def test_bad_partition_rejected():
    obj = game_to_dict(no_ne_triple_fixture().game, Partition.from_one_based([[1, 2, 3], [4]]))
    obj["partition"] = [[1, 2], [2, 3, 4]]
    with pytest.raises(GameFileError):
        loads_game(json.dumps(obj))


@pytest.mark.parametrize("partition", [[[2.7], [True]], [[1], [2.0]], [[True], [2]], [["1"], [2]]])
def test_partition_ids_must_be_integers(partition):
    obj = {
        "resources": ["A"],
        "players": 2,
        "costs": {"A": [0, 1]},
        "strategies": "simple",
        "partition": partition,
    }
    with pytest.raises(GameFileError, match="'partition'"):
        loads_game(json.dumps(obj))


def test_invalid_json():
    with pytest.raises(GameFileError, match="invalid JSON"):
        loads_game("{")


def test_missing_file(tmp_path):
    with pytest.raises(GameFileError):
        load_game_file(tmp_path / "missing.json")


def test_strategies_map_must_cover_all_agents():
    obj = {
        "resources": ["A"],
        "players": 2,
        "costs": {"A": [0, 0]},
        "strategies": {"1": [["A"]]},
        "partition": [[1], [2]],
    }
    with pytest.raises(GameFileError, match="sub-agent 2"):
        loads_game(json.dumps(obj))


def test_file_round_trip(tmp_path, triple_game):
    partition = Partition.from_one_based([[1, 2], [3, 4]])
    path = tmp_path / "game.json"
    path.write_text(dumps_game(triple_game, partition))
    game2, partition2 = load_game_file(path)
    assert (game2, partition2) == (triple_game, partition)
