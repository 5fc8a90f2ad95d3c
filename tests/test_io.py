from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ccg import (
    CoalitionalGame,
    CongestionGame,
    CostTable,
    Partition,
    PotentialTable,
    as_profile,
    coalition_utility,
    check_linearity_equivalence,
    enumerate_pure_ne,
    underlying_pure_ne,
)
from ccg.errors import GameFileError
from ccg.gamefile import (
    dumps_game,
    dumps_json,
    game_to_dict,
    grid_columns,
    listing_columns,
    load_game_file,
    loads_game,
)
from ccg.rationals import as_fraction, format_rational, format_scaled
from ccg.instances import no_ne_overlap_fixture, no_ne_triple_fixture, random_game


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
    assert obj["resources"] == list(triple_game.resources)
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


TOKEN_PIECES = ["", "-", "+", " ", "\t", "_", ".", "/", "e", "0", "00", "1", "7", "12", "\u0663", "\u00b2"]

cost_tokens = st.one_of(
    st.lists(st.sampled_from(TOKEN_PIECES), max_size=6).map("".join),
    st.builds(
        "{}{}/{}".format,
        st.sampled_from(["", "-", "+"]),
        st.integers(0, 10**30),
        st.integers(0, 99),
    ),
    st.integers(-50, 50),
)


def as_fraction_table(tokens) -> CostTable | str:
    """The table `as_fraction` reads from `tokens`, or the loader's message
    for the first token it refuses."""
    values = []
    for j, token in enumerate(tokens, 1):
        try:
            values.append(as_fraction(token))
        except GameFileError as exc:
            return f"costs[A][{j}]: {exc}"
    return CostTable(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(cost_tokens, min_size=1, max_size=4))
@example(["1/0"])
@example(["-0/5", "1/00"])
@example([" 1/2", "+1/2", "1_0/3"])
@example(["1.5", "1/2", "\u0663/\u0664"])
@example(["\u00b2/3"])
@example(["-/3"])
@example(["3/-4"])
@example(["007/010", "-12/18"])
@example(["1" * 5000 + "/3"])
def test_cost_tokens_read_as_as_fraction_reads_them(tokens):
    """Cost tokens "p/q" of ASCII digits are read as integers, not through
    `Fraction(str)`; values, refusals and messages stay `as_fraction`'s."""
    text = json.dumps(
        {"resources": ["A"], "players": 1, "costs": {"A": tokens}, "strategies": "simple", "partition": [[1]]}
    )
    try:
        table = loads_game(text)[0].costs["A"]
    except GameFileError as exc:
        table = str(exc)
    expected = as_fraction_table(tokens)
    assert table == expected
    if isinstance(expected, CostTable):
        assert table.values == expected.values


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


@pytest.mark.parametrize(
    "partition, ids",
    [([[1, 2], [2, 3, 4]], "[1, 2, 2, 3, 4]"), ([[1, 1], [3, 4]], "[1, 1, 3, 4]"), ([[1, 3], [4, 5]], "[1, 3, 4, 5]")],
)
def test_bad_partition_rejected(partition, ids):
    # the message names the file's 1-based ids, not the library's 0-based ones
    obj = game_to_dict(no_ne_triple_fixture().game, Partition.from_one_based([[1, 2, 3], [4]]))
    obj["partition"] = partition
    with pytest.raises(GameFileError, match=re.escape(f"each sub-agent id from 1 to 4 once, got {ids}")):
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
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(GameFileError, match=f"^cannot read {re.escape(str(path))}"):
            load_game_file(path)


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


@pytest.mark.parametrize(
    "key, named", [("3", "'3'"), ("x", "'x'"), ("0", "'0'"), ("01", "'01'"), (" 1", "' 1'")]
)
def test_strategies_map_refuses_keys_that_are_not_sub_agents(key, named):
    # every sub-agent has its entry; the extra key names no sub-agent
    obj = {
        "resources": ["A"],
        "players": 2,
        "costs": {"A": [0, 0]},
        "strategies": {"1": [["A"]], "2": [["A"]], key: [["A"]]},
        "partition": [[1], [2]],
    }
    with pytest.raises(GameFileError, match=f"'strategies' key {named} is not a sub-agent id from 1 to 2"):
        loads_game(json.dumps(obj))


def test_round_trip_keeps_the_resource_order():
    """Resource order is the game's tie-break and canonical order: R1..R30
    must not come back sorted as strings (R1, R10, R11, ...)."""
    game = random_game(1, 3, 30, "monotone")
    game2, _ = loads_game(dumps_game(game, Partition.discrete(3)))
    assert game2.resources == game.resources == tuple(f"R{i}" for i in range(1, 31))
    assert game2 == game
    assert underlying_pure_ne(game2).profile == underlying_pure_ne(game).profile


def test_file_round_trip(tmp_path, triple_game):
    partition = Partition.from_one_based([[1, 2], [3, 4]])
    path = tmp_path / "game.json"
    path.write_text(dumps_game(triple_game, partition))
    game2, partition2 = load_game_file(path)
    assert (game2, partition2) == (triple_game, partition)


# ---------------------------------------------------------------------------
# The one JSON writer

_escapes = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀"])
_strings = st.lists(st.text(max_size=6) | _escapes, max_size=3).map("".join)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _strings
)
_keys = _strings | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)
_json_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_strings, children, max_size=4)
    | st.dictionaries(_keys, children, max_size=3),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_dumps_json_equals_stdlib_indent_2(value):
    assert dumps_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        {}, [], (), "", 0, -1, 10**100, True, None, 1.5, {"a": {}, "b": [[], {}]},
        -0.0, 1e-07, 1e16, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
        [[], {}, ()], {"timing": {"seconds": 0.000728}, "witnesses": []},
    ],
)
def test_dumps_json_edge_values(value):
    assert dumps_json(value) == json.dumps(value, indent=2)


_labels = st.lists(
    st.text(max_size=3) | st.sampled_from(['"', "\\", ",", "é", "😀", '\\"', "a,b", ", "]),
    max_size=3,
).map("".join)


@st.composite
def _grids(draw):
    """A potential table of 1-4 players with 1-5 labels each, and its rows."""
    labels = draw(st.lists(st.lists(_labels, min_size=1, max_size=5).map(tuple), min_size=1, max_size=4))
    scale = draw(st.sampled_from([1, 12, 1_000_003, 2**61 - 1]))
    value = st.integers(-(10**20), 10**20) | st.integers(-50, 50).map(lambda m: m * scale)
    flat = draw(st.lists(value, min_size=math.prod(map(len, labels)), max_size=math.prod(map(len, labels))))
    grid = PotentialTable(tuple(labels), tuple(flat), scale)
    rows = [
        {"profile": list(profile), "value": format_scaled(v, scale)}
        for profile, v in zip(itertools.product(*labels), flat)
    ]
    return grid, rows


_nestings = [
    lambda t: t,
    lambda t: [t],
    lambda t: {"traces": {"linearity": [], "potential_table": t}},
    lambda t: {"a": [1, {"b": [t, None]}], "c": t},
]


@settings(max_examples=150, deadline=None)
@given(_grids(), st.sampled_from(_nestings))
def test_dumps_json_writes_a_grid_as_its_rows(grid_rows, nest):
    grid, rows = grid_rows
    assert dumps_json(nest(grid)) == json.dumps(nest(rows), indent=2)
    assert list(zip(*grid_columns(grid))) == [(tuple(r["profile"]), r["value"]) for r in rows]
    assert list(zip(*grid_columns(rows))) == [(r["profile"], r["value"]) for r in rows]


def _escaped_game() -> CongestionGame:
    """Resource ids the writer must escape, with one- and two-resource
    choices and sub-agents 1 and 2 on different strategy sets."""
    q, b, e = '"', "\\", "é"
    sets = (((q,), (q, b), (e,)), ((q, b), (b, e)), ((q,), (b,), (e,)))
    return CongestionGame((q, b, e), {r: (1, 3, 4) for r in (q, b, e)}, sets)


def _split_choice_game() -> CongestionGame:
    """Sub-agent 1 plays R1 and R2 together or R12 alone; sub-agent 2 plays
    one of the three."""
    return CongestionGame(
        ("R1", "R2", "R12"),
        {"R1": (1, 5), "R2": (1, 5), "R12": (10, 20)},
        ((("R1", "R2"), ("R12",)), (("R1",), ("R2",), ("R12",))),
    )


_LISTINGS = {
    "simple pairs": (lambda: no_ne_triple_fixture().game, [[1, 2], [3, 4]]),
    "simple, none": (lambda: no_ne_triple_fixture().game, [[1, 2, 3], [4]]),
    "non-simple, one block": (lambda: no_ne_overlap_fixture().game, [[1, 2, 3]]),
    "non-simple, discrete": (lambda: no_ne_overlap_fixture().game, [[1], [2], [3]]),
    "escaped ids": (_escaped_game, [[1, 2], [3]]),
    "split choice": (_split_choice_game, [[1, 2]]),
}


@pytest.mark.parametrize("stop_after", [None, 1, 2])
@pytest.mark.parametrize("name", list(_LISTINGS))
def test_dumps_json_writes_a_listing_as_its_rows(name, stop_after):
    game, blocks = _LISTINGS[name]
    cg = CoalitionalGame(game(), Partition.from_one_based(blocks))
    report = enumerate_pure_ne(cg, stop_after=stop_after)
    rows = [
        {"profile": [[list(p.choices[i]) for i in block] for block in cg.blocks], "multiplicity": m}
        for p, m in zip(report.equilibria, report.multiplicities)
    ]
    assert bool(rows) == (name != "simple, none")
    for nest in _nestings:
        assert dumps_json(nest(report)) == json.dumps(nest(rows), indent=2)
    expected = [(r["profile"], r["multiplicity"]) for r in rows]
    assert [(json.loads(json.dumps(p)), m) for p, m in zip(*listing_columns(report))] == expected
    assert list(zip(*listing_columns(rows))) == expected


@pytest.mark.parametrize("name", list(_LISTINGS))
def test_results_carry_their_labels_and_blocks(name):
    """A potential table holds its players' strategy labels, from the closed
    form ("split choice" is affine) or the path table alike, and a listing
    its partition's blocks, so the writer needs nothing beside them."""
    game, blocks = _LISTINGS[name]
    cg = CoalitionalGame(game(), Partition.from_one_based(blocks))
    eq = check_linearity_equivalence(cg.base, cg.partition)
    assert eq.has_potential == (name not in ("simple, none", "escaped ids"))
    if eq.has_potential:
        assert eq.potential.table.strategies == eq.strategies
    assert enumerate_pure_ne(cg).blocks == cg.blocks


def test_dumps_game_is_written_by_dumps_json(triple_game):
    partition = Partition.from_one_based([[1, 2, 3], [4]])
    obj = game_to_dict(triple_game, partition)
    assert dumps_game(triple_game, partition) == json.dumps(obj, indent=2) + "\n"


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**12))
def test_format_scaled_equals_format_rational(numerator, scale):
    value = Fraction(numerator, scale)
    got = format_scaled(numerator, scale)
    assert got == format_rational(value)
    if value.denominator == 1:
        assert type(got) is int and got == value.numerator
    else:
        assert got == f"{value.numerator}/{value.denominator}"


@pytest.mark.parametrize(
    "numerator, scale, expected",
    [(0, 1, 0), (0, 7, 0), (-6, 3, -2), (-3, 6, "-1/2"), (4, 6, "2/3"), (84, 84, 1), (5, 1, 5)],
)
def test_format_scaled_cases(numerator, scale, expected):
    assert format_scaled(numerator, scale) == expected
