from __future__ import annotations

import dataclasses
import inspect
from fractions import Fraction

import pytest

import ccg
from ccg import (
    CoalitionalGame,
    CongestionGame,
    CostTable,
    Partition,
    PureProfile,
    StrategicForm,
    as_profile,
    assemble_profile,
    build_potential_by_path,
    canonical_block_strategies,
    canonical_multiplicity,
    canonicalize,
    check_linearity_equivalence,
    coalition_best_response,
    coalition_utility,
    congestion,
    enumerate_pure_ne,
    evaluate_fixture,
    exact_potential,
    find_deviation,
    materialize,
    no_ne_triple_fixture,
    player_cost,
    private_congestion,
    validate_game,
)
from ccg.errors import (
    InvalidGameError,
    InvalidProfileError,
    PreconditionViolatedError,
    SizeLimitExceededError,
)
from ccg.game import compile_within_limit
from ccg.limits import effective_size_limit, ensure_within_limit

from oracle_helpers import (
    assert_kernel_matches_definition,
    fix_strategies_subgame,
    form_utilities,
    listed_block_layout,
)


class TestValidation:
    def test_reference_game_is_valid(self, triple_game):
        assert validate_game(triple_game) == ()

    def test_minimal_game_is_valid(self):
        g = CongestionGame.simple(("A",), {"A": (0,)})
        assert validate_game(g) == ()

    def test_decreasing_costs(self):
        g = CongestionGame.simple(("A",), {"A": (3, 1)})
        codes = [v.code for v in validate_game(g)]
        assert codes == ["DecreasingCost"]

    def test_negative_costs(self):
        g = CongestionGame.simple(("A",), {"A": (-1, 2)})
        codes = [v.code for v in validate_game(g)]
        assert "NegativeCost" in codes

    def test_unknown_resource_in_strategy(self):
        g = CongestionGame(("A",), {"A": (0, 0)}, ((("A",),), (("Z",),)))
        codes = [v.code for v in validate_game(g)]
        assert "UnknownResource" in codes

    def test_cost_length_mismatch(self):
        g = CongestionGame(("A",), {"A": (0,)}, ((("A",),), (("A",),)))
        codes = [v.code for v in validate_game(g)]
        assert "LengthMismatch" in codes

    def test_empty_strategy_set(self):
        g = CongestionGame(("A",), {"A": (0,)}, ((),))
        codes = [v.code for v in validate_game(g)]
        assert "EmptyStrategySet" in codes

    def test_duplicate_resources_rejected_at_construction(self):
        with pytest.raises(InvalidGameError):
            CongestionGame.simple(("A", "A"), {"A": (0,)})

    def test_shared_and_fresh_strategy_sets_store_the_same(self):
        costs = {"A": (0, 1, 2), "B": (0, 1, 2)}
        shared = [["B", "A"], "A"]
        fresh = CongestionGame(("A", "B"), costs, tuple([["B", "A"], "A"] for _ in range(3)))
        assert CongestionGame(("A", "B"), costs, (shared,) * 3).strategy_sets == fresh.strategy_sets
        assert fresh.strategy_sets == ((("A", "B"), ("A",)),) * 3
        # sets freed as soon as they are read (so their ids come round again)
        # still normalize one by one
        sets = ([r] for r in "BABA")
        assert CongestionGame(("A", "B"), costs, sets).strategy_sets == ((("B",),), (("A",),)) * 2


_SINGLES = (("A",), ("B",))

# Games two sub-agents cannot be compiled for, with the violation each keeps.
BROKEN_GAMES = {
    "missing cost table": (CongestionGame(("A", "B"), {"A": (0, 1)}, (_SINGLES,) * 2), "LengthMismatch"),
    "short cost table": (CongestionGame(("A", "B"), {"A": (0, 1), "B": (2,)}, (_SINGLES,) * 2), "LengthMismatch"),
    "unknown resource": (CongestionGame(("A",), {"A": (0, 1)}, ((("A",),), (("A",), ("Z",)))), "UnknownResource"),
    "empty strategy set": (CongestionGame(("A",), {"A": (0, 1)}, ((("A",),), ())), "EmptyStrategySet"),
}

COMPILING_ENTRY_POINTS = {
    "assemble_profile": lambda cg: assemble_profile(cg, [(("A",),) * len(block) for block in cg.blocks]),
    "canonical_block_strategies": lambda cg: canonical_block_strategies(cg, 0),
    "check_linearity_equivalence": lambda cg: check_linearity_equivalence(cg.base, cg.partition),
    "enumerate_pure_ne": enumerate_pure_ne,
    "materialize": materialize,
    "find_deviation": lambda cg: find_deviation(cg, PureProfile((("A",), ("A",)))),
}


class TestCompileRefusal:
    @pytest.mark.parametrize("entry", sorted(COMPILING_ENTRY_POINTS))
    @pytest.mark.parametrize("defect", sorted(BROKEN_GAMES))
    def test_structurally_broken_game_is_refused(self, defect, entry):
        g, code = BROKEN_GAMES[defect]
        assert code in {v.code for v in validate_game(g)}
        for blocks in ([[1], [2]], [[1, 2]]):
            with pytest.raises(InvalidGameError, match=f"^{code} at "):
                COMPILING_ENTRY_POINTS[entry](CoalitionalGame(g, Partition.from_one_based(blocks)))

    @pytest.mark.parametrize("entry", sorted(COMPILING_ENTRY_POINTS))
    def test_negative_and_decreasing_costs_compile(self, entry):
        g = CongestionGame.simple(("A", "B"), {"A": (-1, 2), "B": (3, "1/2")})
        assert {v.code for v in validate_game(g)} == {"NegativeCost", "DecreasingCost"}
        COMPILING_ENTRY_POINTS[entry](CoalitionalGame(g, Partition.discrete(2)))


class TestPartition:
    def test_normalization(self):
        p = Partition.from_one_based([[4], [2, 3, 1]])
        assert p.blocks == ((0, 1, 2), (3,))

    def test_overlap_rejected(self):
        with pytest.raises(InvalidGameError):
            Partition.from_one_based([[1, 2], [2, 3]])

    def test_coverage_checked_against_game(self, triple_game):
        with pytest.raises(InvalidGameError):
            CoalitionalGame(triple_game, Partition.from_one_based([[1, 2], [3]]))

    def test_discrete(self):
        assert Partition.discrete(3).blocks == ((0,), (1,), (2,))

    def test_members_must_be_integers(self):
        for blocks, bad in [
            (((0.7, 1.2),), "0.7"),
            ((("1", "0"),), "'1'"),
            (((0, True),), "True"),
            (((1, 0), (2.0,)), "2.0"),
        ]:
            with pytest.raises(InvalidGameError, match=f"sub-agent index {bad} is not an integer"):
                Partition(blocks)
        # each block is read once, so generators work
        assert Partition((iter(b) for b in [(3, 1), (0, 2)])).blocks == ((0, 2), (1, 3))

    def test_one_based_members_checked_before_shifting(self):
        # "1" - 1 would be a TypeError, and True - 1 the integer 0
        for blocks, bad in [([["1", "2"]], "'1'"), ([[True, 2]], "True"), ([[1], [2.0]], "2.0")]:
            with pytest.raises(InvalidGameError, match=f"sub-agent index {bad} is not an integer"):
                Partition.from_one_based(blocks)
        assert Partition.from_one_based(iter(b) for b in [[4, 2], [1, 3]]).blocks == ((0, 2), (1, 3))


class TestCongestion:
    def test_counts(self, triple_game):
        c = congestion(triple_game, as_profile(triple_game, ["A", "A", "B", "A"]))
        assert c.as_dict() == {"A": 3, "B": 1}

    def test_subset_counts(self, overlap_game):
        s = as_profile(overlap_game, [("A", "B"), ("A", "C"), ("B", "C")])
        assert congestion(overlap_game, s).as_dict() == {"A": 2, "B": 2, "C": 2}

    def test_degenerate_profile(self, triple_game):
        c = congestion(triple_game, as_profile(triple_game, ["A"] * 4))
        assert c.as_dict() == {"A": 4, "B": 0}

    def test_invalid_profile(self, triple_game):
        with pytest.raises(InvalidProfileError):
            congestion(triple_game, as_profile(triple_game, ["A", "A", "B"]))


def test_trusted_profile_constructor_matches_the_public_one(overlap_game):
    # of_tuples sets `choices` alone, so it must be PureProfile's only field
    assert [f.name for f in dataclasses.fields(PureProfile)] == ["choices"]
    s = as_profile(overlap_game, [("A", "B"), "C", ("B", "C")])
    again = PureProfile.of_tuples(s.choices)
    assert again == s and hash(again) == hash(s) and again.choices is s.choices


class TestPlayerCost:
    def test_shared_resource(self, triple_game):
        s = as_profile(triple_game, ["A", "A", "B", "A"])
        assert player_cost(triple_game, s, 0) == 16

    def test_alone_with_zero_cost(self, triple_game):
        s = as_profile(triple_game, ["A", "A", "A", "B"])
        assert player_cost(triple_game, s, 3) == 0

    def test_subset_strategy(self, overlap_game):
        s = as_profile(overlap_game, [("A", "B"), ("A", "C"), ("B", "C")])
        assert player_cost(overlap_game, s, 2) == 6


class TestCoalitionBookkeeping:
    def test_private_congestion(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "A", "B", "B"])
        assert private_congestion(triple_ccg, s, 0).as_dict() == {"A": 2, "B": 1}

    def test_singleton_private_vector_is_indicator(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "A", "B", "B"])
        assert private_congestion(triple_ccg, s, 1).as_dict() == {"A": 0, "B": 1}

    def test_pair_on_same_resource(self, pair_ccg):
        s = as_profile(pair_ccg.base, ["A", "A", "B", "B"])
        assert private_congestion(pair_ccg, s, 0).as_dict() == {"A": 2, "B": 0}

    def test_coalition_utilities(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "A", "B", "B"])
        assert coalition_utility(triple_ccg, s, 0) == -36
        assert coalition_utility(triple_ccg, s, 1) == -12

    def test_subset_coalition_utilities(self, overlap_ccg):
        s = as_profile(overlap_ccg.base, [("A", "B"), ("A", "B"), ("A", "B")])
        assert coalition_utility(overlap_ccg, s, 0) == -16
        assert coalition_utility(overlap_ccg, s, 1) == -8

    def test_utilities_sum_to_total(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "B", "B", "A"])
        total = sum(coalition_utility(triple_ccg, s, k) for k in range(2))
        costs = sum(player_cost(triple_ccg.base, s, i) for i in range(4))
        assert total == -costs


class TestCanonicalize:
    def test_sorts_within_block(self, pair_ccg):
        s = as_profile(pair_ccg.base, ["B", "A", "B", "A"])
        assert canonicalize(pair_ccg, s).choices == (("A",), ("B",), ("A",), ("B",))

    def test_idempotent(self, pair_ccg):
        s = as_profile(pair_ccg.base, ["A", "B", "A", "B"])
        assert canonicalize(pair_ccg, s) == s

    def test_triple_block(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["B", "A", "A", "B"])
        assert canonicalize(triple_ccg, s).choices[:3] == (("A",), ("A",), ("B",))

    def test_utility_invariance(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["B", "A", "A", "B"])
        canon = canonicalize(triple_ccg, s)
        for k in range(2):
            assert coalition_utility(triple_ccg, s, k) == coalition_utility(triple_ccg, canon, k)

    def test_multiplicity(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "A", "B", "B"])
        # (A,A,B) has 3 distinct arrangements, the singleton only one.
        assert canonical_multiplicity(triple_ccg, s) == 3

    def test_unplayable_profiles_and_tuples_refused(self):
        # sub-agent 1 holds [A] and sub-agent 2 [B, C]: no order of (A, A) is playable, and
        # (B, A) is an order of the block's strategy (A, B) that neither member can play
        g = CongestionGame(tuple("ABC"), {r: (1, 2, 3) for r in "ABC"}, [["A"], ["B", "C"], ["C"]])
        cg = CoalitionalGame(g, Partition.from_one_based([[1, 2], [3]]))
        s = as_profile(g, ["B", "A", "C"])
        for unplayable in (canonicalize, canonical_multiplicity):
            with pytest.raises(InvalidProfileError, match="sub-agent 0 cannot play"):
                unplayable(cg, s)
        with pytest.raises(PreconditionViolatedError, match="block 0 cannot play"):
            assemble_profile(cg, [(("A",), ("A",)), (("C",),)])
        played = assemble_profile(cg, [(("B",), ("A",)), (("C",),)])
        assert played.choices == (("A",), ("B",), ("C",))
        assert canonicalize(cg, played) == played and canonical_multiplicity(cg, played) == 1


class TestMaterialize:
    def test_two_block_shape(self, triple_ccg):
        sf = materialize(triple_ccg)
        assert sf.strategies[0] == ("A,A,A", "A,A,B", "A,B,B", "B,B,B")
        assert sf.strategies[1] == ("A", "B")

    def test_spot_cells(self, triple_ccg):
        sf = materialize(triple_ccg)
        rows = {label: i for i, label in enumerate(sf.strategies[0])}
        assert form_utilities(sf)[(rows["A,A,A"], 0)] == (Fraction(-54), Fraction(-18))
        assert form_utilities(sf)[(rows["A,B,B"], 0)] == (Fraction(-36), Fraction(-12))

    def test_matches_per_block_utility(self, overlap_ccg):
        sf = materialize(overlap_ccg)
        from ccg import assemble_profile, canonical_block_strategies

        strats = [canonical_block_strategies(overlap_ccg, k) for k in range(2)]
        for idx, values in form_utilities(sf).items():
            profile = assemble_profile(overlap_ccg, [strats[k][i] for k, i in enumerate(idx)])
            for k in range(2):
                assert values[k] == coalition_utility(overlap_ccg, profile, k)

    def test_discrete_partition_reproduces_player_utilities(self, triple_game):
        cg = CoalitionalGame(triple_game, Partition.discrete(4))
        sf = materialize(cg)
        assert all(s == ("A", "B") for s in sf.strategies)
        for idx, values in form_utilities(sf).items():
            profile = as_profile(triple_game, [sf.strategies[i][si] for i, si in enumerate(idx)])
            for i in range(4):
                assert values[i] == -player_cost(triple_game, profile, i)

    def test_size_limit(self, triple_ccg, monkeypatch):
        monkeypatch.setenv("CCG_SIZE_LIMIT", "3")
        with pytest.raises(SizeLimitExceededError):
            materialize(triple_ccg)

    def test_mixed_denominators_share_one_scale(self):
        g = CongestionGame(
            ("A", "B"),
            {"A": ("1/7", "2/7", "3/7"), "B": ("5/12", "5/6", "5/4")},
            ((("A",), ("B",)), (("A", "B"),), (("B",), ("A", "B"))),
        )
        cg = CoalitionalGame(g, Partition.from_one_based([[1, 3], [2]]))
        sf = materialize(cg)
        assert sf.scale == 84
        assert_kernel_matches_definition(cg)

    def test_integer_costs_keep_scale_one(self, triple_ccg, overlap_ccg):
        for cg in (triple_ccg, overlap_ccg):
            assert materialize(cg).scale == 1
            assert_kernel_matches_definition(cg)


class TestBlockLayouts:
    @pytest.mark.parametrize("restricted", [False, True])
    def test_layouts_match_listing(self, restricted):
        for r in range(1, 6):
            resources = tuple("ABCDE"[:r])
            for m in range(1, (min(r, 4) if restricted else 4) + 1):
                cg, again = (
                    CoalitionalGame(
                        CongestionGame.simple(resources, {x: range(1, m + 1) for x in resources}),
                        Partition((tuple(range(m)),)),
                    )
                    for _ in range(2)
                )
                layout = compile_within_limit(cg, restricted).layouts[0]
                strategies, contributions = listed_block_layout(cg, 0, restricted)
                assert layout.strategies == canonical_block_strategies(cg, 0, restricted) == strategies
                assert list(layout.contributions) == contributions
                assert compile_within_limit(again, restricted).layouts[0] is layout
                if m == 1 and not restricted:
                    agent = cg.base._agent
                    assert (agent.strategies, agent.contributions) == ([layout.strategies], [layout.contributions])


class TestCostTable:
    def test_exact_fractions(self):
        t = CostTable(("1/3", 1, Fraction(3, 2)))
        assert t.values == (Fraction(1, 3), Fraction(1), Fraction(3, 2))

    def test_occupancy_bounds(self):
        t = CostTable((0, 1))
        with pytest.raises(InvalidProfileError):
            t.cost(3)

    def test_profile_normalization(self, overlap_game):
        s = as_profile(overlap_game, [("B", "A"), ("C", "A"), ("C", "B")])
        assert s.choices == (("A", "B"), ("A", "C"), ("B", "C"))


def test_public_names_are_sorted_unique_and_resolve():
    assert ccg.__all__ == sorted(set(ccg.__all__))
    assert [name for name in ccg.__all__ if not hasattr(ccg, name)] == []


# A hand-built 2x2 form, not materialized from any game.
HAND_BUILT = StrategicForm((("a", "b"), ("c", "d")), ((0, 1, 2, 3), (3, 2, 1, 0)), 1)

EXHAUSTIVE_ENTRY_POINTS = {
    "materialize": materialize,
    "enumerate_pure_ne": enumerate_pure_ne,
    "coalition_best_response": lambda cg: coalition_best_response(cg, as_profile(cg.base, "AAAA"), 0),
    "find_deviation": lambda cg: find_deviation(cg, as_profile(cg.base, "AAAA")),
    "fix_strategies_subgame": lambda cg: fix_strategies_subgame(cg, {}, [0, 1]),
    "build_potential_by_path": lambda cg: build_potential_by_path(HAND_BUILT),
    "exact_potential": lambda cg: exact_potential(HAND_BUILT),
    "check_linearity_equivalence": lambda cg: check_linearity_equivalence(
        cg.base, Partition.from_one_based([[1, 2], [3], [4]])
    ),
    "evaluate_fixture": lambda cg: evaluate_fixture(no_ne_triple_fixture()),
}


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_ENTRY_POINTS))
def test_size_limit_setting_bounds_every_exhaustive_entry_point(name, triple_ccg, monkeypatch):
    run = EXHAUSTIVE_ENTRY_POINTS[name]
    monkeypatch.delenv("CCG_SIZE_LIMIT", raising=False)
    run(triple_ccg)
    monkeypatch.setenv("CCG_SIZE_LIMIT", "1")
    with pytest.raises(SizeLimitExceededError, match="limit is 1$"):
        run(triple_ccg)


def test_refusal_names_a_count_too_long_to_print_by_its_digits(monkeypatch):
    # str() of an int over 4,300 digits raises ValueError; the refusal must not
    monkeypatch.delenv("CCG_SIZE_LIMIT", raising=False)
    with pytest.raises(SizeLimitExceededError, match="^x needs a 5001-digit number of entries, limit is 10000000$"):
        ensure_within_limit(10**5000, "x")
    with pytest.raises(SizeLimitExceededError, match=f"^x needs {10**4299} entries, limit is 10000000$"):
        ensure_within_limit(10**4299, "x")


def test_no_public_function_takes_a_limit():
    internal = [compile_within_limit, ensure_within_limit, effective_size_limit]
    public = [getattr(ccg, name) for name in ccg.__all__]
    takes_limit = [
        obj.__name__
        for obj in public + internal
        if callable(obj)
        and not (isinstance(obj, type) and issubclass(obj, Exception))
        and "limit" in inspect.signature(obj).parameters
    ]
    assert takes_limit == []
