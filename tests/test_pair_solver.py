from __future__ import annotations

from fractions import Fraction

import pytest

import ccg.game
import ccg.pair_solver
from ccg import (
    CoalitionalGame,
    CongestionGame,
    CongestionVector,
    DeviationWitness,
    Partition,
    as_profile,
    check_ne_lift,
    congestion,
    enumerate_pure_ne,
    is_ccg_ne,
    is_ne_congestion,
    random_game,
    random_partition,
    solve_pair_ccg,
)
from ccg.errors import NotNashAtExitError, PreconditionViolatedError
from ccg.experiments import pair_solver_sweep
from ccg.pair_solver import _arrange_distinct, _arrange_hub, _hub_improvement_loop
from oracle_helpers import brute_is_ccg_ne, cached_replies


def two_resource_game(a, b) -> CongestionGame:
    return CongestionGame.simple(("A", "B"), {"A": a, "B": b})


def doubled_pairs_game() -> CongestionGame:
    """Three pairs whose hub arrangement doubles two of them on A."""
    return CongestionGame.simple(("A", "B"), {"A": (0, 0, 1, 4, 6, 7), "B": (5, 6, 6, 9, 9, 9)})


class TestSolve:
    def test_balanced_game_splits_both_pairs(self, triple_game):
        trace = solve_pair_ccg(triple_game, Partition.from_one_based([[1, 2], [3, 4]]))
        assert trace.case_taken == "distinct"
        assert trace.hub_resource is None
        assert trace.moves == ()
        assert trace.result.choices == (("A",), ("B",), ("A",), ("B",))
        cg = CoalitionalGame(triple_game, Partition.from_one_based([[1, 2], [3, 4]]))
        assert brute_is_ccg_ne(cg, trace.result)

    def test_hub_case_with_one_profitable_move(self):
        g = two_resource_game((0, 1, 5), (5, 6, 7))
        partition = Partition.from_one_based([[1, 2], [3]])
        trace = solve_pair_ccg(g, partition)
        assert trace.case_taken == "hub"
        assert trace.hub_resource == "A"
        assert len(trace.moves) == 1
        move = trace.moves[0]
        assert (move.source, move.target) == ("A", "B")
        assert move.cost_delta == Fraction(-4)  # pair pays 1+5=6 instead of 2*5=10
        assert trace.result.choices == (("A",), ("B",), ("A",))
        assert brute_is_ccg_ne(CoalitionalGame(g, partition), trace.result)

    def test_hub_case_with_no_profitable_move(self):
        g = two_resource_game((0, 1, 2), (10, 11, 12))
        partition = Partition.from_one_based([[1, 2], [3]])
        trace = solve_pair_ccg(g, partition)
        assert trace.case_taken == "hub"
        assert trace.hub_resource == "A"
        assert trace.moves == ()
        assert trace.result.choices == (("A",), ("A",), ("A",))
        assert brute_is_ccg_ne(CoalitionalGame(g, partition), trace.result)

    def test_triple_block_rejected_while_brute_force_confirms_emptiness(self, triple_game):
        partition = Partition.from_one_based([[1, 2, 3], [4]])
        with pytest.raises(PreconditionViolatedError):
            solve_pair_ccg(triple_game, partition)
        assert enumerate_pure_ne(CoalitionalGame(triple_game, partition)).is_empty

    def test_non_simple_game_rejected(self, overlap_game):
        with pytest.raises(PreconditionViolatedError):
            solve_pair_ccg(overlap_game, Partition.from_one_based([[1, 2], [3]]))

    def test_distinct_case_satisfies_lift_check(self, triple_game):
        partition = Partition.from_one_based([[1, 2], [3, 4]])
        trace = solve_pair_ccg(triple_game, partition)
        verdict = check_ne_lift(CoalitionalGame(triple_game, partition), trace.result)
        assert verdict.applicable and verdict.holds

    @pytest.mark.parametrize("case", ["distinct", "hub"])
    def test_off_equilibrium_result_raises(self, monkeypatch, triple_game, case):
        if case == "distinct":
            g, blocks = triple_game, [[1, 2], [3, 4]]
        else:
            g, blocks = doubled_pairs_game(), [[1, 2], [3, 4], [5, 6]]
        witness = DeviationWitness(0, (("A",), ("B",)), Fraction(-2), Fraction(-1))
        checked = []
        monkeypatch.setattr(
            ccg.pair_solver, "find_deviation", lambda cg, s: checked.append(s) or witness
        )
        with pytest.raises(NotNashAtExitError, match="block 0 still improves to -1"):
            solve_pair_ccg(g, Partition.from_one_based(blocks))
        assert len(checked) == 1

    def test_single_agent(self):
        g = CongestionGame.simple(("A", "B"), {"A": (3,), "B": (1,)})
        trace = solve_pair_ccg(g, Partition.from_one_based([[1]]))
        assert trace.result.choices == (("B",),)


class TestArrangeDistinct:
    def test_two_pairs_balanced(self):
        partition = Partition.from_one_based([[1, 2], [3, 4]])
        assert _arrange_distinct(partition, [2, 2]) == [0, 1, 0, 1]

    def test_lone_singleton(self):
        assert _arrange_distinct(Partition.from_one_based([[1]]), [1]) == [0]

    def test_pairs_split_over_four_slots(self):
        partition = Partition.from_one_based([[1, 2], [3, 4]])
        where = _arrange_distinct(partition, [2, 1, 1])
        assert where == [0, 1, 0, 2]
        assert [where.count(ri) for ri in range(3)] == [2, 1, 1]


class TestArrangeHub:
    def test_forced_single_resource(self):
        assert _arrange_hub(Partition.from_one_based([[1, 2], [3]]), [3], 0) == [0, 0, 0]

    def test_surplus_goes_to_first_pair(self):
        g = CongestionGame.simple(("A", "B"), {"A": (0, 0, 1, 5), "B": (1, 6, 7, 8)})
        assert is_ne_congestion(g, CongestionVector(("A", "B"), (3, 1)))
        partition = Partition.from_one_based([[1, 2], [3, 4]])
        assert _arrange_hub(partition, [3, 1], 0) == [0, 0, 0, 1]

    def test_three_blocks(self):
        g = CongestionGame.simple(
            ("A", "B"), {"A": (0, 0, 0, 1, 3), "B": (3, 6, 7, 8, 9)}
        )
        assert is_ne_congestion(g, CongestionVector(("A", "B"), (4, 1)))
        partition = Partition.from_one_based([[1, 2], [3, 4], [5]])
        assert _arrange_hub(partition, [4, 1], 0) == [0, 0, 0, 1, 0]


class TestImprovementLoop:
    def test_single_move(self):
        g = two_resource_game((0, 1, 5), (5, 6, 7))
        partition = Partition.from_one_based([[1, 2], [3]])
        where, moves = _hub_improvement_loop(g, partition, [0, 0, 0], [3, 0], 0)
        assert len(moves) == 1
        assert where == [0, 1, 0]
        assert brute_is_ccg_ne(CoalitionalGame(g, partition), as_profile(g, ["A", "B", "A"]))

    def test_no_move_when_hub_stays_cheap(self):
        g = two_resource_game((0, 1, 2), (10, 11, 12))
        partition = Partition.from_one_based([[1, 2], [3]])
        where, moves = _hub_improvement_loop(g, partition, [0, 0, 0], [3, 0], 0)
        assert moves == ()
        assert where == [0, 0, 0]
        assert brute_is_ccg_ne(CoalitionalGame(g, partition), as_profile(g, ["A", "A", "A"]))

    def test_no_doubled_blocks_means_no_moves(self):
        g = two_resource_game((0, 1, 5), (5, 6, 7))
        partition = Partition.from_one_based([[1, 2], [3]])
        where, moves = _hub_improvement_loop(g, partition, [0, 1, 0], [2, 1], 0)
        assert moves == ()
        assert where == [0, 1, 0]
        assert brute_is_ccg_ne(CoalitionalGame(g, partition), as_profile(g, ["A", "B", "A"]))

    def test_two_doubled_pairs_both_peel_off(self):
        # underlying equilibrium puts 5 of 6 agents on A (P_A(5)=6 <= P_B(2)=6);
        # the hub arrangement doubles pairs one and two, and both moves pay:
        # 4+6 < 2*6, then 1+6 < 2*4
        g = doubled_pairs_game()
        partition = Partition.from_one_based([[1, 2], [3, 4], [5, 6]])
        trace = solve_pair_ccg(g, partition)
        assert trace.case_taken == "hub"
        assert trace.hub_resource == "A"
        assert congestion(g, trace.underlying_profile).as_dict() == {"A": 5, "B": 1}
        assert [(m.block, m.source, m.target) for m in trace.moves] == [
            (0, "A", "B"),
            (1, "A", "B"),
        ]
        assert congestion(g, trace.result).as_dict() == {"A": 3, "B": 3}
        doubled = sum(
            1
            for k in partition.pairs()
            if all(trace.arrangement.choices[i] == ("A",) for i in partition.blocks[k])
        )
        assert len(trace.moves) == doubled == 2
        assert brute_is_ccg_ne(CoalitionalGame(g, partition), trace.result)

    def test_three_block_hub_with_tie_broken_to_lowest_resource(self):
        g = CongestionGame.simple(
            ("A", "B", "C"),
            {"A": (0, 0, 0, 4, 9), "B": (5, 6, 7, 8, 9), "C": (6, 7, 8, 9, 9)},
        )
        partition = Partition.from_one_based([[1, 2], [3, 4], [5]])
        trace = solve_pair_ccg(g, partition)
        assert trace.case_taken == "hub"
        assert trace.hub_resource == "A"
        # leaving costs 0+6 against staying at 2*4; B and C tie, B wins
        assert len(trace.moves) == 1
        assert trace.moves[0].target == "B"
        for move in trace.moves:
            assert move.cost_delta < 0
        doubled = sum(
            1
            for k in partition.pairs()
            if all(trace.arrangement.choices[i] == (trace.hub_resource,) for i in partition.blocks[k])
        )
        assert len(trace.moves) <= doubled
        assert brute_is_ccg_ne(CoalitionalGame(g, partition), trace.result)


class TestRandomizedProperty:
    def test_constructive_solver_matches_brute_force(self):
        for trial in range(40):
            game = random_game(f"solver-prop:{trial}", 1 + trial % 6, 1 + trial % 4, "monotone")
            partition = random_partition(f"solver-prop:{trial}", game.n, min(2, game.n))
            trace = solve_pair_ccg(game, partition)
            assert brute_is_ccg_ne(CoalitionalGame(game, partition), trace.result)


class TestTraceContracts:
    """What the solver's private steps promise, read off its trace."""

    def test_steps_keep_their_contracts_on_random_pair_games(self):
        seen = set()
        for trial in range(200):
            kind = ("monotone", "convex", "linear")[trial % 3]
            game = random_game(f"trace:{trial}", 2 + trial % 7, 1 + trial % 4, kind)
            partition = random_partition(f"trace:{trial}", game.n, 2)
            trace = solve_pair_ccg(game, partition)
            seen.add((trace.case_taken, bool(trace.moves)))
            placed = trace.arrangement.choices
            assert congestion(game, trace.arrangement) == congestion(game, trace.underlying_profile)
            pair_homes = [{placed[i] for i in partition.blocks[k]} for k in partition.pairs()]
            if trace.case_taken == "distinct":
                assert all(len(homes) == 2 for homes in pair_homes)
            else:
                hub = (trace.hub_resource,)
                assert all(hub in (placed[i] for i in block) for block in partition.blocks)
                assert all(homes == {hub} for homes in pair_homes if len(homes) == 1)
            assert len(trace.moves) <= sum(len(homes) == 1 for homes in pair_homes)
            assert all(move.cost_delta < 0 for move in trace.moves)
        assert seen == {("distinct", False), ("hub", False), ("hub", True)}

    @pytest.mark.parametrize("case", ["distinct", "hub"])
    def test_one_equilibrium_test_and_one_deviation_search(self, monkeypatch, triple_game, case):
        if case == "distinct":
            g, blocks = triple_game, [[1, 2], [3, 4]]
        else:
            g, blocks = doubled_pairs_game(), [[1, 2], [3, 4], [5, 6]]
        calls = []
        for name in ("is_ne_congestion", "find_deviation"):
            real = getattr(ccg.equilibria, name)
            counted = lambda *args, name=name, real=real: calls.append(name) or real(*args)
            # where it is defined, and where the solver would import it
            monkeypatch.setattr(ccg.equilibria, name, counted)
            monkeypatch.setattr(ccg.pair_solver, name, counted, raising=False)
        assert solve_pair_ccg(g, Partition.from_one_based(blocks)).case_taken == case
        assert sorted(calls) == ["find_deviation", "is_ne_congestion"]


class TestOneCompilePerGame:
    """The solver's final check, a re-check of its result and an existence
    search on the same game share one kernel and its best-reply cache."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """Every kernel built, with its game."""
        kernels = []
        init = ccg.game.CompiledGame.__init__
        monkeypatch.setattr(
            ccg.game.CompiledGame, "__init__",
            lambda kernel, g, layouts: kernels.append((g, kernel)) or init(kernel, g, layouts),
        )
        return kernels

    def test_recheck_builds_nothing(self, compiled):
        for trial in range(30):
            game = random_game(f"recheck:{trial}", 1 + trial % 6, 1 + trial % 4, "monotone")
            partition = random_partition(f"recheck:{trial}", game.n, min(2, game.n))
            trace = solve_pair_ccg(game, partition)
            built = len(compiled)
            replies = {key: cached_replies(kernel) for key, kernel in game._kernels.items()}
            assert is_ccg_ne(CoalitionalGame(game, partition), trace.result)
            assert len(compiled) == built
            assert {key: cached_replies(kernel) for key, kernel in game._kernels.items()} == replies

    def test_sweep_compiles_each_trial_once(self, compiled):
        assert pair_solver_sweep(20, 1)["ne_nonempty"] == 20
        by_game = {}
        for g, kernel in compiled:
            by_game.setdefault(id(g), (g, []))[1].append(kernel)
        assert len(by_game) == 20
        singles = 0
        for g, kernels in by_game.values():
            # its sub-agent and one coalitional kernel, on one scaled table
            assert kernels == [g._agent, *g._kernels.values()]
            assert {id(kernel.costs) for kernel in kernels} == {id(g._scaled[1])}
            # whose singleton blocks read the sub-agent's best replies
            ((partition, _), kernel), = g._kernels.items()
            assert all(kernel._replies[k] is g._agent._replies[0] for k in partition.singletons())
            singles += len(partition.singletons())
        assert singles > 0

    def test_large_pair_game_solves_under_default_limit(self, monkeypatch):
        # 100 pairs of C(21, 2) = 210 strategies each: only blocks are charged
        monkeypatch.delenv("CCG_SIZE_LIMIT", raising=False)
        game = random_game("large-pairs", 200, 20, "convex")
        partition = Partition.from_one_based([[i, i + 1] for i in range(1, 201, 2)])
        trace = solve_pair_ccg(game, partition)
        assert is_ccg_ne(CoalitionalGame(game, partition), trace.result)
