from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction

import pytest

import ccg.equilibria
import ccg.game
from ccg import (
    CoalitionalGame,
    CongestionGame,
    CongestionVector,
    DeviationWitness,
    Partition,
    PureProfile,
    as_profile,
    assemble_profile,
    canonical_block_strategies,
    canonical_multiplicity,
    canonicalize,
    check_ne_lift,
    coalition_best_response,
    coalition_utility,
    congestion,
    enumerate_pure_ne,
    find_deviation,
    in_restricted_space,
    is_ccg_ne,
    is_ne_congestion,
    materialize,
    random_game,
    random_partition,
    rosenthal_potential,
    underlying_pure_ne,
)
from ccg.errors import (
    BlockLargerThanResourceSetError,
    InvalidBlockError,
    InvalidParamsError,
    InvalidVectorError,
    NeLiftViolationError,
    PreconditionViolatedError,
    SizeLimitExceededError,
)
from oracle_helpers import (
    brute_ccg_equilibria,
    brute_is_ccg_ne,
    brute_simple_ne_congestions,
    cached_replies,
    form_from_utilities,
    fix_strategies_subgame,
    listed_block_layout,
    pure_nash_equilibria,
    reply_keys,
    scan_pure_ne,
)


class TestUnderlyingDynamics:
    def test_balanced_split(self, triple_game):
        result = underlying_pure_ne(triple_game)
        c = congestion(triple_game, result.profile)
        assert c.as_dict() == {"A": 2, "B": 2}
        # cross-check against the definition-level oracle
        assert c.counts in brute_simple_ne_congestions(triple_game)

    def test_single_resource(self):
        g = CongestionGame.simple(("A",), {"A": (1, 2, 3)})
        result = underlying_pure_ne(g)
        assert congestion(g, result.profile).as_dict() == {"A": 3}

    def test_weak_tie_keeps_everyone_on_cheap_resource(self):
        g = CongestionGame.simple(("A", "B"), {"A": (0, 1, 5), "B": (5, 6, 7)})
        result = underlying_pure_ne(g)
        assert congestion(g, result.profile).as_dict() == {"A": 3, "B": 0}

    def test_each_move_strictly_decreases_potential(self, triple_game):
        result = underlying_pure_ne(triple_game)
        assert result.moves, "reference game needs rebalancing from the all-on-A start"
        choices = list(result.start.choices)
        phi = rosenthal_potential(triple_game, result.start)
        for move in result.moves:
            choices[move.agent] = (move.target,)
            from ccg import PureProfile

            phi_next = rosenthal_potential(triple_game, PureProfile(tuple(choices)))
            assert phi_next < phi
            assert phi_next - phi == move.cost_after - move.cost_before
            phi = phi_next
        assert tuple(choices) == result.profile.choices

    def test_needs_simple_game(self, overlap_game):
        with pytest.raises(PreconditionViolatedError):
            underlying_pure_ne(overlap_game)


class TestNeCongestion:
    def test_balanced_true(self, triple_game):
        assert is_ne_congestion(triple_game, CongestionVector(("A", "B"), (2, 2)))

    def test_skewed_false(self, triple_game):
        assert not is_ne_congestion(triple_game, CongestionVector(("A", "B"), (3, 1)))

    def test_single_resource_always_true(self):
        g = CongestionGame.simple(("A",), {"A": (7, 8, 9)})
        assert is_ne_congestion(g, CongestionVector(("A",), (3,)))

    def test_wrong_total_rejected(self, triple_game):
        with pytest.raises(InvalidVectorError):
            is_ne_congestion(triple_game, CongestionVector(("A", "B"), (1, 1)))


class TestCoalitionBestResponse:
    def test_unique_best_reply_against_singleton(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "A", "A", "A"])
        br = coalition_best_response(triple_ccg, s, 0)
        assert br.value == Fraction(-32)
        assert br.replies == ((("A",), ("A",), ("B",)),)

    def test_singleton_block_is_classic_best_response(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "A", "B", "A"])
        br = coalition_best_response(triple_ccg, s, 1)
        # against A,A,B the lone agent prefers B: 12 < 16
        assert br.value == Fraction(-12)
        assert br.replies == ((("B",),),)

    def test_subset_game_best_reply(self, overlap_ccg):
        s = as_profile(overlap_ccg.base, [("A", "B"), ("A", "C"), ("A", "B")])
        br = coalition_best_response(overlap_ccg, s, 1)
        assert br.value == Fraction(-6)
        assert br.replies == ((("B", "C"),),)

    def test_every_reply_attains_value(self, pair_ccg):
        s = as_profile(pair_ccg.base, ["A", "B", "A", "B"])
        br = coalition_best_response(pair_ccg, s, 0)
        assert br.replies
        for reply in br.replies:
            choices = list(s.choices)
            for i, choice in zip(pair_ccg.blocks[0], reply):
                choices[i] = choice
            from ccg import PureProfile

            assert coalition_utility(pair_ccg, PureProfile(tuple(choices)), 0) == br.value

    def test_size_limit(self, triple_ccg, monkeypatch):
        s = as_profile(triple_ccg.base, ["A", "A", "A", "A"])
        monkeypatch.setenv("CCG_SIZE_LIMIT", "2")
        with pytest.raises(SizeLimitExceededError):
            coalition_best_response(triple_ccg, s, 0)

    @pytest.mark.parametrize("k", [2, 5, -1])
    def test_block_outside_game(self, pair_ccg, k):
        s = as_profile(pair_ccg.base, ["A", "B", "A", "B"])
        with pytest.raises(InvalidBlockError):
            coalition_best_response(pair_ccg, s, k)


class TestIsCcgNe:
    def test_rejection_with_witness(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "A", "B", "B"])
        witness = find_deviation(triple_ccg, s)
        assert witness is not None
        assert witness.block == 0
        assert witness.strategy == (("A",), ("B",), ("B",))
        assert witness.best_value == Fraction(-32)
        assert witness.current_value == Fraction(-36)

    def test_pair_split_is_equilibrium(self, pair_ccg):
        s = as_profile(pair_ccg.base, ["A", "B", "A", "B"])
        assert is_ccg_ne(pair_ccg, s)
        assert brute_is_ccg_ne(pair_ccg, s)

    def test_one_block_partition_means_welfare_max(self, triple_game):
        cg = CoalitionalGame(triple_game, Partition.from_one_based([[1, 2, 3, 4]]))
        # welfare: 2+2 split and 3+1 split both cost 48, all-on-one costs 72
        assert is_ccg_ne(cg, as_profile(triple_game, ["A", "A", "B", "B"]))
        assert is_ccg_ne(cg, as_profile(triple_game, ["A", "A", "A", "B"]))
        assert not is_ccg_ne(cg, as_profile(triple_game, ["A", "A", "A", "A"]))

    def test_witness_strictly_improves_on_reevaluation(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "A", "B", "B"])
        witness = find_deviation(triple_ccg, s)
        choices = list(s.choices)
        for i, choice in zip(triple_ccg.blocks[witness.block], witness.strategy):
            choices[i] = choice
        from ccg import PureProfile

        improved = coalition_utility(triple_ccg, PureProfile(tuple(choices)), witness.block)
        assert improved == witness.best_value
        assert improved > coalition_utility(triple_ccg, s, witness.block)


class TestEnumerate:
    def test_triple_block_has_no_equilibrium(self, triple_ccg):
        report = enumerate_pure_ne(triple_ccg)
        assert report.is_empty
        assert report.exhaustive
        assert report.profiles_checked == 8

    def test_overlapping_routes_have_no_equilibrium(self, overlap_ccg):
        assert enumerate_pure_ne(overlap_ccg).is_empty

    def test_discrete_partition_equilibria(self, triple_game):
        cg = CoalitionalGame(triple_game, Partition.discrete(4))
        report = enumerate_pure_ne(cg)
        assert not report.is_empty
        assert len(report.equilibria) == 6
        for profile in report.equilibria:
            assert congestion(triple_game, profile).as_dict() == {"A": 2, "B": 2}
        # lexicographic order over per-agent choices
        listed = [p.choices for p in report.equilibria]
        assert listed == sorted(listed)
        assert report.multiplicities == (1,) * 6

    def test_matches_raw_brute_force(self, pair_ccg):
        from ccg import canonicalize

        report = enumerate_pure_ne(pair_ccg)
        raw = {canonicalize(pair_ccg, s).choices for s in brute_ccg_equilibria(pair_ccg)}
        assert {p.choices for p in report.equilibria} == raw

    def test_stop_after(self, triple_game):
        cg = CoalitionalGame(triple_game, Partition.discrete(4))
        report = enumerate_pure_ne(cg, stop_after=1)
        assert len(report.equilibria) == 1
        assert not report.exhaustive

    def test_size_limit(self, triple_ccg, monkeypatch):
        monkeypatch.setenv("CCG_SIZE_LIMIT", "4")
        with pytest.raises(SizeLimitExceededError):
            enumerate_pure_ne(triple_ccg)

    @pytest.mark.parametrize("stop_after", [0, -1, 1.5, True, "2"])
    def test_stop_after_below_one_refused_before_compiling(self, triple_game, stop_after):
        cg = CoalitionalGame(triple_game, Partition.discrete(4))
        message = f"stop_after must be an integer of at least 1, got {stop_after!r}"
        with pytest.raises(InvalidParamsError, match=re.escape(message)):
            enumerate_pure_ne(cg, stop_after=stop_after)
        assert not cg.base._kernels

    def test_stop_after_matches_joint_profile_scan(self, triple_game):
        cg = CoalitionalGame(triple_game, Partition.discrete(4))
        for stop_after in (None, 1, 2, 5, 6, 7):
            assert enumerate_pure_ne(cg, stop_after=stop_after) == scan_pure_ne(
                cg, stop_after=stop_after
            )

    def test_matches_normal_form_brute_force(self, triple_ccg, pair_ccg):
        for cg in (triple_ccg, pair_ccg):
            sf = materialize(cg)
            from ccg import assemble_profile, canonical_block_strategies

            strats = [canonical_block_strategies(cg, k) for k in range(len(cg.blocks))]
            translated = {
                assemble_profile(cg, [strats[k][si] for k, si in enumerate(idx)]).choices
                for idx in pure_nash_equilibria(sf)
            }
            assert translated == {p.choices for p in enumerate_pure_ne(cg).equilibria}


class TestPinnedInstances:
    """Seeded instances too large for the raw brute force, pinned by count."""

    def test_b1(self):
        cg = CoalitionalGame(random_game("b1", 8, 4, "monotone"), random_partition("b1", 8, 3))
        report = enumerate_pure_ne(cg)
        assert len(report.equilibria) == 181
        assert sum(report.multiplicities) == 1100
        assert report.profiles_checked == 12_800
        assert report.exhaustive
        assert report == scan_pure_ne(cg)
        assert enumerate_pure_ne(cg, stop_after=50) == scan_pure_ne(cg, stop_after=50)

    def test_b3(self):
        cg = CoalitionalGame(random_game("b3", 10, 5, "monotone"), random_partition("b3", 10, 2))
        report = enumerate_pure_ne(cg)
        assert len(report.equilibria) == 3429
        assert sum(report.multiplicities) == 25_776
        assert report.profiles_checked == 2_109_375
        assert report.exhaustive
        strats = [canonical_block_strategies(cg, k) for k in range(len(cg.blocks))]
        listed = [
            [strats[k].index(tuple(sorted((p.choices[i] for i in block), key=cg.base.choice_key)))
             for k, block in enumerate(cg.blocks)]
            for p in report.equilibria
        ]
        assert listed == sorted(listed)
        first = enumerate_pure_ne(cg, stop_after=1)
        assert first.equilibria == report.equilibria[:1]
        assert first.profiles_checked == 6270
        assert not first.exhaustive

    def test_reported_profiles_equal_the_public_constructor(self, overlap_game):
        # the search builds its profiles without PureProfile's normalization
        b1 = CoalitionalGame(random_game("b1", 8, 4, "monotone"), random_partition("b1", 8, 3))
        grand = CoalitionalGame(overlap_game, Partition.from_one_based([[1, 2, 3]]))
        for cg in (b1, grand):
            profiles = enumerate_pure_ne(cg).equilibria
            assert profiles
            for p in profiles:
                again = PureProfile(p.choices)
                assert p == again and hash(p) == hash(again)
                assert type(p.choices) is tuple
                assert all(type(c) is tuple and all(type(r) is str for r in c) for c in p.choices)

    @pytest.fixture
    def lookups(self, monkeypatch):
        """The block position of every best-reply lookup from here on."""
        found = []
        best_reply = ccg.game.CompiledGame.best_reply
        monkeypatch.setattr(
            ccg.game.CompiledGame,
            "best_reply",
            lambda kernel, k, env: found.append(k) or best_reply(kernel, k, env),
        )
        return found

    def test_b3_search_work(self, lookups):
        # A joint-profile scan looks up at least one best reply per profile
        # (2,109,375). The search lists each suffix once per prefix
        # occupancy, and only as far as needed: an existence query stops
        # after a fraction of the full search's lookups.
        cg = CoalitionalGame(random_game("b3", 10, 5, "monotone"), random_partition("b3", 10, 2))
        assert len(enumerate_pure_ne(cg).equilibria) == 3429
        assert len(lookups) < 40_000
        lookups.clear()
        assert len(enumerate_pure_ne(cg, stop_after=1).equilibria) == 1
        assert len(lookups) < 2_500

    def test_b3_work_per_prefix(self, lookups):
        # The last searched block's listing takes one lookup per prefix, and
        # the game's three equal pairs share their cached replies, as do its
        # four single agents.
        cg = CoalitionalGame(random_game("b3", 10, 5, "monotone"), random_partition("b3", 10, 2))
        assert len(enumerate_pure_ne(cg).equilibria) == 3429
        kernel = ccg.game.compile_within_limit(cg, False)
        caches = {len(block): kernel._replies[k] for k, block in enumerate(cg.blocks)}
        assert all(kernel._replies[k] is caches[len(block)] for k, block in enumerate(cg.blocks))
        assert cached_replies(kernel) < 1_100
        lookups.clear()
        assert len(enumerate_pure_ne(cg, stop_after=1).equilibria) == 1
        assert len(lookups) < 1_300

    @staticmethod
    def _d1():
        # block strategy counts 35, 10, 4, 4, 4: the largest block comes first
        partition = Partition.from_one_based([[1, 2, 3, 4], [5, 6], [7], [8], [9]])
        return CoalitionalGame(random_game("d1", 9, 4, "convex"), partition)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_exhaustive_search_takes_the_largest_block_last(self, lookups, restricted):
        # Searched smallest first, the largest block (35 strategies, or 6 of
        # 1, 6, 4, 4, 4 when restricted) is the last level, listed with one
        # lookup per prefix; unrestricted in block order it would be the
        # outermost, each of its strategies opening a search of the others
        # (2,660 lookups). The listing is sorted back to block order.
        cg = self._d1()
        report = enumerate_pure_ne(cg, restricted=restricted)
        assert len(lookups) < 1_000
        assert report == scan_pure_ne(cg, restricted=restricted)
        assert report.equilibria and report.exhaustive

    def test_early_stop_keeps_block_order(self):
        # the first equilibrium in block order, and the scan position it sets
        cg = self._d1()
        first = enumerate_pure_ne(cg, stop_after=1)
        assert first == scan_pure_ne(cg, stop_after=1)
        assert not first.exhaustive
        assert first.equilibria == enumerate_pure_ne(cg).equilibria[:1]

    def test_every_query_shares_one_kernel(self):
        sets = [["A", ("A", "B")], ["A", "B", ("A", "B")], ["B", "C", ("B", "C")], ["C"], ["A", "C"]]
        game = CongestionGame(tuple("ABC"), {r: range(1, 6) for r in "ABC"}, sets)
        cg = CoalitionalGame(game, Partition.from_one_based([[1, 2, 3], [4], [5]]))
        profile = as_profile(game, ["A", "A", "B", "C", "A"])
        find_deviation(cg, profile)
        replies = [coalition_best_response(cg, profile, k) for k in range(3)]
        strategies = [canonical_block_strategies(cg, k) for k in range(3)]
        assert enumerate_pure_ne(cg).profiles_checked == math.prod(map(len, strategies))
        (kernel,) = game._kernels.values()
        for k in range(3):
            assert kernel.layouts[k].strategies == strategies[k] == listed_block_layout(cg, k)[0]
            assert set(replies[k].replies) <= set(strategies[k])

    def test_blocks_share_replies_only_through_one_layout(self):
        costs = {r: (0, 1, 2, 3) for r in "AB"}
        env = (1, 1)
        pairs = Partition.from_one_based([[1, 2], [3, 4]])
        simple = ccg.game.compile_within_limit(
            CoalitionalGame(CongestionGame.simple("AB", costs), pairs), False
        )
        assert simple.best_reply(0, simple.code(env)) is simple.best_reply(1, simple.code(env))
        assert cached_replies(simple) == 1
        # block 1 plays (A, A) or (A, B); block 2 plays (A, B) or (B, B)
        sets = [["A"], ["A", "B"], ["B"], ["A", "B"]]
        crossed = ccg.game.compile_within_limit(
            CoalitionalGame(CongestionGame(("A", "B"), costs, sets), pairs), False
        )
        assert crossed.strategies[0] != crossed.strategies[1]
        assert crossed.best_reply(0, crossed.code(env)) != crossed.best_reply(1, crossed.code(env))
        assert cached_replies(crossed) == 2

    @pytest.mark.parametrize("case", ["simple", "product"])
    def test_partitions_of_one_game_share_each_layouts_replies(self, monkeypatch, case):
        # Best replies are kept per game and layout source, not per kernel:
        # both partitions compile the simple game's pair layout and its
        # one-agent layout, or the other game's product layout of sub-agents
        # 1 and 2, so each is one layout and one cache, and no occupancy is
        # evaluated twice.
        misses = []
        best_reply = ccg.game.CompiledGame.best_reply

        def counted(kernel, p, env):
            if env not in kernel._replies[p]:
                misses.append((kernel.layouts[p], env))
            return best_reply(kernel, p, env)

        monkeypatch.setattr(ccg.game.CompiledGame, "best_reply", counted)
        if case == "simple":
            game = random_game("share", 6, 3, "convex")
            partitions = ([[1, 2], [3], [4, 5], [6]], [[1], [2, 3], [4], [5, 6]])
            shared = [(0, 1), (1, 0)]
        else:
            sets = [["A", ("A", "B")], ["A", "B", ("A", "B")], ["B", "C"], ["C"], ["A", "C"]]
            game = CongestionGame(tuple("ABC"), {r: range(1, 6) for r in "ABC"}, sets)
            partitions = ([[1, 2], [3], [4], [5]], [[1, 2], [3, 4], [5]])
            shared = [(0, 0)]
        kernels = []
        for blocks in partitions:
            cg = CoalitionalGame(game, Partition.from_one_based(blocks))
            enumerate_pure_ne(cg)
            kernels.append(ccg.game.compile_within_limit(cg, False))
        first, second = kernels
        for p, q in shared:
            assert first.layouts[p] is second.layouts[q] and first._replies[p] is second._replies[q]
            assert first.codes[p] is second.codes[q] and first._plans[p] is second._plans[q]
        keys = {(layout, env) for k in kernels for layout, cache in zip(k.layouts, k._replies) for env in cache}
        assert set(misses) == keys
        assert len(misses) == len(keys) > 0

    def test_a_game_keeps_its_layouts_past_the_process_lru(self):
        # The process keeps the last 64 shared layouts, a game every record it
        # made: after 136 other layouts the discrete partition's singletons
        # still read `_agent`'s cache, the game's one one-member record.
        game = CongestionGame.simple(("A", "B"), {r: range(1, 141) for r in "AB"})
        agent = game._agent
        for m in range(2, 70):
            ccg.game.compile_within_limit(CoalitionalGame(game, Partition([range(m), range(m, 140)])), False)
        kernel = ccg.game.compile_within_limit(CoalitionalGame(game, Partition.discrete(140)), False)
        assert all(cache is agent._replies[0] for cache in kernel._replies)
        assert sum(len(layout.strategies[0]) == 1 for layout, *_ in game._layouts.values()) == 1

    def test_members_listing_one_set_in_different_orders_share_its_layout(self):
        # Blocks {1, 2} and {3, 4} hold the set {A, B}, listed A first and B
        # first: one source, so one layout, one cache and one record.
        costs = {r: (1, 3, 4, 7) for r in "AB"}
        game = CongestionGame(("A", "B"), costs, [["A", "B"], ["A", "B"], ["B", "A"], ["B", "A"]])
        cg = CoalitionalGame(game, Partition([(0, 1), (2, 3)]))
        report = enumerate_pure_ne(cg)
        kernel = ccg.game.compile_within_limit(cg, False)
        assert kernel.layouts[0] is kernel.layouts[1] and kernel._replies[0] is kernel._replies[1]
        assert len(game._layouts) == 1
        assert report == scan_pure_ne(cg)

    def test_scan_leaves_the_games_replies_alone(self):
        cg = self._d1()
        assert scan_pure_ne(cg).exhaustive
        assert reply_keys(cg.base) == {}
        enumerate_pure_ne(cg)
        before = reply_keys(cg.base)
        assert before and all(before.values())
        scan_pure_ne(cg)
        scan_pure_ne(cg, restricted=True)
        assert reply_keys(cg.base) == before

    def test_many_single_strategy_blocks_do_not_recurse(self):
        g = CongestionGame.simple(("A",), {"A": tuple(range(1500))})
        report = enumerate_pure_ne(CoalitionalGame(g, Partition.discrete(1500)))
        assert report.equilibria == (PureProfile((("A",),) * 1500),)
        assert report.multiplicities == (1,)
        assert report.profiles_checked == 1
        assert report.exhaustive


class TestRestricted:
    def test_pair_block_two_resources(self, pair_ccg):
        assert canonical_block_strategies(pair_ccg, 0, restricted=True) == ((("A",), ("B",)),)

    def test_singleton_block(self, triple_ccg, triple_game):
        # every block is compiled: the triple cannot spread over A and B, so
        # even a query about the singleton is refused
        profile = as_profile(triple_game, "AAAB")
        with pytest.raises(BlockLargerThanResourceSetError):
            canonical_block_strategies(triple_ccg, 1, restricted=True)
        with pytest.raises(BlockLargerThanResourceSetError):
            coalition_best_response(triple_ccg, profile, 1, restricted=True)
        cg = CoalitionalGame(triple_game, Partition.from_one_based([[1, 2], [3], [4]]))
        assert canonical_block_strategies(cg, 1, restricted=True) == ((("A",),), (("B",),))
        assert coalition_best_response(cg, profile, 1, restricted=True).block == 1

    def test_triple_block_three_resources(self):
        g = CongestionGame.simple(("A", "B", "C"), {r: (0, 1, 2) for r in "ABC"})
        cg = CoalitionalGame(g, Partition.from_one_based([[1, 2, 3]]))
        assert canonical_block_strategies(cg, 0, restricted=True) == ((("A",), ("B",), ("C",)),)

    def test_block_larger_than_resource_set(self, triple_ccg):
        with pytest.raises(BlockLargerThanResourceSetError):
            canonical_block_strategies(triple_ccg, 0, restricted=True)

    def test_restricted_enumeration_finds_split(self, pair_ccg):
        report = enumerate_pure_ne(pair_ccg, restricted=True)
        assert (("A",), ("B",), ("A",), ("B",)) in {p.choices for p in report.equilibria}

    def test_all_singletons_restriction_is_vacuous(self, triple_game):
        cg = CoalitionalGame(triple_game, Partition.discrete(4))
        unrestricted = {p.choices for p in enumerate_pure_ne(cg).equilibria}
        restricted = {p.choices for p in enumerate_pure_ne(cg, restricted=True).equilibria}
        assert restricted == unrestricted

    def test_restricted_enumeration_rejects_oversized_block(self, triple_ccg):
        with pytest.raises(BlockLargerThanResourceSetError):
            enumerate_pure_ne(triple_ccg, restricted=True)


class TestLiftChecks:
    def test_applicable_and_holds(self, pair_ccg):
        s = as_profile(pair_ccg.base, ["A", "B", "A", "B"])
        verdict = check_ne_lift(pair_ccg, s)
        assert verdict.applicable and verdict.holds
        assert brute_is_ccg_ne(pair_ccg, s)

    def test_shared_resource_not_applicable(self, triple_ccg):
        s = as_profile(triple_ccg.base, ["A", "A", "B", "B"])
        verdict = check_ne_lift(triple_ccg, s)
        assert not verdict.applicable
        assert verdict.holds is None

    def test_non_equilibrium_congestion_not_applicable(self):
        g = CongestionGame.simple(("A", "B"), {"A": (0, 1, 5), "B": (5, 6, 7)})
        cg = CoalitionalGame(g, Partition.from_one_based([[1, 2], [3]]))
        s = as_profile(g, ["A", "B", "B"])
        verdict = check_ne_lift(cg, s)
        assert not verdict.applicable

    def test_restricted_variant_holds(self, pair_ccg):
        s = as_profile(pair_ccg.base, ["A", "B", "A", "B"])
        verdict = check_ne_lift(pair_ccg, s, restricted=True)
        assert verdict.applicable and verdict.holds

    def test_restricted_variant_rejects_doubled_profile(self, pair_ccg):
        s = as_profile(pair_ccg.base, ["A", "A", "B", "B"])
        with pytest.raises(PreconditionViolatedError):
            check_ne_lift(pair_ccg, s, restricted=True)

    def test_restricted_flag_reaches_deviation_search(self, pair_ccg, monkeypatch):
        s = as_profile(pair_ccg.base, ["A", "B", "A", "B"])
        flags = []

        def improving(cg, profile, restricted=False):
            flags.append(restricted)
            return DeviationWitness(0, (("A",), ("B",)), Fraction(-3), Fraction(-2))

        monkeypatch.setattr(ccg.equilibria, "find_deviation", improving)
        with pytest.raises(NeLiftViolationError, match="^restricted lift check: block 0 improves"):
            check_ne_lift(pair_ccg, s, restricted=True)
        with pytest.raises(NeLiftViolationError, match="^lift check: block 0 improves"):
            check_ne_lift(pair_ccg, s)
        assert flags == [True, False]

    def test_restricted_space_validates_the_profile_once(self, monkeypatch):
        """One validation per call, whatever the block count: each block's
        members are checked for a shared resource on the profile as given."""
        resources = tuple("ABCDEFGH")
        g = CongestionGame.simple(resources, {r: range(1, 17) for r in resources})
        cg = CoalitionalGame(g, Partition.from_one_based([[b, b + 8] for b in range(1, 9)]))
        spread = as_profile(g, list(resources) + list(resources[1:] + resources[:1]))
        doubled = as_profile(g, list(resources) * 2)
        validate, calls = ccg.game.validate_profile, []

        def counted(game, s):
            calls.append(s)
            return validate(game, s)

        for module in (ccg.game, ccg.equilibria):
            monkeypatch.setattr(module, "validate_profile", counted)
        assert in_restricted_space(cg, spread)
        assert calls == [spread]
        assert not in_restricted_space(cg, doubled)
        assert calls == [spread, doubled]

    def test_occupancy_counted_without_validating_again(self, pair_ccg, monkeypatch):
        """A block's utility and its best reply validate the profile once and
        count occupancy from it; the lift check validates once for its
        distinct-resource test and once in its deviation search."""
        s = as_profile(pair_ccg.base, ["A", "B", "A", "B"])
        validate, calls = ccg.game.validate_profile, []

        def counted(game, profile):
            calls.append(profile)
            return validate(game, profile)

        for module in (ccg.game, ccg.equilibria):
            monkeypatch.setattr(module, "validate_profile", counted)
        for check, validations in (
            (lambda: coalition_utility(pair_ccg, s, 0), 1),
            (lambda: coalition_best_response(pair_ccg, s, 1), 1),
            (lambda: check_ne_lift(pair_ccg, s), 2),
        ):
            calls.clear()
            check()
            assert calls == [s] * validations

    def test_restricted_deviation_search_rejects_doubled_profile(self, pair_ccg):
        s = as_profile(pair_ccg.base, ["A", "A", "B", "B"])
        with pytest.raises(PreconditionViolatedError, match="block 0 cannot play"):
            find_deviation(pair_ccg, s, restricted=True)

    def test_singleton_blocks_on_distinct_resources(self):
        g = CongestionGame.simple(("A", "B", "C"), {r: (0, 1, 2) for r in "ABC"})
        cg = CoalitionalGame(g, Partition.discrete(3))
        s = as_profile(g, ["A", "B", "C"])
        assert is_ne_congestion(g, congestion(g, s))
        verdict = check_ne_lift(cg, s, restricted=True)
        assert verdict.applicable and verdict.holds


class TestNormalFormBruteForce:
    def test_matching_pennies_has_no_pure_equilibrium(self):
        sf = form_from_utilities(
            (("H", "T"), ("H", "T")),
            {
                (0, 0): (Fraction(1), Fraction(-1)),
                (0, 1): (Fraction(-1), Fraction(1)),
                (1, 0): (Fraction(-1), Fraction(1)),
                (1, 1): (Fraction(1), Fraction(-1)),
            },
        )
        assert pure_nash_equilibria(sf) == []

    def test_coordination_game(self):
        sf = form_from_utilities(
            (("L", "R"), ("L", "R")),
            {
                (0, 0): (Fraction(2), Fraction(2)),
                (0, 1): (Fraction(0), Fraction(0)),
                (1, 0): (Fraction(0), Fraction(0)),
                (1, 1): (Fraction(1), Fraction(1)),
            },
        )
        assert pure_nash_equilibria(sf) == [(0, 0), (1, 1)]


class TestSizeLimitBeforeCompiling:
    """Every block is charged from its members' sets before anything is
    listed: members who share a set of d distinct choices have binomial
    counts, C(d + m - 1, m), and other blocks the product of their set
    sizes, so an oversized game is refused before any strategy is listed."""

    @pytest.fixture
    def listed(self, monkeypatch):
        calls = []
        for name in ("canonical_block_strategies", "_list_layout"):
            original = getattr(ccg.game, name)

            def counting(*args, original=original, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(ccg.game, name, counting)
        return calls

    def test_refused_without_listing_strategies(self, listed, monkeypatch):
        resources = tuple("ABCDEFGHIJKL")
        game = CongestionGame.simple(resources, {r: range(1, 17) for r in resources})
        cg = CoalitionalGame(game, Partition.from_one_based([range(1, 9), range(9, 17)]))
        profile = PureProfile(tuple(("A",) for _ in range(16)))
        # C(12 + 8 - 1, 8) = 75,582 canonical strategies per block
        refused = functools.partial(pytest.raises, SizeLimitExceededError)
        with refused(match="joint canonical profile space needs 5712638724 entries, limit is 10000000"):
            enumerate_pure_ne(cg)
        with refused(match="materialized utility table needs 11425277448 entries"):
            materialize(cg)
        monkeypatch.setenv("CCG_SIZE_LIMIT", "75581")
        # a best reply charges every block, as the deviation search does
        with refused(match="block 0 strategy space needs 75582 entries, limit is 75581"):
            coalition_best_response(cg, profile, 1)
        # C(12, 8) = 495 per block
        monkeypatch.setenv("CCG_SIZE_LIMIT", "245024")
        with refused(match="joint canonical profile space needs 245025 entries"):
            enumerate_pure_ne(cg, restricted=True)
        assert listed == []

    def test_deviation_search_charges_each_block(self, listed, monkeypatch):
        resources = tuple("ABCDEFGHIJKL")
        game = CongestionGame.simple(resources, {r: range(1, 17) for r in resources})
        cg = CoalitionalGame(game, Partition.from_one_based([range(1, 9), range(9, 17)]))
        profile = PureProfile(tuple(("A",) for _ in range(16)))
        monkeypatch.setenv("CCG_SIZE_LIMIT", "75581")
        with pytest.raises(SizeLimitExceededError, match="block 0 strategy space needs 75582"):
            find_deviation(cg, profile)
        monkeypatch.setenv("CCG_SIZE_LIMIT", "494")
        with pytest.raises(SizeLimitExceededError, match="block 0 strategy space needs 495"):
            is_ccg_ne(cg, as_profile(game, list(resources[:8]) * 2), restricted=True)
        assert listed == []

    def test_oversized_subgame_refused_without_listing_strategies(self, listed, monkeypatch):
        resources = tuple("ABCDEFGHIJKL")
        game = CongestionGame.simple(resources, {r: range(1, 17) for r in resources})
        cg = CoalitionalGame(game, Partition.from_one_based([range(1, 9), range(9, 17)]))
        refused = functools.partial(pytest.raises, SizeLimitExceededError)
        with refused(match="materialized utility table needs 11425277448 entries, limit is 10000000"):
            fix_strategies_subgame(cg, {}, [0, 1])
        monkeypatch.setenv("CCG_SIZE_LIMIT", "75581")
        with refused(match="materialized utility table needs 75582 entries, limit is 75581"):
            fix_strategies_subgame(cg, {i: "A" for i in range(8, 16)}, [0])
        assert listed == []

    @staticmethod
    def routes_game(resources: str, members: int, orders: int) -> CoalitionalGame:
        """One block of `members`, each holding every two-resource route
        over `resources`, the routes written in `orders` (1 or 2) orders."""
        routes = [tuple(pair) for pair in itertools.combinations(resources, 2)]
        sets = [routes if i % orders == 0 else routes[::-1] for i in range(members)]
        costs = {r: range(1, members + 1) for r in resources}
        block = Partition.from_one_based([range(1, members + 1)])
        return CoalitionalGame(CongestionGame(tuple(resources), costs, sets), block)

    def test_shared_set_refused_by_its_binomial_count(self, listed, monkeypatch):
        # 3 members on the 6 routes over ABCD: C(6 + 3 - 1, 3) = 56 multisets
        cg = self.routes_game("ABCD", 3, 1)
        profile = as_profile(cg.base, [("A", "B")] * 3)
        monkeypatch.setenv("CCG_SIZE_LIMIT", "55")
        refused = functools.partial(pytest.raises, SizeLimitExceededError)
        with refused(match="joint canonical profile space needs 56 entries, limit is 55"):
            enumerate_pure_ne(cg)
        with refused(match="materialized utility table needs 56 entries"):
            materialize(cg)
        with refused(match="block 0 strategy space needs 56 entries"):
            coalition_best_response(cg, profile, 0)
        assert listed == []
        monkeypatch.setenv("CCG_SIZE_LIMIT", "56")
        assert len(canonical_block_strategies(cg, 0)) == 56

    def test_same_routes_in_two_orders_refused_before_listing(self, listed, monkeypatch):
        # the members' sets hold the same 15 routes over ABCDEF: C(18, 4) = 3060
        cg = self.routes_game("ABCDEF", 4, 2)
        monkeypatch.setenv("CCG_SIZE_LIMIT", "1000")
        with pytest.raises(SizeLimitExceededError, match="profile space needs 3060 entries, limit is 1000"):
            enumerate_pure_ne(cg)
        assert listed == []

    def test_differing_sets_refused_by_their_product(self, listed, monkeypatch):
        sets = [["A", ("A", "B")], ["A", "B", ("A", "B")], ["B", "C", ("B", "C")], ["C"]]
        game = CongestionGame(tuple("ABC"), {r: range(1, 5) for r in "ABC"}, sets)
        cg = CoalitionalGame(game, Partition.from_one_based([[1, 2, 3], [4]]))
        profile = as_profile(game, ["A", "A", "B", "C"])
        # the product listing walks 2 * 3 * 3 = 18 tuples
        monkeypatch.setenv("CCG_SIZE_LIMIT", "17")
        with pytest.raises(SizeLimitExceededError, match="block 0 strategy space needs 18 entries"):
            find_deviation(cg, profile)
        with pytest.raises(SizeLimitExceededError, match="joint canonical profile space needs 18 entries"):
            enumerate_pure_ne(cg)
        with pytest.raises(SizeLimitExceededError, match="block 0 strategy space needs 18 entries"):
            canonical_block_strategies(cg, 0)
        assert listed == []
        monkeypatch.setenv("CCG_SIZE_LIMIT", "18")
        assert len(canonical_block_strategies(cg, 0)) < 17

    def test_block_strategies_charged_before_listing(self, listed, monkeypatch):
        # 3 members on the 66 routes over 12 resources: C(66 + 3 - 1, 3) = 50,116 multisets
        cg = self.routes_game("ABCDEFGHIJKL", 3, 2)
        monkeypatch.setenv("CCG_SIZE_LIMIT", "1000")
        with pytest.raises(SizeLimitExceededError, match="block 0 strategy space needs 50116 entries, limit is 1000"):
            canonical_block_strategies(cg, 0)
        assert listed == []

    def test_placed_profiles_charged_like_the_deviation_search(self, listed, monkeypatch):
        # the same block: placing a profile reads the orbits of the kernel the search compiles
        cg = self.routes_game("ABCDEFGHIJKL", 3, 2)
        profile = as_profile(cg.base, [("A", "B"), ("A", "C"), ("A", "B")])
        monkeypatch.setenv("CCG_SIZE_LIMIT", "1000")
        for refused in (
            lambda: find_deviation(cg, profile),
            lambda: canonicalize(cg, profile),
            lambda: canonical_multiplicity(cg, profile),
            lambda: assemble_profile(cg, [profile.choices]),
        ):
            with pytest.raises(SizeLimitExceededError, match="block 0 strategy space needs 50116 entries"):
                refused()
        assert listed == []

    def test_refusals_do_not_depend_on_call_order(self, monkeypatch):
        """Both blocks list 3 * 2 = 6 tuples for 5 canonical strategies. A
        bound of 30 admits each block (the deviation search) but not both
        (enumeration), whichever is compiled first."""
        sets = [["A", "B", ("A", "B")], ["A", "B"]] * 2
        costs = {r: range(1, 5) for r in "AB"}
        monkeypatch.setenv("CCG_SIZE_LIMIT", "30")
        refused = functools.partial(
            pytest.raises, SizeLimitExceededError, match="profile space needs 36 entries, limit is 30"
        )
        found = []
        for search_first in (True, False):
            game = CongestionGame(("A", "B"), costs, sets)
            cg = CoalitionalGame(game, Partition.from_one_based([[1, 2], [3, 4]]))
            profile = as_profile(cg.base, ["A"] * 4)
            if search_first:
                found.append(find_deviation(cg, profile))
            with refused():
                enumerate_pure_ne(cg)
            if not search_first:
                found.append(find_deviation(cg, profile))
            assert [len(canonical_block_strategies(cg, k)) for k in range(2)] == [5, 5]
        assert found[0] == found[1]

    @pytest.mark.parametrize("restricted", [False, True])
    def test_counts_equal_listed_strategies(self, listed, monkeypatch, restricted):
        for r in range(1, 5):
            for m in range(1, r + 1 if restricted else 5):
                costs = {x: range(m + 1) for x in "ABCD"[:r]}
                game = CongestionGame.simple(tuple("ABCD"[:r]), costs)
                cg = CoalitionalGame(game, Partition.from_one_based([range(1, m + 1), [m + 1]]))
                # read off the oracle's listing, so the game compiles nothing before the refusal
                total = len(listed_block_layout(cg, 0, restricted)[0]) * r
                listed.clear()
                monkeypatch.setenv("CCG_SIZE_LIMIT", str(total - 1))
                # a one-profile game would need a zero bound, which is refused as a setting
                refusal = (
                    pytest.raises(SizeLimitExceededError, match=f"needs {total} entries")
                    if total > 1
                    else pytest.raises(InvalidParamsError, match="must be positive, got 0")
                )
                with refusal:
                    enumerate_pure_ne(cg, restricted=restricted)
                assert listed == []
                monkeypatch.setenv("CCG_SIZE_LIMIT", str(total))
                assert enumerate_pure_ne(cg, restricted=restricted).exhaustive
