"""Invariant tests over randomized instances.

Instances are drawn through the package's own seeded generators so shrinking
works on compact integer seeds rather than raw game structures.
"""

from __future__ import annotations

import gc
import itertools
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccg import (
    CoalitionalGame,
    CongestionGame,
    CongestionVector,
    Partition,
    PureProfile,
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
    is_ccg_ne,
    is_ne_congestion,
    loads_game,
    dumps_game,
    materialize,
    player_cost,
    private_congestion,
    random_game,
    random_partition,
    rosenthal_potential,
    solve_pair_ccg,
    underlying_pure_ne,
)
from ccg.errors import BlockLargerThanResourceSetError, CcgError
from ccg.game import compile_within_limit, validate_profile
from ccg.instances import no_ne_overlap_fixture

from oracle_helpers import (
    assert_kernel_matches_definition,
    brute_ccg_equilibria,
    brute_is_ne_congestion,
    fix_strategies_subgame,
    listed_block_layout,
    listed_block_orbit,
    pure_nash_equilibria,
    reference_best_reply,
    scan_pure_ne,
)

COMMON = settings(max_examples=40, deadline=None)


@st.composite
def simple_ccgs(draw, max_n: int = 5, max_r: int = 3, max_block: int | None = None):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(1, max_r))
    cost_class = draw(st.sampled_from(("linear", "convex", "monotone")))
    cap = draw(st.integers(1, min(max_block or 3, n)))
    game = random_game(seed, n, r, cost_class)
    partition = random_partition(seed, n, cap)
    return CoalitionalGame(game, partition)


@st.composite
def non_simple_ccgs(draw, max_n: int = 4, max_r: int = 3, shared: bool = False):
    """Games whose agents pick one- or two-resource choices from their own
    strategy sets, so members of one block can play different things. With
    `shared`, every set also holds the first resource alone, so that all
    sub-agents can crowd onto it."""
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(2, max_r))
    cost_class = draw(st.sampled_from(("linear", "convex", "monotone")))
    simple = random_game(seed, n, r, cost_class)
    menu = [(x,) for x in simple.resources] + list(itertools.combinations(simple.resources, 2))
    sets = tuple(
        tuple(draw(st.lists(st.sampled_from(menu), min_size=1, max_size=3, unique=True)))
        for _ in range(n)
    )
    if shared:
        first = simple.resources[:1]
        sets = tuple(s if first in s else (*s, first) for s in sets)
    game = CongestionGame(simple.resources, simple.costs, sets)
    return CoalitionalGame(game, random_partition(seed, n, draw(st.integers(1, min(3, n)))))


@st.composite
def ccgs_with_profile(draw):
    overlap = draw(st.booleans())
    if overlap:
        fx = no_ne_overlap_fixture()
        cg = CoalitionalGame(fx.game, fx.partition)
    else:
        cg = draw(simple_ccgs())
    choices = tuple(
        cg.base.strategy_sets[i][draw(st.integers(0, len(cg.base.strategy_sets[i]) - 1))]
        for i in range(cg.base.n)
    )
    return cg, PureProfile(choices)


@st.composite
def simple_games_with_vector(draw):
    """A simple game with small cost steps, so that ties are common, and an
    occupancy vector over it that may leave resources empty."""
    n = draw(st.integers(1, 5))
    resources = tuple("ABCD"[: draw(st.integers(1, 4))])
    steps = st.lists(st.sampled_from((0, 0, Fraction(1, 2), 1, 2)), min_size=n, max_size=n)
    game = CongestionGame.simple(
        resources, {r: tuple(itertools.accumulate(draw(steps))) for r in resources}
    )
    users = draw(st.lists(st.integers(0, len(resources) - 1), min_size=n, max_size=n))
    return game, CongestionVector(resources, tuple(map(users.count, range(len(resources)))))


@st.composite
def tied_simple_ccgs(draw):
    """A simple game with cost steps of 0, 1/2 or 1, so that many block
    strategies tie, split into several blocks of one size (and perhaps one
    more sub-agent alone), members drawn in any order."""
    size, count = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    n = size * count + draw(st.integers(0, 1))
    resources = tuple("ABC"[: draw(st.integers(1, 3))])
    steps = st.lists(st.sampled_from((0, Fraction(1, 2), 1)), min_size=n, max_size=n)
    game = CongestionGame.simple(
        resources, {r: tuple(itertools.accumulate(draw(steps))) for r in resources}
    )
    members = draw(st.permutations(range(n)))
    blocks = [members[k : k + size] for k in range(0, size * count, size)] + [members[size * count :]]
    return CoalitionalGame(game, Partition([b for b in blocks if b]))


class TestBookkeepingIdentities:
    @COMMON
    @given(ccgs_with_profile())
    def test_congestion_totals(self, pair):
        cg, s = pair
        assert congestion(cg.base, s).total == sum(len(c) for c in s.choices)

    @COMMON
    @given(ccgs_with_profile())
    def test_private_vectors_sum_to_total(self, pair):
        cg, s = pair
        total = congestion(cg.base, s).counts
        per_block = [private_congestion(cg, s, k).counts for k in range(len(cg.blocks))]
        assert tuple(sum(col) for col in zip(*per_block)) == total

    @COMMON
    @given(ccgs_with_profile())
    def test_utilities_sum_to_negated_costs(self, pair):
        cg, s = pair
        lhs = sum(coalition_utility(cg, s, k) for k in range(len(cg.blocks)))
        rhs = -sum(player_cost(cg.base, s, i) for i in range(cg.base.n))
        assert lhs == rhs

    @COMMON
    @given(ccgs_with_profile())
    def test_canonicalize_preserves_utilities(self, pair):
        cg, s = pair
        canon = canonicalize(cg, s)
        for k in range(len(cg.blocks)):
            assert coalition_utility(cg, canon, k) == coalition_utility(cg, s, k)

    @COMMON
    @given(ccgs_with_profile())
    def test_multiplicity_counts_at_least_one(self, pair):
        cg, s = pair
        assert canonical_multiplicity(cg, s) >= 1


class TestCompiledKernel:
    @COMMON
    @given(simple_ccgs(max_n=5, max_r=3))
    def test_simple_payoffs_match_coalition_utility(self, cg):
        assert_kernel_matches_definition(cg)

    @COMMON
    @given(non_simple_ccgs())
    def test_non_simple_payoffs_match_coalition_utility(self, cg):
        assert_kernel_matches_definition(cg)

    @COMMON
    @given(st.one_of(simple_ccgs(), non_simple_ccgs()), st.data())
    def test_subgame_against_frozen_outsiders_matches_coalition_utility(self, cg, data):
        """Every entry of a subgame's form, its free blocks playing against
        outsiders frozen on random choices, is the free block's
        `coalition_utility` at the assembled profile."""
        g, blocks = cg.base, range(len(cg.blocks))
        free = sorted(data.draw(st.lists(st.sampled_from(blocks), min_size=1, unique=True)))
        outsiders = [i for k in blocks if k not in free for i in cg.blocks[k]]
        fixed = {i: data.draw(st.sampled_from(g.strategy_sets[i])) for i in outsiders}
        sub = fix_strategies_subgame(cg, fixed, free)
        layouts = compile_within_limit(cg, False).layouts
        for f, idx in enumerate(sub.profiles()):
            choices = dict(fixed)
            for k, si in zip(free, idx):
                choices.update(zip(cg.blocks[k], layouts[k].orbits[si][0]))
            s = PureProfile(tuple(choices[i] for i in range(g.n)))
            for p, k in enumerate(free):
                assert Fraction(sub.payoffs[p][f], sub.scale) == coalition_utility(cg, s, k)

    @COMMON
    @given(st.one_of(simple_ccgs(), non_simple_ccgs(), non_simple_ccgs(shared=True)), st.data())
    def test_occupancy_codes_and_best_replies_match_the_reference(self, cg, data):
        g = cg.base
        kernel = compile_within_limit(cg, False)
        vectors = list(itertools.product(range(g.n + 1), repeat=len(g.resources)))
        codes = [kernel.code(v) for v in vectors]
        assert len(set(codes)) == len(vectors)
        assert [tuple(kernel.digits(c)) for c in codes] == vectors
        # when every sub-agent can use the first resource, crowding onto it
        # takes that digit to n
        first = g.resources[0]
        crowd = data.draw(st.booleans()) and all(any(first in c for c in s) for s in g.strategy_sets)
        choices = [data.draw(st.sampled_from([c for c in s if first in c or not crowd])) for s in g.strategy_sets]
        for k, block in enumerate(cg.blocks):
            counts = [[sum(r in c for c in strat) for r in g.resources] for strat in kernel.strategies[k]]
            assert kernel.codes[k] == [kernel.code(v) for v in counts]
            env = [sum(r in c for i, c in enumerate(choices) if i not in block) for r in g.resources]
            values, best, arg = kernel.best_reply(k, kernel.code(env))
            expected_values, expected_best, expected_arg = reference_best_reply(cg, k, env)
            assert [Fraction(v, kernel.scale) for v in values] == expected_values
            assert (Fraction(best, kernel.scale), arg) == (expected_best, expected_arg)


def _answer(cg, s, restricted, call):
    """One query's result, or its error, in comparable form."""
    name, arg = call
    try:
        if name == "deviation":
            return find_deviation(cg, s, restricted)
        if name == "best reply":
            return coalition_best_response(cg, s, arg, restricted)
        if name == "enumerate":
            return enumerate_pure_ne(cg, restricted, stop_after=arg)
        sf = materialize(cg)
        return sf.strategies, sf.payoffs, sf.scale
    except CcgError as exc:
        return type(exc), str(exc)


class TestKernelCache:
    """A game keeps its kernels and their best replies; no sequence of
    calls on one game object changes an answer."""

    @COMMON
    @given(st.data())
    def test_calls_in_any_order_match_a_fresh_game(self, data):
        kind = data.draw(st.sampled_from(("simple", "restricted", "non-simple")))
        cg = data.draw(non_simple_ccgs() if kind == "non-simple" else simple_ccgs())
        g, restricted = cg.base, kind == "restricted"
        s = PureProfile(tuple(data.draw(st.sampled_from(options)) for options in g.strategy_sets))
        call = st.one_of(
            st.tuples(st.sampled_from(("deviation", "materialize")), st.none()),
            st.tuples(st.just("best reply"), st.integers(0, len(cg.blocks) - 1)),
            st.tuples(st.just("enumerate"), st.sampled_from((None, 1))),
        )
        for step in data.draw(st.lists(call, min_size=1, max_size=8)):
            fresh = CoalitionalGame(
                CongestionGame(g.resources, g.costs, g.strategy_sets), Partition(cg.blocks)
            )
            assert _answer(cg, s, restricted, step) == _answer(fresh, s, restricted, step)


class TestNonSimpleEquilibria:
    @COMMON
    @given(non_simple_ccgs(max_n=4, max_r=2))
    def test_reported_equilibria_are_playable_and_match_brute_force(self, cg):
        report = enumerate_pure_ne(cg)
        for s, multiplicity in zip(report.equilibria, report.multiplicities):
            validate_profile(cg.base, s)
            assert multiplicity >= 1
            assert find_deviation(cg, s) is None
        brute = {canonicalize(cg, s).choices for s in brute_ccg_equilibria(cg)}
        assert {s.choices for s in report.equilibria} == brute


class TestFileFormat:
    @COMMON
    @given(simple_ccgs())
    def test_round_trip_identity(self, cg):
        game2, partition2 = loads_game(dumps_game(cg.base, cg.partition))
        assert game2 == cg.base
        assert partition2 == cg.partition

    @COMMON
    @given(ccgs_with_profile())
    def test_reread_utilities_bit_identical(self, pair):
        cg, s = pair
        game2, partition2 = loads_game(dumps_game(cg.base, cg.partition))
        cg2 = CoalitionalGame(game2, partition2)
        for k in range(len(cg.blocks)):
            assert coalition_utility(cg2, s, k) == coalition_utility(cg, s, k)


class TestDynamics:
    @COMMON
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 4))
    def test_each_step_strictly_decreases_rosenthal(self, seed, n, r):
        g = random_game(seed, n, r, "monotone")
        result = underlying_pure_ne(g)
        choices = list(result.start.choices)
        phi = rosenthal_potential(g, result.start)
        for move in result.moves:
            choices[move.agent] = (move.target,)
            phi_next = rosenthal_potential(g, PureProfile(tuple(choices)))
            assert phi_next < phi
            phi = phi_next

    @COMMON
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 4))
    def test_each_move_is_the_movers_first_cheapest_strict_improvement(self, seed, n, r):
        g = random_game(seed, n, r, "monotone")
        result = underlying_pure_ne(g)
        choices = list(result.start.choices)
        for move in result.moves:
            assert choices[move.agent] == (move.source,)
            prices = []
            for resource in g.resources:
                choices[move.agent] = (resource,)
                prices.append(player_cost(g, PureProfile(tuple(choices)), move.agent))
            cheapest = min(prices)
            assert move.cost_before == prices[g.resources.index(move.source)] > cheapest
            assert move.target == g.resources[prices.index(cheapest)]
            assert move.cost_after == cheapest
            assert type(move.cost_before) is type(move.cost_after) is Fraction
            choices[move.agent] = (move.target,)

    @COMMON
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 4))
    def test_dynamics_output_is_equilibrium_vector(self, seed, n, r):
        g = random_game(seed, n, r, "monotone")
        result = underlying_pure_ne(g)
        assert is_ne_congestion(g, congestion(g, result.profile))


class TestEquilibriumCongestionTest:
    @settings(max_examples=150, deadline=None)
    @given(simple_games_with_vector())
    def test_kernel_test_matches_single_agent_moves(self, pair):
        g, c = pair
        assert is_ne_congestion(g, c) == brute_is_ne_congestion(g, c)


class TestBestReplyStructure:
    @COMMON
    @given(simple_ccgs(), st.data())
    def test_simple_block_utility_depends_on_private_vector_only(self, cg, data):
        import itertools

        k = data.draw(st.integers(0, len(cg.blocks) - 1))
        opponents = tuple(
            cg.base.strategy_sets[i][
                data.draw(st.integers(0, len(cg.base.strategy_sets[i]) - 1))
            ]
            for i in range(cg.base.n)
        )
        block = cg.blocks[k]
        by_private: dict[tuple, Fraction] = {}
        for raw in itertools.product(*(cg.base.strategy_sets[i] for i in block)):
            choices = list(opponents)
            for i, choice in zip(block, raw):
                choices[i] = choice
            profile = PureProfile(tuple(choices))
            key = private_congestion(cg, profile, k).counts
            u = coalition_utility(cg, profile, k)
            assert by_private.setdefault(key, u) == u


class TestSolverProperty:
    @COMMON
    @given(simple_ccgs(max_n=6, max_r=4, max_block=2))
    def test_pair_solver_output_is_equilibrium(self, cg):
        trace = solve_pair_ccg(cg.base, cg.partition)
        assert is_ccg_ne(cg, trace.result)

    @COMMON
    @given(simple_ccgs(max_n=6, max_r=4, max_block=2))
    def test_arrangement_preserves_congestion(self, cg):
        trace = solve_pair_ccg(cg.base, cg.partition)
        underlying = congestion(cg.base, trace.underlying_profile)
        assert congestion(cg.base, trace.arrangement).counts == underlying.counts

    @COMMON
    @given(simple_ccgs(max_n=6, max_r=4, max_block=2))
    def test_pair_solver_moves_strictly_improve(self, cg):
        trace = solve_pair_ccg(cg.base, cg.partition)
        for move in trace.moves:
            assert move.cost_delta < 0


class TestEnumerationAgreement:
    @COMMON
    @given(simple_ccgs(max_n=4, max_r=3))
    def test_materialized_equilibria_translate_back(self, cg):
        sf = materialize(cg)
        strats = [canonical_block_strategies(cg, k) for k in range(len(cg.blocks))]
        translated = {
            assemble_profile(cg, [strats[k][si] for k, si in enumerate(idx)]).choices
            for idx in pure_nash_equilibria(sf)
        }
        ours = {p.choices for p in enumerate_pure_ne(cg).equilibria}
        assert translated == ours

    @COMMON
    @given(ccgs_with_profile())
    def test_deviation_witness_strictly_improves(self, pair):
        cg, s = pair
        witness = find_deviation(cg, s)
        if witness is None:
            return
        choices = list(canonicalize(cg, s).choices)
        for i, choice in zip(cg.blocks[witness.block], witness.strategy):
            choices[i] = choice
        improved = coalition_utility(cg, PureProfile(tuple(choices)), witness.block)
        assert improved == witness.best_value
        assert improved > coalition_utility(cg, s, witness.block)


class TestSearchMatchesScan:
    """The suffix-subgame search reports exactly what the joint-profile scan
    does: equilibria, multiplicities, `exhaustive` and `profiles_checked`."""

    STOPS = st.sampled_from((None, 1, 2, 3))

    @staticmethod
    def check(cg, restricted, stop_after):
        try:
            expected = scan_pure_ne(cg, restricted=restricted, stop_after=stop_after)
        except BlockLargerThanResourceSetError:
            with pytest.raises(BlockLargerThanResourceSetError):
                enumerate_pure_ne(cg, restricted=restricted, stop_after=stop_after)
            return
        assert enumerate_pure_ne(cg, restricted=restricted, stop_after=stop_after) == expected

    @COMMON
    @given(simple_ccgs(max_n=6, max_r=3), STOPS)
    def test_simple(self, cg, stop_after):
        self.check(cg, False, stop_after)

    @COMMON
    @given(simple_ccgs(max_n=6, max_r=4), STOPS)
    def test_restricted(self, cg, stop_after):
        self.check(cg, True, stop_after)

    @COMMON
    @given(non_simple_ccgs(), STOPS)
    def test_non_simple(self, cg, stop_after):
        self.check(cg, False, stop_after)

    @COMMON
    @given(tied_simple_ccgs(), st.booleans(), STOPS)
    def test_ties_and_equal_blocks(self, cg, restricted, stop_after):
        self.check(cg, restricted, stop_after)


@st.composite
def shared_set_ccgs(draw, max_n: int = 4, max_r: int = 3):
    """Non-simple games whose sub-agents all have one strategy set, holding
    a two-resource choice, passed as one object or as equal copies."""
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(2, max_r))
    simple = random_game(seed, n, r, "monotone")
    pairs = list(itertools.combinations(simple.resources, 2))
    menu = [(x,) for x in simple.resources] + pairs
    shared = (draw(st.sampled_from(pairs)), *draw(st.lists(st.sampled_from(menu), max_size=3)))
    sets = [shared] * n if draw(st.booleans()) else [list(shared) for _ in range(n)]
    game = CongestionGame(simple.resources, simple.costs, tuple(sets))
    return CoalitionalGame(game, random_partition(seed, n, draw(st.integers(1, n))))


@st.composite
def rewritten_set_ccgs(draw, max_n: int = 4, max_r: int = 3):
    """Non-simple games whose sub-agents each hold one of two strategy sets,
    each holding a two-resource choice, written as the set itself, a
    permutation of it, or it with one choice repeated."""
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(2, max_r))
    simple = random_game(seed, n, r, "monotone")
    pairs = list(itertools.combinations(simple.resources, 2))
    menu = [(x,) for x in simple.resources] + pairs
    bases = [
        (draw(st.sampled_from(pairs)), *draw(st.lists(st.sampled_from(menu), max_size=3, unique=True)))
        for _ in range(2)
    ]
    sets = []
    for _ in range(n):
        base = bases[draw(st.integers(0, 1))]
        repeated = st.sampled_from(base).map(lambda c, base=base: [*base, c])
        sets.append(draw(st.one_of(st.just(base), st.permutations(base), repeated)))
    game = CongestionGame(simple.resources, simple.costs, tuple(sets))
    return CoalitionalGame(game, random_partition(seed, n, draw(st.integers(1, n))))


class TestSharedSetLayouts:
    """However its members' sets are written, a block's layout is the
    product listing of `oracle_helpers.listed_block_layout`, and the size it
    is charged is the number of strategies that listing walks: exactly its
    canonical count when the members' sets hold the same choices."""

    @COMMON
    @given(rewritten_set_ccgs())
    def test_layout_equals_product_listing(self, cg):
        assert not cg.base.is_simple
        g, kernel = cg.base, compile_within_limit(cg, False)
        for k, block in enumerate(cg.blocks):
            layout = kernel.layouts[k]
            strategies, contributions = listed_block_layout(cg, k)
            assert layout.strategies == strategies
            assert list(layout.contributions) == contributions
            charged = kernel.listing_sizes[k]
            if all(set(g.strategy_sets[i]) == set(g.strategy_sets[block[0]]) for i in block):
                assert charged == len(strategies)
            else:
                assert charged == math.prod(len(g.strategy_sets[i]) for i in block)


class TestRestrictedLift:
    @COMMON
    @given(st.integers(0, 10**6), st.integers(2, 5), st.integers(2, 4))
    def test_applicable_profiles_appear_in_restricted_equilibria(self, seed, n, r):
        import itertools

        g = random_game(seed, n, r, "monotone")
        partition = random_partition(seed, n, min(2, r))
        cg = CoalitionalGame(g, partition)
        report = enumerate_pure_ne(cg, restricted=True)
        found = {p.choices for p in report.equilibria}
        strats = [canonical_block_strategies(cg, k, restricted=True) for k in range(len(cg.blocks))]
        for combo in itertools.product(*strats):
            s = assemble_profile(cg, list(combo))
            if not is_ne_congestion(g, congestion(g, s)):
                continue
            verdict = check_ne_lift(cg, s, restricted=True)
            assert verdict.applicable and verdict.holds
            assert canonicalize(cg, s).choices in found


@st.composite
def signed_tied_ccgs(draw):
    """A game with cost steps of -1, 0, 1/2 or 1 from a start of -2 to 0, so
    that costs go negative and many block strategies tie, and whether to
    search its restricted space. Its sub-agents all hold the singletons
    (a simple game, perhaps restricted), all hold one drawn set, or each
    hold their own."""
    n = draw(st.integers(2, 5))
    resources = tuple("ABC"[: draw(st.integers(1, 3))])
    steps = st.lists(st.sampled_from((-1, 0, 0, Fraction(1, 2), 1)), min_size=n - 1, max_size=n - 1)
    costs = {r: tuple(itertools.accumulate(draw(steps), initial=draw(st.integers(-2, 0)))) for r in resources}
    menu = [(x,) for x in resources] + list(itertools.combinations(resources, 2))
    drawn_set = st.lists(st.sampled_from(menu), min_size=1, max_size=3, unique=True)
    kind = draw(st.sampled_from(("simple", "shared", "own")))
    if kind == "simple":
        sets = [[(x,) for x in resources]] * n
    elif kind == "shared":
        sets = [draw(drawn_set)] * n
    else:
        sets = [draw(drawn_set) for _ in range(n)]
    members = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    blocks = [members[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    cg = CoalitionalGame(CongestionGame(resources, costs, sets), Partition(blocks))
    restricted = kind == "simple" and cg.partition.max_block_size <= len(resources) and draw(st.booleans())
    return cg, restricted


class TestLayoutTables:
    """The tables kept on a `BlockLayout`: a miss evaluated from the term
    plan, the orbits, and their sharing and freeing."""

    @COMMON
    @given(signed_tied_ccgs(), st.data())
    def test_best_reply_from_the_plan_equals_the_reference(self, case, data):
        cg, restricted = case
        g = cg.base
        kernel = compile_within_limit(cg, restricted)
        for k, block in enumerate(cg.blocks):
            others = [data.draw(st.sampled_from(g.strategy_sets[i])) for i in range(g.n) if i not in block]
            env = [sum(r in c for c in others) for r in g.resources]
            values, best, arg = kernel.best_reply(k, kernel.code(env))
            # restricted strategies are some of the block's canonical ones
            reference = dict(zip(canonical_block_strategies(cg, k), reference_best_reply(cg, k, env)[0]))
            expected = [reference[strat] * kernel.scale for strat in kernel.strategies[k]]
            assert values == expected
            assert best == max(expected)
            assert arg == tuple(si for si, v in enumerate(expected) if v == best)

    @COMMON
    @given(st.one_of(
        signed_tied_ccgs(),
        simple_ccgs(max_n=6, max_r=4).map(lambda cg: (cg, False)),
        shared_set_ccgs().map(lambda cg: (cg, False)),
        rewritten_set_ccgs().map(lambda cg: (cg, False)),
    ))
    def test_orbits_equal_the_listing(self, case):
        cg, restricted = case
        kernel = compile_within_limit(cg, restricted)
        for layout, block in zip(kernel.layouts, cg.blocks):
            for si, strat in enumerate(layout.strategies):
                assert layout.orbits[si] == listed_block_orbit(cg.base, block, strat)
                assert layout.index[strat] == si

    @COMMON
    @given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.booleans(), st.data())
    def test_games_on_one_set_share_one_layout_and_its_tables(self, r, m, simple, restricted, data):
        resources = tuple("ABC"[:r])
        menu = [(x,) for x in resources] + list(itertools.combinations(resources, 2))
        shared = [(x,) for x in resources] if simple else data.draw(st.lists(st.sampled_from(menu), min_size=1))
        restricted = restricted and simple and m <= r
        costs = st.lists(st.integers(-2, 3), min_size=m + 1, max_size=m + 1)
        games = [
            CoalitionalGame(
                CongestionGame(resources, {x: data.draw(costs) for x in resources}, [list(shared)] * (m + 1)),
                Partition([range(m), [m]]),
            )
            for _ in range(2)
        ]
        layouts = [compile_within_limit(cg, restricted).layouts[0] for cg in games]
        assert layouts[0] is layouts[1]
        layout = layouts[0]
        tables = []
        for cg in games:
            enumerate_pure_ne(cg, restricted)
            first = [c for c in layout.strategies[0]] + [shared[0]]
            find_deviation(cg, assemble_profile(cg, [first[:m], first[m:]]), restricted)
            tables.append({name: vars(layout)[name] for name in ("terms", "orbits", "index") if name in vars(layout)})
        assert {"terms", "index"} <= tables[0].keys()
        assert tables[0].keys() == tables[1].keys()
        assert all(tables[1][name] is table for name, table in tables[0].items())

    def test_product_layout_is_freed_with_its_game(self):
        sets = [["A", ("A", "B")], ["A", "B", ("A", "B")], ["B", "C", ("B", "C")], ["C"]]
        cg = CoalitionalGame(
            CongestionGame(tuple("ABC"), {r: range(1, 5) for r in "ABC"}, sets),
            Partition.from_one_based([[1, 2, 3], [4]]),
        )
        assert enumerate_pure_ne(cg).equilibria
        layout = compile_within_limit(cg, False).layouts[0]
        assert layout.orbits and "terms" in vars(layout)
        freed = weakref.ref(layout)
        del cg, layout
        gc.collect()
        assert freed() is None


class TestCanonicalOrbits:
    """`canonicalize` and `canonical_multiplicity` read each block's orbit
    off its layout, in closed form or counted while listed: per block, the
    member order and the factor equal the listing of member permutations
    in `oracle_helpers.listed_block_orbit`."""

    @COMMON
    @given(st.one_of(
        simple_ccgs(max_n=6, max_r=4),
        shared_set_ccgs(),
        rewritten_set_ccgs(),
        non_simple_ccgs(),
        signed_tied_ccgs().map(lambda case: case[0]),
    ), st.data())
    def test_member_order_and_factor_equal_the_listing(self, cg, data):
        g = cg.base
        s = PureProfile(tuple(data.draw(st.sampled_from(g.strategy_sets[i])) for i in range(g.n)))
        canon = canonicalize(cg, s)
        for block in cg.blocks:
            members, size = listed_block_orbit(g, block, [s.choices[i] for i in block])
            assert tuple(canon.choices[i] for i in block) == members
            # block's factor alone: every other sub-agent is a block of its own, of orbit size 1
            alone = Partition([block, *((i,) for i in range(g.n) if i not in block)])
            assert canonical_multiplicity(CoalitionalGame(g, alone), s) == size
