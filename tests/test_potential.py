from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ccg.experiments
from ccg import (
    CoalitionalGame,
    CongestionGame,
    CostTable,
    Partition,
    PotentialTable,
    PotentialVerdict,
    StrategicForm,
    build_potential_by_path,
    canonical_block_strategies,
    check_linearity_equivalence,
    exact_potential,
    four_cycle_residual,
    is_linear,
    linearity_report,
    materialize,
    parametric_two_resource_fixture,
    random_partition,
    verify_exact_potential,
)
from ccg.errors import (
    CoverageMismatchError,
    InvalidIndicesError,
    SizeLimitExceededError,
)
from ccg.experiments import linearity_sweep
from ccg.game import compile_within_limit
from oracle_helpers import (
    cached_replies,
    first_nonzero_square,
    fix_strategies_subgame,
    form_from_utilities,
    form_utilities,
    pairwise_potential_check,
    square_residual_by_definition,
    table_from_values,
    table_values,
)
from test_properties import non_simple_ccgs

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def hand_built_forms(draw):
    """Small normal-form games with rational utilities. With `potential`
    True each utility is a random potential plus a term that ignores the
    player's own strategy, so an exact potential exists."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    profiles = list(itertools.product(*(range(m) for m in sizes)))
    potential = draw(st.booleans())
    if potential:
        base = {p: draw(RATIONALS) for p in profiles}
        others = [{} for _ in sizes]
        utilities = {}
        for p in profiles:
            row = []
            for i, terms in enumerate(others):
                rest = p[:i] + p[i + 1 :]
                if rest not in terms:
                    terms[rest] = draw(RATIONALS)
                row.append(base[p] + terms[rest])
            utilities[p] = tuple(row)
    else:
        utilities = {p: tuple(draw(RATIONALS) for _ in sizes) for p in profiles}
    labels = tuple(tuple(f"s{j}" for j in range(m)) for m in sizes)
    return form_from_utilities(labels, utilities), potential


def pair_singleton_game(a, b) -> StrategicForm:
    fx = parametric_two_resource_fixture(a, b)
    return materialize(CoalitionalGame(fx.game, fx.partition))


def constant_game() -> StrategicForm:
    return form_from_utilities(
        (("x", "y"), ("x", "y")),
        {p: (Fraction(3), Fraction(3)) for p in itertools.product(range(2), range(2))},
    )


class TestPathConstruction:
    def test_one_player_game(self):
        sf = form_from_utilities(
            (("a", "b", "c"),),
            {(0,): (Fraction(5),), (1,): (Fraction(7),), (2,): (Fraction(2),)},
        )
        table = build_potential_by_path(sf)
        assert table_values(table) == {(0,): 0, (1,): 2, (2,): -3}

    def test_constant_game_gives_zero_table(self):
        table = build_potential_by_path(constant_game())
        assert set(table_values(table).values()) == {0}

    def test_linear_instance_builds_verifying_table(self):
        sf = pair_singleton_game((1, 2, 3), (2, 4, 6))
        table = build_potential_by_path(sf)
        ok, violation = verify_exact_potential(sf, table)
        assert ok and violation is None

    def test_anchored_at_zero(self):
        sf = pair_singleton_game((1, 2, 3), (2, 4, 6))
        table = build_potential_by_path(sf)
        assert table_values(table)[(0, 0)] == 0


class TestVerify:
    def test_candidate_fails_on_cycle_breaking_game(self, triple_ccg):
        sf = materialize(triple_ccg)
        table = build_potential_by_path(sf)
        ok, violation = verify_exact_potential(sf, table)
        assert not ok
        assert violation is not None
        assert violation.potential_delta != violation.utility_delta

    def test_zero_table_on_constant_game(self):
        sf = constant_game()
        table = table_from_values({p: Fraction(0) for p in sf.profiles()})
        assert verify_exact_potential(sf, table) == (True, None)


class TestFiberTestAgainstPairwiseOracle:
    @settings(max_examples=80, deadline=None)
    @given(hand_built_forms(), st.data())
    def test_same_verdict_and_first_violation(self, form, data):
        sf, potential = form
        path_table = build_potential_by_path(sf)
        random_table = table_from_values({p: data.draw(RATIONALS) for p in sf.profiles()})
        for table in (path_table, random_table):
            assert verify_exact_potential(sf, table) == pairwise_potential_check(sf, table)
        if potential:
            assert verify_exact_potential(sf, path_table) == (True, None)


class TestExactPotential:
    def test_nonlinear_costs_yield_first_cycle_witness(self):
        sf = pair_singleton_game((0, 12, 16), (0, 12, 16))
        verdict = exact_potential(sf)
        assert not verdict.has_potential
        w = verdict.witness
        assert (w.player_i, w.player_j) == (0, 1)
        assert w.profile == (0, 0)
        assert (w.alt_i, w.alt_j) == (1, 1)
        assert w.residual == Fraction(8)  # 2*12 - 0 - 16

    def test_witness_reevaluates_identically(self):
        sf = pair_singleton_game((0, 12, 16), (0, 12, 16))
        w = exact_potential(sf).witness
        assert four_cycle_residual(sf, w.player_i, w.player_j, w.profile, w.alt_i, w.alt_j) == w.residual

    def test_linear_costs_yield_table(self):
        verdict = exact_potential(pair_singleton_game((1, 2, 3), (2, 4, 6)))
        assert verdict.has_potential

    def test_discrete_partition_always_has_potential(self, triple_game):
        sf = materialize(CoalitionalGame(triple_game, Partition.discrete(4)))
        assert exact_potential(sf).has_potential

    def test_decision_stable_under_utility_shift(self):
        sf = pair_singleton_game((1, 2, 3), (2, 4, 6))
        shifted = form_from_utilities(
            sf.strategies,
            {p: (u[0] + 100, u[1]) for p, u in form_utilities(sf).items()},
        )
        assert exact_potential(shifted).has_potential
        sf2 = pair_singleton_game((0, 12, 16), (0, 12, 16))
        shifted2 = form_from_utilities(
            sf2.strategies,
            {p: (u[0], u[1] - 7) for p, u in form_utilities(sf2).items()},
        )
        assert not exact_potential(shifted2).has_potential

    def test_decision_stable_under_strategy_permutation(self):
        for a, b, expected in (((1, 2, 3), (2, 4, 6), True), ((0, 12, 16), (0, 12, 16), False)):
            sf = pair_singleton_game(a, b)
            utilities = form_utilities(sf)
            perm = (2, 0, 1)  # relabel the pair block's three strategies
            permuted = form_from_utilities(
                (tuple(sf.strategies[0][perm[i]] for i in range(3)), sf.strategies[1]),
                {
                    (i, j): utilities[(perm[i], j)]
                    for i in range(3)
                    for j in range(2)
                },
            )
            assert exact_potential(permuted).has_potential is expected

    def test_decision_stable_under_player_swap(self):
        for a, b, expected in (((1, 2, 3), (2, 4, 6), True), ((0, 12, 16), (0, 12, 16), False)):
            sf = pair_singleton_game(a, b)
            swapped = form_from_utilities(
                (sf.strategies[1], sf.strategies[0]),
                {(j, i): (u[1], u[0]) for (i, j), u in form_utilities(sf).items()},
            )
            assert exact_potential(swapped).has_potential is expected

    def test_tables_unique_up_to_constant(self):
        sf = pair_singleton_game((1, 2, 3), (2, 4, 6))
        table = exact_potential(sf).table
        rebased = table_from_values({p: v + Fraction(9, 2) for p, v in table_values(table).items()})
        ok, _ = verify_exact_potential(sf, rebased)
        assert ok
        old, new = table_values(table), table_values(rebased)
        diffs = {new[p] - old[p] for p in sf.profiles()}
        assert len(diffs) == 1


class TestFourCycle:
    def test_symbolic_residual(self):
        sf = pair_singleton_game((1, 2, 4), (1, 2, 3))
        assert four_cycle_residual(sf, 0, 1, (0, 0), 1, 1) == Fraction(-1)  # 2*2-1-4

    def test_linear_costs_cancel(self):
        sf = pair_singleton_game((1, 2, 3), (2, 4, 6))
        assert four_cycle_residual(sf, 0, 1, (0, 0), 1, 1) == 0

    def test_degenerate_cycle_is_zero(self):
        sf = pair_singleton_game((1, 2, 4), (1, 2, 3))
        assert four_cycle_residual(sf, 0, 1, (1, 1), 1, 1) == 0

    def test_invalid_indices(self):
        sf = pair_singleton_game((1, 2, 4), (1, 2, 3))
        with pytest.raises(InvalidIndicesError):
            four_cycle_residual(sf, 0, 0, (0, 0), 1, 1)
        with pytest.raises(InvalidIndicesError):
            four_cycle_residual(sf, 0, 1, (0, 0), 5, 1)


class TestLinearity:
    def test_nonlinear_table(self):
        entry = is_linear(CostTable((0, 12, 16, 18)))
        assert not entry.linear
        assert entry.first_violation == 2

    def test_proportional_table(self):
        entry = is_linear(CostTable((2, 4, 6)))
        assert entry.linear and entry.slope == 2 and entry.intercept == 0

    def test_constant_table(self):
        entry = is_linear(CostTable((5, 5, 5)))
        assert entry.linear and entry.slope == 0 and entry.intercept == 5

    def test_short_tables_are_affine(self):
        assert is_linear(CostTable((3, 7))).slope == 4
        assert is_linear(CostTable((3,))).linear

    def test_report_covers_all_resources(self, triple_game):
        report = linearity_report(triple_game)
        assert set(report) == {"A", "B"}
        assert not report["A"].linear


class TestEquivalence:
    def test_linear_applicable_consistent(self):
        fx = parametric_two_resource_fixture((1, 2, 3), (2, 4, 6))
        verdict = check_linearity_equivalence(fx.game, fx.partition)
        assert verdict.applicable and verdict.all_linear and verdict.has_potential
        assert verdict.consistent

    def test_nonlinear_applicable_consistent(self):
        fx = parametric_two_resource_fixture((0, 12, 16), (0, 12, 16))
        verdict = check_linearity_equivalence(fx.game, fx.partition)
        assert verdict.applicable and not verdict.all_linear and not verdict.has_potential
        assert verdict.consistent

    def test_all_singletons_not_applicable_but_potential_exists(self, triple_game):
        verdict = check_linearity_equivalence(triple_game, Partition.discrete(4))
        assert not verdict.applicable
        assert verdict.consistent is None
        assert verdict.has_potential  # congestion games always have one
        assert not verdict.all_linear

    def test_single_resource_not_applicable(self):
        g = CongestionGame.simple(("A",), {"A": (0, 5, 6)})
        verdict = check_linearity_equivalence(g, Partition.from_one_based([[1, 2], [3]]))
        assert not verdict.applicable
        assert verdict.has_potential and not verdict.all_linear

    @settings(max_examples=40, deadline=None)
    @given(non_simple_ccgs())
    def test_non_simple_game_not_applicable(self, cg):
        """Outside the theorem's shape, both sides are still decided as a
        direct `linearity_report` and `exact_potential(materialize(...))`."""
        assume(not cg.base.is_simple)
        verdict = check_linearity_equivalence(cg.base, cg.partition)
        assert verdict.applicable is False and verdict.consistent is None
        linearity = linearity_report(cg.base)
        direct = exact_potential(materialize(cg))
        assert verdict.linearity == linearity
        assert verdict.all_linear == all(entry.linear for entry in linearity.values())
        assert verdict.has_potential == verdict.potential.has_potential == direct.has_potential
        assert verdict.potential.witness == direct.witness


@st.composite
def shaped_ccgs(draw, affine: bool | None = None):
    """Games whose costs are all affine (when `affine` is true; drawn when
    it is None) or arbitrary, simple or not, under a discrete, one-block,
    random or theorem-2-shape partition (a singleton and a pair, once there
    are three agents). Costs and affine coefficients may be fractional
    (written as "p/q", so the game's scale exceeds 1), negative or zero."""
    n = draw(st.integers(1, 4))
    resources = ("A", "B", "C")[: draw(st.integers(1, 3))]
    coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    if affine is None:
        affine = draw(st.booleans())
    costs = {}
    for r in resources:
        if affine:
            slope, intercept = draw(coefficients), draw(coefficients)
            costs[r] = [str(slope * j + intercept) for j in range(1, n + 1)]
        else:
            costs[r] = [str(draw(coefficients)) for _ in range(n)]
    singles = tuple((r,) for r in resources)
    if draw(st.booleans()):
        strategy_sets = (singles,) * n
    else:
        menu = list(singles) + list(itertools.combinations(resources, 2))
        choices = st.lists(st.sampled_from(menu), min_size=1, max_size=3, unique=True)
        strategy_sets = tuple(tuple(draw(choices)) for _ in range(n))
    game = CongestionGame(resources, costs, strategy_sets)
    shape = draw(st.sampled_from(("discrete", "one block", "random", "theorem 2")))
    seed = draw(st.integers(0, 10**6))
    if shape == "discrete":
        partition = Partition.discrete(n)
    elif shape == "one block":
        partition = Partition((tuple(range(n)),))
    elif shape == "theorem 2" and n >= 3:
        partition = random_partition(seed, n, min(3, n), require_singleton_and_pair=True)
    else:
        partition = random_partition(seed, n, draw(st.integers(1, n)))
    return CoalitionalGame(game, partition)


class TestClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(shaped_ccgs(affine=True))
    def test_closed_form_equals_path_table(self, cg):
        """The affine verdict's table is the path-integrated table of the
        materialized game, entry for entry, and an exact potential of it
        edge by edge."""
        verdict = check_linearity_equivalence(cg.base, cg.partition)
        assert verdict.all_linear and verdict.has_potential
        form = materialize(cg)
        path, table = build_potential_by_path(form), verdict.potential.table
        assert (table.sizes, table.flat, table.scale) == (path.sizes, path.flat, path.scale)
        assert verdict.strategies == form.strategies
        assert pairwise_potential_check(form, table) == (True, None)

    def test_affine_path_charges_the_potential_table(self, monkeypatch):
        fx = parametric_two_resource_fixture((1, 2, 3), (2, 4, 6))
        profiles = materialize(CoalitionalGame(fx.game, fx.partition)).num_profiles()
        monkeypatch.setenv("CCG_SIZE_LIMIT", str(profiles - 1))
        with pytest.raises(SizeLimitExceededError, match=f"^potential table needs {profiles} entries"):
            check_linearity_equivalence(fx.game, fx.partition)
        monkeypatch.setenv("CCG_SIZE_LIMIT", str(profiles))
        assert check_linearity_equivalence(fx.game, fx.partition).has_potential


def assert_anchored_exact_potential(form: StrategicForm, table: PotentialTable) -> None:
    """An exact potential is unique up to a constant, so one that passes the
    edge-by-edge check and is 0 at the all-first profile is pinned."""
    assert pairwise_potential_check(form, table) == (True, None)
    assert table.flat[0] == 0


def non_affine_ccg(strategy_sets, blocks) -> CoalitionalGame:
    costs = {"A": ["1", "5/2", "2"], "B": ["0", "3", "7"], "C": ["-1", "4", "4"], "D": ["2", "2", "9"]}
    return CoalitionalGame(CongestionGame(("A", "B", "C", "D"), costs, strategy_sets), Partition(blocks))


SIMPLE3 = ((("A",), ("B",), ("C",), ("D",)),) * 3
NON_SIMPLE3 = ((("A",), ("B", "C")), (("B",), ("A", "C"), ("C",)), (("C",), ("A",)))
# the pair {0, 2} and agent 1 share no resource, so every square is zero
DISJOINT3 = ((("C",), ("D",)), (("A",), ("B",)), (("C",), ("D",), ("C", "D")))


class TestWitnessScan:
    @settings(max_examples=200, deadline=None)
    @given(shaped_ccgs())
    @example(non_affine_ccg(SIMPLE3, ((0, 1, 2),)))
    @example(non_affine_ccg(NON_SIMPLE3, ((0, 1, 2),)))
    @example(non_affine_ccg(SIMPLE3, ((0,), (1,), (2,))))
    @example(non_affine_ccg(NON_SIMPLE3, ((0,), (1,), (2,))))
    @example(non_affine_ccg(NON_SIMPLE3, ((0, 2), (1,))))
    @example(non_affine_ccg(DISJOINT3, ((0, 2), (1,))))
    def test_verdict_equals_materialized_search(self, cg):
        """However it is decided, the verdict is `exact_potential` of the
        materialized game: the same table and labels, or the same witness,
        which is the first nonzero square tried in order and has the
        residual the definition gives. The two share the decision, so a
        table is also checked edge by edge."""
        verdict = check_linearity_equivalence(cg.base, cg.partition)
        form = materialize(cg)
        direct = exact_potential(form)
        assert verdict.has_potential == direct.has_potential
        assert verdict.strategies == form.strategies
        w = verdict.potential.witness
        assert w == direct.witness == first_nonzero_square(form)
        if w is None:
            table, expected = verdict.potential.table, direct.table
            assert (table.sizes, table.flat, table.scale) == (expected.sizes, expected.flat, expected.scale)
            assert_anchored_exact_potential(form, table)
        else:
            args = (w.player_i, w.player_j, w.profile, w.alt_i, w.alt_j)
            assert square_residual_by_definition(cg, *args) == w.residual

    @settings(max_examples=150, deadline=None)
    @given(hand_built_forms())
    def test_form_scan_finds_the_first_nonzero_square(self, form):
        """On any game, not only a congestion one, the scan that reads only
        squares whose first profile has both players on strategy 0 finds
        the square that trying every square in order finds first; with
        none, the table it returns is checked edge by edge."""
        sf, potential = form
        verdict = exact_potential(sf)
        assert verdict.witness == first_nonzero_square(sf)
        assert verdict.has_potential or not potential  # drawn with a potential: one is found
        if verdict.table is not None:
            assert_anchored_exact_potential(sf, verdict.table)

    @settings(max_examples=100, deadline=None)
    @given(shaped_ccgs(affine=False), st.data())
    def test_squares_between_single_agent_blocks_are_zero(self, cg, data):
        """Rosenthal: two single agents, everyone else fixed, play a
        congestion game, which has an exact potential."""
        singles = [k for k, block in enumerate(cg.blocks) if len(block) == 1]
        assume(len(singles) >= 2)
        i, j = sorted(data.draw(st.lists(st.sampled_from(singles), min_size=2, max_size=2, unique=True)))
        sizes = [len(canonical_block_strategies(cg, k)) for k in range(len(cg.blocks))]
        profile = tuple(data.draw(st.integers(0, m - 1)) for m in sizes)
        for t_i, t_j in itertools.product(range(sizes[i]), range(sizes[j])):
            assert square_residual_by_definition(cg, i, j, profile, t_i, t_j) == 0

    def test_materialized_game_leaves_the_decision_no_reply_to_evaluate(self):
        """`materialize` fills its form from the kernel's best replies, so a
        potential decision on the same game afterwards finds every fiber it
        reads already cached."""
        cg = non_affine_ccg(NON_SIMPLE3, ((0,), (1,), (2,)))
        materialize(cg)
        kernel = compile_within_limit(cg, False)
        cached = cached_replies(kernel)
        verdict = check_linearity_equivalence(cg.base, cg.partition)
        assert verdict.has_potential and not verdict.all_linear
        assert cached_replies(kernel) == cached > 0

    def test_scan_is_charged_as_the_materialized_table(self, monkeypatch):
        fx = parametric_two_resource_fixture((0, 12, 16), (0, 12, 16))
        cells = 2 * materialize(CoalitionalGame(fx.game, fx.partition)).num_profiles()
        monkeypatch.setenv("CCG_SIZE_LIMIT", str(cells - 1))
        with pytest.raises(SizeLimitExceededError, match=f"^materialized utility table needs {cells} entries"):
            check_linearity_equivalence(fx.game, fx.partition)
        monkeypatch.setenv("CCG_SIZE_LIMIT", str(cells))
        assert not check_linearity_equivalence(fx.game, fx.partition).has_potential

    def test_sweep_counts_a_witness_the_definition_contradicts(self, monkeypatch):
        original = ccg.experiments.check_linearity_equivalence

        def off_by_one(g, partition):
            verdict = original(g, partition)
            w = verdict.potential.witness
            if w is None:
                return verdict
            wrong = dataclasses.replace(w, residual=w.residual + 1)
            return dataclasses.replace(verdict, potential=PotentialVerdict(None, wrong))

        assert linearity_sweep(6, seed=7)["witness_recheck_failures"] == 0
        monkeypatch.setattr(ccg.experiments, "check_linearity_equivalence", off_by_one)
        result = linearity_sweep(6, seed=7)
        assert result["witness_recheck_failures"] == result["confusion"]["nonlinear+none"] > 0


class TestSubgame:
    def test_all_blocks_free_equals_materialize(self, triple_ccg):
        sub = fix_strategies_subgame(triple_ccg, {}, [0, 1])
        full = materialize(triple_ccg)
        assert sub.strategies == full.strategies
        assert form_utilities(sub) == form_utilities(full)

    def test_frozen_singleton_shifts_cost_tables(self):
        g = CongestionGame.simple(("A", "B"), {"A": (0, 12, 16, 18), "B": (0, 12, 16, 18)})
        partition = Partition.from_one_based([[1, 2], [3], [4]])
        cg = CoalitionalGame(g, partition)
        sub = fix_strategies_subgame(cg, {3: "A"}, [0, 1])

        shifted = CongestionGame.simple(
            ("A", "B"), {"A": (12, 16, 18), "B": (0, 12, 16)}
        )
        expected = materialize(
            CoalitionalGame(shifted, Partition.from_one_based([[1, 2], [3]]))
        )
        assert sub.strategies == expected.strategies
        assert form_utilities(sub) == form_utilities(expected)

    def test_potential_restricts_to_subgame(self):
        fx = parametric_two_resource_fixture((1, 2, 3), (2, 4, 6))
        cg = CoalitionalGame(fx.game, fx.partition)
        sub = fix_strategies_subgame(cg, {2: "B"}, [0])
        assert exact_potential(sub).has_potential

    def test_coverage_mismatch(self, triple_ccg):
        with pytest.raises(CoverageMismatchError):
            fix_strategies_subgame(triple_ccg, {0: "A"}, [0, 1])
        with pytest.raises(CoverageMismatchError):
            fix_strategies_subgame(triple_ccg, {}, [0])
