"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line (run
with ``pytest tests/test_acceptance.py -v -s`` to see them). Every check is
an exact rational comparison; there are no numeric tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ccg import (
    CoalitionalGame,
    Partition,
    assemble_profile,
    canonical_block_strategies,
    check_ne_lift,
    congestion,
    enumerate_pure_ne,
    evaluate_fixture,
    exact_potential,
    four_cycle_residual,
    is_ccg_ne,
    is_ne_congestion,
    materialize,
    no_ne_overlap_fixture,
    no_ne_triple_fixture,
    parametric_two_resource_fixture,
    random_game,
    random_partition,
    rosenthal_potential,
    solve_pair_ccg,
    underlying_pure_ne,
)
from ccg.experiments import block_size_sweep, linearity_sweep, pair_solver_sweep
from ccg.game import PureProfile


def _report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_a1_triple_coalition_matrix_and_empty_equilibrium_set():
    fx = no_ne_triple_fixture()
    result = evaluate_fixture(fx)
    cells = [r for r in result.results if r.description.startswith("cell")]
    ok = (
        result.passed
        and len(cells) == 8
        and result.discrepancies == ()
        and enumerate_pure_ne(CoalitionalGame(fx.game, fx.partition)).is_empty
    )
    _report("A1 triple-coalition matrix reproduced cell-for-cell, equilibrium set empty", ok)


def test_a2_overlapping_routes_matrix_with_flagged_cells():
    fx = no_ne_overlap_fixture()
    result = evaluate_fixture(fx)
    flagged = {(d.row, d.col) for d in result.discrepancies}
    ok = (
        result.passed
        and flagged == {("A+B,A+B", "A+C"), ("A+C,A+C", "A+C")}
        and all(d.expected for d in result.discrepancies)
        and enumerate_pure_ne(CoalitionalGame(fx.game, fx.partition)).is_empty
    )
    _report(
        "A2 overlapping-routes matrix reproduced, exactly two recorded cells flagged, "
        "equilibrium set empty",
        ok,
    )


def test_a3_constructive_pair_solver_on_200_random_instances():
    result = pair_solver_sweep(200, seed=2024, max_players=6, max_resources=4)
    ok = result["verified"] == 200 and result["ne_nonempty"] == 200 and not result["failures"]
    _report(
        "A3 pair solver verified by brute force on 200/200 instances, "
        "nonemptiness confirmed independently",
        ok,
    )


def test_a4_linearity_potential_equivalence_on_200_instances():
    result = linearity_sweep(200, seed=2024, max_players=5, max_resources=3)
    confusion = result["confusion"]
    ok = (
        confusion["linear+none"] == 0
        and confusion["nonlinear+potential"] == 0
        and confusion["nonlinear+none"] > 0
        and confusion["linear+potential"] > 0
        and result["witness_recheck_failures"] == 0
    )
    _report(
        "A4 linear costs equivalent to exact potential on 200/200 instances, "
        "all witnesses re-evaluated",
        ok,
    )


def test_a5_first_cycle_residual_matches_hand_formula():
    rng = random.Random("cycle-algebra")

    def increasing_triple() -> tuple[Fraction, Fraction, Fraction]:
        start = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
        d1 = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
        d2 = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
        return (start, start + d1, start + d1 + d2)

    ok = True
    for _ in range(50):
        a = increasing_triple()
        b = increasing_triple()
        fx = parametric_two_resource_fixture(a, b)
        sf = materialize(CoalitionalGame(fx.game, fx.partition))
        residual = four_cycle_residual(sf, 0, 1, (0, 0), 1, 1)
        ok = ok and residual == 2 * a[1] - a[0] - a[2]
    _report("A5 first-cycle residual equals 2a2 - a1 - a3 on 50 random cost triples", ok)


def test_a6_lift_checks_hold_on_200_random_instances():
    driver = random.Random("lift-suite")
    checked = 0
    for trial in range(200):
        n = driver.randint(2, 6)
        r = driver.randint(2, 4)
        game = random_game(f"lift:{trial}", n, r, "monotone")
        partition = random_partition(f"lift:{trial}", n, min(n, r))
        cg = CoalitionalGame(game, partition)
        strats = [
            canonical_block_strategies(cg, k, restricted=True)
            for k in range(len(cg.blocks))
        ]
        per_game = 0
        for combo in itertools.product(*strats):
            s = assemble_profile(cg, list(combo))
            if not is_ne_congestion(game, congestion(game, s)):
                continue
            for verdict in (check_ne_lift(cg, s), check_ne_lift(cg, s, restricted=True)):
                assert verdict.applicable and verdict.holds
            checked += 1
            per_game += 1
            if per_game >= 50:
                break
    _report(
        f"A6 distinct-resource equilibrium lifting held on all {checked} constructed "
        "profiles over 200 instances (no violations raised)",
        checked > 0,
    )


def test_a7_dynamics_terminate_and_discrete_partitions_have_potential():
    ok = True
    for trial in range(500):
        driver = random.Random(f"baseline:{trial}")
        n = driver.randint(1, 5)
        r = driver.randint(1, 3)
        game = random_game(f"baseline:{trial}", n, r, "monotone")
        result = underlying_pure_ne(game)
        choices = list(result.start.choices)
        phi = rosenthal_potential(game, result.start)
        for move in result.moves:
            choices[move.agent] = (move.target,)
            phi_next = rosenthal_potential(game, PureProfile(tuple(choices)))
            ok = ok and phi_next < phi
            phi = phi_next
        ok = ok and tuple(choices) == result.profile.choices
        verdict = exact_potential(materialize(CoalitionalGame(game, Partition.discrete(n))))
        ok = ok and verdict.has_potential
    _report(
        "A7 best-response dynamics strictly decreased the aggregate on 500 games and "
        "every discrete-partition game had an exact potential",
        ok,
    )


def test_a8_linear_costs_admit_potential_for_any_partition():
    ok = True
    for trial in range(100):
        driver = random.Random(f"linear-suite:{trial}")
        n = driver.randint(1, 5)
        r = driver.randint(1, 3)
        game = random_game(f"linear-suite:{trial}", n, r, "linear")
        partition = random_partition(f"linear-suite:{trial}", n, min(3, n))
        verdict = exact_potential(materialize(CoalitionalGame(game, partition)))
        ok = ok and verdict.has_potential
    _report("A8 exact potential found on 100/100 linear-cost games with blocks up to three", ok)


def test_a9_triple_block_boundary_detected_by_experiment():
    result = block_size_sweep(10, seed=2024)
    fx = no_ne_triple_fixture()
    from ccg.gamefile import game_to_dict

    injected = game_to_dict(fx.game, fx.partition)
    ok = (
        result["injected_empty"]
        and result["empty_ne"] >= 1
        and injected in result["counterexamples"]
    )
    _report(
        "A9 injected triple-coalition instance detected equilibrium-free in the "
        "block-size experiment",
        ok,
    )


def test_a0_pair_solver_spec_examples_still_verified():
    """Sanity anchor for the suite: the three canonical solver scenarios."""
    from ccg import CongestionGame

    g1 = CongestionGame.simple(("A", "B"), {"A": (0, 12, 16, 18), "B": (0, 12, 16, 18)})
    t1 = solve_pair_ccg(g1, Partition.from_one_based([[1, 2], [3, 4]]))
    g2 = CongestionGame.simple(("A", "B"), {"A": (0, 1, 5), "B": (5, 6, 7)})
    t2 = solve_pair_ccg(g2, Partition.from_one_based([[1, 2], [3]]))
    g3 = CongestionGame.simple(("A", "B"), {"A": (0, 1, 2), "B": (10, 11, 12)})
    t3 = solve_pair_ccg(g3, Partition.from_one_based([[1, 2], [3]]))
    ok = (
        t1.result.choices == (("A",), ("B",), ("A",), ("B",))
        and t2.result.choices == (("A",), ("B",), ("A",))
        and len(t2.moves) == 1
        and t3.result.choices == (("A",), ("A",), ("A",))
        and t3.moves == ()
        and all(
            is_ccg_ne(CoalitionalGame(g, p), t.result)
            for g, p, t in (
                (g1, Partition.from_one_based([[1, 2], [3, 4]]), t1),
                (g2, Partition.from_one_based([[1, 2], [3]]), t2),
                (g3, Partition.from_one_based([[1, 2], [3]]), t3),
            )
        )
    )
    _report("A0 canonical solver scenarios reproduce their recorded traces", ok)
