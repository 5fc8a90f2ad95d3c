"""Batch experiments over seeded random instances.

Each experiment returns a JSON-ready dict whose first key, "ok", is its pass
rule. All randomness comes from the given seed, so a (kind, seed, trials,
size) tuple pins the exact instance stream and therefore the exact report.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .equilibria import enumerate_pure_ne, is_ccg_ne
from .errors import InvalidParamsError
from .game import CoalitionalGame, assemble_profile, coalition_utility, compile_within_limit
from .gamefile import game_to_dict
from .instances import no_ne_triple_fixture, random_game, random_partition
from .pair_solver import solve_pair_ccg
from .potential import FourCycleWitness, check_linearity_equivalence

MAX_REPORTED_COUNTEREXAMPLES = 5


def _require_at_least(
    kind: str, max_players: int, players: int, max_resources: int, resources: int
) -> None:
    """Refuse size bounds below the smallest instance `kind` draws."""
    for name, value, least in (
        ("max_players", max_players, players),
        ("max_resources", max_resources, resources),
    ):
        if value < least:
            raise InvalidParamsError(f"{kind}: {name} must be at least {least}, got {value}")


def pair_solver_sweep(
    trials: int, seed, max_players: int = 6, max_resources: int = 4
) -> dict:
    """Run the constructive pair solver on random instances and verify each
    output independently; also confirm by direct search that an equilibrium
    exists at all. Both counts must equal `trials`."""
    _require_at_least("theorem1", max_players, 1, max_resources, 1)
    driver = random.Random(f"pair-sweep:{seed}")
    verified = 0
    nonempty = 0
    failures: list[dict] = []
    for t in range(trials):
        n = driver.randint(1, max_players)
        r = driver.randint(1, max_resources)
        game = random_game(f"{seed}:{t}", n, r, "monotone")
        partition = random_partition(f"{seed}:{t}", n, min(2, n))
        cg = CoalitionalGame(game, partition)
        trace = solve_pair_ccg(game, partition)
        if is_ccg_ne(cg, trace.result):
            verified += 1
        else:
            failures.append({"trial": t, "game": game_to_dict(game, partition)})
        if not enumerate_pure_ne(cg, stop_after=1).is_empty:
            nonempty += 1
    return {
        "ok": verified == trials and nonempty == trials,
        "kind": "theorem1",
        "trials": trials,
        "verified": verified,
        "ne_nonempty": nonempty,
        "failures": failures,
    }


def _residual_at_corners(cg: CoalitionalGame, w: FourCycleWitness) -> Fraction:
    """The witness square's residual by definition: `coalition_utility` of
    the moving block at each of its four corners."""
    strategies = compile_within_limit(cg, False).strategies
    corners = [assemble_profile(cg, [s[x] for s, x in zip(strategies, c)]) for c in w.cycle_profiles()]
    steps = zip(corners, corners[1:] + corners[:1], (w.player_i, w.player_j, w.player_i, w.player_j))
    return sum(coalition_utility(cg, a, k) - coalition_utility(cg, b, k) for a, b, k in steps)


def linearity_sweep(
    trials: int, seed, max_players: int = 5, max_resources: int = 3
) -> dict:
    """Confusion matrix of (all costs affine) versus (exact potential exists)
    over partitions with a singleton and a pair. The off-diagonal cells must
    stay empty; every negative verdict's witness is re-evaluated at its four
    corners by `coalition_utility`."""
    _require_at_least("theorem2", max_players, 3, max_resources, 2)
    driver = random.Random(f"linearity-sweep:{seed}")
    confusion = {
        "linear+potential": 0,
        "linear+none": 0,
        "nonlinear+potential": 0,
        "nonlinear+none": 0,
    }
    witness_failures = 0
    for t in range(trials):
        n = driver.randint(3, max_players)
        r = driver.randint(2, max_resources)
        cost_class = "linear" if t % 2 == 0 else "monotone"
        game = random_game(f"{seed}:{t}", n, r, cost_class)
        partition = random_partition(
            f"{seed}:{t}", n, min(3, n), require_singleton_and_pair=True
        )
        verdict = check_linearity_equivalence(game, partition)
        key = ("linear" if verdict.all_linear else "nonlinear") + (
            "+potential" if verdict.has_potential else "+none"
        )
        confusion[key] += 1
        witness = verdict.potential.witness
        if witness is not None:
            again = _residual_at_corners(CoalitionalGame(game, partition), witness)
            if again != witness.residual or again == 0:
                witness_failures += 1
    return {
        "ok": confusion["linear+none"] == confusion["nonlinear+potential"] == witness_failures == 0,
        "kind": "theorem2",
        "trials": trials,
        "confusion": confusion,
        "witness_recheck_failures": witness_failures,
    }


def block_size_sweep(
    trials: int, seed, max_players: int = 6, max_resources: int = 4
) -> dict:
    """Frequency of empty equilibrium sets once blocks of three are allowed.

    Trial 0 is the canned triple-coalition instance, so at least one empty
    set is always observed. Counterexamples ship as game file objects.
    """
    _require_at_least("pairs-vs-triples", max_players, 3, max_resources, 2)
    driver = random.Random(f"block-sweep:{seed}")
    empty = 0
    injected_empty = False
    counterexamples: list[dict] = []
    for t in range(trials):
        if t == 0:
            fx = no_ne_triple_fixture()
            game, partition = fx.game, fx.partition
        else:
            n = driver.randint(3, max_players)
            r = driver.randint(2, max_resources)
            game = random_game(f"{seed}:{t}", n, r, "monotone")
            partition = random_partition(f"{seed}:{t}", n, min(3, n))
        cg = CoalitionalGame(game, partition)
        report = enumerate_pure_ne(cg, stop_after=1)
        if report.is_empty:
            empty += 1
            if t == 0:
                injected_empty = True
            if len(counterexamples) < MAX_REPORTED_COUNTEREXAMPLES:
                counterexamples.append(game_to_dict(game, partition))
    return {
        "ok": injected_empty,
        "kind": "pairs-vs-triples",
        "trials": trials,
        "empty_ne": empty,
        "injected_empty": injected_empty,
        "counterexamples": counterexamples,
    }


EXPERIMENTS = {
    "theorem1": pair_solver_sweep,
    "theorem2": linearity_sweep,
    "pairs-vs-triples": block_size_sweep,
}
