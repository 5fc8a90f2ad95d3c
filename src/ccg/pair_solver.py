"""Constructive equilibrium solver for pair partitions of simple games.

When no coalition block has more than two members, a coalitional congestion
game induced from a simple game always has a pure equilibrium, and one can be
built directly instead of searched for:

1. Find any equilibrium of the underlying simple game by best-response
   dynamics and keep only its congestion vector ``c``.
2. If the peak occupancy fits within the block count, rearrange the
   sub-agents so that both members of every pair sit on distinct resources
   while realizing ``c`` exactly. Such a profile is immune to coalition
   deviations (the distinct-resource lifting property), so it is returned
   as-is.
3. Otherwise every block is given at least one member on the most congested
   resource (the *hub*), doubled-up pairs are allowed only on the hub, and a
   greedy improvement loop peels doubled pairs off the hub while doing so
   strictly pays. The loop is bounded by the initial number of doubled pairs
   and ends in an equilibrium.

The final profile is always re-verified by exhaustive deviation search;
`game.canonicalize` orders each block's members off that search's layouts.
Steps 1 to 3 share the game's one compiled sub-agent (`_agent`).

`solve_pair_ccg` is the only entry and checks its input once. Steps 2 and 3
are private helpers that trust those checks and work on resource indices;
`PairSolveTrace` records what they did.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    LoopBoundExceededError,
    NotNashAtExitError,
    PreconditionViolatedError,
    RearrangementInfeasibleError,
)
from .equilibria import find_deviation, underlying_pure_ne
from .game import (
    CoalitionalGame,
    CongestionGame,
    Partition,
    PureProfile,
    canonicalize,
    congestion,
    require_valid,
)

CASE_DISTINCT = "distinct"
CASE_HUB = "hub"


@dataclass(frozen=True)
class LoopMove:
    """One improvement step: a doubled pair sends one member off the hub."""

    block: int
    agent: int
    source: str
    target: str
    cost_delta: Fraction


@dataclass(frozen=True)
class PairSolveTrace:
    """Full record of a constructive solve, ending in a verified equilibrium."""

    underlying_profile: PureProfile
    case_taken: str
    hub_resource: str | None
    arrangement: PureProfile
    moves: tuple[LoopMove, ...]
    result: PureProfile


def _arrange_distinct(partition: Partition, counts: list[int]) -> list[int]:
    """Realize occupancy `counts` with every pair split across two
    resources: one resource index per sub-agent.

    Pairs are placed first, each taking one slot from the two largest
    remaining capacities (ties to the lowest resource index); singletons then
    fill the leftover slots in resource order. Feasibility follows from the
    peak occupancy being at most the block count, so the failure paths
    signal a bug.
    """
    caps = list(counts)
    where = [0] * partition.n_agents
    for k in partition.pairs():
        top = sorted(range(len(caps)), key=lambda ri: (-caps[ri], ri))[:2]
        if len(top) < 2 or caps[top[1]] < 1:
            raise RearrangementInfeasibleError(f"no two free resources left for block {k}")
        for ri in top:
            caps[ri] -= 1
        i, j = partition.blocks[k]
        where[i], where[j] = sorted(top)
    slots = [ri for ri, cap in enumerate(caps) for _ in range(cap)]
    singletons = partition.singletons()
    if len(slots) != len(singletons):
        raise RearrangementInfeasibleError(f"{len(slots)} slots for {len(singletons)} singletons")
    for k, ri in zip(singletons, slots):
        where[partition.blocks[k][0]] = ri
    return where


def _arrange_hub(partition: Partition, counts: list[int], hub: int) -> list[int]:
    """Realize occupancy `counts` so that every block has a member on the
    hub resource and only the hub carries doubled pairs: one resource index
    per sub-agent.

    The hub is the peak and its occupancy exceeds the block count. Every
    block's first member goes to the hub; the surplus hub slots are taken by
    the second members of the first pairs in block order; the remaining
    second members fill the off-hub slots in resource order.
    """
    where = [hub] * partition.n_agents
    doubled = counts[hub] - partition.n_blocks
    rest = partition.pairs()[doubled:]
    off_slots = [ri for ri, x in enumerate(counts) if ri != hub for _ in range(x)]
    if len(off_slots) != len(rest):
        raise RearrangementInfeasibleError(f"{len(off_slots)} off-hub slots for {len(rest)} pairs")
    for k, ri in zip(rest, off_slots):
        where[partition.blocks[k][1]] = ri
    return where


def _hub_improvement_loop(
    g: CongestionGame, partition: Partition, where: list[int], counts: list[int], hub: int
) -> tuple[list[int], tuple[LoopMove, ...]]:
    """Peel doubled pairs off the hub while a single-member move strictly
    lowers the pair's cost; `where` is copied, not changed.

    In each round the lowest-index block with both members on the hub sends
    its second member to the cheapest alternative (ties to the lowest
    resource index) if that strictly pays; every doubled block faces the
    same costs, so the loop stops at the first move that does not. No move
    creates a new doubled pair, so the loop runs at most once per initially
    doubled pair.
    """
    kernel = g._agent
    codes = kernel.codes[0]
    where, occupancy = list(where), kernel.code(counts)
    others = [ri for ri in range(len(counts)) if ri != hub]

    def doubled_blocks() -> list[int]:
        return [k for k in partition.pairs() if all(where[i] == hub for i in partition.blocks[k])]

    doubled = doubled_blocks()
    bound = len(doubled)
    moves: list[LoopMove] = []
    while doubled and others:
        values = kernel.best_reply(0, occupancy - codes[hub])[0]
        target = max(others, key=values.__getitem__)
        stay = 2 * values[hub]
        after = kernel.best_reply(0, occupancy - 2 * codes[hub])[0][hub] + values[target]
        if after <= stay:
            break
        if len(moves) >= bound:
            raise LoopBoundExceededError(f"more than {bound} improvement moves")
        k = doubled[0]
        mover = partition.blocks[k][1]
        where[mover] = target
        occupancy += codes[target] - codes[hub]
        delta = Fraction(stay - after, kernel.scale)
        moves.append(LoopMove(k, mover, g.resources[hub], g.resources[target], delta))
        doubled = doubled_blocks()
    return where, tuple(moves)


def solve_pair_ccg(g: CongestionGame, partition: Partition) -> PairSolveTrace:
    """Construct a pure equilibrium of the coalitional game induced by a
    simple game and a partition with blocks of size at most two, and verify
    it by a final exhaustive deviation search."""
    require_valid(g)
    if not g.is_simple:
        raise PreconditionViolatedError("constructive solver needs a simple game")
    cg = CoalitionalGame(g, partition)
    if partition.max_block_size > 2:
        raise PreconditionViolatedError(
            f"constructive solver handles blocks of size <= 2, got {partition.max_block_size}"
        )

    dynamics = underlying_pure_ne(g)
    counts = list(congestion(g, dynamics.profile).counts)
    peak = counts.index(max(counts))
    if counts[peak] <= partition.n_blocks:
        case, hub = CASE_DISTINCT, None
        arranged = _arrange_distinct(partition, counts)
        where, moves = arranged, ()
    else:
        case, hub = CASE_HUB, g.resources[peak]
        arranged = _arrange_hub(partition, counts, peak)
        where, moves = _hub_improvement_loop(g, partition, arranged, counts, peak)
    arrangement, result = (PureProfile(tuple((g.resources[ri],) for ri in w)) for w in (arranged, where))
    witness = find_deviation(cg, result)
    if witness is not None:
        raise NotNashAtExitError(f"block {witness.block} still improves to {witness.best_value}")
    return PairSolveTrace(dynamics.profile, case, hub, canonicalize(cg, arrangement), moves, canonicalize(cg, result))
