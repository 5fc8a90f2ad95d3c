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

The final profile is always re-verified by exhaustive deviation search.
Steps 1 to 3 share the game's one compiled sub-agent
(`game.CompiledGame.agent`) and compare its scaled integer costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    LoopBoundExceededError,
    MismatchedResourcesError,
    NotNashAtExitError,
    PreconditionViolatedError,
    RearrangementInfeasibleError,
)
from .equilibria import find_deviation, is_ne_congestion, underlying_pure_ne
from .game import (
    CoalitionalGame,
    CompiledGame,
    CongestionGame,
    CongestionVector,
    Partition,
    PureProfile,
    canonicalize,
    congestion,
    require_valid,
    validate_profile,
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


def _peak_resource(c: CongestionVector) -> int:
    """Index of the most congested resource, lowest index on ties."""
    best = 0
    for ri in range(1, len(c.counts)):
        if c.counts[ri] > c.counts[best]:
            best = ri
    return best


def arrange_distinct(g: CongestionGame, partition: Partition, c: CongestionVector) -> PureProfile:
    """Realize congestion vector `c` with every pair split across two
    resources.

    Requires an equilibrium vector whose peak occupancy is at most the block
    count. Pairs are placed first, each taking one slot from the two largest
    remaining capacities (ties to the lowest resource index); singletons then
    fill the leftover slots in resource order. Feasibility follows from the
    capacity bound, so the failure path signals a bug.
    """
    partition.validate_for(g.n)
    if not is_ne_congestion(g, c):
        raise PreconditionViolatedError("arrangement needs an equilibrium congestion vector")
    if max(c.counts) > partition.n_blocks:
        raise PreconditionViolatedError("peak congestion exceeds block count")
    caps = list(c.counts)
    choices: list[tuple[str, ...]] = [("",)] * g.n
    for k in partition.pairs():
        first = max(range(len(caps)), key=lambda ri: (caps[ri], -ri))
        second = max(
            (ri for ri in range(len(caps)) if ri != first),
            key=lambda ri: (caps[ri], -ri),
            default=None,
        )
        if second is None or caps[first] < 1 or caps[second] < 1:
            raise RearrangementInfeasibleError(f"no two free resources left for block {k}")
        caps[first] -= 1
        caps[second] -= 1
        lo, hi = sorted((first, second))
        i, j = partition.blocks[k]
        choices[i] = (g.resources[lo],)
        choices[j] = (g.resources[hi],)
    slots = [g.resources[ri] for ri in range(len(caps)) for _ in range(caps[ri])]
    for k in partition.singletons():
        (i,) = partition.blocks[k]
        choices[i] = (slots.pop(0),)
    if slots:
        raise RearrangementInfeasibleError(f"{len(slots)} slots left unfilled")
    return PureProfile(tuple(choices))


def arrange_hub(
    g: CongestionGame, partition: Partition, c: CongestionVector, hub: str
) -> PureProfile:
    """Realize `c` so that every block has a member on the hub resource and
    only the hub carries doubled pairs.

    Requires an equilibrium vector whose peak sits on `hub` and strictly
    exceeds the block count. Every block's first member goes to the hub; the
    surplus hub slots are taken by the second members of the first pairs in
    block order; the remaining second members fill the off-hub slots in
    resource order.
    """
    partition.validate_for(g.n)
    if hub not in g.resources:
        raise MismatchedResourcesError(f"unknown hub resource {hub!r}")
    if not is_ne_congestion(g, c):
        raise PreconditionViolatedError("arrangement needs an equilibrium congestion vector")
    hub_idx = g.resources.index(hub)
    if hub_idx != _peak_resource(c):
        raise PreconditionViolatedError(f"{hub} is not the most congested resource")
    if c.counts[hub_idx] <= partition.n_blocks:
        raise PreconditionViolatedError("peak congestion fits the block count; no hub needed")

    choices: list[tuple[str, ...]] = [("",)] * g.n
    for block in partition.blocks:
        choices[block[0]] = (hub,)
    doubled = c.counts[hub_idx] - partition.n_blocks
    pair_blocks = partition.pairs()
    if doubled > len(pair_blocks):
        raise RearrangementInfeasibleError("more surplus hub slots than pairs")
    for k in pair_blocks[:doubled]:
        choices[partition.blocks[k][1]] = (hub,)
    off_slots = [
        g.resources[ri]
        for ri in range(len(c.counts))
        if ri != hub_idx
        for _ in range(c.counts[ri])
    ]
    for k in pair_blocks[doubled:]:
        choices[partition.blocks[k][1]] = (off_slots.pop(0),)
    if off_slots:
        raise RearrangementInfeasibleError(f"{len(off_slots)} off-hub slots left unfilled")
    return PureProfile(tuple(choices))


def hub_improvement_loop(
    g: CongestionGame, partition: Partition, s: PureProfile, hub: str
) -> tuple[PureProfile, tuple[LoopMove, ...]]:
    """Peel doubled pairs off the hub while a single-member move strictly
    lowers the pair's cost.

    In each round the lowest-index block with both members on the hub and a
    strictly profitable move sends one member to the cheapest alternative
    (ties to the lowest resource index). No move creates a new doubled pair,
    so the loop runs at most once per initially doubled pair.
    """
    partition.validate_for(g.n)
    validate_profile(g, s)
    if hub not in g.resources:
        raise MismatchedResourcesError(f"unknown hub resource {hub!r}")
    index = g.resource_index()
    hub_idx = index[hub]
    kernel = CompiledGame.agent(g)
    tables = kernel.costs
    choices = [c[0] for c in s.choices]
    counts = [0] * len(g.resources)
    for r in choices:
        counts[index[r]] += 1

    def doubled_blocks() -> list[int]:
        return [
            k
            for k in partition.pairs()
            if all(choices[i] == hub for i in partition.blocks[k])
        ]

    bound = len(doubled_blocks())
    moves: list[LoopMove] = []
    while True:
        move_done = False
        for k in doubled_blocks():
            stay_cost = 2 * tables[hub_idx][counts[hub_idx] - 1]
            target = None
            for ri in range(len(g.resources)):
                if ri == hub_idx:
                    continue
                if target is None or tables[ri][counts[ri]] < tables[target][counts[target]]:
                    target = ri
            if target is None:
                break
            after = tables[hub_idx][counts[hub_idx] - 2] + tables[target][counts[target]]
            if after < stay_cost:
                if len(moves) >= bound:
                    raise LoopBoundExceededError(f"more than {bound} improvement moves")
                mover = partition.blocks[k][1]
                choices[mover] = g.resources[target]
                counts[hub_idx] -= 1
                counts[target] += 1
                delta = Fraction(after - stay_cost, kernel.scale)
                moves.append(LoopMove(k, mover, hub, g.resources[target], delta))
                move_done = True
                break
        if not move_done:
            break

    return PureProfile(tuple((r,) for r in choices)), tuple(moves)


def solve_pair_ccg(g: CongestionGame, partition: Partition) -> PairSolveTrace:
    """Construct a pure equilibrium of the coalitional game induced by a
    simple game and a partition with blocks of size at most two, and verify
    it by a final exhaustive deviation search."""
    require_valid(g)
    if not g.is_simple:
        raise PreconditionViolatedError("constructive solver needs a simple game")
    partition.validate_for(g.n)
    if partition.max_block_size > 2:
        raise PreconditionViolatedError(
            f"constructive solver handles blocks of size <= 2, got {partition.max_block_size}"
        )
    cg = CoalitionalGame(g, partition)

    dynamics = underlying_pure_ne(g)
    c = congestion(g, dynamics.profile)
    peak = _peak_resource(c)
    if c.counts[peak] <= partition.n_blocks:
        case = CASE_DISTINCT
        hub = None
        arrangement = arrange_distinct(g, partition, c)
        result, moves = arrangement, ()
    else:
        case = CASE_HUB
        hub = g.resources[peak]
        arrangement = arrange_hub(g, partition, c, hub)
        result, moves = hub_improvement_loop(g, partition, arrangement, hub)
    witness = find_deviation(cg, result)
    if witness is not None:
        raise NotNashAtExitError(f"block {witness.block} still improves to {witness.best_value}")

    return PairSolveTrace(
        dynamics.profile,
        case,
        hub,
        canonicalize(cg, arrangement),
        tuple(moves),
        canonicalize(cg, result),
    )
