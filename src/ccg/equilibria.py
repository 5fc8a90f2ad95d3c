"""Pure Nash equilibrium machinery.

Covers the underlying simple game (best-response dynamics driven by the
classic Rosenthal potential), coalition best replies, exhaustive coalitional
equilibrium enumeration, the restricted variant where block members must
occupy distinct resources, and one executable checker, with a restricted
flag, for the lifting statement: an equilibrium congestion vector realized
with per-block-distinct resources is an equilibrium of the coalitional game.

Enumeration searches suffix subgames, not every joint profile: the blocks
from position j on depend on those before j only through their occupancy.
An exhaustive listing searches the blocks by ascending strategy count and
sorts what it finds; an early stop keeps block order.

Best replies, deviation search, enumeration, the dynamics and the
equilibrium congestion test compare exact integers on the game's compiled
cost tables (`game.CompiledGame`); the values they report
(`BestReplySet.value`, `DeviationWitness`, `DynamicsMove`) are divided back
into rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidParamsError,
    InvalidVectorError,
    NeLiftViolationError,
    PreconditionViolatedError,
)
from .game import (
    BlockStrategy,
    CoalitionalGame,
    CompiledGame,
    CongestionGame,
    CongestionVector,
    PureProfile,
    _occupancy,
    compile_within_limit,
    congestion,
    row_major_strides,
    strategy_indices,
    validate_profile,
)


@dataclass(frozen=True)
class BestReplySet:
    """All strategy tuples of one block that maximize its utility against a
    fixed opponent profile, together with the common best value."""

    block: int
    replies: tuple[BlockStrategy, ...]
    value: Fraction


@dataclass(frozen=True)
class DeviationWitness:
    """A strictly improving unilateral block deviation."""

    block: int
    strategy: BlockStrategy
    current_value: Fraction
    best_value: Fraction


@dataclass(frozen=True)
class NeReport:
    """Result of an equilibrium enumeration.

    `equilibria` holds canonical profiles in lexicographic order. When the
    search was stopped early (`exhaustive` False) the list is a prefix of the
    full answer. `multiplicities` counts the raw profiles each canonical
    equilibrium represents. `blocks` are the partition's blocks, which group
    each profile's choices by coalition.

    `profiles_checked` is a scan position, not work done: all canonical
    joint profiles, or after an early stop those up to the last one found.
    """

    equilibria: tuple[PureProfile, ...]
    multiplicities: tuple[int, ...]
    exhaustive: bool
    profiles_checked: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def is_empty(self) -> bool:
        return not self.equilibria


@dataclass(frozen=True)
class DynamicsMove:
    agent: int
    source: str
    target: str
    cost_before: Fraction
    cost_after: Fraction


@dataclass(frozen=True)
class DynamicsResult:
    """Trace of best-response dynamics on a simple game."""

    start: PureProfile
    profile: PureProfile
    moves: tuple[DynamicsMove, ...]


@dataclass(frozen=True)
class LiftVerdict:
    """Outcome of a lifting check: `holds` is None when not applicable."""

    applicable: bool
    holds: bool | None


# ---------------------------------------------------------------------------
# Underlying simple game


def rosenthal_potential(g: CongestionGame, s: PureProfile) -> Fraction:
    """Sum over resources of the cost prefix up to the occupancy: the classic
    exact potential of a congestion game. Each unilateral move changes it by
    exactly the mover's cost change."""
    c = congestion(g, s)
    total = Fraction(0)
    for r in g.resources:
        table = g.costs[r].values
        for j in range(c[r]):
            total += table[j]
    return total


def is_ne_congestion(g: CongestionGame, c: CongestionVector) -> bool:
    """Decide whether a congestion vector belongs to an equilibrium of a
    simple game: every occupied resource is a best reply of one of its users
    against everyone else's occupancy. Sufficient and necessary because
    simple-game costs depend on choices only through occupancies."""
    if not g.is_simple:
        raise PreconditionViolatedError("equilibrium congestion test needs a simple game")
    if tuple(c.resources) != g.resources:
        raise InvalidVectorError(f"vector over {c.resources}, game over {g.resources}")
    if c.total != g.n:
        raise InvalidVectorError(f"vector totals {c.total}, game has {g.n} sub-agents")
    if any(x < 0 for x in c.counts):
        raise InvalidVectorError("negative occupancy")
    kernel = g._agent
    total, codes = kernel.code(c.counts), kernel.codes[0]
    for ri, x in enumerate(c.counts):
        if x and ri not in kernel.best_reply(0, total - codes[ri])[2]:
            return False
    return True


def underlying_pure_ne(g: CongestionGame) -> DynamicsResult:
    """Find a pure equilibrium of a simple game by best-response dynamics.

    Starts with every sub-agent on the first resource, then repeatedly sweeps
    sub-agents in index order, moving each to its cheapest resource whenever
    that strictly lowers its cost (ties go to the lowest resource index).
    Every move strictly decreases the Rosenthal potential, so the dynamics
    terminate; the result is verified before returning.
    """
    if not g.is_simple:
        raise PreconditionViolatedError("best-response dynamics need a simple game")
    # Every sub-agent has the same strategies, one per resource in order,
    # so one compiled singleton block answers every sub-agent's best reply.
    kernel = g._agent
    codes = kernel.codes[0]
    position = [0] * g.n
    occupancy = g.n * codes[0]
    start = PureProfile(tuple((g.resources[0],) for _ in range(g.n)))

    moves: list[DynamicsMove] = []
    moved = True
    while moved:
        moved = False
        for i, here in enumerate(position):
            occupancy -= codes[here]
            values, best, arg = kernel.best_reply(0, occupancy)
            if best > values[here]:
                moves.append(DynamicsMove(
                    i, g.resources[here], g.resources[arg[0]],
                    Fraction(-values[here], kernel.scale), Fraction(-best, kernel.scale),
                ))
                position[i] = here = arg[0]
                moved = True
            occupancy += codes[here]

    profile = PureProfile(tuple((g.resources[p],) for p in position))
    final = CongestionVector(g.resources, kernel.digits(occupancy))
    if not is_ne_congestion(g, final):
        raise PreconditionViolatedError("dynamics ended off-equilibrium (bug)")
    return DynamicsResult(start, profile, tuple(moves))


# ---------------------------------------------------------------------------
# Coalitional equilibria
#
# All of these compare scaled integer utilities on the game's `CompiledGame`
# for the blocks they search, whose best replies the game caches per layout source
# by opponent occupancy code, for every later call on it, whatever the partition.


def coalition_best_response(
    cg: CoalitionalGame,
    s: PureProfile,
    k: int,
    restricted: bool = False,
) -> BestReplySet:
    """Exhaustive best reply of block k against the rest of `s` (block k's
    own coordinates are ignored). Returns every maximizer. Every block is
    charged against the size limit, as in `find_deviation`."""
    validate_profile(cg.base, s)
    block = cg.block(k)
    kernel = compile_within_limit(cg, restricted)
    others = (c for i, c in enumerate(s.choices) if i not in block)
    _, best, arg = kernel.best_reply(k, kernel.code(_occupancy(cg.base, others).counts))
    return BestReplySet(k, tuple(kernel.strategies[k][si] for si in arg), Fraction(best, kernel.scale))


def find_deviation(
    cg: CoalitionalGame, s: PureProfile, restricted: bool = False
) -> DeviationWitness | None:
    """First strictly improving block deviation, or None if `s` is an
    equilibrium. Blocks are scanned in index order; among a block's best
    replies the lexicographically first is reported. Each block's strategy
    count must be within the size limit, as for its best reply."""
    kernel = compile_within_limit(cg, restricted)
    validate_profile(cg.base, s)
    found = kernel.deviation(strategy_indices(cg, kernel, ([s.choices[i] for i in block] for block in cg.blocks)))
    if found is None:
        return None
    k, si, current, best = found
    return DeviationWitness(
        k, kernel.strategies[k][si], Fraction(current, kernel.scale), Fraction(best, kernel.scale)
    )


def is_ccg_ne(cg: CoalitionalGame, s: PureProfile, restricted: bool = False) -> bool:
    return find_deviation(cg, s, restricted=restricted) is None


def _suffix_equilibria(kernel: CompiledGame, order: list[int], background: int):
    """(strategy indices, total occupancy code) of every profile of the
    blocks in `order` at which each plays a best reply, all other occupancy
    fixed at the code `background`, in lexicographic order of the indices
    as listed in `order`. `listing(j, prefix)` holds those of the blocks
    from position j on, given the occupancy code `prefix` before j. It
    depends on the blocks before j only through `prefix`, so it is stored
    once complete, in level j's memo; it is never computed ahead of need,
    so a stop is early. The last block's listing is its best replies against
    `prefix`, its opponents, found with one cached lookup per prefix; every
    other level walks all its block's strategies."""
    codes = kernel.codes
    last = len(order) - 1
    memo: list[dict[int, list]] = [{} for _ in order]

    def listing(j: int, prefix: int):
        if j > last:  # no block to search
            return (((), prefix),)
        found = memo[j].get(prefix)
        if found is not None:
            return found
        if j < last:
            return extend(j, prefix)
        own = codes[order[j]]
        replies = kernel.best_reply(order[j], prefix)[2]
        found = memo[j][prefix] = [((si,), prefix + own[si]) for si in replies]
        return found

    def extend(j: int, prefix: int):
        k, found, best_reply = order[j], [], kernel.best_reply
        for si, code in enumerate(codes[k]):
            for tail, total in listing(j + 1, prefix + code):
                if si in best_reply(k, total - code)[2]:
                    found.append(((si, *tail), total))
                    yield found[-1]
        memo[j][prefix] = found

    try:
        yield from listing(0, background)
    finally:
        listing = extend = None  # each refers to the other: free the search with its caller


def enumerate_pure_ne(
    cg: CoalitionalGame,
    restricted: bool = False,
    stop_after: int | None = None,
) -> NeReport:
    """All equilibria over canonical joint profiles in lexicographic order,
    or the first `stop_after`. A block with one canonical strategy always
    plays a best reply, so its occupancy joins the background and the
    search nests at most log2(profiles) deep. An exhaustive listing searches
    the other blocks by ascending strategy count, ties in block order, so
    the largest takes the last level, one lookup per prefix; it then sorts
    what it found. An early stop searches in block order, in which the
    first equilibria come first."""
    if stop_after is not None and not (type(stop_after) is int and stop_after >= 1):
        raise InvalidParamsError(f"stop_after must be an integer of at least 1, got {stop_after!r}")
    blocks = cg.blocks
    kernel = compile_within_limit(cg, restricted, "joint canonical profile space")
    sizes = [len(s) for s in kernel.strategies]
    total = math.prod(sizes)
    order = [k for k, size in enumerate(sizes) if size != 1]
    fixed = [k for k, size in enumerate(sizes) if size == 1]
    background = sum(kernel.codes[k][0] for k in fixed)
    orbits = [layout.orbits for layout in kernel.layouts]
    choices: list = [()] * cg.base.n

    def place(k: int, si: int) -> int:
        """Hand block k's strategy si to its members in `choices`; its orbit size."""
        members, size = orbits[k][si]
        for i, c in zip(blocks[k], members):
            choices[i] = c
        return size

    fixed_multiplicity = math.prod(place(k, 0) for k in fixed)
    equilibria: list[PureProfile] = []
    multiplicities: list[int] = []
    checked = total
    searched = order if stop_after is not None else sorted(order, key=sizes.__getitem__)
    back = [searched.index(k) for k in order]
    listed = ([found[p] for p in back] for found, _ in _suffix_equilibria(kernel, searched, background))
    for found in listed if stop_after is not None else sorted(listed):
        multiplicity = fixed_multiplicity
        for k, si in zip(order, found):
            multiplicity *= place(k, si)
        equilibria.append(PureProfile.of_tuples(tuple(choices)))
        multiplicities.append(multiplicity)
        if stop_after is not None and len(equilibria) >= stop_after:
            strides = row_major_strides(sizes)
            checked = sum(strides[k] * si for k, si in zip(order, found)) + 1
            break
    return NeReport(tuple(equilibria), tuple(multiplicities), checked == total, checked, blocks)


def in_restricted_space(cg: CoalitionalGame, s: PureProfile) -> bool:
    """True when every block's members occupy pairwise-distinct resources.
    The profile is validated once, not once per block."""
    validate_profile(cg.base, s)
    used = ([r for i in block for r in s.choices[i]] for block in cg.blocks)
    return all(len(set(u)) == len(u) for u in used)


# ---------------------------------------------------------------------------
# Lifting check
#
# An executable assertion: when applicable, a failure is an implementation
# bug, not a legitimate outcome, so it raises.


def check_ne_lift(cg: CoalitionalGame, s: PureProfile, restricted: bool = False) -> LiftVerdict:
    """Applicable when block members occupy pairwise-distinct resources and
    the congestion vector is an equilibrium vector of the simple base game;
    then `s` must be an equilibrium of the coalitional game. With
    `restricted`, only restricted deviations count, and `s` itself must lie
    in the restricted space."""
    what = "restricted lift check" if restricted else "lift check"
    if not cg.base.is_simple:
        raise PreconditionViolatedError(f"{what} needs a simple base game")
    distinct = in_restricted_space(cg, s)
    if restricted and not distinct:
        raise PreconditionViolatedError("profile assigns one block two sub-agents on one resource")
    if not (distinct and is_ne_congestion(cg.base, _occupancy(cg.base, s.choices))):
        return LiftVerdict(False, None)
    witness = find_deviation(cg, s, restricted=restricted)
    if witness is not None:
        raise NeLiftViolationError(
            f"{what}: block {witness.block} improves from {witness.current_value} "
            f"to {witness.best_value} via {witness.strategy}"
        )
    return LiftVerdict(True, True)
