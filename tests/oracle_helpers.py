"""Definition-level brute-force oracles.

These deliberately avoid the library's enumeration machinery: they work on
raw (non-canonical) profiles and compute utilities through the public
per-block utility function, so they can independently confirm solver and
enumerator outputs on small instances. `scan_pure_ne` is the joint-profile
scan that the suffix-subgame search replaced, kept to cross-check it report
for report. It evaluates on a twin of the game (equal, not the same object),
so it neither reads nor fills the best replies the game caches per layout
source; its representatives and multiplicities come from
`listed_block_orbit`, which lists member permutations, so the orbits the
library's layouts keep (in closed form, or counted while a product of
member sets is listed) are checked against a listing, not against
themselves.
`listed_block_layout` lists a block's strategies from the product of its
members' sets, which the cached shared-set layouts replaced. The potential
oracle checks the defining equation edge by edge on the rational utility
mapping, independent of the fiber test the library uses. The square oracles evaluate one
deviation square from `coalition_utility` at its corners, and find the
first nonzero square by trying every square in order with
`four_cycle_residual`, the plain scan the library's fiber scan replaced.
The form and table helpers convert between rational mappings and the
library's flat scaled-integer tables, and the cost-table references redo
on Fractions what the library does on each table's integer numerators.
`fix_strategies_subgame` materializes a subset of blocks against frozen
outsiders, for tests that restrict a game: it builds the free sub-agents'
own game, whose cost tables start at the frozen occupancy, so it shares no
kernel with the game it restricts.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ccg import (
    CoalitionalGame,
    CongestionGame,
    CongestionVector,
    FourCycleWitness,
    NeReport,
    Partition,
    PotentialTable,
    PureProfile,
    StrategicForm,
    assemble_profile,
    canonical_block_strategies,
    coalition_utility,
    congestion,
    four_cycle_residual,
    materialize,
    player_cost,
)
from ccg.errors import CoverageMismatchError, InvalidProfileError
from ccg.game import (
    CompiledGame,
    Violation,
    as_profile,
    compile_within_limit,
    validate_profile,
)
from ccg.potential import LinearityEntry, PotentialViolation


def _scaled(values) -> tuple[list[int], int]:
    """Rationals as integers over their least common denominator."""
    fractions = [Fraction(v) for v in values]
    scale = math.lcm(*(f.denominator for f in fractions))
    return [f.numerator * (scale // f.denominator) for f in fractions], scale


def form_from_utilities(strategies, utilities) -> StrategicForm:
    """The form whose player utilities at each joint strategy index tuple
    are `utilities[profile]`, which must cover the full grid."""
    strategies = tuple(map(tuple, strategies))
    grid = itertools.product(*(range(len(s)) for s in strategies))
    flat, scale = _scaled(v for p in grid for v in utilities[p])
    n = len(strategies)
    return StrategicForm(strategies, tuple(tuple(flat[i::n]) for i in range(n)), scale)


def form_utilities(game: StrategicForm) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """Every joint profile's utilities as rationals."""
    return {
        p: tuple(Fraction(game.utility(p, i)) for i in range(game.players))
        for p in game.profiles()
    }


def table_from_values(values) -> PotentialTable:
    """The potential table holding `values[profile]` on a full grid, each
    grid position labelled `str(i)`."""
    profiles = sorted(values)
    sizes = tuple(max(p[k] for p in profiles) + 1 for k in range(len(profiles[0])))
    assert len(profiles) == math.prod(sizes)
    flat, scale = _scaled(values[p] for p in profiles)
    return PotentialTable(tuple(tuple(map(str, range(m))) for m in sizes), tuple(flat), scale)


def table_values(table: PotentialTable) -> dict[tuple[int, ...], Fraction]:
    grid = itertools.product(*(range(m) for m in table.sizes))
    return {p: Fraction(v, table.scale) for p, v in zip(grid, table.flat)}


def pure_nash_equilibria(game: StrategicForm) -> list[tuple[int, ...]]:
    """All pure equilibria of a finite normal-form game, lexicographic."""
    found = []
    for profile in game.profiles():
        ok = True
        for i in range(game.players):
            current = game.utility(profile, i)
            for t in range(len(game.strategies[i])):
                if t == profile[i]:
                    continue
                alt = profile[:i] + (t,) + profile[i + 1 :]
                if game.utility(alt, i) > current:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(profile)
    return found


def raw_block_tuples(cg: CoalitionalGame, k: int):
    """Every raw strategy tuple of block k (no symmetry reduction)."""
    return list(itertools.product(*(cg.base.strategy_sets[i] for i in cg.blocks[k])))


def raw_profiles(g: CongestionGame):
    for combo in itertools.product(*g.strategy_sets):
        yield PureProfile(tuple(combo))


def brute_is_ccg_ne(cg: CoalitionalGame, s: PureProfile) -> bool:
    """Direct definition: no block has a raw tuple strictly improving it."""
    for k, block in enumerate(cg.blocks):
        current = coalition_utility(cg, s, k)
        for alt in raw_block_tuples(cg, k):
            choices = list(s.choices)
            for i, choice in zip(block, alt):
                choices[i] = choice
            if coalition_utility(cg, PureProfile(tuple(choices)), k) > current:
                return False
    return True


def brute_ccg_equilibria(cg: CoalitionalGame) -> list[PureProfile]:
    return [s for s in raw_profiles(cg.base) if brute_is_ccg_ne(cg, s)]


def brute_simple_ne_congestions(g: CongestionGame) -> set[tuple[int, ...]]:
    """Congestion count tuples of all pure equilibria of a simple game,
    found by checking every raw profile against every single-agent move."""
    out = set()
    for s in raw_profiles(g):
        ok = True
        for i in range(g.n):
            current = player_cost(g, s, i)
            for alt in g.strategy_sets[i]:
                choices = list(s.choices)
                choices[i] = alt
                if player_cost(g, PureProfile(tuple(choices)), i) < current:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(congestion(g, s).counts)
    return out


def brute_is_ne_congestion(g: CongestionGame, c: CongestionVector) -> bool:
    """Realize the vector as a profile of the simple game `g` and test every
    single-agent move against the definition."""
    s = PureProfile(tuple((r,) for r, x in zip(c.resources, c.counts) for _ in range(x)))
    for i in range(g.n):
        current = player_cost(g, s, i)
        for alt in g.strategy_sets[i]:
            choices = list(s.choices)
            choices[i] = alt
            if player_cost(g, PureProfile(tuple(choices)), i) < current:
                return False
    return True


def assert_kernel_matches_definition(cg: CoalitionalGame) -> None:
    """Every flat payoff of the materialized form, divided by its scale,
    equals the public per-block utility of the assembled profile, and that
    profile is playable."""
    sf = materialize(cg)
    strats = [canonical_block_strategies(cg, k) for k in range(len(cg.blocks))]
    for f, idx in enumerate(sf.profiles()):
        s = assemble_profile(cg, [strats[k][si] for k, si in enumerate(idx)])
        validate_profile(cg.base, s)
        for k in range(len(cg.blocks)):
            assert Fraction(sf.payoffs[k][f], sf.scale) == coalition_utility(cg, s, k)


def pairwise_potential_check(
    game: StrategicForm, table: PotentialTable
) -> tuple[bool, PotentialViolation | None]:
    """The potential equation on every unilateral deviation edge, one edge
    at a time: (True, None), or (False, first violation) in lexicographic
    order of (profile, player, alternative) with the alternative above the
    profile's own strategy."""
    values = table_values(table)
    utilities = form_utilities(game)
    for profile in game.profiles():
        for i in range(game.players):
            for t in range(profile[i] + 1, len(game.strategies[i])):
                other = profile[:i] + (t,) + profile[i + 1 :]
                pot_delta = values[profile] - values[other]
                util_delta = utilities[profile][i] - utilities[other][i]
                if pot_delta != util_delta:
                    return False, PotentialViolation(profile, i, t, pot_delta, util_delta)
    return True, None


def square_residual_by_definition(
    cg: CoalitionalGame, i: int, j: int, profile: tuple[int, ...], t_i: int, t_j: int
) -> Fraction:
    """Residual of the deviation square where blocks i and j move from
    `profile` (one canonical strategy index per block) to t_i and t_j: the
    moving block's utility change along each edge of the square, with every
    utility taken from `coalition_utility` at the assembled corner."""
    strats = [canonical_block_strategies(cg, k) for k in range(len(cg.blocks))]

    def utility(k: int, moved: dict[int, int]) -> Fraction:
        idx = [moved.get(b, si) for b, si in enumerate(profile)]
        return coalition_utility(cg, assemble_profile(cg, [strats[b][x] for b, x in enumerate(idx)]), k)

    start, moved_i, both, moved_j = {}, {i: t_i}, {i: t_i, j: t_j}, {j: t_j}
    return (
        utility(i, start) - utility(i, moved_i)
        + utility(j, moved_i) - utility(j, both)
        + utility(i, both) - utility(i, moved_j)
        + utility(j, moved_j) - utility(j, start)
    )


def first_nonzero_square(game: StrategicForm) -> FourCycleWitness | None:
    """The first deviation square with a nonzero residual in the order
    (player i < player j, profile, alternative i, alternative j), both
    alternatives above the profile's own, found by evaluating every square
    in turn with `four_cycle_residual`."""
    for i, j in itertools.combinations(range(game.players), 2):
        for s in game.profiles():
            for t_i in range(s[i] + 1, game.sizes[i]):
                for t_j in range(s[j] + 1, game.sizes[j]):
                    residual = four_cycle_residual(game, i, j, s, t_i, t_j)
                    if residual:
                        return FourCycleWitness(i, j, s, t_i, t_j, residual)
    return None


def listed_block_orbit(g: CongestionGame, block, choices) -> tuple[tuple, int]:
    """The orbit of the choice multiset `choices` that a `BlockLayout` keeps
    (`layout.orbits`), by listing every assignment of `choices` to the
    members of `block` and keeping those each member can play: the least of
    them in resource order (the sorted order when there is none), and their
    count."""
    playable = {
        perm
        for perm in itertools.permutations(choices)
        if all(c in g.strategy_sets[i] for i, c in zip(block, perm))
    }
    if not playable:
        return tuple(sorted(choices, key=g.choice_key)), 0
    return min(playable, key=lambda perm: [g.choice_key(c) for c in perm]), len(playable)


def scan_pure_ne(
    cg: CoalitionalGame, restricted: bool = False, stop_after: int | None = None
) -> NeReport:
    """Equilibrium enumeration by testing every canonical joint profile in
    row-major order for a strictly improving block deviation. Each reported
    profile and its multiplicity come from `listed_block_orbit`, not from
    the library's orbits. Its kernel is compiled on a twin of `cg.base`, so
    its best replies are its own, and `cg.base` is left as it was."""
    twin = CongestionGame(cg.base.resources, cg.base.costs, cg.base.strategy_sets)
    kernel = compile_within_limit(CoalitionalGame(twin, cg.partition), restricted)
    total = math.prod(len(s) for s in kernel.strategies)
    equilibria: list[PureProfile] = []
    multiplicities: list[int] = []
    checked = 0
    exhaustive = True
    for idx in itertools.product(*(range(len(s)) for s in kernel.strategies)):
        checked += 1
        if kernel.deviation(idx) is None:
            choices = [()] * cg.base.n
            multiplicity = 1
            for block, strategies, si in zip(cg.blocks, kernel.strategies, idx):
                members, size = listed_block_orbit(cg.base, block, strategies[si])
                for i, choice in zip(block, members):
                    choices[i] = choice
                multiplicity *= size
            equilibria.append(PureProfile(tuple(choices)))
            multiplicities.append(multiplicity)
            if stop_after is not None and len(equilibria) >= stop_after:
                exhaustive = checked == total
                break
    return NeReport(tuple(equilibria), tuple(multiplicities), exhaustive, checked, cg.blocks)


def listed_block_layout(cg: CoalitionalGame, k: int, restricted: bool = False):
    """Block k's (strategies, contributions), listed from the product of its
    members' strategy sets: each tuple sorted in resource order, duplicates
    dropped, with `restricted` only those on pairwise-distinct resources;
    usage counted choice by choice."""
    g = cg.base
    member_sets = [g.strategy_sets[i] for i in cg.blocks[k]]
    canon = {tuple(sorted(raw, key=g.choice_key)) for raw in itertools.product(*member_sets)}
    strategies = sorted(canon, key=lambda strat: [g.choice_key(c) for c in strat])
    if restricted:
        strategies = [strat for strat in strategies if len({r for c in strat for r in c}) == len(strat)]
    index = g.resource_index()
    contributions = []
    for strat in strategies:
        counts = [0] * len(index)
        for choice in strat:
            for r in choice:
                counts[index[r]] += 1
        contributions.append(tuple((r, used) for r, used in enumerate(counts) if used))
    return tuple(strategies), contributions


def reference_best_reply(cg: CoalitionalGame, k: int, env) -> tuple[list[Fraction], Fraction, tuple[int, ...]]:
    """Block k's utility for each canonical strategy when everyone else
    occupies the resources as counted in `env` (resource order), by the
    definition -sum_r used_r * cost_r(env_r + used_r) on Fractions; the best
    value; and the indices of every maximizer."""
    g = cg.base
    values = []
    for strat in canonical_block_strategies(cg, k):
        used = [sum(r in choice for choice in strat) for r in g.resources]
        values.append(-sum(u * g.costs[r].cost(e + u) for r, e, u in zip(g.resources, env, used) if u))
    best = max(values)
    return values, best, tuple(si for si, v in enumerate(values) if v == best)


def cached_replies(kernel: CompiledGame) -> int:
    """The number of best replies held for a kernel's layouts. They are the
    game's records, one per game and layout source (see `_list_layout`),
    read by every kernel of the game that lists that source, so positions
    sharing a record count it once."""
    return sum({id(cache): len(cache) for cache in kernel._replies}.values())


def reply_keys(g: CongestionGame) -> dict:
    """A snapshot of the game's best-reply records: per layout source, the
    occupancy codes its cache holds."""
    return {key: frozenset(replies) for key, (_, _, replies, _) in g._layouts.items()}


# ---------------------------------------------------------------------------
# Cost tables on Fractions: the library compares a table's integer numerators
# over its denominator; these read `CostTable.values` instead.


def reference_scaled(g: CongestionGame) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The LCM of every cost value's denominator, and each table's values
    times it, in resource order."""
    tables = [g.costs[r].values for r in g.resources]
    scale = math.lcm(*(v.denominator for table in tables for v in table))
    return scale, tuple(tuple(int(v * scale) for v in table) for table in tables)


def reference_violations(g: CongestionGame) -> tuple[Violation, ...]:
    """`validate_game`, one sub-agent and one Fraction comparison at a time."""
    found = []
    for r in g.resources:
        if r not in g.costs:
            found.append(Violation("LengthMismatch", f"costs[{r}]", "no cost table for resource"))
            continue
        v = g.costs[r].values
        if len(v) != g.n:
            found.append(
                Violation("LengthMismatch", f"costs[{r}]", f"table length {len(v)} != {g.n} sub-agents")
            )
        found += [
            Violation("NegativeCost", f"costs[{r}][{j + 1}]", f"cost {x} is negative")
            for j, x in enumerate(v)
            if x < 0
        ]
        found += [
            Violation("DecreasingCost", f"costs[{r}][{j + 1}]", f"{v[j]} < {v[j - 1]}")
            for j in range(1, len(v))
            if v[j] < v[j - 1]
        ]
    found += [
        Violation("UnknownResource", f"costs[{r}]", "cost table for unknown resource")
        for r in g.costs
        if r not in g.resources
    ]
    for i, strat_set in enumerate(g.strategy_sets):
        if not strat_set:
            found.append(Violation("EmptyStrategySet", f"strategies[{i}]", "empty strategy set"))
        for choice in strat_set:
            if not choice:
                found.append(Violation("EmptyStrategySet", f"strategies[{i}]", "empty resource subset"))
            found += [
                Violation("UnknownResource", f"strategies[{i}]", f"unknown resource {r!r}")
                for r in choice
                if r not in g.resources
            ]
    return tuple(found)


def reference_is_linear(values) -> LinearityEntry:
    """`is_linear` on the values: affine exactly when every second
    difference is zero, with P(j) = slope * j + intercept."""
    v = [Fraction(x) for x in values]
    for j in range(1, len(v) - 1):
        if v[j + 1] - v[j] != v[j] - v[j - 1]:
            return LinearityEntry(False, None, None, j + 1)
    slope = v[1] - v[0] if len(v) >= 2 else Fraction(0)
    return LinearityEntry(True, slope, v[0] - slope, None)


def fix_strategies_subgame(cg: CoalitionalGame, fixed, free_blocks) -> StrategicForm:
    """Strategic form over a subset of blocks with everyone else frozen.

    `fixed` maps each sub-agent outside the free blocks to its frozen choice;
    it must cover exactly those sub-agents, and each must be able to play it.
    This is `materialize` of the free sub-agents' own game, in which each
    resource's cost table is the original one read from the frozen
    occupancy on; with all blocks free it is just `materialize`, and like it
    refuses tables larger than the size limit before listing a strategy.
    """
    free = sorted(set(free_blocks))
    for k in free:
        cg.block(k)
    free_agents = {i for k in free for i in cg.blocks[k]}
    frozen_agents = set(range(cg.base.n)) - free_agents
    if set(fixed) != frozen_agents:
        raise CoverageMismatchError(
            f"fixed profile covers {sorted(fixed)}, expected {sorted(frozen_agents)}"
        )

    g = cg.base
    frozen = as_profile(g, [fixed.get(i, g.resources[0]) for i in range(g.n)])
    index = g.resource_index()
    env = [0] * len(g.resources)
    for i in sorted(frozen_agents):
        if frozen.choices[i] not in g.strategy_sets[i]:
            raise InvalidProfileError(f"sub-agent {i} cannot play {frozen.choices[i]}")
        for r in frozen.choices[i]:
            env[index[r]] += 1
    agents = sorted(free_agents)
    new_index = {i: j for j, i in enumerate(agents)}
    costs = {r: g.costs[r].values[env[index[r]] : env[index[r]] + len(agents)] for r in g.resources}
    sub = CongestionGame(g.resources, costs, [g.strategy_sets[i] for i in agents])
    blocks = [[new_index[i] for i in cg.blocks[k]] for k in free]
    return materialize(CoalitionalGame(sub, Partition(blocks)))
