"""Data model for congestion games, partitions, and induced coalitional games.

A congestion game has a finite ordered resource set, one cost table per
resource (cost per user as a function of occupancy), and one strategy set per
sub-agent, each strategy being a nonempty resource subset. A game is *simple*
when every strategy set consists of all singletons. Grouping sub-agents with a
partition induces a coalitional game whose players are the blocks: a block
chooses a tuple of member strategies and receives the sum of member utilities
(utilities are negated costs).

Everything is an immutable value; every operation is a pure function; all
arithmetic is exact, so equilibrium and potential verdicts are too. A cost
table is stored as integer numerators over its least common denominator, and
validation compares those integers. For analysis a coalitional game is
compiled once (`CompiledGame`): every table is brought to the LCM of the
table denominators, so inner loops run on Python integers, and values become
Fractions only when they leave the kernel. There an occupancy vector is one
integer, its code (counts as digits in base n + 1). A game without tables to
compile (a missing or short table, an unknown resource, an empty strategy
set) is refused with `InvalidGameError` whenever it is compiled. Every block
is charged against the size limit from its members' sets before it is listed
into a `BlockLayout`: its strategies, their usage as sparse `(resource,
uses)` pairs, and its term, orbit and index tables. Every profile the
library places takes its member orders and orbit sizes from those layouts.
A game keeps its scaled tables, one kernel per partition and strategy
space, and one table of layouts by source, each with a best-reply cache by
code that all its kernels share; a shared set's layout comes, on the
game's first use, from a process-wide LRU that every game on it reads.
Utilities come from one evaluator, `CompiledGame.best_reply`: `materialize`
emits a flat `StrategicForm` of such scaled integers, filled from best
replies fiber by fiber.
Sub-agents and blocks are 0-indexed throughout the library; the file format
and CLI translate to 1-based ids.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, le, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BlockLargerThanResourceSetError,
    InvalidBlockError,
    InvalidGameError,
    InvalidProfileError,
    MismatchedResourcesError,
    PreconditionViolatedError,
)
from .limits import effective_size_limit, ensure_within_limit
from .rationals import as_fraction

# A choice is a nonempty tuple of resource ids, kept sorted in the owning
# game's resource order.
Choice = tuple[str, ...]

# A block strategy is one choice per block member, kept sorted so that
# permutations of interchangeable members collapse to one representative.
BlockStrategy = tuple[Choice, ...]


@dataclass(frozen=True)
class Violation:
    """One structural defect found by `validate_game`."""

    code: str
    where: str
    message: str


NEGATIVE_COST = "NegativeCost"
DECREASING_COST = "DecreasingCost"
EMPTY_STRATEGY_SET = "EmptyStrategySet"
UNKNOWN_RESOURCE = "UnknownResource"
LENGTH_MISMATCH = "LengthMismatch"


@dataclass(frozen=True, init=False)
class CostTable:
    """Per-user cost of one resource, indexed by occupancy 1..n: the cost at
    occupancy c is `Fraction(numerators[c - 1], denominator)`.

    `CostTable(values)` takes ints, Fractions and "p/q" strings;
    `CostTable.scaled` takes integers already over one denominator. Either
    way the pair is reduced (the denominator is the least common one of the
    values), so equal tables have equal fields, and equality and hashing see
    only them. `values` is derived once, for the definition-level code.
    Valid tables are non-negative and weakly increasing; `validate_game`
    reports violations rather than the constructor raising.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, values: Iterable) -> None:
        # an int is its own numerator over denominator 1
        values = [v if type(v) is int else as_fraction(v) for v in values]
        denominator = math.lcm(*(v.denominator for v in values))
        self._set([v.numerator * (denominator // v.denominator) for v in values], denominator)

    @classmethod
    def scaled(cls, numerators: Iterable[int], denominator: int) -> "CostTable":
        """The table of `Fraction(x, denominator)` for x in `numerators`, for
        integers x and `denominator >= 1`, taken without coercion."""
        table = object.__new__(cls)
        table._set(numerators, denominator)
        return table

    def _set(self, numerators: Iterable[int], denominator: int) -> None:
        numerators = tuple(numerators)
        g = math.gcd(denominator, *numerators)
        if g != 1:
            numerators = tuple(x // g for x in numerators)
            denominator //= g
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    def __len__(self) -> int:
        return len(self.numerators)

    def cost(self, occupancy: int) -> Fraction:
        """Cost paid by each user when `occupancy` users share the resource."""
        if not 1 <= occupancy <= len(self.values):
            raise InvalidProfileError(f"occupancy {occupancy} outside 1..{len(self.values)}")
        return self.values[occupancy - 1]


def _normalize_choice(raw, index: Mapping[str, int], width: int) -> Choice:
    if isinstance(raw, str):
        items = {raw}
    else:
        items = set(raw)  # a choice is a resource subset; duplicates collapse
    # Unknown resources sort after known ones so construction never fails;
    # validate_game reports them.
    return tuple(sorted(items, key=lambda r: (index.get(r, width), r)))


@dataclass(frozen=True)
class CongestionGame:
    """A congestion game over an ordered resource set.

    The resource order is significant: it is the tie-break order for
    best-response dynamics and the canonical sort order for choices.
    `is_simple`, the resource positions behind `choice_key`, the violations
    behind `require_valid`, the scaled cost tables, the compiled sub-agent
    `_agent`, the coalitional kernels of `compile_within_limit` and their
    `_layouts` table of layouts and best replies (see `_list_layout`) are
    computed once per game; equality and hashing see the fields only.
    """

    resources: tuple[str, ...]
    costs: Mapping[str, CostTable]
    strategy_sets: tuple[tuple[Choice, ...], ...]

    def __post_init__(self) -> None:
        resources = tuple(str(r) for r in self.resources)
        if len(set(resources)) != len(resources):
            raise InvalidGameError(f"duplicate resource ids in {resources}")
        if any(sep in r for r in resources for sep in "+,|"):
            raise InvalidGameError(f"resource ids in {resources} may not hold '+', ',' or '|', which labels join with")
        index = {r: i for i, r in enumerate(resources)}
        costs = {
            str(r): t if isinstance(t, CostTable) else CostTable(t)
            for r, t in dict(self.costs).items()
        }
        # Simple games pass one strategy set object for every sub-agent, so
        # each object is normalized once; keeping it in `seen` keeps its id.
        seen: dict[int, tuple] = {}

        def normalize(strat_set) -> tuple[Choice, ...]:
            if id(strat_set) not in seen:
                choices = tuple(_normalize_choice(c, index, len(resources)) for c in strat_set)
                seen[id(strat_set)] = (strat_set, choices)
            return seen[id(strat_set)][1]

        sets = tuple(map(normalize, self.strategy_sets))
        if not sets:
            raise InvalidGameError("a game needs at least one sub-agent")
        object.__setattr__(self, "resources", resources)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "strategy_sets", sets)

    @classmethod
    def simple(cls, resources: Sequence[str], costs: Mapping[str, Sequence]) -> "CongestionGame":
        """Build a simple game: every sub-agent picks exactly one resource.

        The sub-agent count is the (common) cost table length.
        """
        tables = {
            r: v if isinstance(v, CostTable) else CostTable(v) for r, v in costs.items()
        }
        lengths = {len(t) for t in tables.values()}
        if len(lengths) != 1:
            raise InvalidGameError(f"cost tables disagree on length: {sorted(lengths)}")
        n = lengths.pop()
        singles = tuple((r,) for r in resources)
        return cls(tuple(resources), tables, tuple(singles for _ in range(n)))

    @property
    def n(self) -> int:
        """Number of sub-agents."""
        return len(self.strategy_sets)

    @cached_property
    def is_simple(self) -> bool:
        singles = tuple((r,) for r in self.resources)
        return all(s == singles for s in self.strategy_sets)

    def resource_index(self) -> dict[str, int]:
        return dict(self._positions)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {r: i for i, r in enumerate(self.resources)}

    def choice_key(self, choice: Choice) -> tuple[int, ...]:
        index = self._positions
        width = len(self.resources)
        return tuple(index.get(r, width) for r in choice)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The LCM of the table denominators, and every table's numerators
        over it (a table already on that scale is shared, not copied)."""
        tables = [self.costs[r] for r in self.resources]
        scale = math.lcm(*(t.denominator for t in tables))
        factors = [scale // t.denominator for t in tables]
        return scale, tuple(
            t.numerators if f == 1 else tuple(x * f for x in t.numerators) for t, f in zip(tables, factors)
        )

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return validate_game(self)

    @cached_property
    def _agent(self) -> "CompiledGame":
        """One sub-agent of a simple game as a block of its own: the
        one-member `_shared_layout` of its strategy set, compiled on first
        use, so every caller shares its best replies."""
        _require_compilable(self)
        return CompiledGame(self, [_list_layout(self, frozenset(self.strategy_sets[0]), self.strategy_sets[:1], False)])

    @cached_property
    def _kernels(self) -> dict[tuple, "CompiledGame"]:
        """One kernel per (partition, restricted); see `compile_within_limit`."""
        return {}

    @cached_property
    def _layouts(self) -> dict[tuple, tuple["BlockLayout", list[int], dict, list]]:
        """Per layout source, its record: layout, codes, best replies, plan."""
        return {}

    @cached_property
    def _playable(self) -> tuple[frozenset[Choice], ...]:
        """Each sub-agent's strategy set as a frozenset, one per set object."""
        frozen = {key: frozenset(s) for key, s in {id(s): s for s in self.strategy_sets}.items()}
        return tuple(frozen[id(s)] for s in self.strategy_sets)


def _integer_blocks(blocks: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """`blocks` as tuples, once every member is checked to be an `int` (not
    a `bool`)."""
    blocks = [tuple(b) for b in blocks]
    for i in (i for b in blocks for i in b):
        if type(i) is not int:
            raise InvalidGameError(f"sub-agent index {i!r} is not an integer")
    return blocks


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of sub-agent indices (0-based).

    Blocks are normalized: members ascending within a block, blocks ordered
    by their smallest member. Coverage of 0..n-1 is checked against a game
    when the partition is attached to one.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = _integer_blocks(self.blocks)
        if not blocks or any(not b for b in blocks):
            raise InvalidGameError("partition blocks must be nonempty")
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen: set[int] = set()
        for b in blocks:
            for i in b:
                if i < 0:
                    raise InvalidGameError(f"negative sub-agent index {i}")
                if i in seen:
                    raise InvalidGameError(f"sub-agent {i} appears in two blocks")
                seen.add(i)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_one_based(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(tuple(i - 1 for i in b) for b in _integer_blocks(blocks)))

    def one_based(self) -> list[list[int]]:
        return [[i + 1 for i in b] for b in self.blocks]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_agents(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def max_block_size(self) -> int:
        return max(len(b) for b in self.blocks)

    def validate_for(self, n: int) -> None:
        members = sorted(i for b in self.blocks for i in b)
        if members != list(range(n)):
            raise InvalidGameError(f"partition covers {members}, expected 0..{n - 1}")

    def singletons(self) -> list[int]:
        return [k for k, b in enumerate(self.blocks) if len(b) == 1]

    def pairs(self) -> list[int]:
        return [k for k, b in enumerate(self.blocks) if len(b) == 2]

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(n)))


@dataclass(frozen=True)
class CoalitionalGame:
    """A congestion game together with a partition of its sub-agents."""

    base: CongestionGame
    partition: Partition

    def __post_init__(self) -> None:
        self.partition.validate_for(self.base.n)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.partition.blocks

    def block(self, k: int) -> tuple[int, ...]:
        if not 0 <= k < len(self.blocks):
            raise InvalidBlockError(f"block {k} outside 0..{len(self.blocks) - 1}")
        return self.blocks[k]


@dataclass(frozen=True)
class PureProfile:
    """One choice per sub-agent, in sub-agent order."""

    choices: tuple[Choice, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "choices", tuple(tuple(c) if not isinstance(c, str) else (c,) for c in self.choices)
        )

    @classmethod
    def of_tuples(cls, choices: tuple[Choice, ...]) -> PureProfile:
        """The profile of `choices`, a tuple of choice tuples, taken as is
        without `__post_init__`'s normalization."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "choices", choices)
        return profile

    def __len__(self) -> int:
        return len(self.choices)


@dataclass(frozen=True)
class CongestionVector:
    """Per-resource occupancy counts, aligned with a game's resource order."""

    resources: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.resources) != len(self.counts):
            raise MismatchedResourcesError("resource and count lengths differ")

    def __getitem__(self, resource: str) -> int:
        try:
            return self.counts[self.resources.index(resource)]
        except ValueError as exc:
            raise MismatchedResourcesError(f"unknown resource {resource!r}") from exc

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.resources, self.counts))


def row_major_strides(sizes: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix strides of a profile grid with `sizes[k]` values in
    coordinate k: profile `p` has flat index `sum(p[k] * strides[k])`, and
    the last coordinate varies fastest (the order of `itertools.product`)."""
    strides = [1] * len(sizes)
    for k in range(len(sizes) - 1, 0, -1):
        strides[k - 1] = strides[k] * sizes[k]
    return tuple(strides)


def profile_at(flat: int, sizes: Sequence[int]) -> tuple[int, ...]:
    """The profile with row-major flat index `flat` on a grid of `sizes`."""
    digits = []
    for m in reversed(sizes):
        flat, digit = divmod(flat, m)
        digits.append(digit)
    return tuple(reversed(digits))


@dataclass(frozen=True, eq=False)
class StrategicForm:
    """A finite normal-form game with a total, exact utility table.

    `strategies[i]` lists player i's strategy labels. Joint profiles are
    numbered row-major (see `row_major_strides`), and `payoffs[i][f]` is
    player i's utility at flat profile f multiplied by the positive integer
    `scale`: the utility itself is `Fraction(payoffs[i][f], scale)`, which
    `utility` returns.
    """

    strategies: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[int, ...], ...]
    scale: int

    @property
    def players(self) -> int:
        return len(self.strategies)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategies)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        return row_major_strides(self.sizes)

    def profiles(self) -> Iterator[tuple[int, ...]]:
        """All joint strategy index tuples, lexicographic (= flat index order)."""
        return itertools.product(*(range(len(s)) for s in self.strategies))

    def index(self, profile: Sequence[int]) -> int:
        """Row-major flat index of a joint profile."""
        return sum(p * s for p, s in zip(profile, self.strides))

    def utility(self, profile: tuple[int, ...], player: int) -> Fraction:
        return Fraction(self.payoffs[player][self.index(profile)], self.scale)

    def num_profiles(self) -> int:
        return math.prod(len(s) for s in self.strategies)


# ---------------------------------------------------------------------------
# Construction helpers and validation


def as_profile(g: CongestionGame, choices: Sequence) -> PureProfile:
    """Build a profile from raw per-sub-agent choices, normalizing each
    choice to the game's resource order. Accepts bare strings for
    single-resource choices."""
    index = g.resource_index()
    width = len(g.resources)
    return PureProfile(tuple(_normalize_choice(c, index, width) for c in choices))


def validate_game(g: CongestionGame) -> tuple[Violation, ...]:
    """Check every structural invariant; return all violations found. Costs
    are compared as numerators over their table's denominator; a value
    becomes a Fraction only to be named in a message."""
    found: list[Violation] = []
    n = g.n
    resource_set = set(g.resources)
    for r in g.resources:
        table = g.costs.get(r)
        if table is None:
            found.append(Violation(LENGTH_MISMATCH, f"costs[{r}]", "no cost table for resource"))
            continue
        if len(table) != n:
            found.append(
                Violation(LENGTH_MISMATCH, f"costs[{r}]", f"table length {len(table)} != {n} sub-agents")
            )
        x = table.numerators
        if min(x, default=0) >= 0 and all(map(le, x, x[1:])):
            continue
        v = table.values
        for j in (j for j in range(len(x)) if x[j] < 0):
            found.append(Violation(NEGATIVE_COST, f"costs[{r}][{j + 1}]", f"cost {v[j]} is negative"))
        for j in (j for j in range(1, len(x)) if x[j] < x[j - 1]):
            found.append(Violation(DECREASING_COST, f"costs[{r}][{j + 1}]", f"{v[j]} < {v[j - 1]}"))
    for r in g.costs:
        if r not in resource_set:
            found.append(Violation(UNKNOWN_RESOURCE, f"costs[{r}]", "cost table for unknown resource"))
    # sub-agents often share one strategy set object (all of them in a simple
    # game), so each object is checked once
    problems_of: dict[int, list[tuple[str, str]]] = {}
    for i, strat_set in enumerate(g.strategy_sets):
        if id(strat_set) not in problems_of:
            problems_of[id(strat_set)] = _strategy_set_problems(strat_set, resource_set)
        for code, message in problems_of[id(strat_set)]:
            found.append(Violation(code, f"strategies[{i}]", message))
    return tuple(found)


def _strategy_set_problems(strat_set: tuple[Choice, ...], resource_set: set[str]) -> list[tuple[str, str]]:
    problems = [] if strat_set else [(EMPTY_STRATEGY_SET, "empty strategy set")]
    for choice in strat_set:
        if not choice:
            problems.append((EMPTY_STRATEGY_SET, "empty resource subset"))
        problems += [(UNKNOWN_RESOURCE, f"unknown resource {r!r}") for r in choice if r not in resource_set]
    return problems


def _refuse(problems: Iterable[Violation]) -> None:
    detail = "; ".join(f"{v.code} at {v.where}: {v.message}" for v in problems)
    if detail:
        raise InvalidGameError(detail)


def require_valid(g: CongestionGame) -> None:
    _refuse(g._violations)


# The defects that leave a game without integer tables to compile: a missing
# or short cost table, an unknown resource, nothing to play. Negative and
# decreasing costs compile, and the library analyses such games.
_STRUCTURAL = (LENGTH_MISMATCH, UNKNOWN_RESOURCE, EMPTY_STRATEGY_SET)


def _require_compilable(g: CongestionGame) -> None:
    _refuse(v for v in g._violations if v.code in _STRUCTURAL)


def validate_profile(g: CongestionGame, s: PureProfile) -> None:
    if len(s) != g.n:
        raise InvalidProfileError(f"profile has {len(s)} choices, game has {g.n} sub-agents")
    for i, choice in enumerate(s.choices):
        if choice not in g._playable[i]:
            raise InvalidProfileError(f"sub-agent {i} cannot play {choice}")


# ---------------------------------------------------------------------------
# Congestion bookkeeping


def _occupancy(g: CongestionGame, choices: Iterable[Choice]) -> CongestionVector:
    """How many of `choices`, taken as valid in `g`, contain each resource."""
    index, counts = g._positions, [0] * len(g.resources)
    for r in itertools.chain.from_iterable(choices):
        counts[index[r]] += 1
    return CongestionVector(g.resources, tuple(counts))


def congestion(g: CongestionGame, s: PureProfile) -> CongestionVector:
    """Occupancy counts: how many sub-agents' choices contain each resource."""
    validate_profile(g, s)
    return _occupancy(g, s.choices)


def player_cost(g: CongestionGame, s: PureProfile, i: int) -> Fraction:
    """Total payment of sub-agent i: the sum of its chosen resources' costs
    at the profile's occupancies. Utility is the negation."""
    if not 0 <= i < g.n:
        raise InvalidProfileError(f"sub-agent {i} outside 0..{g.n - 1}")
    c = congestion(g, s)
    return sum((g.costs[r].cost(c[r]) for r in s.choices[i]), Fraction(0))


def private_congestion(cg: CoalitionalGame, s: PureProfile, k: int) -> CongestionVector:
    """Occupancy counts restricted to block k's members."""
    block = cg.block(k)
    validate_profile(cg.base, s)
    return _occupancy(cg.base, (s.choices[i] for i in block))


def coalition_utility(cg: CoalitionalGame, s: PureProfile, k: int) -> Fraction:
    """Block k's utility: the (negated) sum of its members' payments."""
    block = cg.block(k)
    validate_profile(cg.base, s)
    c = _occupancy(cg.base, s.choices)
    total = Fraction(0)
    for i in block:
        for r in s.choices[i]:
            total += cg.base.costs[r].cost(c[r])
    return -total


# ---------------------------------------------------------------------------
# Canonical coalition strategies

# Within a block, member choices can be permuted without changing any
# utility, so enumeration works on sorted choice tuples (one per orbit). A
# reported profile hands each block's choices to its members in the least
# order they can all play, read with the orbit's size off its `BlockLayout`.


def _multinomial(ordered: Sequence[Choice]) -> int:
    """m! / prod k_c!, where choice c appears k_c times among the m."""
    return math.factorial(len(ordered)) // math.prod(map(math.factorial, map(ordered.count, set(ordered))))


def strategy_indices(cg: CoalitionalGame, kernel: "CompiledGame", per_block: Iterable) -> list[int]:
    """Each block's strategy index in `kernel`, the block's choices given in
    any order: sorted by `choice_key` and looked up in `layouts[k].index`.
    A block without that strategy is refused."""
    key, idx = cg.base.choice_key, []
    for k, (layout, choices) in enumerate(zip(kernel.layouts, per_block)):
        strat = tuple(choices)
        if strat not in layout.index:  # every key is sorted, so a hit needs no sort
            strat = tuple(sorted(strat, key=key))
        si = layout.index.get(strat)
        if si is None:
            raise PreconditionViolatedError(f"block {k} cannot play {strat} in this strategy space")
        idx.append(si)
    return idx


def _orbits(cg: CoalitionalGame, per_block: Iterable) -> list[tuple[tuple[Choice, ...], int]]:
    """Each block's orbit (least playable member order, size) off the
    layouts of the game's kernel, charged like `find_deviation`'s."""
    kernel = compile_within_limit(cg, False)
    return [layout.orbits[si] for layout, si in zip(kernel.layouts, strategy_indices(cg, kernel, per_block))]


def canonicalize(cg: CoalitionalGame, s: PureProfile) -> PureProfile:
    """Each block's choices handed to its members in its orbit's order, the
    least they can all play. An unplayable profile is refused."""
    validate_profile(cg.base, s)
    return assemble_profile(cg, [[s.choices[i] for i in block] for block in cg.blocks])


def canonical_multiplicity(cg: CoalitionalGame, s: PureProfile) -> int:
    """Number of raw profiles sharing this profile's canonical form: per
    block, the distinct playable assignments of the block's choice multiset
    to its members. An unplayable profile is refused."""
    validate_profile(cg.base, s)
    return math.prod(size for _, size in _orbits(cg, ([s.choices[i] for i in block] for block in cg.blocks)))


class BlockLayout:
    """A block's canonical strategies, sorted, and their resource usage:
    `contributions[si]` holds strategy si's `(resource, uses)` pairs for the
    resources it uses, in resource order.

    What depends on the layout alone is kept on it, built on first use
    unless passed in, so every kernel and game compiling it shares it:
    - `terms`: the distinct `(resource, uses)` pairs of all strategies, and
      per strategy an `itemgetter` of its pairs' positions in that list (a
      lone pair padded with position `len(pairs)`, a zero term, so every
      getter returns a tuple to sum);
    - `orbits[si]`: strategy si's orbit under member permutations, its
      least playable member order and its size: counted while a product
      layout is listed (see `_list_layout`), else, for members who share a
      set, the multinomial closed form (m! for the distinct choices of a
      restricted layout);
    - `index`: each strategy's index.
    """

    def __init__(self, resources: Sequence[str], strategies: tuple[BlockStrategy, ...], orbits=None):
        index = {r: i for i, r in enumerate(resources)}
        contributions = []
        for strat in strategies:
            uses: dict[int, int] = {}
            for r in sorted([index[r] for r in itertools.chain.from_iterable(strat)]):
                uses[r] = uses.get(r, 0) + 1
            contributions.append(tuple(uses.items()))
        self.strategies = strategies
        self.contributions = tuple(contributions)
        if orbits is not None:  # takes the place of the closed form below
            self.orbits = orbits

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, int], ...], tuple[itemgetter, ...]]:
        at: dict[tuple[int, int], int] = {}
        for contrib in self.contributions:
            for pair in contrib:
                at.setdefault(pair, len(at))
        zero = len(at)
        getters = [[at[pair] for pair in contrib] for contrib in self.contributions]
        return tuple(at), tuple(itemgetter(*(p if len(p) > 1 else [*p, zero])) for p in getters)

    @cached_property
    def orbits(self) -> list[tuple[tuple[Choice, ...], int]]:
        # whole: shared layouts live with the process, and entries filled one by one held ~0.4 MB more (enumerate)
        return [(strat, _multinomial(strat)) for strat in self.strategies]

    @cached_property
    def index(self) -> dict[BlockStrategy, int]:
        return {strat: si for si, strat in enumerate(self.strategies)}


def _shared_set(g: CongestionGame, block: Sequence[int], restricted: bool = False) -> tuple[Choice, ...] | None:
    """The first member's strategy set if all members of `block` hold the
    same choices (sets compared by identity first), else None. `restricted`
    first requires a simple game and no more members than resources."""
    if restricted:
        if not g.is_simple:
            raise PreconditionViolatedError("restricted strategies need a simple base game")
        if len(block) > len(g.resources):
            raise BlockLargerThanResourceSetError(
                f"block of {len(block)} cannot spread over {len(g.resources)} resources"
            )
    sets = g.strategy_sets
    first = sets[block[0]]
    return first if all(sets[i] is first or set(sets[i]) == set(first) for i in block) else None


@functools.lru_cache(maxsize=64)
def _shared_layout(
    resources: tuple[str, ...], choices: frozenset[Choice], members: int, restricted: bool
) -> BlockLayout:
    """A block of `members` who share the strategy set `choices`: the
    multisets of its choices in choice order, or their plain sets when
    `restricted`. Kept by a process-wide LRU and only read, since every
    game with these resources and this set shares it (and its tables); a
    game holds those it used in `_layouts`, so no eviction splits its cache."""
    distinct = sorted(choices, key=lambda c: [resources.index(r) for r in c])
    combos = itertools.combinations if restricted else itertools.combinations_with_replacement
    return BlockLayout(resources, tuple(combos(distinct, members)))


def _block_sources(cg: CoalitionalGame, restricted: bool) -> tuple[list[int], list[tuple]]:
    """Each block's listing size and source, `(shared set or None, member
    sets)`, in block order, read off the members' sets once per tuple of
    set objects (blocks of equal size in a simple game share one), a shared
    set as the frozenset of its choices, however members list it.
    For m members sharing a set of d distinct choices the listing walks
    C(d + m - 1, m) strategies, or C(d, m) when restricted; other blocks
    walk the product of their set sizes, which bounds the canonical count."""
    _require_compilable(cg.base)  # here, not per call: a kernel exists only if this passed, and games are immutable
    g, sets, seen, counts, sources = cg.base, cg.base.strategy_sets, {}, [], []
    for block in cg.blocks:
        member_sets = tuple(sets[i] for i in block)
        key = tuple(map(id, member_sets))
        found = seen.get(key)
        if found is None:
            shared = _shared_set(g, block, restricted)
            if shared is None:
                count = math.prod(map(len, member_sets))
            else:
                shared = frozenset(shared)
                d, m = len(shared), len(block)
                count = math.comb(d, m) if restricted else math.comb(d + m - 1, m)
            found = seen[key] = count, (shared, member_sets)
        counts.append(found[0])
        sources.append(found[1])
    return counts, sources


def _list_layout(g: CongestionGame, shared, member_sets: tuple, restricted: bool) -> tuple:
    """The game's record of a block's layout: the layout, each strategy's
    usage code, its best replies by occupancy code and its plan. Records are
    keyed by source, `(frozenset of the shared set, members, restricted)`
    when the members share a set, else their sets, and added only here, on
    the game's first use of a key: from `_shared_layout`, or else listed
    from the product of the sets. The product walks each member's distinct
    choices in choice order, so assignments come lexicographically: the
    first one seen of a canonical tuple is its least playable order, and the
    number seen is its orbit's size."""
    key = member_sets if shared is None else (shared, len(member_sets), restricted)
    if key not in g._layouts:
        if shared is not None:
            layout = _shared_layout(g.resources, shared, len(member_sets), restricted)
        else:
            rank = {c: i for i, c in enumerate(sorted(set().union(*member_sets), key=g.choice_key))}
            order, orbits = rank.__getitem__, {}  # order-preserving and injective: choice_key once per choice
            for raw in itertools.product(*(sorted(set(s), key=order) for s in member_sets)):
                canon = tuple(sorted(raw, key=order))  # also the least order when equal: one tuple fewer per orbit
                orbits.setdefault(canon, [canon if canon == raw else raw, 0])[1] += 1
            strategies = tuple(sorted(orbits, key=lambda t: tuple(map(order, t))))
            layout = BlockLayout(g.resources, strategies, [tuple(orbits.pop(strat)) for strat in strategies])
        powers = [(g.n + 1) ** r for r in range(len(g.resources))]
        g._layouts[key] = (layout, [sum([u * powers[r] for r, u in c]) for c in layout.contributions], {}, [])
    return g._layouts[key]


def canonical_block_strategies(
    cg: CoalitionalGame, k: int, restricted: bool = False
) -> tuple[BlockStrategy, ...]:
    """All canonical strategy tuples of block k, sorted: `layouts[k]`'s in
    the game's kernel, charged like `find_deviation` (see
    `compile_within_limit`); with `restricted`, a game in which any block
    cannot spread its members over distinct resources is refused."""
    cg.block(k)
    return compile_within_limit(cg, restricted).strategies[k]


def assemble_profile(
    cg: CoalitionalGame, block_strategies: Sequence[Sequence[Choice]]
) -> PureProfile:
    """Place one strategy tuple per block into a flat profile: each block's
    members receive the tuple's choices in its orbit's order, the
    lexicographically least they can all play (ascending when every order
    is playable). A tuple that is not one of its block's strategies is
    refused, and the game is charged like `find_deviation`."""
    if len(block_strategies) != len(cg.blocks):
        raise InvalidBlockError(f"need {len(cg.blocks)} block strategies, got {len(block_strategies)}")
    for block, strat in zip(cg.blocks, block_strategies):
        if len(strat) != len(block):
            raise InvalidProfileError(f"tuple of {len(strat)} choices for block of {len(block)}")
    choices: list[Choice] = [()] * cg.base.n
    for block, (members, _) in zip(cg.blocks, _orbits(cg, block_strategies)):
        for i, choice in zip(block, members):
            choices[i] = choice
    return PureProfile.of_tuples(tuple(choices))


def choice_label(choice: Choice) -> str:
    """A choice's resource ids joined with "+", so that the choice {A, B}
    (`A+B`) and the one resource `AB` label differently."""
    return "+".join(choice)


def block_strategy_label(strat: BlockStrategy) -> str:
    return ",".join(choice_label(c) for c in strat)


# ---------------------------------------------------------------------------
# Compiled games and materialization


class CompiledGame:
    """A coalitional game compiled once for exact integer evaluation.

    `costs[r][c - 1]` is resource r's per-user cost at occupancy c times
    `scale`, the LCM of every cost denominator in the game. The factor must
    be common to all resources because a block's utility sums costs across
    resources; positive scaling leaves every comparison, argmax and zero test
    unchanged, so values are divided back by `scale` only when they leave
    the kernel. The game computes both once and all its kernels share them.

    An occupancy vector is one integer, its code: resource r's count is
    digit r in base `radix` = n + 1. That base suffices because a choice is
    a set, so no count exceeds n. Occupancies add and subtract as their
    codes do.

    A kernel compiles every block of a partition, block k at position k
    (`_agent`, one sub-agent at position 0), from the game's record of its
    layout (see `_list_layout`): `layouts[k]` is its `BlockLayout`,
    `strategies[k]` and `contributions[k]` are the layout's, and `codes[k]`
    holds each strategy's usage code. A block's utility depends on everyone
    else only through their occupancy and on itself only through its layout,
    so `best_reply` is the one evaluator of utilities, cached by occupancy
    code in the record, which every kernel of the game listing that source
    reads, whatever its partition (all radices are n + 1). A miss is
    evaluated from the record's plan: the layout's `terms` with each term's
    cost row, built on the first miss. Each term's value is its row read at
    the term resource's digit of the code, and each strategy's value is one
    sum of its terms. `form` fills the strategic form from that cache too.
    """

    def __init__(self, g: CongestionGame, records: Sequence[tuple]):
        self.scale, self.costs = g._scaled
        self.layouts, self.codes, self._replies, self._plans = map(list, zip(*records))
        self.strategies = [layout.strategies for layout in self.layouts]
        self.contributions = [layout.contributions for layout in self.layouts]
        self.radix = g.n + 1
        self._powers = [self.radix**r for r in range(len(self.costs))]

    def code(self, counts: Iterable[int]) -> int:
        """The code of per-resource `counts`, each from 0 to n."""
        return sum(map(mul, counts, self._powers))

    def digits(self, code: int) -> list[int]:
        """The per-resource counts whose code is `code`."""
        counts = []
        for _ in self._powers:
            code, count = divmod(code, self.radix)
            counts.append(count)
        return counts

    def best_reply(self, p: int, env: int) -> tuple[list[int], int, tuple[int, ...]]:
        """Scaled utility of every strategy of the block at position p when
        everyone else occupies the resources as coded by `env`, the best of
        them, and every maximizer. On a cache miss each term reads its count
        straight off the code, and each value is one sum of term values."""
        cache = self._replies[p]
        found = cache.get(env)
        if found is None:
            plan = self._plans[p]
            if not plan:  # per term (r, uses): r's power, and at each count c there -uses * cost_r(c + uses)
                pairs, getters = self.layouts[p].terms
                costs, powers = self.costs, self._powers
                plan += [[(powers[r], [-used * x for x in costs[r][used - 1 :]]) for r, used in pairs], getters]
            rows, getters = plan
            radix = self.radix
            terms = [row[env // power % radix] for power, row in rows]
            terms.append(0)
            values = [sum(get(terms)) for get in getters]
            best = max(values)
            if values.count(best) == 1:  # 97 % of enumerate's misses; +3.7 % queries over the scan alone
                found = cache[env] = (values, best, (values.index(best),))
            else:
                found = cache[env] = (values, best, tuple(si for si, v in enumerate(values) if v == best))
        return found

    def deviation(self, idx: Sequence[int]) -> tuple[int, int, int, int] | None:
        """First compiled block with a strictly improving deviation from
        their joint profile `idx`, nobody else present: (position, first best
        reply, current value, best value), values scaled; None at an
        equilibrium."""
        played = [codes[si] for codes, si in zip(self.codes, idx)]
        total = sum(played)
        for p, si in enumerate(idx):
            values, best, arg = self.best_reply(p, total - played[p])
            if best > values[si]:
                return p, arg[0], values[si], best
        return None

    def grid(self) -> list[int]:
        """The occupancy code of every joint profile of the compiled blocks,
        in row-major order: one outer sum of their code lists."""
        grid = [0]
        for codes in self.codes:
            grid = [c + code for c in grid for code in codes]
        return grid

    def labels(self) -> tuple[tuple[str, ...], ...]:
        """Each compiled block's strategy labels, in strategy order."""
        return tuple(tuple(map(block_strategy_label, per_block)) for per_block in self.strategies)

    def form(self) -> StrategicForm:
        """The compiled blocks' strategic form, filled from best replies:
        each fiber of block p is p's values against the others' occupancy at
        the fiber's first profile, where p plays strategy 0. Bound its size
        by compiling through `compile_within_limit`."""
        grid, sizes = self.grid(), [len(s) for s in self.strategies]
        tables = []
        for p, (m, stride) in enumerate(zip(sizes, row_major_strides(sizes))):
            span, own, table = m * stride, self.codes[p][0], [0] * len(grid)
            for base in range(0, len(grid), span):
                for f in range(base, base + stride):
                    table[f : f + span : stride] = self.best_reply(p, grid[f] - own)[0]
            tables.append(tuple(table))
        return StrategicForm(self.labels(), tuple(tables), self.scale)


def compile_within_limit(
    cg: CoalitionalGame, restricted: bool, what: str | None = None, per_profile: int = 1
) -> CompiledGame:
    """The one kernel of the partition, block k at position k, compiled on
    the game's first call and kept on `cg.base` under `(partition,
    restricted)`; it is refused on every call, before anything is listed,
    when it exceeds the size limit. Each block is charged its listing size
    (see `_block_sources`), kept as the kernel's `listing_sizes`, so a
    refusal does not depend on call order: `what` names a space of the
    joint profiles times `per_profile`; without it each block's count is
    charged alone, as for every query about one block or one profile."""
    key = (cg.partition, restricted)
    kernel = cg.base._kernels.get(key)
    counts, sources = _block_sources(cg, restricted) if kernel is None else (kernel.listing_sizes, ())
    if what is not None:
        ensure_within_limit(math.prod(counts) * per_profile, what)
    else:
        bound = effective_size_limit()  # read once per call, not once per block
        for k, count in enumerate(counts):
            if count > bound:
                ensure_within_limit(count, f"block {k} strategy space")
    if kernel is None:
        kernel = cg.base._kernels[key] = CompiledGame(cg.base, [_list_layout(cg.base, *s, restricted) for s in sources])
        kernel.listing_sizes = counts
    return kernel


def materialize(cg: CoalitionalGame) -> StrategicForm:
    """Flatten a coalitional game into a normal-form game.

    Players are the blocks; strategies are canonical member-choice tuples in
    lexicographic resource order; utilities are the blocks' summed member
    utilities, as scaled integers (see `StrategicForm`). Refuses games whose
    utility table would exceed the size limit.
    """
    return compile_within_limit(cg, False, "materialized utility table", len(cg.blocks)).form()
