"""Exact-potential analysis of finite strategic-form games.

An exact potential is one function over joint profiles whose change under
any unilateral deviation equals the deviator's utility change; a game has
one iff every deviation square (a *four-cycle*) has a zero residual
(Monderer & Shapley, *Potential Games*, GEB 14, 1996). So one scan decides
any finite game: the first nonzero square, in the order (player i < player
j, profile, alternative i, alternative j), is the witness, and with none
the table integrated along the lexicographic path from the all-first
profile, read from the fibers the scan cached, is the exact potential.
`exact_potential` runs it on a `StrategicForm`'s flat integer tables;
`verify_exact_potential` is the fiber test that checks a table.

A coalitional congestion game whose costs are all affine, c_r(x) = a_r*x +
b_r, has for every partition and strategy set the exact potential
P = -sum_r [a_r * (n_r^2 + sum_k x_kr^2) / 2 + b_r * n_r], with n_r the
occupancy of resource r and x_kr block k's usage of it (on the discrete
partition, Rosenthal's). `check_linearity_equivalence` decides such games
by this identity, charged as "potential table". Other games are scanned on
the compiled game, charged as their "materialized utility table" though
none is built: a block's utilities along a fiber are its best replies to
everyone else's occupancy there. Pairs of two single-agent blocks are
skipped, as with everyone else fixed they play a congestion game, whose
squares are all zero (Rosenthal, 1973). For a simple game with two or more
resources and a partition holding a singleton and a pair, a potential
exists exactly when every cost is affine; other games, non-simple ones
included, are marked as outside that shape.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Callable, Iterable, Sequence

from .errors import (
    InvalidGameError,
    InvalidIndicesError,
    LinearityEquivalenceViolationError,
)
from .game import (
    CoalitionalGame,
    CompiledGame,
    CongestionGame,
    CostTable,
    Partition,
    StrategicForm,
    _require_compilable,
    compile_within_limit,
    profile_at,
    row_major_strides,
)
from .limits import ensure_within_limit


@dataclass(frozen=True, eq=False)
class PotentialTable:
    """Candidate potential values, one per joint strategy index tuple.

    Stored flat like a `StrategicForm`: `strategies` holds each player's
    strategy labels, and `flat[f] / scale` is the value at the profile with
    row-major flat index f on their grid.
    """

    strategies: tuple[tuple[str, ...], ...]
    flat: tuple[int, ...]
    scale: int

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.strategies))


@dataclass(frozen=True)
class PotentialViolation:
    """First deviation where a candidate table breaks the defining equation."""

    profile: tuple[int, ...]
    player: int
    alternative: int
    potential_delta: Fraction
    utility_delta: Fraction


@dataclass(frozen=True)
class FourCycleWitness:
    """A deviation square with nonzero residual: proof that no exact
    potential exists."""

    player_i: int
    player_j: int
    profile: tuple[int, ...]
    alt_i: int
    alt_j: int
    residual: Fraction

    def cycle_profiles(self) -> tuple[tuple[int, ...], ...]:
        """The four corners in traversal order."""
        s = self.profile
        p10 = s[: self.player_i] + (self.alt_i,) + s[self.player_i + 1 :]
        p11 = p10[: self.player_j] + (self.alt_j,) + p10[self.player_j + 1 :]
        p01 = s[: self.player_j] + (self.alt_j,) + s[self.player_j + 1 :]
        return (s, p10, p11, p01)


@dataclass(frozen=True)
class PotentialVerdict:
    """Either an exact potential table or a four-cycle witness."""

    table: PotentialTable | None
    witness: FourCycleWitness | None

    @property
    def has_potential(self) -> bool:
        return self.table is not None


@dataclass(frozen=True)
class LinearityEntry:
    """Affinity report for one cost table: P(j) = slope * j + intercept."""

    linear: bool
    slope: Fraction | None
    intercept: Fraction | None
    first_violation: int | None


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Joint verdict of cost linearity and potential existence. `consistent`
    is None when the partition shape makes the equivalence inapplicable;
    when applicable, inconsistency raises instead."""

    applicable: bool
    all_linear: bool
    has_potential: bool
    consistent: bool | None
    potential: PotentialVerdict
    linearity: dict[str, LinearityEntry]
    strategies: tuple[tuple[str, ...], ...]


# fiber(p, base): player p's scaled utilities along the fiber from flat profile base, p on strategy 0
Fibers = Callable[[int, int], Sequence[int]]


def _slices(game: StrategicForm) -> Fibers:
    sizes, strides, payoffs = game.sizes, game.strides, game.payoffs
    return lambda p, base: payoffs[p][base : base + sizes[p] * strides[p] : strides[p]]


def _path_table(strategies: tuple[tuple[str, ...], ...], scale: int, fiber: Fibers) -> PotentialTable:
    """Integrate utility differences along one-coordinate steps from the
    all-first profile of the grid of `strategies`, anchored at zero: the
    value at `base + t * stride_j`, where `base` has zeros from coordinate j
    on, is the value at `base` plus `fiber(j, base)[t] - fiber(j, base)[0]`."""
    sizes = tuple(map(len, strategies))
    values = [0] * math.prod(sizes)
    for j, (m, stride) in enumerate(zip(sizes, row_major_strides(sizes))):
        span = m * stride
        for base in range(0, len(values), span):
            u = fiber(j, base)
            offset = values[base] - u[0]
            values[base + stride : base + span : stride] = [offset + x for x in u[1:]]
    return PotentialTable(strategies, tuple(values), scale)


def build_potential_by_path(game: StrategicForm) -> PotentialTable:
    """The path-integrated table of any finite game: zero at the all-first
    profile, and at a profile whose last nonzero coordinate is player j's,
    the value with that coordinate reset to 0 plus player j's utility change
    between the two. It is an exact potential iff the game has one, which
    `exact_potential` decides and `verify_exact_potential` checks."""
    ensure_within_limit(game.num_profiles(), "potential table")
    return _path_table(game.strategies, game.scale, _slices(game))


def _rescaled(values: tuple[int, ...], factor: int) -> tuple[int, ...] | list[int]:
    return values if factor == 1 else [v * factor for v in values]


def _first_uneven_fiber(gap: list[int], m: int, stride: int) -> tuple[int, int] | None:
    """The first fiber along which `gap` is not constant, as (flat index of
    its first profile, first position that differs from it), or None. A
    fiber is the `m` entries `stride` apart that differ in one coordinate."""
    span = m * stride
    for base in range(0, len(gap), span):
        # Every fiber starting in [base, base + stride) is constant iff each
        # entry equals the one a stride before it.
        if gap[base + stride : base + span] == gap[base : base + span - stride]:
            continue
        for start in range(base, base + stride):
            fiber = gap[start : start + span : stride]
            for t in range(1, m):
                if fiber[t] != fiber[0]:
                    return start, t
    return None


def verify_exact_potential(
    game: StrategicForm, table: PotentialTable
) -> tuple[bool, PotentialViolation | None]:
    """Check the potential equation on every unilateral deviation, exactly.

    Uses the fiber test: the equation holds iff `U_i - P` is constant along
    every player-i fiber, which is one pass over the table per player.
    Returns (True, None) or (False, first violation) in lexicographic order
    of (profile, player, alternative), where `alternative` exceeds the
    profile's own strategy: that profile is the first of its fiber, and the
    alternative is the first strategy on which `U_i - P` differs from it.
    """
    if table.sizes != game.sizes:
        raise InvalidGameError(f"potential table over {table.sizes}, game over {game.sizes}")
    scale = math.lcm(game.scale, table.scale)
    potential = _rescaled(table.flat, scale // table.scale)
    first = None
    for i, (m, stride) in enumerate(zip(game.sizes, game.strides)):
        u = _rescaled(game.payoffs[i], scale // game.scale)
        found = _first_uneven_fiber(list(map(sub, u, potential)), m, stride)
        if found is not None and (first is None or found[0] < first[0]):
            first = (found[0], i, found[1], u)
    if first is None:
        return True, None
    start, i, t, u = first
    other = start + t * game.strides[i]
    return False, PotentialViolation(
        profile_at(start, game.sizes),
        i,
        t,
        Fraction(potential[start] - potential[other], scale),
        Fraction(u[start] - u[other], scale),
    )


def four_cycle_residual(game: StrategicForm, i: int, j: int, s: tuple[int, ...], t_i: int, t_j: int) -> Fraction:
    """Signed utility change around the deviation square spanned by players
    i and j moving to t_i and t_j. Zero on every square iff the game has an
    exact potential."""
    if i == j:
        raise InvalidIndicesError("players must differ")
    for player in (i, j):
        if not 0 <= player < game.players:
            raise InvalidIndicesError(f"player {player} outside 0..{game.players - 1}")
    if len(s) != game.players or any(
        not 0 <= si < len(game.strategies[k]) for k, si in enumerate(s)
    ):
        raise InvalidIndicesError(f"bad profile {s}")
    if not 0 <= t_i < len(game.strategies[i]):
        raise InvalidIndicesError(f"bad alternative {t_i} for player {i}")
    if not 0 <= t_j < len(game.strategies[j]):
        raise InvalidIndicesError(f"bad alternative {t_j} for player {j}")
    ui, uj, f = game.payoffs[i], game.payoffs[j], game.index(s)
    f10, f01 = f + (t_i - s[i]) * game.strides[i], f + (t_j - s[j]) * game.strides[j]
    f11 = f10 + f01 - f
    return Fraction(ui[f] - ui[f10] + uj[f10] - uj[f11] + ui[f11] - ui[f01] + uj[f01] - uj[f], game.scale)


def _first_nonzero_square(
    sizes: tuple[int, ...],
    scale: int,
    pairs: Iterable[tuple[int, int]],
    fiber: Fibers,
) -> FourCycleWitness | None:
    """The first deviation square with a nonzero residual among the player
    pairs `pairs` (i < j), in the order (pair, profile, alternative i,
    alternative j), alternatives above the profile's own.

    Only squares from profiles with i and j on strategy 0 are read: a
    residual is the mixed difference of u_i - u_j, so moving i from a to b
    has the residual of 0 -> b minus that of 0 -> a, and a nonzero square
    with i on a > 0 implies an earlier nonzero one with i on 0; same for j.
    """
    pairs = [(i, j) for i, j in pairs if min(sizes[i], sizes[j]) > 1]  # others span no square
    strides = row_major_strides(sizes)
    for i, j in pairs:
        m_i, m_j, stride_i, stride_j = sizes[i], sizes[j], strides[i], strides[j]
        # the profiles with players i and j on strategy 0, in order
        starts = [0]
        for k, (m, stride) in enumerate(zip(sizes, strides)):
            if k != i and k != j:
                starts = [f + x * stride for f in starts for x in range(m)]
        for f in starts:
            a_i, a_j = fiber(i, f), fiber(j, f)
            # player i's fibers once player j has moved to each t_j
            b_is = [fiber(i, f + t_j * stride_j) for t_j in range(1, m_j)]
            for t_i in range(1, m_i):
                b_j = fiber(j, f + t_i * stride_i)
                head = a_i[0] - a_i[t_i] + b_j[0] - a_j[0]
                for t_j, b_i in enumerate(b_is, 1):
                    residual = head - b_j[t_j] + b_i[t_i] - b_i[0] + a_j[t_j]
                    if residual:
                        return FourCycleWitness(
                            i, j, profile_at(f, sizes), t_i, t_j, Fraction(residual, scale)
                        )
    return None


def _decide(
    strategies: tuple[tuple[str, ...], ...], scale: int, pairs: Iterable[tuple[int, int]], fiber_values: Fibers
) -> PotentialVerdict:
    """The first nonzero square among `pairs`, else the path table on
    `strategies`, both read from one cache of fibers. With every square zero
    it is an exact potential (Monderer & Shapley), so it is not verified."""
    fiber = functools.cache(fiber_values)
    witness = _first_nonzero_square(tuple(map(len, strategies)), scale, pairs, fiber)
    return PotentialVerdict(_path_table(strategies, scale, fiber) if witness is None else None, witness)


def exact_potential(game: StrategicForm) -> PotentialVerdict:
    """Decide exact-potential existence; return the table or a witness.

    The witness is the first deviation square with a nonzero residual in the
    order (player i < player j, profile, alternative i, alternative j); with
    none, the table is `build_potential_by_path`'s, an exact potential.
    """
    ensure_within_limit(game.num_profiles(), "potential table")
    return _decide(game.strategies, game.scale, itertools.combinations(range(game.players), 2), _slices(game))


# ---------------------------------------------------------------------------
# Cost linearity


def is_linear(table: CostTable) -> LinearityEntry:
    """Affine check via second differences of the table's numerators;
    reports slope and intercept when they exist. Tables of length at most
    two are trivially affine."""
    x, d = table.numerators, table.denominator
    for j in range(1, len(x) - 1):
        if x[j + 1] - 2 * x[j] + x[j - 1] != 0:
            return LinearityEntry(False, None, None, j + 1)
    slope = x[1] - x[0] if len(x) >= 2 else 0
    return LinearityEntry(True, Fraction(slope, d), Fraction(x[0] - slope, d), None)


def linearity_report(g: CongestionGame) -> dict[str, LinearityEntry]:
    return {r: is_linear(g.costs[r]) for r in g.resources}


def _affine_potential(kernel: CompiledGame, labels: tuple[tuple[str, ...], ...]) -> PotentialTable:
    """The closed form on the kernel's profiles when each scaled table t is
    affine, anchored at zero on the all-first profile: with a = t[1] - t[0]
    and b = t[0] - a, twice its negation sums each block's own a * x_kr^2,
    read off its `contributions`, and the occupancy term sum_r a * n_r^2 +
    2b * n_r, once per distinct code of `kernel.grid()`: per-resource rows
    read at the code's digits, as in `best_reply`'s plan. The sum is even as
    n^2 + sum_k x_k^2 = 2n mod 2. `labels` are the kernel's."""
    slopes = [t[1] - t[0] if len(t) > 1 else 0 for t in kernel.costs]
    doubled = [0]
    for contributions in kernel.contributions:
        own = [sum([slopes[r] * x * x for r, x in contrib]) for contrib in contributions]
        doubled = [d + w for d in doubled for w in own]
    grid, radix, terms = kernel.grid(), kernel.radix, [(a, 2 * (t[0] - a)) for a, t in zip(slopes, kernel.costs)]
    rows = [(radix**r, [a * n * n + b * n for n in range(radix)]) for r, (a, b) in enumerate(terms)]
    term = {code: sum([row[code // power % radix] for power, row in rows]) for code in set(grid)}
    doubled = list(map(add, doubled, map(term.__getitem__, grid)))
    anchor = doubled[0]
    return PotentialTable(labels, tuple([(anchor - d) >> 1 for d in doubled]), kernel.scale)


def check_linearity_equivalence(g: CongestionGame, partition: Partition) -> EquivalenceVerdict:
    """Run both sides of the linearity/potential equivalence on any game:
    affine games by the closed form, others by the first nonzero deviation
    square on the compiled game, or with none by the path table read from
    the same fibers (see the module docstring).

    Applicable when the base game is simple with at least two resources and
    the partition holds at least one singleton and one pair (with a single
    resource the strategy space is trivial, so a potential exists no matter
    the cost shape). When applicable the two verdicts must agree; raises
    otherwise. Both are computed for every game so the caller sees them.
    """
    cg = CoalitionalGame(g, partition)
    _require_compilable(g)
    report = linearity_report(g)
    all_linear = all(entry.linear for entry in report.values())
    blocks = range(len(cg.blocks))
    charge = ("potential table", 1) if all_linear else ("materialized utility table", len(blocks))
    kernel = compile_within_limit(cg, False, *charge)
    labels = kernel.labels()
    if all_linear:
        verdict = PotentialVerdict(_affine_potential(kernel, labels), None)
    else:
        sizes, codes = tuple(map(len, labels)), kernel.codes
        placed = list(zip(codes, sizes, row_major_strides(sizes)))
        # each base profile's occupancy, read once for the fibers that start there
        occupancy = functools.cache(lambda base: sum([c[base // stride % m] for c, m, stride in placed]))

        def fiber_values(p: int, base: int) -> list[int]:
            return kernel.best_reply(p, occupancy(base) - codes[p][0])[0]

        single = [len(block) == 1 for block in cg.blocks]
        pairs = [(i, j) for i, j in itertools.combinations(blocks, 2) if not (single[i] and single[j])]
        verdict = _decide(labels, kernel.scale, pairs, fiber_values)
    applicable = g.is_simple and bool(partition.singletons() and partition.pairs()) and len(g.resources) >= 2
    consistent: bool | None = None
    if applicable:
        consistent = all_linear == verdict.has_potential
        if not consistent:
            raise LinearityEquivalenceViolationError(
                f"all_linear={all_linear} but has_potential={verdict.has_potential}"
            )
    return EquivalenceVerdict(applicable, all_linear, verdict.has_potential, consistent, verdict, report, labels)
