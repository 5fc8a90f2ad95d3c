"""Canned instances with recorded claims, and seeded random generators.

The canned instances are small games whose payoff matrices, equilibrium
verdicts, and potential verdicts are stored declaratively and re-checked
against fresh computation. Two recorded singleton payoffs of the
overlapping-routes instance are positive where the cost model forces
non-positive utilities; they are kept as recorded and reported as annotated
discrepancies rather than silently corrected, and the recomputed game is
authoritative for solver behavior.

Generators are pure functions of their seed. Random rationals use small
denominators (at most 12 after reduction) to keep matrices readable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .equilibria import enumerate_pure_ne
from .errors import InvalidParamsError, NotTwoBlocksError
from .game import (
    CoalitionalGame,
    CongestionGame,
    CostTable,
    Partition,
    materialize,
)
from .potential import exact_potential
from .rationals import as_fraction, format_rational


@dataclass(frozen=True)
class MatrixClaim:
    """Recorded payoff pair for one cell of a two-block payoff matrix."""

    row: str
    col: str
    published: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Fixture:
    key: str
    title: str
    game: CongestionGame
    partition: Partition
    matrix_claims: tuple[MatrixClaim, ...]
    expected_discrepancies: tuple[tuple[str, str], ...]
    ne_is_empty: bool | None
    potential_exists: bool | None


@dataclass(frozen=True)
class ClaimResult:
    description: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Discrepancy:
    """A recorded cell that disagrees with recomputation."""

    row: str
    col: str
    published: tuple[Fraction, Fraction]
    recomputed: tuple[Fraction, Fraction]
    expected: bool


@dataclass(frozen=True)
class FixtureReport:
    fixture: str
    results: tuple[ClaimResult, ...]
    discrepancies: tuple[Discrepancy, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def evaluate_fixture(fx: Fixture) -> FixtureReport:
    """Recompute every recorded claim of a fixture.

    Matrix cells must match recomputation exactly, except the cells listed
    as expected discrepancies, which must *disagree* (and are reported with
    both values). Equilibrium and potential claims run on the recomputed
    game.
    """
    cg = CoalitionalGame(fx.game, fx.partition)
    sf = materialize(cg)
    if sf.players != 2 and fx.matrix_claims:
        raise NotTwoBlocksError(f"{fx.key}: matrix claims need exactly two blocks")
    rows = {label: i for i, label in enumerate(sf.strategies[0])}
    cols = {label: i for i, label in enumerate(sf.strategies[1])}

    results: list[ClaimResult] = []
    discrepancies: list[Discrepancy] = []
    expected = set(fx.expected_discrepancies)
    for claim in fx.matrix_claims:
        cell = f"cell ({claim.row} | {claim.col})"
        if claim.row not in rows or claim.col not in cols:
            results.append(ClaimResult(cell, False, "label not found in materialized matrix"))
            continue
        cell_profile = (rows[claim.row], cols[claim.col])
        actual = (sf.utility(cell_profile, 0), sf.utility(cell_profile, 1))
        should_differ = (claim.row, claim.col) in expected
        if actual == claim.published:
            detail = f"= {tuple(map(format_rational, actual))}"
            results.append(ClaimResult(cell, not should_differ, detail))
        else:
            discrepancies.append(
                Discrepancy(claim.row, claim.col, claim.published, actual, should_differ)
            )
            detail = (
                f"recorded {tuple(map(format_rational, claim.published))}, "
                f"recomputed {tuple(map(format_rational, actual))}"
            )
            results.append(ClaimResult(cell, should_differ, detail))

    if fx.ne_is_empty is not None:
        report = enumerate_pure_ne(cg)
        ok = report.is_empty == fx.ne_is_empty
        results.append(
            ClaimResult(
                "pure equilibrium set " + ("empty" if fx.ne_is_empty else "nonempty"),
                ok,
                f"found {len(report.equilibria)} equilibria",
            )
        )
    if fx.potential_exists is not None:
        verdict = exact_potential(sf)
        ok = verdict.has_potential == fx.potential_exists
        results.append(
            ClaimResult(
                "exact potential " + ("exists" if fx.potential_exists else "does not exist"),
                ok,
                "table" if verdict.has_potential else "four-cycle witness",
            )
        )
    return FixtureReport(fx.key, tuple(results), tuple(discrepancies))


# ---------------------------------------------------------------------------
# Canned instances


def _pairs(cells: dict[tuple[str, str], tuple[int, int]]) -> tuple[MatrixClaim, ...]:
    return tuple(
        MatrixClaim(row, col, (Fraction(a), Fraction(b))) for (row, col), (a, b) in cells.items()
    )


def no_ne_triple_fixture() -> Fixture:
    """Two identical resources, four sub-agents, one block of three.

    The coalitional game has no pure equilibrium even though the underlying
    simple game does: after the dominated all-on-one-resource rows are gone,
    what remains is a matching-pennies pattern.
    """
    game = CongestionGame.simple(("A", "B"), {"A": (0, 12, 16, 18), "B": (0, 12, 16, 18)})
    cells = {
        ("A,A,A", "A"): (-54, -18),
        ("A,A,A", "B"): (-48, 0),
        ("A,A,B", "A"): (-32, -16),
        ("A,A,B", "B"): (-36, -12),
        ("A,B,B", "A"): (-36, -12),
        ("A,B,B", "B"): (-32, -16),
        ("B,B,B", "A"): (-48, 0),
        ("B,B,B", "B"): (-54, -18),
    }
    return Fixture(
        key="2",
        title="triple coalition on two identical resources (no pure equilibrium)",
        game=game,
        partition=Partition.from_one_based([[1, 2, 3], [4]]),
        matrix_claims=_pairs(cells),
        expected_discrepancies=(),
        ne_is_empty=True,
        potential_exists=None,
    )


def no_ne_overlap_fixture() -> Fixture:
    """Three resources, three sub-agents each using two of them.

    Costs per resource are 0, 3, 4 at occupancies 1, 2, 3. With a pair and a
    singleton the coalitional game has no pure equilibrium, showing the pair
    guarantee needs single-resource strategies. The recorded singleton
    payoffs at (A+B,A+B | A+C) and (A+C,A+C | A+C) are positive, which the cost
    model cannot produce; they are flagged as discrepancies.
    """
    two_subsets = (("A", "B"), ("A", "C"), ("B", "C"))
    game = CongestionGame(
        ("A", "B", "C"),
        {r: CostTable((0, 3, 4)) for r in ("A", "B", "C")},
        tuple(two_subsets for _ in range(3)),
    )
    cells = {
        ("A+B,A+B", "A+B"): (-16, -8),
        ("A+B,A+B", "A+C"): (-14, 8),
        ("A+B,A+B", "B+C"): (-14, -4),
        ("A+C,A+C", "A+B"): (-14, -4),
        ("A+C,A+C", "A+C"): (-16, 4),
        ("A+C,A+C", "B+C"): (-14, -4),
        ("B+C,B+C", "A+B"): (-14, -4),
        ("B+C,B+C", "A+C"): (-14, -4),
        ("B+C,B+C", "B+C"): (-16, -8),
        ("A+B,A+C", "A+B"): (-11, -7),
        ("A+B,A+C", "A+C"): (-11, -7),
        ("A+B,A+C", "B+C"): (-12, -6),
        ("A+B,B+C", "A+B"): (-11, -7),
        ("A+B,B+C", "A+C"): (-12, -6),
        ("A+B,B+C", "B+C"): (-11, -7),
        ("A+C,B+C", "A+B"): (-12, -6),
        ("A+C,B+C", "A+C"): (-11, -7),
        ("A+C,B+C", "B+C"): (-11, -7),
    }
    return Fixture(
        key="3",
        title="overlapping two-resource routes (no pure equilibrium)",
        game=game,
        partition=Partition.from_one_based([[1, 2], [3]]),
        matrix_claims=_pairs(cells),
        expected_discrepancies=(("A+B,A+B", "A+C"), ("A+C,A+C", "A+C")),
        ne_is_empty=True,
        potential_exists=None,
    )


def parametric_two_resource_fixture(a: Sequence, b: Sequence) -> Fixture:
    """Two resources with cost triples `a` and `b`, three sub-agents, one
    pair and one singleton.

    The recorded matrix is symbolic in the costs; the potential claim is
    that an exact potential exists exactly when both triples are affine.
    """
    a = tuple(as_fraction(v) for v in a)
    b = tuple(as_fraction(v) for v in b)
    if len(a) != 3 or len(b) != 3:
        raise InvalidParamsError("cost triples must have length 3")
    for name, triple in (("a", a), ("b", b)):
        if any(v < 0 for v in triple):
            raise InvalidParamsError(f"{name} has a negative cost")
        if not (triple[0] <= triple[1] <= triple[2]):
            raise InvalidParamsError(f"{name} is not weakly increasing")
    a1, a2, a3 = a
    b1, b2, b3 = b
    game = CongestionGame.simple(("A", "B"), {"A": a, "B": b})
    cells = {
        ("A,A", "A"): (-2 * a3, -a3),
        ("A,A", "B"): (-2 * a2, -b1),
        ("A,B", "A"): (-(a2 + b1), -a2),
        ("A,B", "B"): (-(a1 + b2), -b2),
        ("B,B", "A"): (-2 * b2, -a1),
        ("B,B", "B"): (-2 * b3, -b3),
    }
    claims = tuple(MatrixClaim(row, col, value) for (row, col), value in cells.items())

    def affine(t: tuple[Fraction, Fraction, Fraction]) -> bool:
        return 2 * t[1] == t[0] + t[2]

    return Fixture(
        key="4",
        title=f"pair plus singleton on two resources, a={tuple(map(format_rational, a))}, "
        f"b={tuple(map(format_rational, b))}",
        game=game,
        partition=Partition.from_one_based([[1, 2], [3]]),
        matrix_claims=claims,
        expected_discrepancies=(),
        ne_is_empty=False,
        potential_exists=affine(a) and affine(b),
    )


def canned_fixtures() -> dict[str, tuple[Fixture, ...]]:
    """Registry used by the ``examples`` command: key -> fixtures to run."""
    return {
        "2": (no_ne_triple_fixture(),),
        "3": (no_ne_overlap_fixture(),),
        "4": (
            parametric_two_resource_fixture((1, 2, 3), (2, 4, 6)),
            parametric_two_resource_fixture((0, 12, 16), (0, 12, 16)),
        ),
    }


# ---------------------------------------------------------------------------
# Seeded random generators

COST_CLASSES = ("linear", "convex", "monotone")


def _small_rational(rng: random.Random) -> int:
    """A draw of 0..8 over a denominator from {1, 2, 3, 4}, in twelfths:
    every such denominator divides 12, so sums stay in twelfths too."""
    return rng.randint(0, 8) * (12 // rng.choice((1, 2, 3, 4)))


def _resource_names(count: int) -> tuple[str, ...]:
    if count <= 26:
        return tuple(chr(ord("A") + i) for i in range(count))
    return tuple(f"R{i + 1}" for i in range(count))


def random_game(seed, n: int, resource_count: int, cost_class: str) -> CongestionGame:
    """Deterministic simple game with the requested cost shape.

    linear: P(j) = slope*j + intercept with slope, intercept >= 0.
    convex: non-negative increments whose increments are non-negative.
    monotone: any non-negative weakly increasing values.

    Costs are drawn and summed as integer twelfths.
    """
    if n < 1:
        raise InvalidParamsError(f"need at least one sub-agent, got {n}")
    if resource_count < 1:
        raise InvalidParamsError(f"need at least one resource, got {resource_count}")
    if cost_class not in COST_CLASSES:
        raise InvalidParamsError(f"cost_class must be one of {COST_CLASSES}, got {cost_class!r}")
    rng = random.Random(f"game:{seed}")
    resources = _resource_names(resource_count)
    costs = {}
    for r in resources:
        if cost_class == "linear":
            slope = _small_rational(rng)
            intercept = _small_rational(rng)
            values = [slope * j + intercept for j in range(1, n + 1)]
        elif cost_class == "convex":
            values = [_small_rational(rng)]
            increment = _small_rational(rng)
            for _ in range(n - 1):
                values.append(values[-1] + increment)
                increment += _small_rational(rng)
        else:
            values = [_small_rational(rng)]
            for _ in range(n - 1):
                values.append(values[-1] + _small_rational(rng))
        costs[r] = CostTable.scaled(values, 12)
    return CongestionGame.simple(resources, costs)


def random_partition(
    seed, n: int, max_block: int, require_singleton_and_pair: bool = False
) -> Partition:
    """Deterministic partition with block sizes at most `max_block`.

    Agents are shuffled, then chunked greedily with random sizes. The flag
    reserves one pair and one singleton up front (needs n >= 3 and
    max_block >= 2).
    """
    if not 1 <= max_block <= n:
        raise InvalidParamsError(f"max_block must be in 1..{n}, got {max_block}")
    rng = random.Random(f"partition:{seed}")
    agents = list(range(n))
    rng.shuffle(agents)
    blocks: list[list[int]] = []
    if require_singleton_and_pair:
        if n < 3 or max_block < 2:
            raise InvalidParamsError("a pair plus a singleton needs n >= 3 and max_block >= 2")
        blocks.append(agents[:2])
        blocks.append([agents[2]])
        rest = agents[3:]
    else:
        rest = agents
    i = 0
    while i < len(rest):
        size = rng.randint(1, min(max_block, len(rest) - i))
        blocks.append(rest[i : i + size])
        i += size
    return Partition(tuple(tuple(b) for b in blocks))
