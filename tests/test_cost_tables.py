"""Cost tables in their integer form: numerators over one reduced
denominator. Whatever a table is built from, its values, equality and hash
are those of its rationals, and every layer that reads the integers agrees
with a Fraction reference (`oracle_helpers`), negative and decreasing
tables included."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ccg import CongestionGame, CostTable, is_linear, validate_game
from ccg.rationals import as_fraction

from oracle_helpers import reference_is_linear, reference_scaled, reference_violations

COMMON = settings(max_examples=80, deadline=None)

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=24)


@st.composite
def tokens(draw):
    """One rational written as a Fraction, an int when integral, or a "p/q"
    string, reduced or not."""
    f = draw(rationals)
    k = draw(st.integers(1, 3))
    forms = [f, str(f), f"{f.numerator * k}/{f.denominator * k}"]
    if f.denominator == 1:
        forms.append(int(f))
    return draw(st.sampled_from(forms))


def affine(length: int):
    return st.tuples(rationals, rationals).map(lambda p: [p[0] * j + p[1] for j in range(1, length + 1)])


def tables(length: int):
    """Token lists of `length`, affine about half the time so that both of
    `is_linear`'s answers occur."""
    return st.lists(tokens(), min_size=length, max_size=length) | affine(length)


@st.composite
def games(draw):
    """A simple game with 1-3 resources whose tables are usually as long as
    there are sub-agents, and may be negative or decreasing."""
    n = draw(st.integers(1, 4))
    resources = ("A", "B", "C")[: draw(st.integers(1, 3))]
    costs = {r: draw(tables(draw(st.sampled_from([n, n, n, n + 1, max(1, n - 1)])))) for r in resources}
    singles = tuple((r,) for r in resources)
    return CongestionGame(resources, costs, tuple(singles for _ in range(n)))


@COMMON
@given(st.lists(tokens(), max_size=6))
def test_values_are_the_rationals_of_the_tokens(values):
    table = CostTable(values)
    assert table.values == tuple(map(as_fraction, values))
    assert len(table) == len(values)
    assert table.denominator == math.lcm(*(v.denominator for v in table.values))


@COMMON
@given(st.lists(rationals, min_size=1, max_size=6), st.integers(1, 30), st.data())
def test_equal_values_give_equal_tables_however_built(values, factor, data):
    common = factor * math.lcm(*(f.denominator for f in values))  # any common denominator
    built = [
        CostTable(values),
        CostTable([data.draw(st.sampled_from([f, str(f), int(f) if f.denominator == 1 else f])) for f in values]),
        CostTable.scaled([int(f * common) for f in values], common),
    ]
    assert all(t == built[0] and hash(t) == hash(built[0]) for t in built)
    assert all((t.numerators, t.denominator) == (built[0].numerators, built[0].denominator) for t in built)
    other = data.draw(st.lists(rationals, min_size=len(values), max_size=len(values)))
    assert (CostTable(other) == built[0]) == (other == values)


@COMMON
@given(games())
def test_scaled_tables_equal_the_fraction_reference(g):
    assert g._scaled == reference_scaled(g)


@COMMON
@given(games())
def test_validation_equals_the_fraction_reference(g):
    assert validate_game(g) == reference_violations(g)


@COMMON
@given(st.integers(1, 6).flatmap(tables))
def test_linearity_equals_the_fraction_reference(values):
    assert is_linear(CostTable(values)) == reference_is_linear(map(as_fraction, values))


def test_denominator_is_the_least_common_one():
    table = CostTable(("1/3", "2/6", 1, Fraction(3, 2), "-5/4"))
    assert (table.numerators, table.denominator) == ((4, 4, 12, 18, -15), 12)
    assert CostTable.scaled((0, 12, 24), 12) == CostTable((0, 1, 2))
    assert CostTable.scaled((0, 12, 24), 12).denominator == 1
