"""JSON game file format.

A game file is a single JSON object:

    {
      "resources": ["A", "B"],
      "players": 4,
      "costs": {"A": [0, 12, 16, 18], "B": [0, 12, 16, 18]},
      "strategies": "simple",
      "partition": [[1, 2, 3], [4]]
    }

Rationals are integers or "p/q" strings; floats are rejected. "strategies"
is either the literal string "simple" or a map from each 1-based sub-agent
id, "1" to n and no other key, to an array of resource-id arrays. Sub-agent
ids in "partition" are 1-based.

Emission is deterministic: keys in the order above, resources and costs in
the game's resource order, block members ascending and blocks ordered by
first member. The resources array defines the resource order of the loaded
game, its tie-break and canonical order, so a game reads back as written.
"""

from __future__ import annotations

import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .equilibria import NeReport
from .errors import GameFileError
from .game import CongestionGame, CostTable, Partition
from .potential import PotentialTable
from .rationals import as_fraction, format_scaled

GameWithPartition = tuple[CongestionGame, Partition]


def _cost_pair(v, r: str, j: int) -> tuple[int, int]:
    """Cost token j of resource r as (numerator, denominator). Integers, and
    "p/q" strings of ASCII digits with an optional "-" on p and q nonzero,
    are read without `Fraction(str)`; other tokens go through `as_fraction`."""
    if type(v) is int:
        return v, 1
    num, _, den = v.partition("/") if type(v) is str else ("", "", "")
    digits = num.removeprefix("-")
    if digits.isascii() and digits.isdigit() and den.isascii() and den.isdigit() and den.strip("0"):
        try:
            return int(num), int(den)
        except ValueError:  # int() refuses strings past the digit limit
            pass
    where = f"costs[{r}][{j + 1}]"
    if isinstance(v, float):
        raise GameFileError(f"{where}: floats are not allowed, use ints or 'p/q' strings")
    try:
        value = as_fraction(v)
    except (TypeError, GameFileError) as exc:
        raise GameFileError(f"{where}: {exc}") from exc
    return value.numerator, value.denominator


def game_to_dict(game: CongestionGame, partition: Partition) -> dict:
    resources = list(game.resources)
    tables = {r: game.costs[r] for r in resources}
    costs = {r: [format_scaled(x, t.denominator) for x in t.numerators] for r, t in tables.items()}
    if game.is_simple:
        strategies = "simple"
    else:
        strategies = {
            str(i + 1): [list(choice) for choice in strat_set]
            for i, strat_set in enumerate(game.strategy_sets)
        }
    return {
        "resources": resources,
        "players": game.n,
        "costs": costs,
        "strategies": strategies,
        "partition": partition.one_based(),
    }


def grid_columns(table):
    """The rows `{"profile": [label, ...], "value": v}` of a potential table,
    one per joint profile in row-major order, as two iterables: each row's
    labels, from `itertools.product(*table.strategies)`, and its value,
    `format_scaled(table.flat[f], table.scale)`. `table` is a
    `PotentialTable` or the list of row dicts it is written as (a parsed
    report)."""
    if type(table) is not PotentialTable:
        return map(itemgetter("profile"), table), map(itemgetter("value"), table)
    return itertools.product(*table.strategies), map(_formatted(table).__getitem__, table.flat)


def listing_columns(listing):
    """The rows `{"profile": [[choice, ...], ...], "multiplicity": m}` of an
    equilibrium listing, one per equilibrium, as two iterables: each row's
    member choices block by block, and its multiplicity. `listing` is a
    `NeReport` or the list of row dicts it is written as (a parsed
    report)."""
    if type(listing) is not NeReport:
        return map(itemgetter("profile"), listing), map(itemgetter("multiplicity"), listing)
    profiles = ([[p.choices[i] for i in b] for b in listing.blocks] for p in listing.equilibria)
    return profiles, listing.multiplicities


def _formatted(grid: PotentialTable) -> dict:
    """`format_scaled(v, grid.scale)` by value v of `grid.flat`: a table's
    values repeat across profiles, so each is formatted once."""
    texts = dict.fromkeys(grid.flat)
    for v in texts:
        texts[v] = format_scaled(v, grid.scale)
    return texts


def _row_parts(newline: str, profiles, value_key: str, values):
    """The pieces of a nonempty list of rows `{"profile": [item, ...],
    value_key: value}` as `dumps_json` writes it: `profiles` holds each
    row's items and `values` each row's value, already written (an item's
    own line breaks are those of its depth, `newline` plus six spaces)."""
    # the line breaks before a row, before its keys and before its items
    row, key, item = newline + "  ", newline + "    ", newline + "      "
    head = "{" + key + '"profile": [' + item
    leads = itertools.chain(["[" + row + head], itertools.repeat(row + "}," + row + head))
    tails = itertools.repeat(key + "]," + key + encode_basestring_ascii(value_key) + ": ")
    rows = zip(leads, map(("," + item).join, profiles), tails, values)
    return itertools.chain(itertools.chain.from_iterable(rows), [row + "}" + newline + "]"])


def _grid_parts(grid: PotentialTable, newline: str):
    """The pieces of `grid`'s rows as `dumps_json` writes a list of row
    dicts: each label is encoded once and each distinct value formatted
    once, and the pieces come from C-level iterators, with no string the
    size of the table besides the writer's one join."""
    if not all(grid.strategies):
        return ["[]"]
    texts = {v: f'"{t}"' if type(t) is str else int.__repr__(t) for v, t in _formatted(grid).items()}
    encoded = [[encode_basestring_ascii(s) for s in block] for block in grid.strategies]
    return _row_parts(newline, itertools.product(*encoded), "value", map(texts.__getitem__, grid.flat))


def _listing_parts(listing: NeReport, newline: str):
    """The pieces of `listing`'s rows as `dumps_json` writes a list of row
    dicts: each distinct member choice is written once, each distinct
    assignment of choices to a block's members once per block from those
    texts, and each row is one join of its blocks' texts."""
    if not listing.equilibria:
        return ["[]"]
    block, member, resource = newline + " " * 6, newline + " " * 8, newline + " " * 10

    def listed(items, inner: str, close: str) -> str:
        return "[" + inner + ("," + inner).join(items) + close + "]"

    choices = [p.choices for p in listing.equilibria]
    distinct = set(itertools.chain.from_iterable(choices))
    members = {c: listed(map(encode_basestring_ascii, c), resource, member) for c in distinct}
    columns = []
    for b in listing.blocks:
        keys = list(map(itemgetter(*b), choices))  # one member's key is its choice, not a 1-tuple
        texts = {k: listed(map(members.__getitem__, k if len(b) > 1 else (k,)), member, block) for k in set(keys)}
        columns.append(map(texts.__getitem__, keys))
    return _row_parts(newline, zip(*columns), "multiplicity", map(int.__repr__, listing.multiplicities))


def dumps_json(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, in one pass (the stdlib's
    C encoder ignores `indent`). Dicts with string keys, lists, tuples,
    strings, ints, finite floats (`float.__repr__`, as json), bools and None
    are written here, sharing separators and encoded keys; a `PotentialTable`
    or a `NeReport` is written as its list of row dicts (see `grid_columns`
    and `listing_columns`); non-finite floats, dicts with other keys and
    other types go to `json.dumps`."""
    parts: list[str] = []
    out = parts.append
    levels: dict[str, tuple[str, str, str, str]] = {}
    keys: dict[str, str] = {}

    def write(value, newline: str) -> None:
        kind = type(value)
        if kind is str:
            out(encode_basestring_ascii(value))
        elif kind is int:
            out(int.__repr__(value))
        elif value is None or value is True or value is False:
            out("null" if value is None else "true" if value else "false")
        elif kind is float and math.isfinite(value):
            out(float.__repr__(value))
        elif not value and (kind is list or kind is tuple or kind is dict):
            out("{}" if kind is dict else "[]")
        elif kind is list or kind is tuple or (kind is dict and all(type(key) is str for key in value)):
            if newline not in levels:
                inner = newline + "  "
                levels[newline] = (inner, "," + inner, newline + "]", newline + "}")
            inner, comma, close_list, close_dict = levels[newline]
            sep = inner
            if kind is dict:
                out("{")
                for key, item in value.items():
                    if key not in keys:
                        keys[key] = encode_basestring_ascii(key) + ": "
                    out(sep)
                    out(keys[key])
                    write(item, inner)
                    sep = comma
                out(close_dict)
            else:
                out("[")
                for item in value:
                    out(sep)
                    write(item, inner)
                    sep = comma
                out(close_list)
        elif kind is PotentialTable:
            parts.extend(_grid_parts(value, newline))
        elif kind is NeReport:
            parts.extend(_listing_parts(value, newline))
        else:  # an encoded string holds no raw newline, so this just indents
            out(json.dumps(value, indent=2).replace("\n", newline))

    write(obj, "\n")
    return "".join(parts)


def dumps_game(game: CongestionGame, partition: Partition) -> str:
    return dumps_json(game_to_dict(game, partition)) + "\n"


def dict_to_game(obj) -> GameWithPartition:
    if not isinstance(obj, dict):
        raise GameFileError(f"game file must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in ("resources", "players", "costs", "strategies", "partition") if k not in obj]
    if missing:
        raise GameFileError(f"missing keys: {', '.join(missing)}")

    resources = obj["resources"]
    if not isinstance(resources, list) or not all(isinstance(r, str) for r in resources):
        raise GameFileError("'resources' must be an array of strings")
    n = obj["players"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GameFileError("'players' must be a positive integer")

    costs_obj = obj["costs"]
    if not isinstance(costs_obj, dict):
        raise GameFileError("'costs' must be a map resource -> array")
    costs = {}
    for r, values in costs_obj.items():
        if not isinstance(values, list):
            raise GameFileError(f"costs[{r}] must be an array")
        pairs = [_cost_pair(v, r, j) for j, v in enumerate(values)]
        denominator = math.lcm(*(q for _, q in pairs))
        costs[r] = CostTable.scaled([p * (denominator // q) for p, q in pairs], denominator)

    strategies = obj["strategies"]
    if strategies == "simple":
        singles = tuple((r,) for r in resources)
        strategy_sets = tuple(singles for _ in range(n))
    elif isinstance(strategies, dict):
        unknown = set(strategies).difference(map(str, range(1, n + 1)))
        if unknown:
            raise GameFileError(f"'strategies' key {min(map(repr, unknown))} is not a sub-agent id from 1 to {n}")
        strategy_sets = []
        for i in range(1, n + 1):
            raw = strategies.get(str(i))
            if raw is None:
                raise GameFileError(f"'strategies' has no entry for sub-agent {i}")
            if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
                raise GameFileError(f"strategies[{i}] must be an array of resource-id arrays")
            strategy_sets.append(tuple(tuple(str(r) for r in choice) for choice in raw))
        strategy_sets = tuple(strategy_sets)
    else:
        raise GameFileError("'strategies' must be \"simple\" or a map of sub-agent ids")

    partition_obj = obj["partition"]
    if not isinstance(partition_obj, list) or not all(
        isinstance(b, list) and all(type(i) is int for i in b) for b in partition_obj
    ):
        raise GameFileError("'partition' must be an array of arrays of 1-based sub-agent ids")
    ids = sorted(i for b in partition_obj for i in b)
    if ids != list(range(1, n + 1)):
        raise GameFileError(f"'partition' must hold each sub-agent id from 1 to {n} once, got {ids}")
    try:
        partition = Partition.from_one_based(partition_obj)
        game = CongestionGame(tuple(resources), costs, strategy_sets)
    except Exception as exc:
        raise GameFileError(str(exc)) from exc
    if game.n != n:
        raise GameFileError(f"'players' is {n} but {game.n} strategy sets were built")
    return game, partition


def loads_game(data: str | bytes) -> GameWithPartition:
    """Parse a game file's text, or its bytes as UTF-8."""
    try:
        obj = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GameFileError(f"invalid JSON: {exc}") from exc
    return dict_to_game(obj)


def read_game_bytes(path: str | Path) -> bytes:
    try:
        with open(path, "rb") as file:
            return file.read()
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc


def load_game_file(path: str | Path) -> GameWithPartition:
    return loads_game(read_game_bytes(path))


def write_game_file(path: str | Path, game: CongestionGame, partition: Partition) -> None:
    try:
        Path(path).write_text(dumps_game(game, partition))
    except OSError as exc:
        raise GameFileError(f"cannot write {path}: {exc}") from exc
