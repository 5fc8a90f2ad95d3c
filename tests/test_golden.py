"""Golden corpus: the CLI's JSON reports on pinned inputs, byte for byte.

Each case runs `ccg.cli.main` from `tests/golden/` with relative file names,
drops the report's wall-clock `timing` field, and compares the re-encoded
report with `tests/golden/expected/<case>.json`. The raw stdout must also be
exactly `json.dumps(report, indent=2)` plus a newline, so the writer's bytes
are pinned, not just the report they parse to. A refactor must keep these
files unchanged; an intended change to a report rewrites them with

    PYTHONPATH=src python tests/test_golden.py

which also rewrites the game files from the generators below.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from ccg import CongestionGame, Partition, random_game, random_partition
from ccg.cli import main
from ccg.gamefile import write_game_file
from ccg.instances import canned_fixtures

GOLDEN = Path(__file__).parent / "golden"


def _crossed_pair():
    """Two agents whose only playable assignment is the reverse of the
    sorted choice order."""
    game = CongestionGame(
        ("A", "B"), {"A": (0, 1), "B": (0, 1)}, ((("B",),), (("A",),))
    )
    return game, Partition.from_one_based([[1, 2]])


def _fixture(key: str, at: int = 0):
    fx = canned_fixtures()[key][at]
    return lambda: (fx.game, fx.partition)


def _generated(seed: str, n: int, resources: int, cost_class: str, max_block: int, shape=False):
    return lambda: (
        random_game(seed, n, resources, cost_class),
        random_partition(seed, n, max_block, shape),
    )


GAMES = {
    "fixture2.json": _fixture("2"),
    "fixture3.json": _fixture("3"),
    "fixture4a.json": _fixture("4", 0),
    "fixture4b.json": _fixture("4", 1),
    "crossed.json": _crossed_pair,
    "b1.json": _generated("b1", 8, 4, "monotone", 3),
    "t2_linear.json": _generated("t2-linear", 5, 3, "linear", 3, True),
    "t2_monotone.json": _generated("t2-monotone", 5, 3, "monotone", 3, True),
    "hub_pair.json": _generated("hub3", 6, 3, "monotone", 2),
}

# (case, argv, exit code)
CASES = [
    ("examples", ["examples"], 0),
    ("matrix_fixture2", ["matrix", "fixture2.json"], 0),
    ("matrix_fixture3", ["matrix", "fixture3.json"], 0),
    ("matrix_fixture4a", ["matrix", "fixture4a.json"], 0),
    ("matrix_fixture4b", ["matrix", "fixture4b.json"], 0),
    ("solve_fixture2", ["solve", "fixture2.json"], 3),
    ("solve_fixture3", ["solve", "fixture3.json"], 3),
    ("solve_fixture4b", ["solve", "fixture4b.json"], 0),
    ("solve_crossed", ["solve", "crossed.json"], 0),
    ("potential_crossed", ["potential", "crossed.json"], 0),
    ("solve_b1", ["solve", "b1.json"], 0),
    ("potential_fixture3", ["potential", "fixture3.json"], 3),
    ("potential_t2_linear", ["potential", "t2_linear.json"], 0),
    ("potential_t2_monotone", ["potential", "t2_monotone.json"], 3),
    ("theorem1_hub_pair", ["solve", "hub_pair.json", "--method", "theorem1"], 0),
    ("theorem1_fixture4b", ["solve", "fixture4b.json", "--method", "theorem1"], 0),
    ("experiment_theorem1", ["experiment", "theorem1", "--trials", "6", "--seed", "7"], 0),
    ("experiment_theorem2", ["experiment", "theorem2", "--trials", "6", "--seed", "7"], 0),
    ("experiment_pairs_vs_triples",
     ["experiment", "pairs-vs-triples", "--trials", "6", "--seed", "7"], 0),
]


def _run(argv: list[str]) -> tuple[str, str, int]:
    """The raw stdout, the re-encoded report without `timing`, and the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", *argv])
    stdout = out.getvalue()
    report = json.loads(stdout)
    del report["timing"]
    return stdout, json.dumps(report, indent=2) + "\n", code


@pytest.mark.parametrize("case, argv, code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(case, argv, code, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    stdout, text, got = _run(argv)
    assert got == code
    assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"
    assert text == (GOLDEN / "expected" / f"{case}.json").read_text()


if __name__ == "__main__":
    (GOLDEN / "expected").mkdir(parents=True, exist_ok=True)
    for name, build in GAMES.items():
        write_game_file(GOLDEN / name, *build())
    os.chdir(GOLDEN)
    for case, argv, code in CASES:
        _, text, got = _run(argv)
        (GOLDEN / "expected" / f"{case}.json").write_text(text)
        print(f"{case}: exit {got}" + ("" if got == code else f", expected {code}"))
