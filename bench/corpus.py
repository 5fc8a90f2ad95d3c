"""Seeded query corpora for the ccg benchmark.

A corpus is the fixed list of CLI queries one workload sends, with the game
files they read. It is a pure function of (workload, corpus name): the
`default` corpus is the one every run measures; the `holdout` corpus uses
another generator seed and exists only to confirm a claimed gain on inputs
that were not looked at while the change was written. The expected record
of every query of both corpora is committed under `expected/`.

Simple games come from the package's own seeded generators
(`instances.random_game`, `instances.random_partition`), so their cost is
part of the set-up time. Non-simple games (one- and two-resource choices,
members of one block with different strategy sets) are drawn here, on top of
the costs `random_game` produces. Every game is redrawn until its canonical
joint profile count is at most `MAX_PROFILES`; the redraw is part of the
seeded stream, so it never depends on what the program reports.

Run as a script, this module is one set-up of a workload in a fresh
interpreter: it imports ccg, builds the corpus, writes the game files and
prints the monotonic clock when the first query is ready. `run.py` times
that from just before the interpreter starts to get `setup_s`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Generator seeds. `holdout` is for confirming a claim only; never tune on it.
CORPUS_SEEDS = {"default": "ccg-bench-1", "holdout": "ccg-bench-2"}

WORKLOADS = ("enumerate", "potential", "sweep")
QUERIES_PER_PASS = 120
NON_SIMPLE_EVERY = 5  # one query in five is a non-simple game
MAX_PROFILES = 3000

# Trials per `experiment` call, chosen so each kind takes about a third of a
# `sweep` pass; with equal counts `theorem2` dominates.
SWEEP_TRIALS = {"theorem1": 26, "theorem2": 2, "pairs-vs-triples": 20}
SWEEP_KINDS = tuple(SWEEP_TRIALS)

COST_CLASSES = ("linear", "convex", "monotone")


def import_ccg():
    """Import ccg and its CLI from this checkout's `src`, never from
    anywhere else."""
    init = SRC / "ccg" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no ccg sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ccg
    import ccg.cli  # noqa: F401  (the package itself does not import its CLI)

    if Path(ccg.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported ccg from {ccg.__file__}, expected {init}")
    return ccg


@dataclass(frozen=True)
class Query:
    """One CLI call of a workload. `game` is the game file object (None for
    `sweep`), `text` the exact bytes written to `path`."""

    qid: str
    slice: str
    argv: tuple[str, ...]
    path: str | None
    game: dict | None
    text: str | None


def _rational(value: Fraction):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _game_object(game, strategies, partition) -> dict:
    """Game file object, written by the benchmark itself so that a change to
    the package's emitter cannot change the inputs."""
    return {
        "resources": list(game.resources),
        "players": game.n,
        "costs": {r: [_rational(v) for v in game.costs[r].values] for r in game.resources},
        "strategies": strategies,
        "partition": [[i + 1 for i in block] for block in partition.blocks],
    }


def _canonical_count(member_sets) -> int:
    """Distinct sorted member-choice tuples of one block."""
    return len({tuple(sorted(combo)) for combo in itertools.product(*member_sets)})


def _draw(ccg, tag, n_range, r_range, cost_class, shape, non_simple) -> dict:
    """A game file object drawn from the stream `tag`, redrawn until it has
    at most `MAX_PROFILES` canonical joint profiles."""
    rng = random.Random(tag)
    while True:
        n = rng.randint(*n_range)
        r = rng.randint(*r_range)
        gseed = f"{tag}:{rng.randrange(10**9)}"
        game = ccg.instances.random_game(gseed, n, r, cost_class)
        partition = ccg.instances.random_partition(gseed, n, min(3, n), shape)
        if non_simple:
            menu = [(x,) for x in game.resources] + list(itertools.combinations(game.resources, 2))
            sets = [sorted(rng.sample(menu, rng.randint(2, 3))) for _ in range(n)]
            strategies = {str(i + 1): [list(c) for c in s] for i, s in enumerate(sets)}
            profiles = math.prod(_canonical_count([sets[i] for i in b]) for b in partition.blocks)
        else:
            strategies = "simple"
            profiles = math.prod(math.comb(r + len(b) - 1, len(b)) for b in partition.blocks)
        if profiles <= MAX_PROFILES:
            return _game_object(game, strategies, partition)


def _game_query(workdir, workload, t, game, command) -> Query:
    path = f"{workdir}/g{t:03d}.json"
    slice_ = "simple" if game["strategies"] == "simple" else "non-simple"
    argv = ("--format", "json", *command, path)
    return Query(f"{workload}/{t:03d}", slice_, argv, path, game, json.dumps(game, indent=2) + "\n")


def build(ccg, workload: str, corpus: str, workdir: str) -> list[Query]:
    """The corpus of `workload`, in corpus order, with game files named
    under `workdir` (relative to the checkout root)."""
    seed = CORPUS_SEEDS[corpus]
    queries = []
    for t in range(QUERIES_PER_PASS):
        tag = f"{seed}:{workload}:{t}"
        non_simple = t % NON_SIMPLE_EVERY == NON_SIMPLE_EVERY - 1
        if workload == "enumerate":
            # 6-9 agents on 3-4 resources for simple games; non-simple ones
            # carry two-resource choices, so they get fewer agents.
            n_range = (4, 6) if non_simple else (6, 9)
            game = _draw(ccg, tag, n_range, (3, 4), COST_CLASSES[t % 3], False, non_simple)
            queries.append(_game_query(workdir, workload, t, game, ("solve",)))
        elif workload == "potential":
            cost_class = "linear" if t % 2 == 0 else "monotone"
            n_range = (3, 5) if non_simple else (3, 7)
            game = _draw(ccg, tag, n_range, (2, 4), cost_class, True, non_simple)
            queries.append(_game_query(workdir, workload, t, game, ("potential",)))
        elif workload == "sweep":
            kind = SWEEP_KINDS[t % len(SWEEP_KINDS)]
            argv = ("--format", "json", "experiment", kind,
                    "--trials", str(SWEEP_TRIALS[kind]), "--seed", f"{seed}:{t}")
            queries.append(Query(f"sweep/{t:03d}", kind, argv, None, None, None))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return queries


def write(queries: list[Query]) -> None:
    for q in queries:
        if q.path is not None:
            target = ROOT / q.path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(q.text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one timed set-up of a benchmark workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--corpus", choices=tuple(CORPUS_SEEDS), default="default")
    parser.add_argument("--out", required=True, help="directory under the checkout to write into")
    args = parser.parse_args(argv)
    ccg = import_ccg()
    queries = build(ccg, args.workload, args.corpus, args.out)
    write(queries)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
