"""Correctness gate of the ccg benchmark.

Every query has an expected record (see `expected/`). `extract` reduces a
CLI result to the fields a record holds:

- every query: the exit code;
- `enumerate`: the equilibrium count, `exhaustive` and the sorted
  multiplicities;
- `potential`: `has_potential`, `all_linear`, the `equivalence` fields and
  the number of witnesses;
- `sweep`: every verdict field (lists reduced to their length) and the
  number of counterexamples.

A record leaves out `timing`, `profiles_checked` and which profile
represents an equilibrium orbit, since a correct change to the search may
change those.

`deep_check` re-checks a result against the definition of the game, using
only the public `coalition_utility` for utilities:

- every reported equilibrium profile is playable: each agent's choice is in
  its strategy set;
- on the first, middle and last reported equilibrium, no block has a
  strictly improving raw (non-canonical) deviation; the check runs on a
  playable assignment of the reported choice multiset;
- every four-cycle witness residual, recomputed from its four corners, is
  nonzero and equals the reported one.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

# Failure classes that a documented open defect of the package produces, by
# slice. They are counted as failed queries like any other failure, but do
# not make the run incorrect. ROADMAP item 4: on non-simple games the
# canonical representative of an equilibrium orbit can hand an agent a
# choice outside its strategy set.
KNOWN_DEFECTS = {("non-simple", "unplayable")}


def extract(workload: str, code, report: dict | None) -> dict:
    """The expected-record view of one CLI result."""
    record = {"exit": code}
    if report is None:
        return record
    v = report["verdicts"]
    if workload == "enumerate":
        enum = report["traces"]["enumeration"]
        record.update(
            count=v["count"],
            exhaustive=enum["exhaustive"],
            multiplicities=sorted(e["multiplicity"] for e in enum["equilibria"]),
        )
    elif workload == "potential":
        record.update(
            has_potential=v["has_potential"],
            all_linear=v["all_linear"],
            equivalence=v["equivalence"],
            witnesses=len(report["witnesses"]),
        )
    else:
        record.update({k: len(x) if isinstance(x, list) else x for k, x in v.items()})
        record["counterexamples"] = len(report["traces"]["counterexamples"])
    return record


def parse_report(stdout: str) -> dict | None:
    """The JSON report of a query, or None when the query printed none."""
    text = stdout.strip()
    if not text:
        return None
    return json.loads(text)


class GameModel:
    """The game of one query, built from its game file object with the
    package's public constructors, for definition-level checks."""

    def __init__(self, ccg, game: dict):
        resources = tuple(game["resources"])
        costs = {r: ccg.CostTable(tuple(Fraction(v) for v in game["costs"][r])) for r in resources}
        n = game["players"]
        if game["strategies"] == "simple":
            sets = tuple(tuple((r,) for r in resources) for _ in range(n))
        else:
            sets = tuple(
                tuple(tuple(c) for c in game["strategies"][str(i + 1)]) for i in range(n)
            )
        self.ccg = ccg
        self.sets = sets
        self.cg = ccg.CoalitionalGame(
            ccg.CongestionGame(resources, costs, sets),
            ccg.Partition.from_one_based(game["partition"]),
        )

    def utility(self, choices, k: int) -> Fraction:
        return self.ccg.coalition_utility(self.cg, self.ccg.PureProfile(tuple(choices)), k)

    def playable(self, by_block) -> bool:
        """Each agent's reported choice is in its own strategy set."""
        return all(
            tuple(choice) in self.sets[i]
            for block, choices in zip(self.cg.blocks, by_block)
            for i, choice in zip(block, choices)
        )

    def assign(self, by_block):
        """A playable flat profile with each block's reported choice
        multiset, or None when the multiset has no playable assignment."""
        flat = [None] * self.cg.base.n
        for block, choices in zip(self.cg.blocks, by_block):
            for perm in itertools.permutations(tuple(c) for c in choices):
                if all(c in self.sets[i] for i, c in zip(block, perm)):
                    break
            else:
                return None
            for i, c in zip(block, perm):
                flat[i] = c
        return flat

    def improving_deviation(self, flat) -> bool:
        for k, block in enumerate(self.cg.blocks):
            current = self.utility(flat, k)
            for alt in itertools.product(*(self.sets[i] for i in block)):
                choices = list(flat)
                for i, c in zip(block, alt):
                    choices[i] = c
                if self.utility(choices, k) > current:
                    return True
        return False


def _label_choices(label: str) -> list[tuple[str, ...]]:
    """Invert the CLI's block strategy label ("AB,C" or "R1+R2,R3")."""
    return [tuple(c.split("+")) if "+" in c else tuple(c) for c in label.split(",")]


def deep_check(workload: str, model: GameModel | None, report: dict | None) -> list[str]:
    """Failure classes the definition-level oracle finds in one result."""
    if model is None or report is None:
        return []
    failures = []
    if workload == "enumerate":
        equilibria = report["traces"]["enumeration"]["equilibria"]
        if any(not model.playable(e["profile"]) for e in equilibria):
            failures.append("unplayable")
        if any(e["multiplicity"] < 1 for e in equilibria):
            failures.append("multiplicity")
        picks = sorted({0, len(equilibria) // 2, len(equilibria) - 1}) if equilibria else []
        for e in (equilibria[p] for p in picks):
            flat = model.assign(e["profile"])
            if flat is None:
                failures.append("infeasible")
            elif model.improving_deviation(flat):
                failures.append("deviation")
    elif workload == "potential":
        for w in report["witnesses"]:
            corners = []
            for corner in w["cycle"]:
                flat = model.assign([_label_choices(label) for label in corner])
                if flat is None:
                    failures.append("infeasible")
                    break
                corners.append(flat)
            else:
                i, j = (p - 1 for p in w["players"])
                p00, p10, p11, p01 = corners
                u = model.utility
                residual = (
                    (u(p00, i) - u(p10, i))
                    + (u(p10, j) - u(p11, j))
                    + (u(p11, i) - u(p01, i))
                    + (u(p01, j) - u(p00, j))
                )
                if residual == 0 or residual != Fraction(w["residual"]):
                    failures.append("witness")
    return sorted(set(failures))
