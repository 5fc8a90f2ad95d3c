"""Command-line front end.

Commands operate on game files (see `gamefile`) and emit a report either as
human-readable text or as JSON (`--format json`). The JSON form is the
machine contract: it round-trips through `json.loads`/`json.dumps`, and the
text form is rendered purely from it. Its bytes are those of
`json.dumps(report, indent=2)`, written by the one writer
`gamefile.dumps_json`, which also writes game files. A report holds the
library's results as they are: the `PotentialTable` of `ccg potential`
(each block's strategy labels and the flat values) and the `NeReport` of
`ccg solve` (the canonical equilibria, their multiplicities and the
partition's blocks), which the writer writes as their lists of row dicts;
`render_text` reads those rows through `gamefile.grid_columns` and
`gamefile.listing_columns`, from the object or from a parsed report alike.

Exit codes encode verdicts so pipelines can branch on them:

    0  equilibrium found / potential exists / command succeeded
    2  unreadable or invalid input (file or parameters)
    3  searched exhaustively, none exists (empty equilibrium set, no potential)
    4  precondition violated (oversized blocks, non-simple game, size limit)
    5  canned-instance claim failed
    1  internal invariant breach (a bug, never a legitimate outcome)

The ``CCG_SIZE_LIMIT`` environment variable overrides the enumeration bound.
``--threads`` is accepted for interface stability; execution is sequential
and output is identical for every value.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from .equilibria import NeReport, enumerate_pure_ne
from .errors import (
    BlockLargerThanResourceSetError,
    CcgError,
    GameFileError,
    InvalidGameError,
    InvalidParamsError,
    NotTwoBlocksError,
    PreconditionViolatedError,
    SizeLimitExceededError,
)
from .experiments import EXPERIMENTS
from .game import (
    CoalitionalGame,
    CongestionGame,
    Partition,
    PureProfile,
    StrategicForm,
    choice_label,
    materialize,
    require_valid,
)
from .gamefile import (
    dumps_json,
    game_to_dict,
    grid_columns,
    listing_columns,
    loads_game,
    read_game_bytes,
    write_game_file,
)
from .instances import canned_fixtures, evaluate_fixture, random_game, random_partition
from .pair_solver import PairSolveTrace, solve_pair_ccg
from .potential import (
    EquivalenceVerdict,
    FourCycleWitness,
    check_linearity_equivalence,
)
from .rationals import format_rational, format_scaled

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_NONE_EXISTS = 3
EXIT_PRECONDITION = 4
EXIT_FIXTURE = 5


# ---------------------------------------------------------------------------
# JSON building blocks


def _digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _digest_params(params: dict) -> str:
    return _digest_bytes(json.dumps(params, sort_keys=True).encode())


def _profile_by_block(cg: CoalitionalGame, s: PureProfile) -> list[list[list[str]]]:
    return [[list(s.choices[i]) for i in block] for block in cg.blocks]


def _flat_profile(s: PureProfile) -> list[list[str]]:
    return [list(c) for c in s.choices]


def _ne_report_json(report: NeReport) -> dict:
    return {
        "equilibria": report,
        "count": len(report.equilibria),
        "exhaustive": report.exhaustive,
        "profiles_checked": report.profiles_checked,
    }


def _solve_trace_json(cg: CoalitionalGame, trace: PairSolveTrace) -> dict:
    return {
        "underlying_profile": _flat_profile(trace.underlying_profile),
        "case": trace.case_taken,
        "hub_resource": trace.hub_resource,
        "arrangement": _profile_by_block(cg, trace.arrangement),
        "moves": [
            {
                "block": m.block + 1,
                "agent": m.agent + 1,
                "from": m.source,
                "to": m.target,
                "cost_delta": format_rational(m.cost_delta),
            }
            for m in trace.moves
        ],
        "result": _profile_by_block(cg, trace.result),
    }


def _witness_json(strategies: tuple[tuple[str, ...], ...], w: FourCycleWitness) -> dict:
    def labels(profile: tuple[int, ...]) -> list[str]:
        return [strategies[k][si] for k, si in enumerate(profile)]

    return {
        "players": [w.player_i + 1, w.player_j + 1],
        "cycle": [labels(p) for p in w.cycle_profiles()],
        "alternatives": {
            str(w.player_i + 1): strategies[w.player_i][w.alt_i],
            str(w.player_j + 1): strategies[w.player_j][w.alt_j],
        },
        "residual": format_rational(w.residual),
    }


def _matrix_json(sf: StrategicForm) -> dict:
    rows, cols = sf.strategies
    cells = [[format_scaled(u, sf.scale) for u in pair] for pair in zip(*sf.payoffs)]
    return {
        "rows": list(rows),
        "cols": list(cols),
        "cells": [cells[ri * len(cols) : (ri + 1) * len(cols)] for ri in range(len(rows))],
    }


def _equivalence_json(v: EquivalenceVerdict) -> dict:
    return {
        "applicable": v.applicable,
        "all_linear": v.all_linear,
        "has_potential": v.has_potential,
        "consistent": v.consistent,
    }


def _linearity_json(report) -> list[dict]:
    out = []
    for resource, entry in report.items():
        out.append(
            {
                "resource": resource,
                "linear": entry.linear,
                "slope": None if entry.slope is None else format_rational(entry.slope),
                "intercept": None if entry.intercept is None else format_rational(entry.intercept),
                "first_violation": entry.first_violation,
            }
        )
    return out


def _report(command: str, inputs: dict, digest: str, verdicts: dict, witnesses: list, traces: dict) -> dict:
    """A report without its `timing`, which `main` appends as the last key."""
    return {
        "command": command,
        "inputs": inputs,
        "input_digest": digest,
        "verdicts": verdicts,
        "witnesses": witnesses,
        "traces": traces,
    }


def _load(path: str) -> tuple[CongestionGame, Partition, str]:
    """The game in a file, and the digest of exactly the bytes parsed."""
    data = read_game_bytes(path)
    game, partition = loads_game(data)
    require_valid(game)
    return game, partition, _digest_bytes(data)


# ---------------------------------------------------------------------------
# Commands


def _cmd_solve(args) -> tuple[dict, int]:
    game, partition, digest = _load(args.file)
    cg = CoalitionalGame(game, partition)
    inputs = {"file": args.file, "method": args.method}
    if args.method == "brute":
        report = enumerate_pure_ne(cg)
        verdicts = {"method": "brute", "ne_found": not report.is_empty, "count": len(report.equilibria)}
        traces = {"enumeration": _ne_report_json(report)}
        code = EXIT_OK if not report.is_empty else EXIT_NONE_EXISTS
        return _report("solve", inputs, digest, verdicts, [], traces), code
    trace = solve_pair_ccg(game, partition)
    verdicts = {
        "method": "theorem1",
        "ne_found": True,
        "case": trace.case_taken,
        "hub_resource": trace.hub_resource,
        "moves": len(trace.moves),
    }
    traces = {"solve": _solve_trace_json(cg, trace)}
    return _report("solve", inputs, digest, verdicts, [], traces), EXIT_OK


def _cmd_potential(args) -> tuple[dict, int]:
    game, partition, digest = _load(args.file)
    eq = check_linearity_equivalence(game, partition)
    verdict = eq.potential
    verdicts = {
        "has_potential": verdict.has_potential,
        "all_linear": eq.all_linear,
        "equivalence": _equivalence_json(eq) if game.is_simple else None,
    }
    witnesses = [] if verdict.witness is None else [_witness_json(eq.strategies, verdict.witness)]
    traces = {"linearity": _linearity_json(eq.linearity), "potential_table": verdict.table}
    code = EXIT_OK if verdict.has_potential else EXIT_NONE_EXISTS
    return _report("potential", {"file": args.file}, digest, verdicts, witnesses, traces), code


def _cmd_matrix(args) -> tuple[dict, int]:
    game, partition, digest = _load(args.file)
    if partition.n_blocks != 2:
        raise NotTwoBlocksError(f"matrix rendering needs 2 blocks, got {partition.n_blocks}")
    cg = CoalitionalGame(game, partition)
    sf = materialize(cg)
    verdicts = {"rows": len(sf.strategies[0]), "cols": len(sf.strategies[1])}
    traces = {"matrix": _matrix_json(sf)}
    return _report("matrix", {"file": args.file}, digest, verdicts, [], traces), EXIT_OK


def _cmd_examples(args) -> tuple[dict, int]:
    registry = canned_fixtures()
    keys = sorted(registry) if args.which == "all" else [args.which]
    fixtures = {}
    witnesses = []
    all_passed = True
    for key in keys:
        for fx in registry[key]:
            result = evaluate_fixture(fx)
            all_passed = all_passed and result.passed
            fixtures.setdefault(key, []).append(
                {
                    "title": fx.title,
                    "passed": result.passed,
                    "claims": [
                        {"claim": c.description, "passed": c.passed, "detail": c.detail}
                        for c in result.results
                    ],
                }
            )
            for d in result.discrepancies:
                witnesses.append(
                    {
                        "fixture": key,
                        "cell": [d.row, d.col],
                        "recorded": [format_rational(v) for v in d.published],
                        "recomputed": [format_rational(v) for v in d.recomputed],
                        "expected": d.expected,
                    }
                )
    inputs = {"which": args.which}
    verdicts = {"passed": all_passed}
    report = _report(
        "examples", inputs, _digest_params(inputs), verdicts, witnesses, {"fixtures": fixtures}
    )
    return report, EXIT_OK if all_passed else EXIT_FIXTURE


def _cmd_generate(args) -> tuple[dict, int]:
    game = random_game(args.seed, args.players, args.resources, args.cost_class)
    partition = random_partition(
        args.seed, args.players, min(args.max_block, args.players), args.theorem2_shape
    )
    if args.out:
        write_game_file(args.out, game, partition)
    inputs = {
        "players": args.players,
        "resources": args.resources,
        "seed": args.seed,
        "cost_class": args.cost_class,
        "max_block": args.max_block,
        "theorem2_shape": args.theorem2_shape,
        "out": args.out,
    }
    verdicts = {"written": bool(args.out)}
    traces = {"game": game_to_dict(game, partition)}
    return _report("generate", inputs, _digest_params(inputs), verdicts, [], traces), EXIT_OK


def _cmd_experiment(args) -> tuple[dict, int]:
    if args.trials < 1:
        raise InvalidParamsError(f"trials must be positive, got {args.trials}")
    runner = EXPERIMENTS[args.kind]
    result = runner(args.trials, args.seed, args.max_players, args.max_resources)
    inputs = {
        "kind": args.kind,
        "trials": args.trials,
        "seed": args.seed,
        "max_players": args.max_players,
        "max_resources": args.max_resources,
    }
    verdicts = {k: v for k, v in result.items() if k != "counterexamples"}
    traces = {"counterexamples": result.get("counterexamples", [])}
    report = _report("experiment", inputs, _digest_params(inputs), verdicts, [], traces)
    return report, EXIT_OK if result["ok"] else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# Text rendering (a pure function of the machine report)


def _fmt_pair(cell: list) -> str:
    return f"{cell[0]}, {cell[1]}"


def _render_matrix(matrix: dict) -> list[str]:
    rows, cols, cells = matrix["rows"], matrix["cols"], matrix["cells"]
    body = [[_fmt_pair(cell) for cell in row] for row in cells]
    width0 = max(len(r) for r in rows + [""])
    widths = [
        max(len(cols[c]), max(len(body[r][c]) for r in range(len(rows))))
        for c in range(len(cols))
    ]
    lines = ["  ".join([" " * width0] + [cols[c].rjust(widths[c]) for c in range(len(cols))])]
    for r, label in enumerate(rows):
        lines.append(
            "  ".join([label.ljust(width0)] + [body[r][c].rjust(widths[c]) for c in range(len(cols))])
        )
    return lines


def _profile_text(profile: list) -> str:
    return " | ".join(",".join(map(choice_label, block)) for block in profile)


def render_text(report: dict) -> str:
    command = report["command"]
    lines: list[str] = []
    v = report["verdicts"]
    if command == "solve":
        if v["method"] == "brute":
            if v["ne_found"]:
                lines.append(f"{v['count']} pure Nash equilibrium profile(s):")
                listing = listing_columns(report["traces"]["enumeration"]["equilibria"])
                for profile, multiplicity in zip(*listing):
                    lines.append(f"  {_profile_text(profile)}  (x{multiplicity})")
            else:
                lines.append("no pure Nash equilibrium")
        else:
            trace = report["traces"]["solve"]
            lines.append(f"constructed equilibrium: {_profile_text(trace['result'])}")
            lines.append(f"case: {trace['case']}" + (f", hub {trace['hub_resource']}" if trace["hub_resource"] else ""))
            for m in trace["moves"]:
                lines.append(
                    f"  move: block {m['block']} agent {m['agent']} {m['from']}->{m['to']} (delta {m['cost_delta']})"
                )
    elif command == "potential":
        if v["has_potential"]:
            lines.append("exact potential exists")
            # each distinct value is formatted once; a row is one C-level join and format
            profiles, values = grid_columns(report["traces"]["potential_table"])
            lines.extend(map("  {}: {}".format, map(" | ".join, profiles), values))
        else:
            lines.append("no exact potential")
            for w in report["witnesses"]:
                lines.append(
                    f"  four-cycle witness, players {w['players']}, residual {w['residual']}"
                )
                lines.append("  cycle: " + "  ->  ".join(" | ".join(p) for p in w["cycle"]))
        if v.get("equivalence"):
            e = v["equivalence"]
            lines.append(
                f"linearity equivalence: applicable={e['applicable']} all_linear={e['all_linear']} "
                f"has_potential={e['has_potential']}"
            )
        if report["traces"].get("linearity"):
            for entry in report["traces"]["linearity"]:
                if entry["linear"]:
                    lines.append(
                        f"  {entry['resource']}: linear, slope {entry['slope']}, intercept {entry['intercept']}"
                    )
                else:
                    lines.append(
                        f"  {entry['resource']}: not linear, first violation at occupancy {entry['first_violation']}"
                    )
    elif command == "matrix":
        lines.extend(_render_matrix(report["traces"]["matrix"]))
    elif command == "examples":
        for key, fixtures in sorted(report["traces"]["fixtures"].items()):
            for fx in fixtures:
                status = "ok" if fx["passed"] else "FAILED"
                lines.append(f"[{status}] instance {key}: {fx['title']}")
                for claim in fx["claims"]:
                    mark = "pass" if claim["passed"] else "FAIL"
                    lines.append(f"    {mark}: {claim['claim']} ({claim['detail']})")
        for w in report["witnesses"]:
            note = "expected" if w["expected"] else "UNEXPECTED"
            lines.append(
                f"  discrepancy ({note}) at {w['cell']}: recorded {w['recorded']}, "
                f"recomputed {w['recomputed']}"
            )
    elif command == "generate":
        # Bare game JSON so `ccg generate ... > game.json` yields a loadable file.
        return dumps_json(report["traces"]["game"])
    elif command == "experiment":
        for key, value in v.items():
            lines.append(f"{key}: {value}")
    lines.append(f"[{report['timing']['seconds']}s]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a pre-subcommand --format/--threads from being clobbered
    # by the subparser default.
    p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    p.add_argument("--threads", type=int, default=argparse.SUPPRESS)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process, on first use; the commands read the
    environment themselves, so nothing in it changes between calls."""
    parser = argparse.ArgumentParser(
        prog="ccg", description="coalitional congestion game analysis"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for interface stability; output is identical for any value",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find pure Nash equilibria of a game file")
    p.add_argument("file")
    p.add_argument("--method", choices=("brute", "theorem1"), default="brute",
                   help="brute: exhaustive enumeration; theorem1: constructive pair solver")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("potential", help="decide exact-potential existence")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("matrix", help="render the two-block payoff matrix")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("examples", help="re-check the canned instances' claims")
    p.add_argument("--which", choices=("2", "3", "4", "all"), default="all")
    _add_common(p)
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("generate", help="emit a random game file")
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--resources", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--cost-class", choices=("linear", "convex", "monotone"), default="monotone")
    p.add_argument("--max-block", type=int, default=2)
    p.add_argument("--theorem2-shape", action="store_true",
                   help="force at least one singleton and one pair in the partition")
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("experiment", help="run a seeded batch experiment")
    p.add_argument("kind", choices=tuple(EXPERIMENTS))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--max-players", type=int, default=6)
    p.add_argument("--max-resources", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    started = time.perf_counter()
    try:
        report, code = args.func(args)
    except (GameFileError, InvalidGameError, InvalidParamsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (
        PreconditionViolatedError,
        NotTwoBlocksError,
        BlockLargerThanResourceSetError,
        SizeLimitExceededError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CcgError as exc:
        # invariant breaches and anything else library-level: a bug, never a verdict
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    if args.format == "json":
        print(dumps_json(report))
    else:
        print(render_text(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
