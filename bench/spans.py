"""Per-layer tracing for the ccg benchmark, from the benchmark's own files.

A layer is a module of the package; a span wraps one of its public entry
points. `Tracer.install` replaces the function in every module namespace
that holds it (and in module-level registries such as
`experiments.EXPERIMENTS`), so calls between modules are seen too;
`uninstall` puts the originals back.

For each span the tracer keeps calls, errors (exceptions leaving the span)
and self time, which is the span's duration minus the time covered by its
child spans. A few counters are read from arguments and results at the same
boundaries. With `memory=True` the tracer also records, per peak span, the
largest tracemalloc peak above the allocation level at span entry; that mode
distorts timing, so its other figures are discarded.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
import types
from collections import Counter, defaultdict

SPANS = (
    ("cli", "main"),
    ("gamefile", "load_game_file"),
    ("game", "materialize"),
    ("game", "canonical_multiplicity"),
    ("equilibria", "enumerate_pure_ne"),
    ("equilibria", "find_deviation"),
    ("equilibria", "underlying_pure_ne"),
    ("potential", "exact_potential"),
    ("potential", "build_potential_by_path"),
    ("potential", "verify_exact_potential"),
    ("potential", "check_linearity_equivalence"),
    ("pair_solver", "solve_pair_ccg"),
    ("instances", "random_game"),
    ("instances", "random_partition"),
    ("experiments", "pair_solver_sweep"),
    ("experiments", "linearity_sweep"),
    ("experiments", "block_size_sweep"),
)

# Call-counted only: a span per square would dominate the witness search.
COUNTED = {("potential", "four_cycle_residual"): "potential.witness.squares"}

PEAK_SPANS = {"game.materialize", "equilibria.enumerate_pure_ne", "potential.exact_potential"}

# exact_potential's self time, after its build and verify children, is the
# four-cycle witness search.
SELF_NAMES = {"potential.exact_potential": "potential.witness.self_s"}

MODULES = ("cli", "gamefile", "game", "equilibria", "potential", "pair_solver",
           "instances", "experiments")


def _enumerate_counts(result, counters):
    counters["equilibria.profiles_checked"] += result.profiles_checked
    counters["equilibria.equilibria_found"] += len(result.equilibria)


def _materialize_counts(result, counters):
    counters["game.materialize.cells"] += result.num_profiles() * result.players


def _verify_counts(result, counters):
    counters["potential.verify.passed"] += bool(result[0])


COUNTER_NAMES = (
    "equilibria.profiles_checked",
    "equilibria.equilibria_found",
    "game.materialize.cells",
    "potential.verify.passed",
    "potential.witness.squares",
    "gamefile.input_bytes",
)

RESULT_COUNTERS = {
    "equilibria.enumerate_pure_ne": _enumerate_counts,
    "game.materialize": _materialize_counts,
    "potential.verify_exact_potential": _verify_counts,
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, fn in SPANS:
        span = f"{layer}.{fn}"
        names += [SELF_NAMES.get(span, f"{span}.self_s"), f"{span}.calls", f"{span}.errors"]
    names += [*COUNTER_NAMES, "cli.output_bytes"]  # output bytes are counted by the client
    names += [f"{span}.peak_kb" for span in sorted(PEAK_SPANS)]
    return names


class Tracer:
    def __init__(self, ccg, memory: bool = False):
        self.memory = memory
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.peak_bytes: Counter[str] = Counter()
        self._child_time: list[float] = []
        self._modules = [importlib.import_module(f"ccg.{m}") for m in MODULES] + [ccg]
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        clock = time.perf_counter
        child_time = self._child_time
        on_result = RESULT_COUNTERS.get(name)
        peak = self.memory and name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                duration = clock() - start
                self.self_s[name] += duration - child_time.pop()
                if child_time:
                    child_time[-1] += duration
                self.calls[name] += 1
                if peak:
                    used = tracemalloc.get_traced_memory()[1] - base
                    self.peak_bytes[name] = max(self.peak_bytes[name], used)
            if on_result is not None:
                on_result(result, self.counters)
            if name == "gamefile.load_game_file":
                self.counters["gamefile.input_bytes"] += os.path.getsize(args[0])
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer, fn in SPANS:
            original = getattr(importlib.import_module(f"ccg.{layer}"), fn)
            wrappers[original] = self._span(f"{layer}.{fn}", original)
        for (layer, fn), name in COUNTED.items():
            original = getattr(importlib.import_module(f"ccg.{layer}"), fn)
            wrappers[original] = self._counted(name, original)
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[item]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Span and counter metrics (peaks come from a memory-mode tracer)."""
        out = {}
        for layer, fn in SPANS:
            span = f"{layer}.{fn}"
            out[SELF_NAMES.get(span, f"{span}.self_s")] = self.self_s[span]
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.errors"] = self.errors[span]
        for name in COUNTER_NAMES:
            out[name] = self.counters[name]
        return out

    def peak_kb(self) -> dict[str, float]:
        return {f"{span}.peak_kb": self.peak_bytes[span] / 1024 for span in sorted(PEAK_SPANS)}
