"""ccg benchmark: closed-loop CLI queries, one client, one query in flight.

    python3 bench/run.py --workload enumerate|potential|sweep|all \
        --seed N --seconds S --trace 0|1 [--corpus default|holdout]

Each workload sends the queries of its corpus (see `corpus.py`) to
`ccg.cli.main(argv)` in this interpreter, capturing stdout and stderr in
memory so terminal I/O is not timed. The seed fixes the order in which the
queries are sent: every pass sends the whole corpus in a fresh seeded
order, and passes repeat until `--seconds` of query time is spent. Only the
call to `main` is timed; the correctness gate (`oracle.py`) runs between
queries, outside the timed region.

The speed of a shared machine drifts by tens of percent within seconds, so
besides its wall time each query is also measured in *reference units*: its
wall time divided by the mean of two runs of a fixed stdlib-only loop
(`reference_seconds`) timed just before and just after it. Machine drift
cancels in that ratio; a change to the package does not, since the loop
uses none of it. The `*_ref*` metrics are the ones runs are compared on.
Likewise `setup_s` is scaled by reference set-ups, fresh interpreters doing
fixed stdlib work, run around each set-up. The wall-clock figures are
printed beside them.

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of one traced send of every query (see `spans.py`), tracemalloc
peaks from another pass, and the tracing overhead against an untraced send
of every query. `--workload all`
runs each workload in its own fresh interpreter, one after another.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric
with its unit and sample count, the failure counts per slice, and the run's
metadata. The program is imported from this checkout's `src` only; without
it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = corpus.ROOT
WORK = ".bench_work"
EXPECTED = BENCH / "expected"
SETUP_REPEATS = 7
REFERENCE_STEPS = 200

# One reference set-up: a fresh interpreter that imports stdlib modules the
# package uses and does a fixed amount of rational arithmetic. `setup_s` is
# reported in seconds at the speed where it takes REFERENCE_SETUP_NOMINAL_S
# (its typical time on a 2-core Xeon virtual machine).
REFERENCE_SETUP = """
import argparse, dataclasses, fractions, hashlib, itertools, json, math, pathlib, random, time
acc, table = fractions.Fraction(0), {}
for i in range(6000):
    acc += fractions.Fraction(i % 7, 1 + i % 5)
    table[(i, i % 3)] = acc
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""
REFERENCE_SETUP_NOMINAL_S = 0.07

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_kref": "1/kref",
    "query_ref.p50": "ref",
    "query_ref.p90": "ref",
    "peak_rss_mb": "MB",
}


def load_expected(workload: str, corpus_name: str) -> dict:
    return json.loads((EXPECTED / corpus_name / f"{workload}.json").read_text())["queries"]


def _reference_loop() -> Fraction:
    table = {}
    acc = Fraction(0)
    for i in range(REFERENCE_STEPS):
        acc += Fraction(i % 7, 1 + i % 5)
        table[(i, i % 3)] = acc
    return acc


def reference_seconds() -> float:
    """Wall time of a fixed loop of rational arithmetic and tuple-keyed dict
    stores, the kind of work the package's inner loops do. Run once to warm
    up, then timed with the garbage collector paused."""
    _reference_loop()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Tally:
    """Outcome counts of a run: attempted and failed queries, failures and
    query time by slice, failures by class, and how many failed queries
    had a failure outside the known defects."""

    attempted: int = 0
    failed: int = 0
    slices: Counter = field(default_factory=Counter)
    slice_failed: Counter = field(default_factory=Counter)
    slice_seconds: Counter = field(default_factory=Counter)
    classes: Counter = field(default_factory=Counter)
    unexpected: int = 0
    first_error: str | None = None

    def add(self, q, seconds: float, failures: list[str]) -> None:
        self.attempted += 1
        self.slices[q.slice] += 1
        self.slice_seconds[q.slice] += seconds
        if failures:
            self.failed += 1
            self.slice_failed[q.slice] += 1
            self.classes.update(failures)
            if any((q.slice, f) not in oracle.KNOWN_DEFECTS for f in failures):
                self.unexpected += 1


class Checker:
    """Applies the correctness gate to each result. The definition-level
    oracle runs once per distinct result of a query; repeats of the same
    result reuse its verdict."""

    def __init__(self, ccg, workload, queries, expected):
        self.ccg = ccg
        self.workload = workload
        self.expected = expected
        self.deep: dict[str, tuple[str, list[str]]] = {}
        self.bad_input = set()
        for q in queries:
            want = expected.get(q.qid)
            digest = None if q.text is None else hashlib.sha256(q.text.encode()).hexdigest()
            if want is None or want["digest"] != digest or want["argv"] != list(q.argv):
                self.bad_input.add(q.qid)

    def check(self, q, code, stdout: str, error: str | None) -> list[str]:
        if error is not None:
            return ["crash"]
        if q.qid in self.bad_input:
            return ["input"]
        try:
            report = oracle.parse_report(stdout)
        except json.JSONDecodeError:
            return ["output"]
        failures = []
        if oracle.extract(self.workload, code, report) != self.expected[q.qid]["expect"]:
            failures.append("record")
        if report is not None:
            report.pop("timing", None)
            digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
            cached = self.deep.get(q.qid)
            if cached is None or cached[0] != digest:
                model = None if q.game is None else oracle.GameModel(self.ccg, q.game)
                cached = (digest, oracle.deep_check(self.workload, model, report))
                self.deep[q.qid] = cached
            failures += cached[1]
        return failures


def run_query(main, q):
    """One timed CLI call: (seconds, exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(q.argv))
        error = None
    except SystemExit as exc:
        code, error = exc.code, f"SystemExit({exc.code}): {err.getvalue().strip()}"
    except Exception:
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), error


@dataclass
class Samples:
    """Per-query wall seconds and reference units, and reference times."""

    seconds: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)
    output_bytes: int = 0


def send(ccg, q, checker, tally, samples):
    """Send one query between two reference loops, and check its result."""
    before = reference_seconds()
    seconds, code, stdout, error = run_query(ccg.cli.main, q)
    after = reference_seconds()
    samples.seconds.append(seconds)
    samples.refs.append(2 * seconds / (before + after))
    samples.reference += (before, after)
    samples.output_bytes += len(stdout.encode())
    tally.add(q, seconds, checker.check(q, code, stdout, error))
    if error is not None and tally.first_error is None:
        tally.first_error = f"{q.qid}: {error}"


def seeded_order(queries, order_rng):
    """The queries in a fresh seeded order. A full collection first makes
    every pass start from the same heap."""
    order = list(queries)
    order_rng.shuffle(order)
    gc.collect()
    return order


def run_pass(ccg, queries, order_rng, checker, tally, samples):
    """Send every query once, in a seeded order."""
    for q in seeded_order(queries, order_rng):
        send(ccg, q, checker, tally, samples)


def _ready_seconds(argv: list[str]) -> float:
    """Seconds from just before `argv` starts until it prints the monotonic
    clock."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout) - start


def measure_setup(workload: str, corpus_name: str) -> tuple[list[float], list[float]]:
    """Set-up time of a fresh interpreter, once per repeat, as (wall
    seconds, seconds at the nominal reference speed). A set-up runs from
    just before the interpreter starts until the corpus's first query is
    ready in it; it is scaled by the reference set-ups run just before and
    just after it."""
    reference = [sys.executable, "-c", REFERENCE_SETUP]
    before = _ready_seconds(reference)
    wall, scaled = [], []
    for k in range(SETUP_REPEATS):
        out = f"{WORK}/{workload}-setup{k}"
        seconds = _ready_seconds([sys.executable, str(BENCH / "corpus.py"), "--workload",
                                  workload, "--corpus", corpus_name, "--out", out])
        shutil.rmtree(ROOT / out, ignore_errors=True)
        after = _ready_seconds(reference)
        wall.append(seconds)
        scaled.append(seconds * REFERENCE_SETUP_NOMINAL_S * 2 / (before + after))
        before = after
    return wall, scaled


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@contextlib.contextmanager
def workspace(workload: str):
    """Run from the checkout root, and remove the game files afterwards."""
    os.chdir(ROOT)
    try:
        yield f"{WORK}/{workload}"
    finally:
        shutil.rmtree(ROOT / WORK / workload, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / WORK).rmdir()


def measure(workload, seed, seconds, corpus_name="default", limit=None, expected=None):
    """Timed run. Returns (tally, end-to-end metrics, samples, run info)."""
    with workspace(workload) as workdir:
        setup_wall, setup = measure_setup(workload, corpus_name)
        ccg = corpus.import_ccg()
        queries = corpus.build(ccg, workload, corpus_name, workdir)[:limit]
        corpus.write(queries)
        checker = Checker(ccg, workload, queries,
                          expected if expected is not None else load_expected(workload, corpus_name))
        tally, samples = Tally(), Samples()
        rng = random.Random(f"order:{seed}")
        passes = 0
        while passes == 0 or sum(samples.seconds) < seconds:
            run_pass(ccg, queries, rng, checker, tally, samples)
            passes += 1
    metrics = {
        "setup_s": statistics.median(setup),
        "queries_per_kref": 1000 * len(samples.refs) / sum(samples.refs),
        "query_ref.p50": statistics.median(samples.refs),
        "query_ref.p90": percentile(samples.refs, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, metrics, samples, dict(queries=queries, passes=passes, setup_wall=setup_wall)


def trace(workload, seed, corpus_name="default", limit=None):
    """Traced run: one pass that sends every query twice, traced and
    untraced in alternating order, then one tracemalloc pass. Returns
    (tally, per-layer metrics, run info)."""
    with workspace(workload) as workdir:
        ccg = corpus.import_ccg()
        tracer = spans.Tracer(ccg)
        tracer.install()
        try:
            queries = corpus.build(ccg, workload, corpus_name, workdir)[:limit]
        finally:
            tracer.uninstall()
        corpus.write(queries)
        checker = Checker(ccg, workload, queries, load_expected(workload, corpus_name))
        tally = Tally()
        rng = random.Random(f"order:{seed}")
        untraced, traced = Samples(), Samples()
        for i, q in enumerate(seeded_order(queries, rng)):
            for traced_now in (i % 2 == 0, i % 2 == 1):
                if not traced_now:
                    send(ccg, q, checker, tally, untraced)
                    continue
                tracer.install()
                try:
                    send(ccg, q, checker, tally, traced)
                finally:
                    tracer.uninstall()
        memory = spans.Tracer(ccg, memory=True)
        memory.install()
        tracemalloc.start()
        try:
            run_pass(ccg, queries, rng, checker, tally, Samples())
        finally:
            tracemalloc.stop()
            memory.uninstall()
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = traced.output_bytes
    metrics.update(memory.peak_kb())
    metrics["trace.overhead_ratio"] = sum(traced.seconds) / sum(untraced.seconds)
    info = dict(queries=queries, passes=3, traced=sum(traced.seconds),
                untraced=sum(untraced.seconds))
    return tally, metrics, info


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.metric_names() + ["trace.overhead_ratio"]:
        if name.endswith(".self_s"):
            units[name] = "s"
        elif name.endswith("_bytes"):
            units[name] = "B"
        elif name.endswith(".peak_kb"):
            units[name] = "KiB"
        elif name == "trace.overhead_ratio":
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


# ---------------------------------------------------------------------------
# Report


def cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((corpus.SRC / "ccg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def print_metadata(args, queries, passes, tally):
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    slices = ", ".join(f"{n} {s}" for s, n in sorted(Counter(q.slice for q in queries).items()))
    busy = ", ".join(f"{s} {t:.3f} s" for s, t in sorted(tally.slice_seconds.items()))
    print(f"# workload {args.workload}  seed {args.seed}  corpus {args.corpus}  trace {args.trace}")
    print(f"# python {platform.python_version()}  nproc {nproc}  cpu {cpu_model()}")
    print(f"# ccg commit {git_commit()}  src sha256 {source_digest()}")
    print(f"# queries {len(queries)} per pass ({slices}), {passes} passes, "
          f"{tally.attempted} attempted")
    print(f"# query time by slice: {busy}")


def print_end_to_end(metrics, samples, info):
    n = len(samples.seconds)
    beyond = n - math.ceil(0.9 * n)
    busy = sum(samples.seconds)
    wall = ", ".join(f"{s:.4f}" for s in info["setup_wall"])
    print(f"setup_s {metrics['setup_s']:.6f} s (at the nominal reference speed; median of "
          f"{SETUP_REPEATS} set-ups, wall seconds {wall})")
    print(f"queries_per_kref {metrics['queries_per_kref']:.4f} 1/kref ({n} queries)")
    print(f"query_ref.p50 {metrics['query_ref.p50']:.4f} ref (n={n})")
    print(f"query_ref.p90 {metrics['query_ref.p90']:.4f} ref (n={n}, {beyond} beyond)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.3f} MB (ru_maxrss of this process)")
    print(f"queries_per_s {n / busy:.3f} 1/s ({n} queries in {busy:.3f} s of query time)")
    print(f"query_ms.p50 {1000 * statistics.median(samples.seconds):.4f} ms (n={n})")
    print(f"query_ms.p90 {1000 * percentile(samples.seconds, 0.9):.4f} ms (n={n}, {beyond} beyond)")
    print(f"reference_ms.p50 {1000 * statistics.median(samples.reference):.4f} ms "
          f"(n={len(samples.reference)}; 1 ref is one reference loop)")


def print_failures(tally):
    per_slice = ", ".join(f"{s} {tally.slice_failed[s]}/{n}" for s, n in sorted(tally.slices.items()))
    print(f"failed_frac {tally.failed / tally.attempted:.6f} ratio ({tally.failed} failed / "
          f"{tally.attempted} attempted; by slice: {per_slice})")
    if tally.classes:
        classes = ", ".join(f"{c} {n}" for c, n in sorted(tally.classes.items()))
        print(f"# failure classes: {classes}; known defects {sorted(oracle.KNOWN_DEFECTS)}; "
              f"failed queries outside them: {tally.unexpected}")
    if tally.first_error:
        print("# first error: " + tally.first_error.strip().replace("\n", "\n# "))


def result_line(tally, metrics, units) -> str:
    return json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    results = {}
    code = 0
    for workload in corpus.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--corpus", args.corpus]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", choices=tuple(corpus.CORPUS_SEEDS), default="default",
                        help="'holdout' only to confirm a claim on inputs not used to make it")
    parser.add_argument("--limit", type=int, default=None,
                        help="use only the first N queries of the corpus (smoke tests)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        tally, metrics, info = trace(args.workload, args.seed, args.corpus, args.limit)
        units = per_layer_units()
        print_metadata(args, info["queries"], info["passes"], tally)
        print(f"# query wall time: traced {info['traced']:.3f} s, untraced {info['untraced']:.3f} s")
        for name, value in metrics.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{name} {shown} {units[name]}")
    else:
        tally, metrics, samples, info = measure(
            args.workload, args.seed, args.seconds, args.corpus, args.limit
        )
        units = END_TO_END_UNITS
        print_metadata(args, info["queries"], info["passes"], tally)
        print_end_to_end(metrics, samples, info)
    print_failures(tally)
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
