"""Tiny-size smoke test of the benchmark.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload on the first few queries of its corpus, untraced and
traced, and checks that every metric `BENCHMARK.json` names is printed with
its unit; then checks that a corrupted expected record is counted as a
failed query instead of passing silently.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[list[str], dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--seed", "3", "--seconds", "0.2",
            "--limit", "4", *args]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def assert_printed(self, lines, name, unit):
        self.assertTrue(
            any(line.startswith(f"{name} ") and line.split()[2] == unit for line in lines),
            f"{name} [{unit}] not printed",
        )

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in corpus.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = bench("--workload", workload, "--trace", trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assert_printed(lines, name, unit)
                    self.assert_printed(lines, "failed_frac", "ratio")
                    if trace == "0":
                        for name, unit in (("queries_per_s", "1/s"), ("query_ms.p50", "ms"),
                                           ("query_ms.p90", "ms")):
                            self.assert_printed(lines, name, unit)

    def test_corrupted_record_is_counted_as_failed(self):
        expected = copy.deepcopy(run.load_expected("enumerate", "default"))
        expected["enumerate/000"]["expect"]["count"] += 1
        tally, _, _, _ = run.measure("enumerate", 5, 0, limit=3, expected=expected)
        self.assertEqual(tally.attempted, 3)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(tally.classes["record"], 1)
        self.assertEqual(tally.unexpected, 1)


if __name__ == "__main__":
    unittest.main()
