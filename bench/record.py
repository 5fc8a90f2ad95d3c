"""Write the expected records of a corpus from the current program.

    python3 bench/record.py --corpus default|holdout

Records are the reference the correctness gate compares every run against,
so they are written once, from a program whose tests pass, and committed.
The definition-level oracle runs on every result first; a failure outside
the known defects stops the recording.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from collections import Counter

import corpus
import oracle
import run


def record(ccg, workload: str, corpus_name: str) -> dict:
    queries = corpus.build(ccg, workload, corpus_name, f"{run.WORK}/{workload}")
    corpus.write(queries)
    out = {}
    known = Counter()
    for q in queries:
        _, code, stdout, error = run.run_query(ccg.cli.main, q)
        if error is not None:
            raise SystemExit(f"{q.qid}: {error}")
        report = oracle.parse_report(stdout)
        model = None if q.game is None else oracle.GameModel(ccg, q.game)
        for failure in oracle.deep_check(workload, model, report):
            if (q.slice, failure) not in oracle.KNOWN_DEFECTS:
                raise SystemExit(f"{q.qid}: oracle failure {failure}")
            known[failure] += 1
        out[q.qid] = {
            "argv": list(q.argv),
            "digest": None if q.text is None else hashlib.sha256(q.text.encode()).hexdigest(),
            "slice": q.slice,
            "expect": oracle.extract(workload, code, report),
        }
    print(f"{corpus_name}/{workload}: {len(out)} records; known defects seen: {dict(known)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", choices=tuple(corpus.CORPUS_SEEDS), required=True)
    args = parser.parse_args(argv)
    ccg = corpus.import_ccg()

    target = run.EXPECTED / args.corpus
    target.mkdir(parents=True, exist_ok=True)
    try:
        for workload in corpus.WORKLOADS:
            queries = record(ccg, workload, args.corpus)
            text = json.dumps({"workload": workload, "corpus": args.corpus, "queries": queries},
                              indent=1, sort_keys=True)
            (target / f"{workload}.json").write_text(text + "\n")
    finally:
        shutil.rmtree(corpus.ROOT / run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
