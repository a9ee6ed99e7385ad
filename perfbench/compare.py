"""Compare benchmark result files written by run.py.

    python3 perfbench/compare.py RESULT.json [RESULT.json ...]

Files are grouped by workload and trace mode.  For each metric the table
gives the median over the group, the spread (distance between the first
and third quartiles as a share of the median) and, for a group of exactly
two files, the ratio second/first.  Results of the same workload and seed
whose output digests differ are flagged as changed output, and the exit
status is then 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from measure import quartile_spread


def load(paths):
    groups = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        d = record["detail"]
        groups.setdefault((d["workload"], d["trace"]), []).append((path, record))
    return groups


def changed_outputs(records):
    """(seed, [(path, digest), ...]) for every seed whose digests disagree."""
    by_seed = {}
    for path, record in records:
        by_seed.setdefault(record["detail"]["seed"], []).append((path, record["detail"]["digest"]))
    return [(seed, runs) for seed, runs in sorted(by_seed.items())
            if len({digest for _, digest in runs}) > 1]


def report(groups, out=sys.stdout) -> bool:
    """Print one table per group; False if any output changed."""
    same = True
    for (workload, trace), records in sorted(groups.items()):
        seeds = sorted({r["detail"]["seed"] for _, r in records})
        print(f"== {workload} trace={trace}: {len(records)} runs, seeds {seeds}", file=out)
        print(f"{'metric':44} {'median':>14} {'spread':>8} {'ratio':>8}", file=out)
        names = list(records[0][1]["result"]["metrics"])
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for _, r in records]
            median = statistics.median(values)
            spread = quartile_spread(values) if len(values) > 1 and median else None
            ratio = values[1] / values[0] if len(values) == 2 and values[0] else None
            unit = records[0][1]["result"]["metrics"][name]["unit"]
            print(f"{name + ' [' + unit + ']':44} {median:14.6g} "
                  f"{'' if spread is None else f'{spread:8.4f}':>8} "
                  f"{'' if ratio is None else f'{ratio:8.4f}':>8}", file=out)
        failed = sum(r["result"]["failed"] for _, r in records)
        attempted = sum(r["result"]["attempted"] for _, r in records)
        print(f"failed {failed} of {attempted} cases", file=out)
        for seed, runs in changed_outputs(records):
            same = False
            print(f"CHANGED OUTPUT at seed {seed}:", file=out)
            for path, digest in runs:
                print(f"  {digest}  {path}", file=out)
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", help="result files from .perfbench/results/")
    args = parser.parse_args(argv)
    return 0 if report(load(args.results)) else 1


if __name__ == "__main__":
    sys.exit(main())
