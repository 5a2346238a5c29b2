#!/usr/bin/env python3
"""Prints every end-to-end and per-layer metric of every workload by name,
with its unit, reported value, sample count, median and quartiles, then renders the same
figures as a markdown results table (also written to
.fcadbench/BENCHMARK_RESULTS.md):

    python3 fcadbench/report.py --seconds 20 --seed 0
"""

import argparse
import os
import sys

import run as bench


def table(rows, stamp):
    lines = [
        "# fcadbench results",
        "",
        f"nproc {stamp['nproc']} · commit `{stamp['commit']}` · {stamp['rustc']}",
        "",
        "| Workload | Metric | Unit | Value | Samples | Median | Q1 | Q3 | Correct |",
        "|----------|--------|------|-------|---------|--------|----|----|---------|",
    ]
    for workload, name, stats, correct in rows:
        lines.append(
            f"| {workload} | {name} | {stats['unit']} | {stats['value']:.6g} | {stats['n']} | {stats['median']:.6g} "
            f"| {stats['q1']:.6g} | {stats['q3']:.6g} | {'yes' if correct else 'NO'} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rows, stamp = [], None
    try:
        for workload in bench.VARIANTS:
            for trace in (0, 1):
                result, detail = bench.run(workload, args.seed, args.seconds, trace)
                stamp = detail["stamp"]
                print(f"{workload} trace={trace}: {detail['samples']} samples, "
                      f"{result['failed']}/{result['attempted']} operations failed")
                for name, stats in detail["stats"].items():
                    print(f"  {name:<26} {stats['unit']:<6} value={stats['value']:<12.6g} n={stats['n']:<3} "
                          f"median={stats['median']:<12.6g} "
                          f"q1={stats['q1']:<12.6g} q3={stats['q3']:.6g}")
                    rows.append((workload, name, stats, result["correct"]))
    except bench.BenchError as err:
        print(f"fcadbench: {err}", file=sys.stderr)
        return 1
    markdown = table(rows, stamp)
    os.makedirs(bench.STATE_DIR, exist_ok=True)
    with open(os.path.join(bench.STATE_DIR, "BENCHMARK_RESULTS.md"), "w", encoding="utf-8") as handle:
        handle.write(markdown)
    print()
    print(markdown, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
