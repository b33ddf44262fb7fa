#!/usr/bin/env python3
"""Compare two trees on one workload, the way a later PR must.

    python3 benchmarks/e2e/compare.py --parent ../parent --change . \\
            --workload gryff-bare [--pairs 10] [--seed 100]
    python3 benchmarks/e2e/compare.py --aa [--workload all] [--pairs 10]

Runs at least ten parent/change pairs of ``run.py --trace 0`` with the same
seed and settings on both sides of a pair (pair ``i`` uses ``--seed
seed+i``), alternating which side goes first, and reports for every
end-to-end metric each side's median and quartiles and one verdict:

* ``improved``     the change wins >= 9/10 of the pairs and the medians
                   differ by more than the parent's inter-quartile range;
* ``within bound`` the change's median is no worse than the parent's by
                   more than the metric's bound;
* ``unresolved``   it is not worse by more than the bound, but a side's
                   run-to-run spread exceeds the bound, so "unchanged"
                   cannot be claimed;
* ``regressed``    the change's median is worse by more than the bound.

``--aa`` runs this tree against itself: every verdict must then be ``within
bound`` (the agreement criterion of the benchmark's own acceptance), and the
spreads it prints are the ones recorded beside the bounds in README.md.
Each tree runs its own copy of the benchmark (a change that claims a gain
may not edit it, so the two copies are identical); the bounds are this
tree's.  Exit code 1 if any metric regressed (or, with ``--aa``, is not
within its bound), 2 if a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from e2ebench import stats  # noqa: E402
from e2ebench.metrics import END_TO_END, RUN_SECONDS  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

_RUN_TIMEOUT_S = 300


def run_once(tree: str, workload: str, seed: int, seconds: float
             ) -> Dict[str, float]:
    """One ``run.py --trace 0`` in ``tree``; returns ``{metric: value}``."""
    script = os.path.join(tree, "benchmarks", "e2e", "run.py")
    completed = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=_RUN_TIMEOUT_S)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"run.py failed in {tree} (exit {completed.returncode}):\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"run.py in {tree}: correct={result['correct']}, "
                           f"failed={result['failed']}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent: str, change: str, workload: str, pairs: int, seed: int,
            seconds: float) -> Dict[str, Dict[str, object]]:
    sides: Dict[str, Dict[str, List[float]]] = {"parent": {}, "change": {}}
    trees = {"parent": parent, "change": change}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            values = run_once(trees[side], workload, seed + pair, seconds)
            for name, value in values.items():
                sides[side].setdefault(name, []).append(value)
        print(f"  {workload}: pair {pair + 1}/{pairs} done", file=sys.stderr)
    verdicts: Dict[str, Dict[str, object]] = {}
    for metric in END_TO_END:
        verdict = stats.judge(sides["parent"][metric.name],
                              sides["change"][metric.name],
                              metric.better, metric.bound)
        verdict.update(bound=metric.bound, unit=metric.unit,
                       parent=sides["parent"][metric.name],
                       change=sides["change"][metric.name])
        verdicts[metric.name] = verdict
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change "
                                         "(default: this tree)")
    parser.add_argument("--aa", action="store_true",
                        help="run this tree against itself")
    parser.add_argument("--workload", default=None,
                        help="a workload name, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--json", help="also write the verdicts here")
    args = parser.parse_args(argv)

    this_tree = os.path.dirname(os.path.dirname(BENCH_DIR))
    if args.aa:
        parent = change = this_tree
    elif args.parent:
        parent = os.path.abspath(args.parent)
        change = os.path.abspath(args.change) if args.change else this_tree
    else:
        parser.error("give --parent (and optionally --change), or --aa")
    if args.pairs < 10 and not args.aa:
        parser.error("a comparison needs at least 10 pairs")
    names = ([w.name for w in WORKLOADS] if args.workload in (None, "all")
             else [args.workload])
    if not args.aa and len(names) != 1:
        parser.error("compare one workload at a time (--workload NAME)")

    report: Dict[str, Dict] = {}
    worst = 0
    for name in names:
        try:
            verdicts = compare(parent, change, name, args.pairs, args.seed,
                               args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        report[name] = verdicts
        print(f"\n{name} — {args.pairs} pairs, seeds {args.seed}.."
              f"{args.seed + args.pairs - 1}, {args.seconds:g} s per run")
        print(f"  {'metric':<16}{'parent median [q1, q3]':<34}"
              f"{'change median [q1, q3]':<34}{'worse by':>9}{'bound':>7}"
              f"{'spread p/c':>14}  verdict")
        for metric, v in verdicts.items():
            print(f"  {metric:<16}{quartiles(v['parent']):<34}"
                  f"{quartiles(v['change']):<34}{v['worsening']:>+9.3f}"
                  f"{v['bound']:>7.2f}"
                  f"{v['parent_spread']:>7.3f}{v['change_spread']:>7.3f}"
                  f"  {v['verdict']} ({v['wins']}W/{v['losses']}L)")
            bad = (v["verdict"] != "within bound" if args.aa
                   else v["verdict"] == "regressed")
            worst = max(worst, 1 if bad else 0)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
