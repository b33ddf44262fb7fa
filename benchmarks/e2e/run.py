#!/usr/bin/env python3
"""The live-cluster end-to-end benchmark.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke]

Boots the real program (``python -m repro serve``, one server subprocess
hosting every node), drives it from this process through the public client
API, prints every metric by name with its unit, checks the recorded history
against the declared consistency level, and writes ``out/result.json``.
With ``--trace 0`` it measures the end-to-end metrics (tracing off), with
``--trace 1`` the per-layer ledger; without ``--trace`` it does both.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
on any correctness failure.  It claims no gain; it is what gains are
measured with.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from e2ebench import metrics as catalogue  # noqa: E402
from e2ebench import workloads  # noqa: E402
from e2ebench.cluster import REPO_ROOT, SRC_DIR, pin_cores  # noqa: E402

OUT_DIR = os.path.join(BENCH_DIR, "out")
_SMOKE_SECONDS = 2


def _machine(pinning: str) -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "kernel": platform.release(), "machine": platform.machine(),
            "pinning": pinning}


def _print_table(title: str, rows: list) -> None:
    print(f"\n{title}")
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def _write_manifest() -> int:
    path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    manifest = catalogue.manifest(
        [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all (default)"
                        % ", ".join(w.name for w in workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the workload generators and arrivals")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures (default %d)"
                        % catalogue.RUN_SECONDS)
    parser.add_argument("--trace", choices=["0", "1"], default=None,
                        help="0 = end-to-end metrics, 1 = per-layer metrics "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"a {_SMOKE_SECONDS}-second run: checks the "
                             f"plumbing, the numbers mean little")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from the catalogue")
    args = parser.parse_args(argv)
    if args.write_manifest:
        return _write_manifest()

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"the program under test is missing: no {SRC_DIR}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from e2ebench import runs

    try:
        selected = (workloads.WORKLOADS if args.workload == "all"
                    else [workloads.by_name(args.workload)])
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (
        _SMOKE_SECONDS if args.smoke else catalogue.RUN_SECONDS)
    traces = [args.trace] if args.trace is not None else ["0", "1"]

    server_core, _, pinning = pin_cores()
    # Full collections of this (load) process happen between phases, not
    # inside them; young collections stay on.  See README, "the load process".
    gc.set_threshold(700, 10, 10**9)
    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    started = time.time()
    print(f"e2e benchmark: seed {args.seed}, {seconds:g} s measured per run, "
          f"{pinning}")

    flat: dict = {}
    result: dict = {"seed": args.seed, "seconds": seconds,
                    "machine": _machine(pinning), "workloads": {}}
    failures: list = []
    attempted = failed = 0
    units = {m.name: m.unit for m in catalogue.END_TO_END + catalogue.PER_LAYER}
    try:
        for workload in selected:
            entry = result["workloads"].setdefault(workload.name, {})
            for trace in traces:
                if trace == "0":
                    values, detail = runs.end_to_end(
                        workload, args.seed, seconds, run_dir, server_core)
                    title = f"{workload.name}: end-to-end metrics (tracing off)"
                else:
                    values, detail = runs.per_layer(
                        workload, args.seed, seconds, run_dir, server_core,
                        OUT_DIR)
                    title = f"{workload.name}: per-layer metrics"
                failures.extend(detail["failures"])
                attempted += detail.get("attempted", 0)
                failed += detail.get("failed", 0)
                entry["end_to_end" if trace == "0" else "per_layer"] = {
                    "metrics": values, "detail": detail}
                _print_table(title, [(name, value, units[name])
                                     for name, value in values.items()])
                prefix = "" if len(selected) == 1 and len(traces) == 1 else (
                    f"{workload.name}/")
                flat.update({prefix + name: {"value": value, "unit": units[name]}
                             for name, value in values.items()})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result["failures"] = failures
    result["wall_s"] = time.time() - started
    with open(os.path.join(OUT_DIR, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, default=str)
    print(f"\nfailed_frac {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted} offered operations), "
          f"{result['wall_s']:.1f} s wall")
    for failure in failures:
        print(f"FAILURE: {failure}")
    correct = not failures and bool(flat)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": flat}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
