#!/usr/bin/env python3
"""The server entry point of the traced passes.

Same arguments and same ``repro.net.cluster.serve_forever`` as
``python -m repro serve``, but first installs the benchmark's wrappers
(``--mode spans``) or runs under ``cProfile`` (``--mode calls``), and on
SIGTERM writes what it recorded — spans, counters and the public counters
of the process it hosted — to ``--out``.  No code under ``src/`` knows this
file exists.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from e2ebench import stats, tracing  # noqa: E402
from e2ebench.load import transport_counters  # noqa: E402


def _public_counters(process) -> dict:
    """What the hosted process exposes: transport counters, node stats, WAL
    positions, and the event count of the pump."""
    wal_seq = 0
    for node in process.nodes.values():
        wal = getattr(node, "wal", None)
        if wal is not None:
            wal_seq += wal.seq
    return {
        "transport": transport_counters(process.transport),
        "node_stats": process.node_stats(),
        "wal_seq": wal_seq,
        "events_scheduled": process.env.events_scheduled,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["spans", "calls"], required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--wal-dir")
    args = parser.parse_args()

    from repro.fleet.spec import FLEET_SCHEMA, FleetSpec
    from repro.net import cluster
    from repro.net.spec import ClusterSpec

    with open(args.config, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    node_configs = None
    if data.get("schema") == FLEET_SCHEMA:
        fleet = FleetSpec.from_dict(data)
        spec = fleet.merged_spec()
        node_configs = fleet.node_configs()
    else:
        spec = ClusterSpec.from_dict(data)

    hosted = []
    original_init = cluster.LiveProcess.__init__

    def remembering_init(self, *init_args, **init_kwargs):
        original_init(self, *init_args, **init_kwargs)
        hosted.append(self)

    cluster.LiveProcess.__init__ = remembering_init

    recorder = tracing.SpanRecorder()
    profile = None
    if args.mode == "spans":
        tracing.install(recorder)
    else:
        profile = cProfile.Profile()
    if profile is not None:
        profile.enable()
    try:
        exit_code = asyncio.run(cluster.serve_forever(
            spec, None, wal_dir=args.wal_dir, node_configs=node_configs))
    finally:
        if profile is not None:
            profile.disable()
    recorder.uninstall()

    report = {"mode": args.mode,
              "counters": _public_counters(hosted[0]) if hosted else {}}
    if args.mode == "spans":
        report["spans"] = recorder.table()
        report["counts"] = recorder.counts
        report["raw_spans"] = recorder.raw()
        appends = sorted(recorder.durations("storage.wal", "WriteAheadLog.append"))
        report["wal_append_ns"] = (
            {"p50": stats.percentile(appends, 50),
             "p99": stats.percentile(appends, 99)} if appends else None)
    else:
        report["profile"] = tracing.fold_profile(profile)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
