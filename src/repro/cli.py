"""Command-line interface for the reproduction.

Every table and figure of the paper can be regenerated from the command line:

.. code-block:: console

   $ python -m repro table1
   $ python -m repro appendix-a
   $ python -m repro figure5 --skew 0.7 --duration-ms 30000
   $ python -m repro figure6 --clients 4 16 48
   $ python -m repro figure7 --conflict-rate 0.10
   $ python -m repro overhead
   $ python -m repro anomalies

Each subcommand prints the corresponding plain-text table; ``--json FILE``
additionally writes the raw rows to a JSON file so results can be archived or
plotted elsewhere.

The live cluster runtime (real asyncio TCP instead of the simulator) is
driven by five further subcommands:

.. code-block:: console

   $ python -m repro init-config --protocol gryff-rsc --replicas 3 --out cluster.json
   $ python -m repro serve --config cluster.json --metrics-port 9100
   $ python -m repro load --config cluster.json --clients 4 --duration-ms 2000 \
       --level rsc --trace trace.jsonl
   $ python -m repro live-check trace.jsonl
   $ python -m repro monitor trace.jsonl --metrics-port 9101   # correctness sidecar

``serve --metrics-port`` exposes each node's counters at ``/metrics``
(Prometheus text format); ``monitor`` tails a growing trace, validates
every quiescent epoch, and exits non-zero with a structured alert record
on the first violation outside a declared fault window.

``load`` drives the cluster through the unified client API
(:mod:`repro.api`): ``--level`` declares the consistency level sessions are
opened at — capability negotiation fails fast (exit 2) when the cluster's
protocol cannot honor it, and the inline checker validates the declared
level's model.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import Any, Dict, List, Optional

from repro.bench.anomalies import (
    spanner_completed_write_misses,
    spanner_in_flight_miss_windows,
)
from repro.bench.appendix_a import appendix_a_report
from repro.bench.gryff_experiments import figure7_experiment, overhead_experiment
from repro.bench.perfsuite import attach_baseline, perf_report_rows, run_perf_suite
from repro.bench.reporting import format_table, write_json_report
from repro.bench.spanner_experiments import (
    figure5_experiment,
    figure6_experiment,
    run_retwis_experiment,
)
from repro.bench.table1 import table1_report
from repro.spanner.config import Variant

__all__ = ["main", "build_parser"]


def _write_json(path: Optional[str], payload: Any) -> None:
    if not path:
        return
    write_json_report(path, payload)


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _sweep_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """The orchestration arguments shared by every sweep subcommand."""
    return {
        "jobs": args.jobs,
        "resume": args.resume,
        "cache_dir": args.cache_dir,
    }


def cmd_table1(args: argparse.Namespace) -> int:
    report = table1_report(**_sweep_kwargs(args))
    print(report["text"])
    _write_json(args.json, report["computed"])
    return 0 if all(report["matches"].values()) else 1


def cmd_appendix_a(args: argparse.Namespace) -> int:
    report = appendix_a_report(**_sweep_kwargs(args))
    print(report["text"])
    _write_json(args.json, report["details"])
    return 0 if not report["mismatches"] else 1


def cmd_figure5(args: argparse.Namespace) -> int:
    outcome = figure5_experiment(
        args.skew,
        duration_ms=args.duration_ms,
        clients_per_site=args.clients_per_site,
        session_arrival_rate_per_sec=args.arrival_rate,
        num_keys=args.num_keys,
        seed=args.seed,
        **_sweep_kwargs(args),
    )
    print(format_table(
        ["percentile", "Spanner (ms)", "Spanner-RSS (ms)", "reduction (%)"],
        [[f"p{row['fraction'] * 100:g}", row["spanner_ms"], row["spanner_rss_ms"],
          row["reduction_pct"]] for row in outcome["rows"]],
        title=f"Figure 5 — Retwis read-only tail latency, skew {args.skew}",
    ))
    _write_json(args.json, outcome["rows"])
    return 0


def cmd_figure6(args: argparse.Namespace) -> int:
    rows = figure6_experiment(client_counts=tuple(args.clients),
                              duration_ms=args.duration_ms,
                              **_sweep_kwargs(args))
    print(format_table(
        ["clients", "Spanner tput", "Spanner p50 (ms)", "Spanner-RSS tput",
         "Spanner-RSS p50 (ms)"],
        [[row["clients"], row["spanner_throughput"], row["spanner_overall_p50_ms"],
          row["spanner_rss_throughput"], row["spanner_rss_overall_p50_ms"]]
         for row in rows],
        title="Figure 6 — throughput vs median latency under high load",
    ))
    _write_json(args.json, rows)
    return 0


def cmd_figure7(args: argparse.Namespace) -> int:
    rows = figure7_experiment(
        args.conflict_rate, write_ratios=tuple(args.write_ratios),
        duration_ms=args.duration_ms, seed=args.seed,
        **_sweep_kwargs(args),
    )
    print(format_table(
        ["write ratio", "Gryff p99 (ms)", "Gryff-RSC p99 (ms)", "reduction (%)"],
        [[row["write_ratio"], row["gryff_p99_ms"], row["gryff_rsc_p99_ms"],
          row["reduction_pct"]] for row in rows],
        title=f"Figure 7 — YCSB p99 read latency, {args.conflict_rate * 100:g}% conflicts",
    ))
    _write_json(args.json, rows)
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    rows = overhead_experiment(duration_ms=args.duration_ms,
                               **_sweep_kwargs(args))
    print(format_table(
        ["write ratio", "Gryff tput", "Gryff p50 (ms)", "Gryff-RSC tput",
         "Gryff-RSC p50 (ms)", "tput delta (%)"],
        [[row["write_ratio"], row["gryff_throughput"], row["gryff_p50_ms"],
          row["gryff_rsc_throughput"], row["gryff_rsc_p50_ms"],
          row["throughput_delta_pct"]] for row in rows],
        title="§7.4 — Gryff-RSC overhead",
    ))
    _write_json(args.json, rows)
    return 0


def cmd_anomalies(args: argparse.Namespace) -> int:
    result = run_retwis_experiment(
        Variant.SPANNER_RSS, zipf_skew=args.skew, duration_ms=args.duration_ms,
        clients_per_site=args.clients_per_site,
        session_arrival_rate_per_sec=args.arrival_rate, num_keys=args.num_keys,
        seed=args.seed, record_history=True, check_consistency=True,
    )
    report = spanner_in_flight_miss_windows(result.history)
    misses = spanner_completed_write_misses(result.history)
    rows = report.summary_rows() + [
        ["completed conflicting writes missed (A2)", misses],
        ["history satisfies RSS", result.consistency_ok],
    ]
    print(format_table(["metric", "value"], rows,
                       title="Anomaly windows under Spanner-RSS"))
    _write_json(args.json, {"max_window_ms": report.max_window_ms,
                            "in_flight_misses": report.misses,
                            "completed_misses": misses})
    return 0 if (misses == 0 and bool(result.consistency_ok)) else 1


def cmd_perf(args: argparse.Namespace) -> int:
    payload = attach_baseline(run_perf_suite(args.scale, jobs=args.jobs),
                              baseline_path=args.baseline)
    print(format_table(
        ["metric", "value"], perf_report_rows(payload),
        title=f"Performance suite — scale {args.scale}",
    ))
    if args.json:
        write_json_report(args.json, payload)
    return 0


# --------------------------------------------------------------------------- #
# Live cluster subcommands
# --------------------------------------------------------------------------- #
def _load_topology(path: str):
    """Load a topology file: a ``repro-cluster/1`` :class:`ClusterSpec` or a
    ``repro-fleet/1`` :class:`FleetSpec`, dispatched on the schema header."""
    import json

    from repro.fleet.spec import FLEET_SCHEMA, FleetSpec
    from repro.net.spec import ClusterSpec

    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") == FLEET_SCHEMA:
        return FleetSpec.from_dict(data)
    return ClusterSpec.from_dict(data)


def cmd_init_config(args: argparse.Namespace) -> int:
    from repro.net.spec import ClusterSpec

    if args.groups > 1:
        from repro.fleet.spec import FleetSpec

        is_gryff = args.protocol in ("gryff", "gryff-rsc")
        params = None if is_gryff else {"truetime_epsilon_ms": args.epsilon_ms}
        spec = FleetSpec.build(
            protocol=args.protocol, num_groups=args.groups,
            nodes_per_group=args.replicas if is_gryff else args.shards,
            host=args.host, base_port=args.base_port,
            placement_seed=args.placement_seed, params=params)
        spec.save(args.out)
        print(f"wrote {args.out}: {args.protocol} fleet with "
              f"{args.groups} group(s) x {spec.group_size} node(s) on "
              f"{args.host}:{args.base_port}+")
        return 0
    if args.protocol in ("gryff", "gryff-rsc"):
        spec = ClusterSpec.gryff(num_replicas=args.replicas, host=args.host,
                                 base_port=args.base_port, variant=args.protocol)
    else:
        spec = ClusterSpec.spanner(num_shards=args.shards, host=args.host,
                                   base_port=args.base_port, variant=args.protocol,
                                   params={"truetime_epsilon_ms": args.epsilon_ms})
    spec.save(args.out)
    print(f"wrote {args.out}: {args.protocol} with "
          f"{len(spec.nodes)} node(s) on {args.host}:{args.base_port}+")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.fleet.spec import FleetSpec
    from repro.net.cluster import serve_forever

    topology = _load_topology(args.config)
    if isinstance(topology, FleetSpec):
        host_nodes = None
        if args.group:
            unknown = [gid for gid in args.group
                       if gid not in topology.groups]
            if unknown:
                print(f"unknown group(s) {unknown}; this fleet has "
                      f"{topology.group_ids()}", file=sys.stderr)
                return 2
            host_nodes = [name for gid in args.group
                          for name in topology.group_names(gid)]
        if args.node:
            host_nodes = [args.node]
        return asyncio.run(serve_forever(
            topology.merged_spec(), host_nodes, wal_dir=args.wal_dir,
            metrics_port=args.metrics_port, codec=args.codec,
            node_configs=topology.node_configs()))
    if args.group:
        print("--group requires a fleet topology "
              "(repro init-config --groups N)", file=sys.stderr)
        return 2
    host_nodes = [args.node] if args.node else None
    return asyncio.run(serve_forever(topology, host_nodes,
                                     wal_dir=args.wal_dir,
                                     metrics_port=args.metrics_port,
                                     codec=args.codec))


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import all_scenarios, get_scenario, run_scenario

    if args.list:
        rows = [[s.name, s.protocol,
                 "clean" if s.expect_clean else "windowed", s.description]
                for s in all_scenarios().values()]
        print(format_table(["scenario", "protocol", "oracle", "description"],
                           rows, title="Chaos scenarios"))
        return 0
    if not args.scenario:
        print("--scenario NAME is required (or --list)", file=sys.stderr)
        return 2
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    backends = (list(scenario.backends) if args.backend == "both"
                else [args.backend or scenario.backends[0]])
    if backends[0] not in scenario.backends:
        print(f"scenario {scenario.name!r} cannot run on the {backends[0]} "
              f"backend: its {scenario.num_groups} shard groups need fleet "
              f"routing, which only the live backend has (--backend live)",
              file=sys.stderr)
        return 2
    reports = []
    for backend in backends:
        # Each backend gets its own subdirectory so `--backend both` does
        # not overwrite the first trace with the second.
        trace_dir = args.trace_dir and (
            args.trace_dir if len(backends) == 1
            else os.path.join(args.trace_dir, backend))
        report = run_scenario(scenario, backend=backend,
                              trace_dir=trace_dir)
        reports.append(report)
        print(report.describe())
    _write_json(args.json, [report.to_dict() for report in reports])
    return 0 if all(report.ok for report in reports) else 1


def cmd_load(args: argparse.Namespace) -> int:
    from repro.api.errors import CapabilityError
    from repro.net.load import load_main

    spec = _load_topology(args.config)
    migrations = None
    if args.migrate:
        from repro.fleet.migration import MigrationPlan

        try:
            migrations = [MigrationPlan.parse(text) for text in args.migrate]
        except ValueError as exc:
            print(f"cannot run load: {exc}", file=sys.stderr)
            return 2
    on_verdict = (lambda verdict: print(verdict.describe(), flush=True)) \
        if args.check_inline else None
    metrics = None
    if args.json or args.metrics_port is not None:
        from repro.obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
    try:
        summary = load_main(
            spec,
            num_clients=args.clients,
            duration_ms=None if args.ops_per_client else args.duration_ms,
            ops_per_client=args.ops_per_client,
            workload=args.workload,
            write_ratio=args.write_ratio,
            conflict_rate=args.conflict_rate,
            num_keys=args.num_keys,
            seed=args.seed,
            trace_path=args.trace,
            client_prefix=args.client_prefix,
            think_time_ms=args.think_time_ms,
            level=args.level,
            check_inline=args.check_inline,
            check_min_epoch_ops=args.min_epoch_ops,
            on_verdict=on_verdict,
            trace_flush_every=args.trace_flush_every,
            trace_fsync=args.trace_fsync,
            trace_rotate_bytes=args.trace_rotate_bytes,
            metrics=metrics,
            metrics_port=args.metrics_port,
            codec=args.codec,
            rate=args.rate,
            arrival=args.arrival,
            migrations=migrations,
            migration_journal=args.migration_journal,
        )
    except (CapabilityError, ValueError) as exc:
        print(f"cannot run load: {exc}", file=sys.stderr)
        return 2
    rows = [["declared level", summary["level"]],
            ["wire codec", summary["codec"]],
            ["ops completed", summary["ops"]],
            ["duration (ms)", round(summary["duration_ms"], 1)],
            ["throughput (ops/s)", round(summary["throughput_ops_per_s"], 1)]]
    open_loop = summary.get("open_loop")
    if open_loop:
        rows.append(["requested rate (ops/s)",
                     round(open_loop["requested_rate_per_s"], 1)])
        achieved = open_loop["achieved_rate_per_s"]
        rows.append(["achieved rate (ops/s)",
                     round(achieved, 1) if achieved is not None else "n/a"])
        rows.append(["arrival schedule", open_loop["arrival"]])
        rows.append(["backlog peak", open_loop["backlog_peak"]])
        if open_loop["abandoned"]:
            rows.append(["abandoned arrivals", open_loop["abandoned"]])
    for category, percentiles in sorted(summary["categories"].items()):
        label = f"{category} (response)" if open_loop else category
        rows.append([f"{label} p50 (ms)", round(percentiles["p50"], 3)])
        rows.append([f"{label} p99 (ms)", round(percentiles["p99"], 3)])
    migration = summary.get("migration")
    if migration:
        rows.append(["migrations", len(migration["migrations"])])
        rows.append(["placement epoch", migration["placement_epoch"]])
        for entry in migration["migrations"]:
            rows.append([f"{entry['mig_id']} ({entry['plan']})",
                         f"pause {entry['pause_ms']:.1f} ms, "
                         f"{entry['keys_copied']} key(s) copied"])
        rows.append(["migration crashed", migration["crashed"]])
    check = summary.get("check")
    if check:
        rows.append(["inline check", "SATISFIED" if check["satisfied"]
                     else f"VIOLATED ({check['first_violation']})"])
        rows.append(["inline epochs", check["epochs"]])
        rows.append(["inline peak epoch ops", check["max_segment_ops"]])
    print(format_table(["metric", "value"], rows,
                       title=f"Live load — {summary['protocol']} / "
                             f"{summary['workload']}"))
    if args.trace:
        print(f"trace written to {args.trace}")
    _write_json(args.json, summary)
    if summary["ops"] <= 0:
        return 1
    if check and not check["satisfied"]:
        return 1
    if migration and migration["crashed"]:
        return 1
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs.monitor import run_monitor

    windows: List[Any] = []
    if args.scenario:
        from repro.chaos import get_scenario

        try:
            scenario = get_scenario(args.scenario)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        windows.extend(scenario.fault_windows())
    for spec in args.fault_window or []:
        try:
            start_text, _, end_text = spec.partition(":")
            windows.append((float(start_text), float(end_text)))
        except ValueError:
            print(f"bad --fault-window {spec!r}; expected START_MS:END_MS",
                  file=sys.stderr)
            return 2
    try:
        report = run_monitor(
            args.trace,
            protocol=args.protocol,
            model=args.model,
            min_epoch_ops=args.min_epoch_ops,
            poll_interval=args.poll_interval,
            max_poll_interval=args.max_poll_interval,
            idle_timeout=args.idle_timeout,
            fault_windows=windows,
            metrics_port=args.metrics_port,
            alert_path=args.alert_file,
            on_verdict=lambda verdict: print(verdict.describe(), flush=True),
        )
    except ValueError as exc:
        print(f"cannot monitor trace: {exc}", file=sys.stderr)
        return 2
    if report.exit_code == 2:
        print(f"no usable records at {report.trace} (missing protocol "
              f"header?)", file=sys.stderr)
        return 2
    verdict = "CLEAN" if report.alert is None else (
        f"ALERT (epoch {report.alert['epoch']['index']}: "
        f"{report.alert['epoch']['reason']})")
    print(f"monitor {report.trace}: {report.ops_checked} ops in "
          f"{report.epochs} epoch(s), {len(report.violations)} violation(s) "
          f"({len(report.violations_outside_windows)} outside fault windows) "
          f"— {report.model}: {verdict}"
          + (" [interrupted]" if report.interrupted else ""))
    _write_json(args.json, report.to_dict())
    return report.exit_code


def cmd_live_check(args: argparse.Namespace) -> int:
    from repro.net.check import TraceCheck

    check = TraceCheck(
        args.protocol, args.model, min_epoch_ops=args.min_epoch_ops,
        on_verdict=lambda verdict: print(verdict.describe(), flush=True))
    try:
        if args.follow:
            report = check.follow(args.trace,
                                  poll_interval=args.poll_interval,
                                  idle_timeout=args.idle_timeout)
        else:
            report = check.batch(args.trace)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot check trace: {exc}", file=sys.stderr)
        return 2
    if report.model is None:
        if args.follow and not report.records:
            print(f"no records found at {report.trace}", file=sys.stderr)
        else:
            print("trace has no protocol header; pass --protocol",
                  file=sys.stderr)
        return 2
    payload = report.to_dict()
    if args.follow:
        print(f"live-check --follow {report.trace}: {report.ops_checked} ops "
              f"in {report.epochs} epoch(s), peak epoch "
              f"{report.max_segment_ops} ops — {report.model}: "
              f"{report.verdict_text()}"
              + (" [interrupted]" if report.interrupted else ""))
    else:
        payload["complete"] = len(check.history.complete())
        payload["processes"] = len(check.history.processes())
        print(f"live-check {report.trace}: {report.ops_checked} ops from "
              f"{payload['processes']} process(es) — {report.model}: "
              f"{report.verdict_text()}")
    _write_json(args.json, payload)
    return 0 if report.satisfied else 1


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the RSS/RSC paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--json", help="also write raw rows to this JSON file")
        sub.add_argument("--seed", type=int, default=3)

    def add_sweep(sub: argparse.ArgumentParser,
                  default_jobs: Optional[int] = None) -> None:
        default_help = ("all cores" if default_jobs is None
                        else str(default_jobs))
        sub.add_argument(
            "--jobs", type=int, default=default_jobs,
            help=f"worker processes for the trial grid (default: "
                 f"{default_help}; 1 = serial, bit-identical output)")
        sub.add_argument(
            "--resume", action="store_true",
            help="reuse cached trial results and cache new ones, so an "
                 "interrupted sweep continues where it stopped")
        sub.add_argument(
            "--cache-dir",
            help="trial-result cache location (default: $REPRO_CACHE_DIR "
                 "or .repro_cache); implies --resume")

    table1 = subparsers.add_parser("table1", help="Table 1 (invariants/anomalies)")
    add_common(table1)
    add_sweep(table1, default_jobs=1)
    table1.set_defaults(func=cmd_table1)

    appendix = subparsers.add_parser("appendix-a", help="Appendix A model comparison")
    add_common(appendix)
    add_sweep(appendix, default_jobs=1)
    appendix.set_defaults(func=cmd_appendix_a)

    figure5 = subparsers.add_parser("figure5", help="Figure 5 (Spanner RO tail latency)")
    add_common(figure5)
    add_sweep(figure5)
    figure5.add_argument("--skew", type=float, default=0.7)
    figure5.add_argument("--duration-ms", type=float, default=30_000.0)
    figure5.add_argument("--clients-per-site", type=int, default=6)
    figure5.add_argument("--arrival-rate", type=float, default=2.0)
    figure5.add_argument("--num-keys", type=int, default=2_000)
    figure5.set_defaults(func=cmd_figure5)

    figure6 = subparsers.add_parser("figure6", help="Figure 6 (throughput vs latency)")
    add_common(figure6)
    add_sweep(figure6)
    figure6.add_argument("--clients", type=int, nargs="+", default=[4, 16, 48])
    figure6.add_argument("--duration-ms", type=float, default=1_000.0)
    figure6.set_defaults(func=cmd_figure6)

    figure7 = subparsers.add_parser("figure7", help="Figure 7 (Gryff p99 read latency)")
    add_common(figure7)
    add_sweep(figure7)
    figure7.add_argument("--conflict-rate", type=float, default=0.10)
    figure7.add_argument("--write-ratios", type=float, nargs="+",
                         default=[0.1, 0.3, 0.5, 0.7, 0.9])
    figure7.add_argument("--duration-ms", type=float, default=30_000.0)
    figure7.set_defaults(func=cmd_figure7)

    overhead = subparsers.add_parser("overhead", help="§7.4 (Gryff-RSC overhead)")
    add_common(overhead)
    add_sweep(overhead)
    overhead.add_argument("--duration-ms", type=float, default=2_000.0)
    overhead.set_defaults(func=cmd_overhead)

    anomalies = subparsers.add_parser("anomalies",
                                      help="extension: anomaly-window measurement")
    add_common(anomalies)
    anomalies.add_argument("--skew", type=float, default=0.9)
    anomalies.add_argument("--duration-ms", type=float, default=10_000.0)
    anomalies.add_argument("--clients-per-site", type=int, default=3)
    anomalies.add_argument("--arrival-rate", type=float, default=2.0)
    anomalies.add_argument("--num-keys", type=int, default=500)
    anomalies.set_defaults(func=cmd_anomalies)

    perf = subparsers.add_parser(
        "perf", help="checker/sim hot-path performance suite (BENCH_perf.json)")
    perf.add_argument("--scale", choices=["quick", "full"], default="quick")
    perf.add_argument("--jobs", type=int, default=None,
                      help="worker processes for the sweep wall-clock section "
                           "(default: all cores)")
    perf.add_argument("--json", help="write the perf payload to this JSON file")
    perf.add_argument("--baseline",
                      help="seed baseline JSON to compare against "
                           "(default: benchmarks/BENCH_seed_baseline.json)")
    perf.set_defaults(func=cmd_perf)

    init_config = subparsers.add_parser(
        "init-config", help="write a live-cluster topology file")
    init_config.add_argument("--protocol", default="gryff-rsc",
                             choices=["gryff", "gryff-rsc", "spanner", "spanner-rss"])
    init_config.add_argument("--replicas", type=int, default=3,
                             help="Gryff replica count (default 3)")
    init_config.add_argument("--shards", type=int, default=2,
                             help="Spanner shard count (default 2)")
    init_config.add_argument("--host", default="127.0.0.1")
    init_config.add_argument("--base-port", type=int, default=7400,
                             help="first listen port; node i uses base+i")
    init_config.add_argument("--epsilon-ms", type=float, default=10.0,
                             help="TrueTime uncertainty for Spanner clusters")
    init_config.add_argument("--groups", type=int, default=1,
                             help="shard groups; >1 writes a repro-fleet/1 "
                                  "fleet topology (N groups of --replicas/"
                                  "--shards nodes behind a consistent-hash "
                                  "placement map)")
    init_config.add_argument("--placement-seed", type=int, default=0,
                             help="seed of the fleet's consistent-hash ring "
                                  "(deterministic placement; default 0)")
    init_config.add_argument("--out", default="cluster.json")
    init_config.set_defaults(func=cmd_init_config)

    serve = subparsers.add_parser(
        "serve", help="run live cluster server nodes over asyncio TCP")
    serve.add_argument("--config", required=True,
                       help="cluster or fleet spec JSON")
    serve.add_argument("--node",
                       help="host only this node (one process per node); "
                            "default: every server node as asyncio tasks")
    serve.add_argument("--group", action="append",
                       help="host every node of this shard group (fleet "
                            "topologies; repeatable — one process can serve "
                            "any subset of groups)")
    serve.add_argument("--wal-dir",
                       help="write-ahead-log directory: hosted nodes log "
                            "durably to <dir>/<node>.wal and recover from "
                            "it on restart")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve Prometheus metrics for this process at "
                            "http://127.0.0.1:PORT/metrics (0 = ephemeral "
                            "port, announced in the ready message)")
    serve.add_argument("--codec", default="binary",
                       choices=["binary", "json"],
                       help="wire format for connections this process "
                            "initiates (binary = wire v2, the default; "
                            "json = the nc-able v1 debug format); inbound "
                            "connections are served in whichever codec the "
                            "peer speaks")
    serve.set_defaults(func=cmd_serve)

    chaos = subparsers.add_parser(
        "chaos", help="fault-injection scenarios with checker-verified "
                      "guarantees (crash/partition/skew + WAL recovery)")
    chaos.add_argument("--scenario", help="scenario name (see --list)")
    chaos.add_argument("--backend", choices=["sim", "live", "both"],
                       help="simulated cluster, live asyncio TCP cluster, "
                            "or every backend the scenario supports in "
                            "sequence (default: its first — sim, unless "
                            "the scenario is live-only)")
    chaos.add_argument("--list", action="store_true",
                       help="list the scenario catalog and exit")
    chaos.add_argument("--trace-dir",
                       help="keep the JSONL trace and per-node WALs here "
                            "(default: a fresh temporary directory)")
    chaos.add_argument("--json", help="also write the report(s) to this "
                                      "JSON file")
    chaos.set_defaults(func=cmd_chaos)

    load = subparsers.add_parser(
        "load", help="drive a live cluster and capture a history trace")
    load.add_argument("--config", required=True,
                      help="cluster or fleet spec JSON")
    load.add_argument("--clients", type=int, default=4)
    load.add_argument("--duration-ms", type=float, default=2_000.0)
    load.add_argument("--ops-per-client", type=int, default=None,
                      help="stop after N ops per client instead of a duration")
    load.add_argument("--workload", default="ycsb", choices=["ycsb", "retwis"])
    load.add_argument("--write-ratio", type=float, default=0.5)
    load.add_argument("--conflict-rate", type=float, default=0.10)
    load.add_argument("--num-keys", type=int, default=1_000)
    load.add_argument("--seed", type=int, default=1)
    load.add_argument("--trace", help="write the live history to this JSONL file")
    load.add_argument("--level",
                      choices=["rsc", "rss", "lin", "strict_ser"],
                      help="declared consistency level for the sessions "
                           "(default: the protocol's native level); "
                           "negotiation fails fast if the cluster cannot "
                           "honor it, and --check-inline validates this "
                           "level's model")
    load.add_argument("--client-prefix", default="client",
                      help="client name prefix (make unique across "
                           "concurrent load processes)")
    load.add_argument("--think-time-ms", type=float, default=0.0,
                      help="client think time between operations; closed "
                           "loops with zero think time never quiesce, so "
                           "give the streaming checker a few ms of gaps "
                           "for epoch cuts to form")
    load.add_argument("--check-inline", action="store_true",
                      help="validate each quiescent epoch with the streaming "
                           "checker while the load runs (exit 1 on violation)")
    load.add_argument("--min-epoch-ops", type=int, default=64,
                      help="cut an epoch at the first quiescent frontier "
                           "with at least this many ops (default 64)")
    load.add_argument("--trace-flush-every", type=int, default=1,
                      help="flush the trace every N records (default 1)")
    load.add_argument("--trace-fsync", action="store_true",
                      help="fsync the trace on every flush")
    load.add_argument("--trace-rotate-bytes", type=int, default=None,
                      help="rotate the trace into trace-0001.jsonl, ... "
                           "once a file reaches this size")
    load.add_argument("--metrics-port", type=int, default=None,
                      help="serve the load generator's metrics at "
                           "http://127.0.0.1:PORT/metrics while it runs "
                           "(0 = ephemeral port)")
    load.add_argument("--json", help="also write the summary to this JSON "
                                     "file (includes a metrics section)")
    load.add_argument("--codec", default="binary",
                      choices=["binary", "json"],
                      help="wire format to dial the cluster with (binary = "
                           "wire v2, the default; json = the nc-able v1 "
                           "debug format — a v2 server accepts either)")
    load.add_argument("--migrate", action="append",
                      metavar="AT_MS:KIND:RANGE:DST",
                      help="run an online key-range migration at AT_MS into "
                           "the run (fleet topologies only; repeatable). "
                           "KIND is split (RANGE = a fraction inside the "
                           "range to bisect), merge (RANGE = a fraction "
                           "inside the range to absorb), or move (RANGE = "
                           "LO-HI point fractions); DST is the receiving "
                           "group, e.g. 1000:split:0.5:g1")
    load.add_argument("--migration-journal",
                      help="WAL-journal migrations to this file so a "
                           "crashed controller's placement can be "
                           "recovered (repro-migration/1)")
    load.add_argument("--rate", type=float, default=None,
                      help="open-loop arrival rate in ops/s: arrivals keep "
                           "coming at this rate regardless of completions, "
                           "and latency is measured from each arrival's "
                           "intended send time (coordinated-omission-"
                           "correct); --clients sizes the session pool")
    load.add_argument("--arrival", default="poisson",
                      choices=["poisson", "fixed"],
                      help="open-loop arrival schedule: seeded Poisson "
                           "(default) or deterministic fixed spacing")
    load.set_defaults(func=cmd_load)

    live_check = subparsers.add_parser(
        "live-check", help="replay a captured trace through the checkers")
    live_check.add_argument("trace", nargs="+",
                            help="JSONL trace (or rotated set base "
                                          "path) from `repro load`")
    live_check.add_argument("--protocol",
                            choices=["gryff", "gryff-rsc", "spanner", "spanner-rss"],
                            help="override the trace's protocol header")
    live_check.add_argument("--model",
                            help="override the protocol's default model")
    live_check.add_argument("--follow", action="store_true",
                            help="stream the trace as it is written, "
                                 "checking one quiescent epoch at a time "
                                 "with bounded memory")
    live_check.add_argument("--min-epoch-ops", type=int, default=64,
                            help="epoch size floor for --follow (default 64)")
    live_check.add_argument("--idle-timeout", type=float, default=None,
                            help="stop --follow after this many seconds "
                                 "without new records (default: follow until "
                                 "interrupted; 0 = read what exists and stop)")
    live_check.add_argument("--poll-interval", type=float, default=0.2,
                            help="--follow poll interval in seconds")
    live_check.add_argument("--json", help="also write the verdict to this JSON file")
    live_check.set_defaults(func=cmd_live_check)

    monitor = subparsers.add_parser(
        "monitor", help="correctness sidecar: tail a live trace, check every "
                        "epoch, alert + exit non-zero on an out-of-window "
                        "violation")
    monitor.add_argument("trace", nargs="+",
                         help="JSONL trace (or rotated set base "
                                       "path) being written by `repro load`")
    monitor.add_argument("--protocol",
                         choices=["gryff", "gryff-rsc", "spanner", "spanner-rss"],
                         help="override the trace's protocol header")
    monitor.add_argument("--model",
                         help="override the trace's declared checker model")
    monitor.add_argument("--min-epoch-ops", type=int, default=64,
                         help="epoch size floor (default 64)")
    monitor.add_argument("--poll-interval", type=float, default=0.2,
                         help="initial poll interval in seconds (default 0.2)")
    monitor.add_argument("--max-poll-interval", type=float, default=2.0,
                         help="idle polls back off exponentially up to this "
                              "interval (default 2.0)")
    monitor.add_argument("--idle-timeout", type=float, default=None,
                         help="stop after this many seconds without new "
                              "records (default: follow until interrupted; "
                              "0 = read what exists and stop)")
    monitor.add_argument("--metrics-port", type=int, default=None,
                         help="serve the monitor's own metrics at "
                              "http://127.0.0.1:PORT/metrics (0 = ephemeral)")
    monitor.add_argument("--scenario",
                         help="chaos scenario whose fault windows excuse "
                              "violations (see `repro chaos --list`)")
    monitor.add_argument("--fault-window", action="append",
                         metavar="START_MS:END_MS",
                         help="trace-relative fault window; violations whose "
                              "epochs overlap one are expected, not alerts "
                              "(repeatable, adds to --scenario windows)")
    monitor.add_argument("--alert-file",
                         help="append the structured alert record to this "
                              "JSONL file (also printed to stderr)")
    monitor.add_argument("--json", help="also write the monitor report to "
                                        "this JSON file")
    monitor.set_defaults(func=cmd_monitor)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Sweeps flush their resume cache before this propagates (see
        # ParallelRunner); exit with the conventional SIGINT code and no
        # traceback.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
