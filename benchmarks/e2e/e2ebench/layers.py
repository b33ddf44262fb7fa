"""The per-layer ledger: fold the traced passes into named metrics, and check
that each workload still exercises the layers it exists for.

Inputs are plain dicts and :class:`~e2ebench.load.PhaseResult` objects, so
the arithmetic stays separate from the running.  Every per-operation figure
divides by the operations of the pass it was measured in.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Optional

from e2ebench.load import PhaseResult
from e2ebench.metrics import LEDGER_GROUPS, PER_LAYER
from e2ebench.workloads import Workload

__all__ = ["TracedPass", "cpu_ms_per_op", "ledger", "separation_failures",
           "wal_bytes_per_append"]


class TracedPass:
    """One fixed-op pass: the load side's result, the server's report (for
    the traced passes) and the load side's own spans or folded profile."""

    def __init__(self, result: PhaseResult, server_report: Optional[Dict] = None,
                 client_spans: Optional[Dict] = None,
                 client_counts: Optional[Dict] = None,
                 client_profile: Optional[Dict] = None):
        self.result = result
        self.server = server_report or {}
        self.client_spans = client_spans or {}
        self.client_counts = client_counts or {}
        self.client_profile = client_profile or {}

    @property
    def ops(self) -> int:
        return max(self.result.completed, 1)

    @property
    def server_cpu_s(self) -> float:
        return self.result.end.server_cpu_s - self.result.start.server_cpu_s

    @property
    def client_cpu_s(self) -> float:
        return self.result.end.client_cpu_s - self.result.start.client_cpu_s

    @property
    def wall_s(self) -> float:
        return max((self.result.end.at_ms - self.result.start.at_ms) / 1000.0,
                   1e-9)


def cpu_ms_per_op(traced: TracedPass) -> float:
    return 1000.0 * (traced.server_cpu_s + traced.client_cpu_s) / traced.ops


def wal_bytes_per_append(wal_dir: Optional[str]) -> float:
    """Bytes per record of the logs a pass left behind (records since the
    last checkpoint; earlier ones were the same shape)."""
    if not wal_dir or not os.path.isdir(wal_dir):
        return 0.0
    size = lines = 0
    for name in os.listdir(wal_dir):
        if name.endswith(".wal"):
            with open(os.path.join(wal_dir, name), "rb") as handle:
                data = handle.read()
            size += len(data)
            lines += data.count(b"\n")
    return size / lines if lines else 0.0


def _layer_self_ns(spans: Dict[str, Dict[str, float]], layer: str) -> float:
    return sum(row["self_ns"] for row in spans.values()
               if row["layer"] == layer)


def _span_cpu_ns(spans: Dict[str, Dict[str, float]]) -> float:
    """Span self time summed as CPU: spans that block carry their own CPU
    reading (the WAL append waits in fsync), the rest ran without waiting."""
    return sum(row["cpu_ns"] if row["cpu_ns"] else row["self_ns"]
               for row in spans.values())


def ledger(workload: Workload, *, plain: List[TracedPass], spans: TracedPass,
           calls: TracedPass, proc: PhaseResult, isolated: Dict[str, float],
           wal_dir: Optional[str]) -> Dict[str, float]:
    """Every per-layer metric of the catalogue, by name."""
    ops = spans.ops
    server = spans.server
    counters = server.get("counters", {})
    transport_s = counters.get("transport", {})
    transport_c = spans.result.store_counters
    server_spans = server.get("spans", {})
    client_spans = spans.client_spans
    server_counts = server.get("counts", {})
    client_counts = spans.client_counts
    m: Dict[str, float] = dict(isolated)

    def both(key: str) -> float:
        return transport_s.get(key, 0) + transport_c.get(key, 0)

    def count(key: str) -> float:
        return server_counts.get(key, 0) + client_counts.get(key, 0)

    # net.wire / net.transport ------------------------------------------ #
    m["net.wire.busy_ms_per_op.server"] = (
        _layer_self_ns(server_spans, "net.wire") / ops / 1e6)
    m["net.wire.busy_ms_per_op.client"] = (
        _layer_self_ns(client_spans, "net.wire") / ops / 1e6)
    m["net.wire.bytes_per_op"] = both("bytes_sent") / ops
    m["net.transport.msgs_per_op"] = both("messages_sent") / ops
    m["net.transport.frames_per_op"] = both("frames_sent") / ops
    m["net.transport.msgs_per_batch"] = (
        both("messages_framed") / max(both("batches_sent"), 1))
    send_rows = [rows["net.transport/LiveTransport.send"]
                 for rows in (server_spans, client_spans)
                 if "net.transport/LiveTransport.send" in rows]
    send_calls = sum(row["calls"] for row in send_rows)
    m["net.transport.send_us_per_msg"] = (
        sum(row["self_ns"] for row in send_rows) / send_calls / 1e3
        if send_calls else 0.0)

    # event pump ---------------------------------------------------------- #
    m["net.realtime.kicks_per_op"] = count("net.realtime.kick") / ops
    m["net.realtime.timeouts_per_op"] = count("net.realtime.timeout") / ops
    m["sim.engine.events_per_op"] = (
        counters.get("events_scheduled", 0)
        + transport_c.get("events_scheduled", 0)) / ops

    # protocol counters ------------------------------------------------- #
    node_totals: Dict[str, float] = {}
    for node in counters.get("node_stats", {}).values():
        for key, value in node.items():
            node_totals[key] = node_totals.get(key, 0) + value
    if workload.protocol.startswith("gryff"):
        handled = sum(node_totals.get(key, 0)
                      for key in ("reads", "write1", "write2", "rmws"))
        m["gryff.replica.msgs_handled_per_op"] = handled / ops
        m["gryff.replica.dependency_applies_per_op"] = (
            node_totals.get("dependency_applies", 0) / ops)
    else:
        ro = max(node_totals.get("ro_requests", 0), 1)
        m["spanner.shard.ro_blocked_frac"] = node_totals.get("ro_blocked", 0) / ro
        m["spanner.shard.ro_skipped_prepared_per_ro"] = (
            node_totals.get("ro_skipped_prepared", 0) / ro)
        m["spanner.shard.abort_frac"] = (
            node_totals.get("aborts", 0) / max(node_totals.get("prepares", 0), 1))
        m["spanner.shard.wounds_per_txn"] = node_totals.get("wounds", 0) / ops
        committed = max(transport_c.get("txn_committed", 0), 1)
        m["spanner.client.attempts_per_txn"] = (
            committed + transport_c.get("txn_aborted_attempts", 0)) / committed

    # storage.wal ----------------------------------------------------------- #
    m["storage.wal.appends_per_op"] = counters.get("wal_seq", 0) / ops
    m["storage.wal.fsyncs_per_op"] = server_counts.get("os.fsync", 0) / ops
    m["storage.wal.bytes_per_append"] = wal_bytes_per_append(wal_dir)
    append = server.get("wal_append_ns") or {}
    m["storage.wal.append_p50_us"] = append.get("p50", 0.0) / 1e3
    m["storage.wal.append_p99_us"] = append.get("p99", 0.0) / 1e3
    wal_row = server_spans.get("storage.wal/WriteAheadLog.append", {})
    m["storage.wal.busy_frac.server"] = (
        wal_row.get("total_ns", 0) / 1e9 / spans.wall_s)

    # recorder / checker ---------------------------------------------------- #
    m["net.recorder.busy_ms_per_op.client"] = (
        _layer_self_ns(client_spans, "net.recorder") / ops / 1e6)
    m["net.recorder.bytes_per_op"] = spans.result.trace_bytes / ops
    m["core.checkers.streaming.busy_ms_per_op.client"] = (
        _layer_self_ns(client_spans, "core.checkers.streaming") / ops / 1e6)
    check = spans.result.check or {}
    m["core.checkers.streaming.epochs"] = check.get("epochs", 0)
    m["core.checkers.streaming.max_segment_ops"] = check.get("max_segment_ops", 0)
    m["core.checkers.streaming.lag_ops_max"] = check.get("lag_ops_max", 0)

    # fleet ----------------------------------------------------------------- #
    m["fleet.ring.lookups_per_op"] = (
        client_counts.get("fleet.ring.owner_of_point", 0) / ops)
    migration = spans.result.migration or {}
    done = migration.get("migrations", [])
    m["fleet.migration.pause_p50_ms"] = (
        migration.get("client_pauses", {}).get("p50_ms", 0.0))
    m["fleet.migration.window_ms"] = (
        statistics.mean(entry["window_ms"][1] - entry["window_ms"][0]
                        for entry in done) if done else 0.0)
    m["fleet.migration.keys_copied"] = sum(
        entry.get("keys_copied", 0) for entry in done)

    # the generator, from the untraced base-rate phase ------------------------- #
    m["workloads.queue_wait_p99_ms"] = proc.queue_wait_p99_ms()
    m["workloads.backlog_peak"] = proc.backlog_peak

    # processes, base rate, tracing off ---------------------------------------- #
    proc_ops = max(proc.measured_ops(), 1)
    server_cpu = proc.end.server_cpu_s - proc.start.server_cpu_s
    client_cpu = proc.end.client_cpu_s - proc.start.client_cpu_s
    m["proc.server_cpu_ms_per_op"] = 1000.0 * server_cpu / proc_ops
    m["proc.client_cpu_ms_per_op"] = 1000.0 * client_cpu / proc_ops
    m["proc.server_util"] = server_cpu / proc.measure_s
    m["proc.client_util"] = client_cpu / proc.measure_s
    m["proc.server_rss_mb"] = proc.server_rss_mb
    m["proc.client_rss_mb"] = proc.client_rss_mb

    # the ledger: calls pass by module, spans pass against observed CPU -------- #
    server_profile = calls.server.get("profile", {})
    for group in LEDGER_GROUPS:
        rows = [profile[group] for profile in (server_profile, calls.client_profile)
                if group in profile]
        m[f"ledger.{group}.self_us_per_op"] = (
            sum(row["self_s"] for row in rows) * 1e6 / calls.ops)
        m[f"ledger.{group}.calls_per_op"] = (
            sum(row["calls"] for row in rows) / calls.ops)
    m["ledger.unattributed_frac.server"] = (
        1.0 - _span_cpu_ns(server_spans) / 1e9 / max(spans.server_cpu_s, 1e-9))
    m["ledger.unattributed_frac.client"] = (
        1.0 - _span_cpu_ns(client_spans) / 1e9 / max(spans.client_cpu_s, 1e-9))
    base_cpu = statistics.mean(cpu_ms_per_op(reference) for reference in plain)
    m["trace.overhead_frac.spans"] = cpu_ms_per_op(spans) / base_cpu - 1.0
    m["trace.overhead_frac.calls"] = cpu_ms_per_op(calls) / base_cpu - 1.0

    for metric in PER_LAYER:          # layers this workload never runs
        m.setdefault(metric.name, 0.0)
    return {metric.name: float(m[metric.name]) for metric in PER_LAYER}


def separation_failures(workload: Workload, metrics: Dict[str, float],
                        spans: TracedPass) -> List[str]:
    """What the workload table promises, asserted: a workload that silently
    stops exercising its layer must fail loudly, not report "no change"."""
    failures: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(f"{workload.name}: {message}")

    client_spans = spans.client_spans
    recorder_calls = sum(row["calls"] for row in client_spans.values()
                         if row["layer"] in ("net.recorder",
                                             "core.checkers.streaming"))
    appends = metrics["storage.wal.appends_per_op"]
    lookups = metrics["fleet.ring.lookups_per_op"]
    spanner_counts = sum(metrics[name] for name in (
        "spanner.shard.ro_blocked_frac", "spanner.shard.abort_frac",
        "spanner.shard.wounds_per_txn", "spanner.client.attempts_per_txn",
        "spanner.shard.ro_skipped_prepared_per_ro"))

    expect((appends > 0) == workload.wal,
           f"storage.wal.appends_per_op = {appends:g}, expected "
           f"{'> 0' if workload.wal else 'exactly 0'}")
    expect((recorder_calls > 0) == workload.recorded,
           f"{recorder_calls} recorder/checker calls, expected "
           f"{'some' if workload.recorded else 'none'}")
    expect((lookups > 0) == workload.is_fleet,
           f"fleet.ring.lookups_per_op = {lookups:g}, expected "
           f"{'> 0' if workload.is_fleet else 'exactly 0'}")
    is_spanner = workload.protocol.startswith("spanner")
    expect((spanner_counts > 0) == is_spanner,
           f"spanner.* counters sum to {spanner_counts:g}, expected "
           f"{'non-zero' if is_spanner else 'zero'}")
    if workload.migrations:
        done = (spans.result.migration or {}).get("migrations", [])
        flipped = [entry for entry in done
                   if entry.get("epoch_after", 0) > entry.get("epoch_before", 0)]
        expect(len(flipped) == 2,
               f"{len(flipped)} of 2 migrations reported flipped")
        expect(bool((spans.result.check or {}).get("satisfied")),
               "inline checker not SATISFIED across the migrations")
    return failures
