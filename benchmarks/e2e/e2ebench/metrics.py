"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root is generated from this module
(``run.py --write-manifest``) and ``test_e2e_stats.py`` checks that the two
agree, so a metric is declared in exactly one place.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER",
           "LEDGER_GROUPS", "RUN_SECONDS", "manifest"]

#: Seconds one run measures (``--seconds``); phases split it by fixed shares.
RUN_SECONDS = 24


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float     # share of the parent's median it may worsen by
    phase: str
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    how: str         # I = isolated drive, S = spans pass, C = counter, L = calls pass
    moves: str       # the end-to-end metric x workload it should move


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, "all",
             "spawn of the server to the first completed operation "
             "(median of the run's boots)"),
    EndToEnd("capacity_ops_s", "1/s", "higher", 0.20, "capacity",
             "completed operations per second, closed loop, 32 sessions"),
    EndToEnd("read_p50_ms", "ms", "lower", 0.20, "base",
             "read latency from intended arrival, median"),
    EndToEnd("write_p50_ms", "ms", "lower", 0.20, "base",
             "write latency from intended arrival, median"),
    EndToEnd("read_p99_ms", "ms", "lower", 0.25, "base",
             "read latency from intended arrival, 99th percentile"),
    EndToEnd("write_p99_ms", "ms", "lower", 0.25, "base",
             "write latency from intended arrival, 99th percentile"),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.20, "base",
             "server plus load process CPU per completed operation"),
    EndToEnd("slo_rate_ops_s", "1/s", "higher", 0.10, "base, peak",
             "completions per second at the highest fixed rate that met the "
             "latency limits with no failure and no growing backlog; 0 if "
             "neither rate did"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15, "all",
             "peak resident memory, server plus load process"),
]

#: Module groups of the calls-pass ledger, in reporting order.
LEDGER_GROUPS = ["net.wire", "net.transport", "net.realtime", "net.recorder",
                 "sim", "gryff", "spanner", "fleet", "api", "workloads",
                 "core", "storage", "asyncio", "other"]

_WIRE = "capacity_ops_s, cpu_ms_per_op on gryff-bare"
_TRANSPORT = "cpu_ms_per_op everywhere; read_p50_ms at base on gryff-bare"
_PUMP = "cpu_ms_per_op, capacity_ops_s on gryff-bare, fleet-reshard"
_TIMER = "write_p50_ms, read_p99_ms on spanner-retwis"
_REPLICA = "read_p99_ms on gryff-bare, fleet-reshard"
_SHARD = "read_p99_ms, write_p99_ms, capacity_ops_s on spanner-retwis"
_SPANNER_CPU = "cpu_ms_per_op on spanner-retwis"
_WAL = "capacity_ops_s, write_p50_ms, write_p99_ms on gryff-durable"
_RECORDER = ("cpu_ms_per_op, capacity_ops_s on fleet-reshard; cpu_ms_per_op "
             "on gryff-durable")
_FLEET = "write_p99_ms, cpu_ms_per_op on fleet-reshard"
_GAUGE = "validity gauge, moves nothing"
_SPLIT = "split of cpu_ms_per_op and peak_rss_mb"
_LEDGER = "reconciliation of cpu_ms_per_op, by module"

PER_LAYER: List[PerLayer] = [
    PerLayer("net.wire.encode_us_per_msg", "us", "lower", "I", _WIRE),
    PerLayer("net.wire.decode_us_per_msg", "us", "lower", "I", _WIRE),
    PerLayer("net.wire.json_encode_us_per_msg", "us", "lower", "I", _WIRE),
    PerLayer("net.wire.json_decode_us_per_msg", "us", "lower", "I", _WIRE),
    PerLayer("net.wire.busy_ms_per_op.server", "ms", "lower", "S", _WIRE),
    PerLayer("net.wire.busy_ms_per_op.client", "ms", "lower", "S", _WIRE),
    PerLayer("net.wire.bytes_per_op", "B", "lower", "C", _WIRE),
    PerLayer("net.transport.msgs_per_op", "count", "lower", "C", _TRANSPORT),
    PerLayer("net.transport.frames_per_op", "count", "lower", "C", _TRANSPORT),
    PerLayer("net.transport.msgs_per_batch", "count", "higher", "C", _TRANSPORT),
    PerLayer("net.transport.send_us_per_msg", "us", "lower", "S", _TRANSPORT),
    PerLayer("net.realtime.kicks_per_op", "count", "lower", "S", _PUMP),
    PerLayer("net.realtime.timeouts_per_op", "count", "lower", "S", _PUMP),
    PerLayer("sim.engine.events_per_op", "count", "lower", "C", _PUMP),
    PerLayer("net.realtime.pingpong_events_per_s", "1/s", "higher", "I", _PUMP),
    PerLayer("sim.engine.events_per_s", "1/s", "higher", "I", _PUMP),
    PerLayer("net.realtime.timer_late_p50_ms", "ms", "lower", "I", _TIMER),
    PerLayer("net.realtime.timer_late_p99_ms", "ms", "lower", "I", _TIMER),
    PerLayer("gryff.replica.msgs_handled_per_op", "count", "lower", "C", _REPLICA),
    PerLayer("gryff.replica.dependency_applies_per_op", "count", "lower", "C",
             _REPLICA),
    PerLayer("spanner.shard.ro_blocked_frac", "frac", "lower", "C", _SHARD),
    PerLayer("spanner.shard.ro_skipped_prepared_per_ro", "count", "higher", "C",
             _SHARD),
    PerLayer("spanner.shard.abort_frac", "frac", "lower", "C", _SHARD),
    PerLayer("spanner.shard.wounds_per_txn", "count", "lower", "C", _SHARD),
    PerLayer("spanner.client.attempts_per_txn", "count", "lower", "C", _SHARD),
    PerLayer("spanner.locks.acquire_release_us_per_txn", "us", "lower", "I",
             _SPANNER_CPU),
    PerLayer("spanner.mvstore.read_at_us", "us", "lower", "I", _SPANNER_CPU),
    PerLayer("spanner.mvstore.apply_us", "us", "lower", "I", _SPANNER_CPU),
    PerLayer("storage.wal.appends_per_op", "count", "lower", "C", _WAL),
    PerLayer("storage.wal.fsyncs_per_op", "count", "lower", "S", _WAL),
    PerLayer("storage.wal.bytes_per_append", "B", "lower", "C", _WAL),
    PerLayer("storage.wal.append_p50_us", "us", "lower", "S", _WAL),
    PerLayer("storage.wal.append_p99_us", "us", "lower", "S", _WAL),
    PerLayer("storage.wal.busy_frac.server", "frac", "lower", "S", _WAL),
    PerLayer("storage.wal.recover_ms_per_krecord", "ms", "lower", "I",
             "setup_s after a crash on gryff-durable"),
    PerLayer("net.recorder.record_us_per_op", "us", "lower", "I", _RECORDER),
    PerLayer("net.recorder.busy_ms_per_op.client", "ms", "lower", "S", _RECORDER),
    PerLayer("net.recorder.bytes_per_op", "B", "lower", "C", _RECORDER),
    PerLayer("core.checkers.streaming.fold_us_per_op", "us", "lower", "I",
             _RECORDER),
    PerLayer("core.checkers.streaming.busy_ms_per_op.client", "ms", "lower", "S",
             _RECORDER),
    PerLayer("core.checkers.streaming.epochs", "count", "higher", "C", _RECORDER),
    PerLayer("core.checkers.streaming.max_segment_ops", "count", "lower", "C",
             "peak_rss_mb on gryff-durable, fleet-reshard"),
    PerLayer("core.checkers.streaming.lag_ops_max", "count", "lower", "C",
             "peak_rss_mb on gryff-durable, fleet-reshard"),
    PerLayer("fleet.ring.owner_us_per_key", "us", "lower", "I", _FLEET),
    PerLayer("fleet.ring.lookups_per_op", "count", "lower", "S", _FLEET),
    PerLayer("fleet.migration.pause_p50_ms", "ms", "lower", "C", _FLEET),
    PerLayer("fleet.migration.window_ms", "ms", "lower", "C", _FLEET),
    PerLayer("fleet.migration.keys_copied", "count", "lower", "C", _FLEET),
    PerLayer("workloads.gen_us_per_op", "us", "lower", "I", _GAUGE),
    PerLayer("workloads.queue_wait_p99_ms", "ms", "lower", "C", _GAUGE),
    PerLayer("workloads.backlog_peak", "count", "lower", "C", _GAUGE),
    PerLayer("proc.server_cpu_ms_per_op", "ms", "lower", "C", _SPLIT),
    PerLayer("proc.client_cpu_ms_per_op", "ms", "lower", "C", _SPLIT),
    PerLayer("proc.server_util", "frac", "lower", "C", _SPLIT),
    PerLayer("proc.client_util", "frac", "lower", "C", _SPLIT),
    PerLayer("proc.server_rss_mb", "MB", "lower", "C", _SPLIT),
    PerLayer("proc.client_rss_mb", "MB", "lower", "C", _SPLIT),
]
for _group in LEDGER_GROUPS:
    PER_LAYER.append(PerLayer(f"ledger.{_group}.self_us_per_op", "us", "lower",
                              "L", _LEDGER))
    PER_LAYER.append(PerLayer(f"ledger.{_group}.calls_per_op", "count", "lower",
                              "L", _LEDGER))
PER_LAYER += [
    PerLayer("ledger.unattributed_frac.server", "frac", "lower", "S", _LEDGER),
    PerLayer("ledger.unattributed_frac.client", "frac", "lower", "S", _LEDGER),
    PerLayer("trace.overhead_frac.spans", "frac", "lower", "S", _GAUGE),
    PerLayer("trace.overhead_frac.calls", "frac", "lower", "L", _GAUGE),
]


def manifest(workloads: List[Dict[str, str]]) -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
