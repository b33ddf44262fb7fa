"""One workload, one seed: the end-to-end run and the per-layer run.

``end_to_end`` boots a fresh server (and a fresh WAL directory) per phase —
a trace checked in isolation must not read values an earlier phase wrote —
and runs ``capacity`` (closed loop), ``base`` and ``peak`` (open loop at the
workload's frozen rates) with tracing off.  ``per_layer`` runs the traced
passes and the isolated drives.  Both return ``(metrics, detail)``;
``detail["failures"]`` lists every correctness failure found.
"""

from __future__ import annotations

import asyncio
import contextlib
import cProfile
import gc
import json
import os
import shutil
import statistics
from typing import Any, Dict, List, Optional, Tuple

from e2ebench import isolated, layers, stats, tracing
from e2ebench.cluster import ServerProcess
from e2ebench.metrics import RUN_SECONDS
from e2ebench.load import (READ_CATEGORIES, WRITE_CATEGORIES, PhaseResult,
                           race_pump, run_phase)
from e2ebench.workloads import SESSIONS, SPAN_SESSIONS, Workload

__all__ = ["end_to_end", "per_layer", "warmup_s", "FAILED_FRAC_LIMIT"]

#: More failed operations than this share of the offered ones is an error.
FAILED_FRAC_LIMIT = 0.001
#: Share of --seconds the per-layer run spends at the base rate, untraced.
_PROC_SHARE = 0.2
#: The calls pass runs ~3x slower under cProfile; it gets this share of the
#: spans pass's operations.
_CALLS_OPS_SHARE = 0.4


def warmup_s(seconds: float) -> float:
    """Warm-up before each timed phase (connections, intern tables, caches):
    one second, less only for runs too short to mean anything (--smoke)."""
    return min(1.0, seconds / 8.0)


@contextlib.contextmanager
def _server(workload: Workload, run_dir: str, name: str, core: Optional[int],
            traced: Optional[Tuple[str, str]] = None,
            wal_dir: Optional[str] = None):
    """A fresh topology and a started server for one phase, as ``(topology,
    server)``; stopped on the way out (a non-zero exit raises), killed if
    the body raised."""
    topology = workload.topology()
    if workload.wal and wal_dir is None:
        wal_dir = os.path.join(run_dir, f"{name}.wal")
        shutil.rmtree(wal_dir, ignore_errors=True)
    server = ServerProcess(topology, os.path.join(run_dir, f"{name}.cluster.json"),
                           wal_dir=wal_dir if workload.wal else None,
                           core=core, traced=traced)
    server.start()
    try:
        yield topology, server
        server.stop()
    except BaseException:
        server.kill()
        raise


def _phase(workload: Workload, run_dir: str, name: str, core: Optional[int],
           seed: int, *, traced: Optional[Tuple[str, str]] = None,
           **phase_args: Any) -> Tuple[PhaseResult, ServerProcess]:
    """Boot, drive one phase, stop.  Full collections of the load process
    are deferred to here, between phases (see README, "the load process")."""
    gc.collect()
    with _server(workload, run_dir, name, core, traced=traced) as (topology,
                                                                   server):
        result = asyncio.run(run_phase(workload, topology, server, name=name,
                                       seed=seed, run_dir=run_dir, **phase_args))
    return result, server


def _class_stats(result: PhaseResult, categories: frozenset, q: float
                 ) -> Optional[stats.WindowStat]:
    tape = result.tape.select(categories)
    return stats.windowed_percentile(tape.ends, tape.latencies(),
                                     result.start.at_ms, result.end.at_ms, q)


def _cpu_ms_per_op(result: PhaseResult) -> Tuple[float, List[float]]:
    """First quartile over the phase's windows of (server + load CPU) per
    completed operation, and the per-window values."""
    per_window = []
    for before, after in zip(result.snapshots, result.snapshots[1:]):
        ops = sum(1 for at in result.tape.ends if before.at_ms <= at < after.at_ms)
        if ops:
            cpu_s = ((after.server_cpu_s - before.server_cpu_s)
                     + (after.client_cpu_s - before.client_cpu_s))
            per_window.append(1000.0 * cpu_s / ops)
    return stats.quiet_quartile(per_window, "lower"), per_window


def _verdict_failures(workload: Workload, result: PhaseResult) -> List[str]:
    """The inline checker's verdict (recorded workloads) for one phase."""
    if result.check is not None and not result.check["satisfied"]:
        return [f"{workload.name}/{result.name}: VIOLATED "
                f"{result.check['first_violation']}"]
    return []


def _batch_check(workload: Workload, result: PhaseResult) -> List[str]:
    """``check_trace`` on the in-memory history at the declared level."""
    from repro.api.levels import negotiate
    from repro.net.check import check_trace

    model = negotiate(workload.protocol, workload.level).checker_model
    verdict = check_trace(result.history, workload.protocol, model)
    if verdict.satisfied:
        return []
    return [f"{workload.name}/{result.name}: {model} VIOLATED: {verdict.reason}"]


# --------------------------------------------------------------------------- #
# --trace 0
# --------------------------------------------------------------------------- #
def end_to_end(workload: Workload, seed: int, seconds: float, run_dir: str,
               server_core: Optional[int]) -> Tuple[Dict[str, float], Dict]:
    capacity_s, base_s, peak_s = (share * seconds for share in workload.shares)
    warmup = warmup_s(seconds)
    capacity, _ = _phase(workload, run_dir, "capacity", server_core, seed,
                         sessions=workload.capacity_sessions,
                         warmup_s=warmup, measure_s=capacity_s)
    base, _ = _phase(workload, run_dir, "base", server_core, seed,
                     sessions=SESSIONS, warmup_s=warmup, measure_s=base_s,
                     rate=workload.base_rate,
                     with_migrations=workload.migrations)
    peak, _ = _phase(workload, run_dir, "peak", server_core, seed,
                     sessions=SESSIONS, warmup_s=warmup, measure_s=peak_s,
                     rate=workload.peak_rate)
    phases = [capacity, base, peak]
    # Memory is read before the post-run checks allocate anything.
    peak_rss_mb = max(p.server_rss_mb + p.client_rss_mb for p in phases)

    failures: List[str] = []
    detail: Dict[str, Any] = {"phases": {}, "failures": failures}
    capacity_stat = stats.windowed_rate(capacity.tape.ends, capacity.start.at_ms,
                                        capacity.end.at_ms)
    timings: Dict[str, Optional[stats.WindowStat]] = {
        "read_p50_ms": _class_stats(base, READ_CATEGORIES, 50),
        "write_p50_ms": _class_stats(base, WRITE_CATEGORIES, 50),
        "read_p99_ms": _class_stats(base, READ_CATEGORIES, 99),
        "write_p99_ms": _class_stats(base, WRITE_CATEGORIES, 99),
    }
    cpu, cpu_windows = _cpu_ms_per_op(base)

    slo_phases = []
    for phase in (base, peak):
        read_p99 = _class_stats(phase, READ_CATEGORIES, 99)
        write_p99 = _class_stats(phase, WRITE_CATEGORIES, 99)
        read_ms = read_p99.value if read_p99 else None
        write_ms = write_p99.value if write_p99 else None
        backlog_mid, backlog_end = phase.backlog(phase.mid), phase.backlog(phase.end)
        ok = stats.slo_phase_ok(read_ms, write_ms, workload.read_limit_ms,
                                workload.write_limit_ms, phase.failed,
                                backlog_mid, backlog_end)
        achieved = phase.measured_ops() / phase.measure_s
        slo_phases.append((achieved, ok))
        detail["phases"][phase.name] = {
            "rate": phase.rate, "achieved_ops_s": achieved, "slo_ok": ok,
            "read_p99_ms": read_ms, "write_p99_ms": write_ms,
            "backlog_mid": backlog_mid, "backlog_end": backlog_end,
            "backlog_peak": phase.backlog_peak}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failed_frac = failed / max(attempted, 1)
    if failed_frac > FAILED_FRAC_LIMIT:
        failures.append(f"{workload.name}: failed_frac {failed_frac:.5f} > "
                        f"{FAILED_FRAC_LIMIT}")
    for phase in phases:
        failures.extend(_verdict_failures(workload, phase))
        if phase.migration is not None and len(
                phase.migration["migrations"]) != 2:
            failures.append(f"{workload.name}/{phase.name}: "
                            f"{len(phase.migration['migrations'])} of 2 "
                            f"migrations completed")
    if not workload.recorded:
        # Bare workloads run no checker while timed; the base phase's
        # history is validated afterwards, at the declared level.
        failures.extend(_batch_check(workload, base))
    missing = [name for name, stat in timings.items() if stat is None]
    if capacity_stat is None or missing:
        failures.append(f"{workload.name}: no samples for "
                        f"{missing or ['capacity_ops_s']}")
        return {}, dict(detail, attempted=attempted, failed=failed)

    metrics = {
        "setup_s": statistics.median(p.setup_s for p in phases),
        "capacity_ops_s": capacity_stat.value,
        **{name: stat.value for name, stat in timings.items()},
        "cpu_ms_per_op": cpu,
        "slo_rate_ops_s": stats.slo_rate(slo_phases),
        "peak_rss_mb": peak_rss_mb,
    }
    detail.update(
        attempted=attempted, failed=failed, failed_frac=failed_frac,
        windows={"capacity_ops_s": capacity_stat.as_dict(),
                 **{name: stat.as_dict() for name, stat in timings.items()},
                 "cpu_ms_per_op": {"value": cpu, "windows": len(cpu_windows),
                                   "median": statistics.median(cpu_windows)}},
        setup_s=[p.setup_s for p in phases],
        queue_wait_p99_ms=base.queue_wait_p99_ms(),
        checks={p.name: p.check for p in phases if p.check},
        migration=base.migration)
    return metrics, detail


# --------------------------------------------------------------------------- #
# --trace 1
# --------------------------------------------------------------------------- #
def per_layer(workload: Workload, seed: int, seconds: float, run_dir: str,
              server_core: Optional[int], out_dir: str
              ) -> Tuple[Dict[str, float], Dict]:
    ops_per_client = max(int(workload.span_ops_per_s * seconds), 20)
    fixed = dict(sessions=SPAN_SESSIONS, ops_per_client=ops_per_client,
                 with_migrations=workload.migrations)
    failures: List[str] = []

    # (1) the reference: the same fixed-op load, nothing installed.  It runs
    # again after the traced passes, and the overhead is taken against the
    # mean of the two, because the box drifts by 5 % within a minute.
    plain_result, _ = _phase(workload, run_dir, "plain", server_core, seed, **fixed)

    # (2) base rate, tracing off: the process split and the generator gauge.
    proc, _ = _phase(workload, run_dir, "proc", server_core, seed,
                     sessions=SESSIONS, warmup_s=warmup_s(seconds),
                     measure_s=max(_PROC_SHARE * seconds, 0.5),
                     rate=workload.base_rate)

    # (3) spans: wrappers in both processes, counters read at the end.
    spans_report_path = os.path.join(run_dir, "spans.server.json")
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    try:
        spans_result, spans_server = _phase(
            workload, run_dir, "spans", server_core, seed,
            traced=("spans", spans_report_path), **fixed)
    finally:
        recorder.uninstall()
    with open(spans_report_path, "r", encoding="utf-8") as handle:
        spans_server_report = json.load(handle)
    spans = layers.TracedPass(spans_result, spans_server_report,
                              client_spans=recorder.table(),
                              client_counts=recorder.counts)
    wal_dir = spans_server.wal_dir

    # The correctness gate: the declared level on the pass's history, and
    # for the durable workload every acknowledged write after a restart.
    failures.extend(_verdict_failures(workload, spans_result))
    failures.extend(_batch_check(workload, spans_result))
    if workload.wal:
        failures.extend(_lost_writes(workload, spans_result, run_dir,
                                     server_core, wal_dir))

    # (4) calls: the same load, fewer operations, cProfile in both processes.
    calls_report_path = os.path.join(run_dir, "calls.server.json")
    profile = cProfile.Profile()     # a context manager: enable / disable
    calls_result, _ = _phase(
        workload, run_dir, "calls", server_core, seed,
        traced=("calls", calls_report_path), around_drive=lambda: profile,
        **dict(fixed, ops_per_client=max(int(ops_per_client * _CALLS_OPS_SHARE), 10)))
    with open(calls_report_path, "r", encoding="utf-8") as handle:
        calls_server_report = json.load(handle)
    calls = layers.TracedPass(calls_result, calls_server_report,
                              client_profile=tracing.fold_profile(profile))

    plain_again, _ = _phase(workload, run_dir, "plain2", server_core, seed, **fixed)
    plain = [layers.TracedPass(plain_result), layers.TracedPass(plain_again)]

    # (5) isolated drives on what the spans pass captured.
    drives = _isolated(workload, spans, recorder, run_dir, wal_dir,
                       scale=min(1.0, seconds / RUN_SECONDS))

    metrics = layers.ledger(workload, plain=plain, spans=spans, calls=calls,
                            proc=proc, isolated=drives, wal_dir=wal_dir)
    failures.extend(layers.separation_failures(workload, metrics, spans))

    passes = [plain_result, proc, spans_result, calls_result, plain_again]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if failed / max(attempted, 1) > FAILED_FRAC_LIMIT:
        failures.append(f"{workload.name}: {failed} of {attempted} operations "
                        f"failed in the traced passes")
    for phase in (plain_result, proc, calls_result, plain_again):
        failures.extend(_verdict_failures(workload, phase))

    trace_path = os.path.join(out_dir, f"trace-{workload.name}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload.name, "seed": seed,
            "ops": spans.ops, "ops_per_client": ops_per_client,
            "cpu_s": {"server": spans.server_cpu_s, "client": spans.client_cpu_s},
            "spans": {"server": spans_server_report.get("spans", {}),
                      "client": spans.client_spans},
            "counts": {"server": spans_server_report.get("counts", {}),
                       "client": spans.client_counts},
            "counters": {"server": spans_server_report.get("counters", {}),
                         "client": spans_result.store_counters},
            "profile": {"server": calls_server_report.get("profile", {}),
                        "client": calls.client_profile,
                        "ops": calls.ops},
            "raw_spans": {"server": spans_server_report.get("raw_spans", []),
                          "client": recorder.raw()},
        }, handle)
    detail = {"failures": failures, "attempted": attempted, "failed": failed,
              "trace_file": trace_path, "ops_per_client": ops_per_client,
              "check": spans_result.check, "migration": spans_result.migration,
              "cpu_ms_per_op": {
                  name: {"server": 1000.0 * p.server_cpu_s / p.ops,
                         "client": 1000.0 * p.client_cpu_s / p.ops}
                  for name, p in (("plain", plain[0]), ("spans", spans),
                                  ("calls", calls), ("plain2", plain[1]))}}
    return metrics, detail


def _isolated(workload: Workload, spans: layers.TracedPass,
              recorder: tracing.SpanRecorder, run_dir: str,
              wal_dir: Optional[str], scale: float) -> Dict[str, float]:
    """The isolated drives; ``scale`` shrinks the synthetic ones for runs
    shorter than the standard length (--smoke)."""
    from repro.api.levels import negotiate

    history = spans.result.history
    counters = spans.result.store_counters
    mean_batch = counters["messages_framed"] / max(counters["batches_sent"], 1)
    drives: Dict[str, float] = {}
    drives.update(isolated.wire(recorder.captured.get("batches", []), mean_batch))
    drives.update(isolated.pump(rounds=max(int(20_000 * scale), 1000)))
    drives.update(isolated.timers(count=max(int(1000 * scale), 100)))
    drives.update(isolated.generator(
        lambda: workload.new_generator("isolated", seed=1),
        count=max(int(20_000 * scale), 1000)))
    if workload.protocol.startswith("spanner"):
        drives.update(isolated.spanner_store(history))
    if workload.wal and wal_dir:
        drives.update(isolated.wal_recover(wal_dir))
    if workload.recorded:
        model = negotiate(workload.protocol, workload.level).checker_model
        drives.update(isolated.recorder(
            history, os.path.join(run_dir, "isolated.trace.jsonl")))
        drives.update(isolated.checker(history, workload.protocol, model))
    if workload.is_fleet:
        drives.update(isolated.ring(workload.topology().placement, history))
    return drives


def _lost_writes(workload: Workload, result: PhaseResult, run_dir: str,
                 server_core: Optional[int], wal_dir: str) -> List[str]:
    """Restart the server on the pass's WAL directory and read back every
    written key: the value must be the acknowledged write with the highest
    carstamp (or a later one the history never saw acknowledged — none can
    exist once the load has stopped)."""
    expected: Dict[str, Tuple[Any, Any]] = {}
    for op in result.history.operations():
        for key, value in op.values_written().items():
            stamp = tuple(op.meta.get("carstamp") or ())
            if key not in expected or stamp > expected[key][0]:
                expected[key] = (stamp, value)
    if not expected:
        return [f"{workload.name}: the spans pass acknowledged no write"]
    with _server(workload, run_dir, "recovered", server_core,
                 wal_dir=wal_dir) as (topology, _):
        found = asyncio.run(_read_back(workload, topology, sorted(expected)))
    lost = [key for key, (_, value) in expected.items() if found.get(key) != value]
    return [f"{workload.name}: acknowledged write lost after restart: key "
            f"{key!r} reads {found.get(key)!r}, expected {expected[key][1]!r}"
            for key in lost[:1]]


async def _read_back(workload: Workload, topology: Any, keys: List[str]
                     ) -> Dict[str, Any]:
    from repro.api import open_store

    store = open_store(topology)
    session = store.session(level=workload.level)
    found: Dict[str, Any] = {}

    def reader():
        for key in keys:
            found[key] = yield from session.read(key)

    await store.start()
    try:
        await race_pump(store, store.env.as_future(store.env.process(reader())))
    finally:
        await store.stop()
    return found
