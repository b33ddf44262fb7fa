"""Live load generation.

``repro load`` opens a :class:`repro.api.LiveStore` against a running
cluster, drives unified :class:`repro.api.Session` objects with the *same*
workload generators, executors, and closed-loop driver the simulated
experiments use (:mod:`repro.workloads`, :mod:`repro.api.executors`),
records latencies with :class:`~repro.sim.stats.LatencyRecorder`, and
streams the invocation/response history to a JSONL trace for ``repro
live-check``.

Workloads:

* ``ycsb`` — single-key reads/writes (:class:`~repro.workloads.ycsb.YcsbWorkload`);
  the unified executor maps them onto registers (Gryff) or degenerate
  transactions (Spanner).
* ``retwis`` — the transactional Retwis mix over Zipfian keys
  (:class:`~repro.workloads.retwis.RetwisWorkload`; requires a backend with
  the ``multi_key_txn`` capability, i.e. Spanner).

A ``--level`` declaration negotiates the consistency level at session-open
time (:class:`~repro.api.errors.CapabilityError` when the cluster cannot
honor it) and selects the checker model for ``--check-inline``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.api import make_retwis_executor, open_store, ycsb_executor
from repro.api.levels import negotiate
from repro.net.recorder import RecordingHistory, TraceWriter
from repro.core.history import History
from repro.sim.stats import LatencyRecorder
from repro.workloads.clients import ClosedLoopDriver, OpenLoopDriver
from repro.workloads.ycsb import YcsbWorkload

__all__ = ["run_load", "load_main"]


def build_sessions(store, sites: List[str], num_clients: int,
                   client_prefix: str, level: Optional[str]) -> List[Any]:
    """``num_clients`` sessions round-robin over ``sites`` (any store —
    the chaos engine opens its simulated and live sessions here too)."""
    return [
        store.session(
            site=sites[index % len(sites)],
            name=f"{client_prefix}{index + 1}@{sites[index % len(sites)]}",
            level=level,
        )
        for index in range(num_clients)
    ]


def build_pairs_and_executor(store, sessions: List[Any], workload: str,
                             write_ratio: float, conflict_rate: float,
                             num_keys: int, seed: int
                             ) -> Tuple[List[Tuple[Any, Any]], Any]:
    """One seeded workload generator per session, and the executor that
    runs its items."""
    if workload == "ycsb":
        pairs = [
            (session, YcsbWorkload(client_id=session.name,
                                   write_ratio=write_ratio,
                                   conflict_rate=conflict_rate,
                                   seed=seed * 1000 + index))
            for index, session in enumerate(sessions)
        ]
        return pairs, ycsb_executor
    if workload == "retwis":
        if not store.supports("multi_key_txn"):
            raise ValueError("the retwis workload is transactional "
                             "(requires the multi_key_txn capability; "
                             "Spanner only)")
        from repro.workloads.retwis import RetwisWorkload

        workload_by_session = {}
        pairs = []
        for index, session in enumerate(sessions):
            retwis = RetwisWorkload(num_keys=num_keys, zipf_skew=0.7,
                                    seed=seed * 1000 + index,
                                    value_tag=f"{session.name}-")
            workload_by_session[session.name] = retwis
            pairs.append((session, retwis))
        return pairs, make_retwis_executor(workload_by_session)
    raise ValueError(f"unknown workload {workload!r}")


async def run_load(spec, *,
                   num_clients: int = 4,
                   duration_ms: Optional[float] = 2_000.0,
                   ops_per_client: Optional[int] = None,
                   workload: str = "ycsb",
                   write_ratio: float = 0.5,
                   conflict_rate: float = 0.10,
                   num_keys: int = 1_000,
                   seed: int = 1,
                   trace_path: Optional[str] = None,
                   client_prefix: str = "client",
                   think_time_ms: float = 0.0,
                   level: Optional[str] = None,
                   check_inline: bool = False,
                   check_min_epoch_ops: int = 64,
                   on_verdict=None,
                   trace_flush_every: int = 1,
                   trace_fsync: bool = False,
                   trace_rotate_bytes: Optional[int] = None,
                   metrics: Optional[Any] = None,
                   metrics_port: Optional[int] = None,
                   admission: Optional[Any] = None,
                   codec: str = "binary",
                   rate: Optional[float] = None,
                   arrival: str = "poisson",
                   drain_timeout_ms: float = 10_000.0,
                   migrations: Optional[List[Any]] = None,
                   migration_journal: Optional[str] = None) -> Dict[str, Any]:
    """Drive a running cluster; returns a summary dict (and writes a trace).

    The returned summary carries per-category percentiles, throughput, and
    the op count; ``ops == 0`` means the cluster was unreachable.  With
    ``check_inline`` a streaming checker rides on the history's observer
    hook, validating each quiescent epoch as the load runs; its
    :class:`~repro.net.check.TraceReport` lands in ``summary["check"]``.
    ``level`` declares the consistency level the sessions are opened at
    (negotiated against the cluster's protocol; default: the protocol's
    native level) and the model the inline checker validates.

    ``metrics`` — a :class:`~repro.obs.MetricsRegistry` — instruments the
    client-side transport (and the inline checker, when active) and adds a
    ``metrics`` section to the summary; ``metrics_port`` additionally
    serves it at ``/metrics`` for the run's duration (0 = ephemeral port).
    ``admission`` installs an
    :class:`~repro.obs.backpressure.AdmissionController` on the store, so
    overload sheds or delays session opens.  All three default to ``None``:
    the uninstrumented path is byte-identical to previous releases.

    ``codec`` selects the wire format the client store dials with
    (``binary`` — wire v2, the default — or ``json``, the v1 debug
    format; a v2 server accepts either).  ``rate`` (ops/s) switches to the
    :class:`~repro.workloads.clients.OpenLoopDriver`: arrivals follow the
    ``arrival`` schedule (``poisson`` or ``fixed``) for ``duration_ms``,
    the ``num_clients`` sessions form the concurrency pool, and the
    summary's ``categories`` hold coordinated-omission-correct *response*
    times (from intended arrival to completion) with the per-attempt
    service times under ``service_categories`` and the offered/achieved
    accounting under ``open_loop``.

    ``spec`` may also be a :class:`~repro.fleet.spec.FleetSpec`, in which
    case sessions route through the placement map, and ``migrations`` — a
    list of :class:`~repro.fleet.migration.MigrationPlan` — runs an online
    key-range migration controller *under* the load (journaled to
    ``migration_journal``); the controller's report lands in
    ``summary["migration"]`` (``migration["crashed"]`` when it died with
    :class:`~repro.fleet.migration.ControllerCrashed`; the load keeps
    running against the durable placement).
    """
    if rate is not None:
        if ops_per_client is not None:
            raise ValueError("ops_per_client does not apply to an open-loop "
                             "run (the arrival schedule bounds the work)")
        if think_time_ms:
            raise ValueError("think_time_ms does not apply to an open-loop "
                             "run (the arrival schedule sets the pacing)")
        if duration_ms is None:
            raise ValueError("an open-loop run requires duration_ms")
    from repro.fleet.spec import FleetSpec

    is_fleet = isinstance(spec, FleetSpec)
    if migrations and not is_fleet:
        raise ValueError("migrations require a fleet topology "
                         "(repro init-config --groups N)")
    # Negotiate before any side effects (e.g. opening the trace file), so a
    # CapabilityError cannot leak an open writer.
    declared = negotiate(spec.protocol, level)
    writer = None
    if trace_path:
        meta = {
            "protocol": spec.protocol,
            "level": declared.value,
            "epoch": spec.epoch,
            "workload": workload,
            "write_ratio": write_ratio,
            "conflict_rate": conflict_rate,
            "clients": num_clients,
        }
        if is_fleet:
            meta["groups"] = spec.group_ids()
        writer = TraceWriter(trace_path, meta=meta,
                             flush_every=trace_flush_every, fsync=trace_fsync,
                             rotate_bytes=trace_rotate_bytes)
        history: History = RecordingHistory(writer)
    else:
        history = History()
    store = open_store(spec, history=history, recorder=LatencyRecorder(),
                       codec=codec)
    controller = None
    migration_errors: List[str] = []
    if migrations:
        from repro.fleet.migration import MigrationController

        controller = MigrationController(spec, store,
                                         journal_path=migration_journal)
    check = None
    if check_inline:
        from repro.net.check import TraceCheck

        check = TraceCheck(spec.protocol, declared.checker_model,
                           min_epoch_ops=check_min_epoch_ops,
                           on_verdict=on_verdict).observe(history)
    if admission is not None:
        store.admission = admission
    metrics_server = None
    if metrics is not None:
        from repro.obs.instrument import instrument_checker, instrument_transport

        instrument_transport(metrics, store.process.transport, node="load")
        if check is not None:
            instrument_checker(metrics, check.checker)
        if is_fleet:
            from repro.obs.instrument import instrument_fleet

            instrument_fleet(metrics, store, controller=controller)
        if metrics_port is not None:
            from repro.obs.http import MetricsServer

            metrics_server = MetricsServer(metrics, port=metrics_port)
    recorder = store.recorder
    response_recorder: Optional[LatencyRecorder] = None
    try:
        sessions = build_sessions(store, store.spec.sites(), num_clients,
                                  client_prefix, level)
        pairs, executor = build_pairs_and_executor(
            store, sessions, workload, write_ratio, conflict_rate, num_keys,
            seed)
        if rate is not None:
            response_recorder = LatencyRecorder()
            driver = OpenLoopDriver(
                store.env, pairs, executor,
                rate_per_s=rate, duration_ms=duration_ms,
                arrival=arrival, seed=seed, recorder=response_recorder,
                drain_timeout_ms=drain_timeout_ms,
            )
        else:
            driver = ClosedLoopDriver(
                store.env, pairs, executor,
                duration_ms=duration_ms, operations_per_client=ops_per_client,
                think_time_ms=think_time_ms,
            )
        if metrics_server is not None:
            port = await metrics_server.start()
            print(f"repro-load metrics on http://127.0.0.1:{port}/metrics",
                  flush=True)
        await store.start()    # no listeners; starts the pump
        migration_proc = None
        if controller is not None:
            from repro.fleet.migration import ControllerCrashed

            def _run_migrations():
                try:
                    yield from controller.run(list(migrations))
                except ControllerCrashed as exc:
                    # The in-process stand-in for kill -9: the controller's
                    # transient freeze/mirror flags die with it (they were
                    # process state), the journal is already closed, and the
                    # load keeps running against the durable placement.
                    store.placement.clear_transient()
                    migration_errors.append(str(exc))

            migration_proc = store.env.process(_run_migrations())
        await store.drive(driver)
        if migration_proc is not None:
            # Migrations scheduled past the load window still must finish.
            migration_done = asyncio.ensure_future(
                store.env.as_future(migration_proc))
            await asyncio.wait({migration_done, store.process.pump_task},
                               return_when=asyncio.FIRST_COMPLETED)
            if not migration_done.done():
                migration_done.cancel()
                exc = store.process.pump_task.exception()
                if exc is not None:
                    raise exc
                raise RuntimeError(
                    "event pump stopped before migrations completed")
            await migration_done
    finally:
        await store.stop()
        if controller is not None:
            controller.close()
        if metrics_server is not None:
            await metrics_server.close()
        if writer is not None:
            writer.close()

    # Open-loop headline numbers are the coordinated-omission-correct
    # response times (intended arrival -> completion); the per-attempt
    # service times stay available under ``service_categories``.
    headline = response_recorder if response_recorder is not None else recorder
    summary: Dict[str, Any] = {
        "protocol": spec.protocol,
        "level": declared.value,
        "workload": workload,
        "clients": num_clients,
        "codec": codec,
        "ops": headline.count(),
        "duration_ms": headline.duration_ms,
        "throughput_ops_per_s": headline.throughput(),
        "categories": {},
        "trace": trace_path,
    }
    for category in headline.categories():
        summary["categories"][category] = headline.percentiles(category).as_dict()
    if response_recorder is not None:
        summary["open_loop"] = driver.stats()
        summary["service_categories"] = {
            category: recorder.percentiles(category).as_dict()
            for category in recorder.categories()
        }
    if controller is not None:
        migration_summary = controller.report()
        migration_summary["crashed"] = bool(migration_errors)
        if migration_errors:
            migration_summary["errors"] = migration_errors
        migration_summary["windows"] = controller.windows()
        summary["migration"] = migration_summary
    if is_fleet:
        summary["routed_ops"] = dict(store.tracker.routed_ops)
    if check is not None:
        summary["check"] = check.close().to_dict()
    if metrics is not None:
        summary["metrics"] = metrics.as_dict()
    if admission is not None:
        summary["admission"] = admission.counters()
    return summary


def load_main(spec, **kwargs) -> Dict[str, Any]:
    """Synchronous wrapper for the CLI."""
    return asyncio.run(run_load(spec, **kwargs))
