"""The load side of a phase, composed from the public client API.

``repro.api.open_store`` -> ``store.session(...)`` -> ``OpenLoopDriver`` /
``ClosedLoopDriver`` -> ``store.drive``: the same composition ``repro load``
uses, but with a benchmark-owned :class:`OpTape` that keeps
``(category, start_ms, end_ms)`` per operation, because
``net.load.run_load`` only returns aggregates and cannot be sliced into
windows.  One thread, one store (one TCP connection per server node),
sessions are coroutines of the event pump.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from e2ebench import stats
from e2ebench.cluster import ServerProcess, client_rss_mb
from e2ebench.workloads import KeyLoader, Workload

__all__ = ["OpTape", "Snapshot", "PhaseResult", "run_phase", "race_pump",
           "transport_counters"]

#: Recorder categories folded into the two reported classes ("read"/"write"
#: mean read-only / read-write transaction on Spanner).
READ_CATEGORIES = frozenset({"read", "ro", "txn-ro"})
WRITE_CATEGORIES = frozenset({"write", "rw", "txn"})


class OpTape:
    """A latency recorder that keeps every operation, not aggregates.

    Duck-types the ``record(category, start, end)`` call the protocol
    clients (service time) and the ``OpenLoopDriver`` (response time from
    the intended arrival) make.  In open-loop phases :meth:`timing` wraps
    the executor so each entry also carries the instant the operation was
    really issued; ``issued - start`` is then how late the generator and the
    session pool ran for that operation.
    """

    def __init__(self) -> None:
        self.categories: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.issued: List[Optional[float]] = []
        self._last_issued: Optional[float] = None

    def record(self, category: str, start: float, end: float) -> None:
        self.categories.append(category)
        self.starts.append(start)
        self.ends.append(end)
        self.issued.append(self._last_issued)

    def timing(self, executor: Callable[[Any, Any], Any], env: Any
               ) -> Callable[[Any, Any], Any]:
        """``executor`` plus a note of when each operation was issued.  The
        driver calls :meth:`record` right after the executor returns, with
        no yield in between, so the note belongs to that operation."""
        def run(session, spec):
            issued = env.now
            yield from executor(session, spec)
            self._last_issued = issued

        return run

    def __len__(self) -> int:
        return len(self.ends)

    def select(self, categories: frozenset) -> "OpTape":
        """The entries of the given categories, as a new tape."""
        picked = OpTape()
        for index, category in enumerate(self.categories):
            if category in categories:
                picked.categories.append(category)
                picked.starts.append(self.starts[index])
                picked.ends.append(self.ends[index])
                picked.issued.append(self.issued[index])
        return picked

    def latencies(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def queue_waits(self) -> List[float]:
        return [max(issued - start, 0.0)
                for start, issued in zip(self.starts, self.issued)
                if issued is not None]


@dataclass
class Snapshot:
    """Resource readings at one instant of a phase."""

    at_ms: float              # env time
    server_cpu_s: float
    client_cpu_s: float
    offered: int
    completed: int


@dataclass
class PhaseResult:
    name: str
    mode: str                         # closed | open
    rate: Optional[float]
    tape: OpTape
    #: One reading at the end of warm-up, then one per window of the
    #: measured interval (fixed-op passes: just before and after the drive).
    snapshots: List[Snapshot]
    offered: int                      # whole phase, warm-up included
    completed: int
    abandoned: int
    errored: int
    backlog_peak: int
    setup_s: float
    server_rss_mb: float
    client_rss_mb: float
    history: Any
    store_counters: Dict[str, float]
    check: Optional[Dict[str, Any]] = None
    migration: Optional[Dict[str, Any]] = None
    trace_bytes: int = 0

    @property
    def start(self) -> Snapshot:
        return self.snapshots[0]

    @property
    def mid(self) -> Snapshot:
        return self.snapshots[len(self.snapshots) // 2]

    @property
    def end(self) -> Snapshot:
        return self.snapshots[-1]

    @property
    def failed(self) -> int:
        return self.abandoned + self.errored

    @property
    def attempted(self) -> int:
        return self.offered

    @property
    def measure_s(self) -> float:
        return (self.end.at_ms - self.start.at_ms) / 1000.0

    def measured_ops(self) -> int:
        lo, hi = self.start.at_ms, self.end.at_ms
        return sum(1 for at in self.tape.ends if lo <= at < hi)

    def backlog(self, at: Snapshot) -> int:
        """Operations offered but not completed at ``at`` (in flight or
        queued for a session)."""
        return at.offered - at.completed

    def queue_wait_p99_ms(self) -> float:
        """How late the generator and the session pool ran, p99 over the
        measured interval (open-loop phases; 0.0 otherwise)."""
        lo, hi = self.start.at_ms, self.end.at_ms
        waits = sorted(wait for wait, at in zip(self.tape.queue_waits(),
                                                self.tape.ends) if lo <= at < hi)
        return stats.percentile(waits, 99) if waits else 0.0


async def run_phase(workload: Workload, topology: Any, server: ServerProcess, *,
                    name: str, seed: int, sessions: int, run_dir: str,
                    warmup_s: float = 0.0, measure_s: Optional[float] = None,
                    rate: Optional[float] = None,
                    ops_per_client: Optional[int] = None,
                    with_migrations: bool = False,
                    around_drive: Callable[[], Any] = contextlib.nullcontext
                    ) -> PhaseResult:
    """Drive one phase against a started ``server``.

    Timed phases give ``measure_s`` (closed loop, or open loop at ``rate``
    ops/s with Poisson arrivals); the fixed-op traced passes give
    ``ops_per_client`` instead.  ``around_drive`` is a context-manager
    factory entered around the drive only (the calls pass profiles there).
    """
    from repro.api import open_store
    from repro.api.levels import negotiate
    from repro.core.history import History
    from repro.workloads.clients import ClosedLoopDriver, OpenLoopDriver

    declared = negotiate(topology.protocol, workload.level)
    writer = checker = None
    trace_path = os.path.join(run_dir, f"{name}.trace.jsonl")
    lag = {"checked": 0, "max": 0}
    if workload.recorded:
        from repro.net.check import streaming_checker_for
        from repro.net.recorder import RecordingHistory, TraceWriter

        writer = TraceWriter(trace_path, meta={
            "protocol": topology.protocol, "level": declared.value,
            "epoch": topology.epoch, "workload": workload.generator,
            "clients": sessions})
        history: Any = RecordingHistory(writer)

        def on_verdict(verdict) -> None:
            lag["max"] = max(lag["max"], len(history) - lag["checked"])
            lag["checked"] += verdict.ops

        checker = streaming_checker_for(topology.protocol,
                                        model=declared.checker_model,
                                        on_verdict=on_verdict)
        history.attach_observer(checker)
    else:
        history = History()

    open_loop = rate is not None
    tape = OpTape()
    store = open_store(topology, history=history,
                       recorder=None if open_loop else tape)
    env = store.env
    pairs, executor = workload.pairs(store, sessions, seed)
    warmup_ms = warmup_s * 1000.0
    if open_loop:
        assert measure_s is not None
        driver: Any = OpenLoopDriver(
            env, pairs, tape.timing(executor, env), rate_per_s=rate,
            duration_ms=warmup_ms + measure_s * 1000.0, arrival="poisson",
            seed=seed, recorder=tape)
    elif ops_per_client is not None:
        driver = ClosedLoopDriver(env, pairs, executor,
                                  operations_per_client=ops_per_client)
    else:
        assert measure_s is not None
        driver = ClosedLoopDriver(env, pairs, executor,
                                  duration_ms=measure_s * 1000.0,
                                  warmup_ms=warmup_ms)

    controller = None
    plans: List[Any] = []
    if with_migrations:
        from repro.fleet.migration import MigrationController

        controller = MigrationController(topology, store)
        window_ms = (measure_s * 1000.0 if measure_s is not None
                     else _expected_pass_ms(workload, ops_per_client))
        plans = workload.migration_plans(window_ms, warmup_ms)

    snapshots: List[Snapshot] = []

    def snap() -> None:
        snapshots.append(Snapshot(
            at_ms=env.now, server_cpu_s=server.cpu_s(),
            client_cpu_s=time.process_time(),
            offered=getattr(driver, "offered", driver.completed),
            completed=driver.completed))

    def sampler():
        # One reading per second-or-longer window, so CPU per operation
        # gets the same per-window statistic as the latencies.
        windows = max(int(measure_s), 1)
        yield env.timeout(warmup_ms)
        snap()
        for _ in range(windows):
            yield env.timeout(measure_s * 1000.0 / windows)
            snap()

    await store.start()
    try:
        preloaded = 0
        if workload.preload:
            loaders = [(session, KeyLoader(generator, with_hot_key=index == 0))
                       for index, (session, generator) in enumerate(pairs)]
            await store.drive(ClosedLoopDriver(
                env, loaders, executor,
                operations_per_client=max(len(loader) for _, loader in loaders)))
            preloaded = len(history)
        migration_proc = (env.process(controller.run(plans))
                          if controller is not None else None)
        if measure_s is not None:
            sampling = env.as_future(env.process(sampler()))
        else:
            sampling = None
            snap()
        with around_drive():
            await store.drive(driver)
        if sampling is not None:
            await race_pump(store, sampling)
        else:
            snap()
        if migration_proc is not None:
            # Migrations scheduled past the load window still must finish.
            await race_pump(store, env.as_future(migration_proc))
        server_rss = server.rss_mb()
        client_rss = client_rss_mb()
        counters = _store_counters(store)
    finally:
        await store.stop()
        if writer is not None:
            writer.close()

    totals = driver.stats() if open_loop else {}
    completed = driver.completed
    offered = totals.get("offered", completed)
    operations = history.operations()
    first_end_ms = operations[0].responded_at if operations else env.now
    result = PhaseResult(
        name=name, mode="open" if open_loop else "closed", rate=rate,
        tape=tape, snapshots=snapshots,
        offered=offered, completed=completed,
        abandoned=totals.get("abandoned", 0),
        # Executors swallow a transaction that retried out of its budget;
        # it shows as a completion that never reached the history.
        errored=max(completed - (len(history) - preloaded), 0),
        backlog_peak=totals.get("backlog_peak", 0),
        setup_s=topology.epoch + first_end_ms / 1000.0 - server.spawned_at,
        server_rss_mb=server_rss, client_rss_mb=client_rss,
        history=history, store_counters=counters)
    if checker is not None:
        report = checker.close()
        lag["max"] = max(lag["max"], len(history) - lag["checked"])
        result.check = {
            "satisfied": report.satisfied, "model": report.model,
            "epochs": report.epochs, "ops_checked": report.ops_checked,
            "max_segment_ops": report.max_segment_ops,
            "lag_ops_max": lag["max"],
            "first_violation": (report.first_violation.describe()
                                if report.first_violation else None)}
        result.trace_bytes = os.path.getsize(trace_path)
    if controller is not None:
        result.migration = controller.report()
        result.migration["windows"] = controller.windows()
    return result


async def race_pump(store: Any, awaited: "asyncio.Future") -> None:
    """Await ``awaited`` unless the event pump dies first (then nothing
    would ever fire again and the wait would hang)."""
    pump = store.process.pump_task
    await asyncio.wait({awaited, pump}, return_when=asyncio.FIRST_COMPLETED)
    if not awaited.done():
        awaited.cancel()
        exc = pump.exception()
        raise exc if exc is not None else RuntimeError(
            "event pump stopped before the phase completed")
    await awaited


def _expected_pass_ms(workload: Workload, ops_per_client: Optional[int]) -> float:
    """Rough length of a fixed-op pass, to place its migrations: the pass
    issues ``ops_per_client`` per session at about the base rate."""
    from e2ebench.workloads import SPAN_SESSIONS

    return 1000.0 * (ops_per_client or 0) * SPAN_SESSIONS / workload.base_rate


def transport_counters(transport: Any) -> Dict[str, float]:
    """The public counters of a ``LiveTransport``."""
    return {name: getattr(transport, name) for name in (
        "messages_sent", "messages_received", "bytes_sent", "bytes_received",
        "frames_sent", "batches_sent", "messages_framed")}


def _store_counters(store: Any) -> Dict[str, float]:
    """Public counters of the load process, read when the drive ends."""
    counters = transport_counters(store.process.transport)
    counters["events_scheduled"] = store.env.events_scheduled
    committed = aborted = 0
    for session in store.sessions:
        committed += getattr(session, "committed", 0)
        aborted += getattr(session, "aborted_attempts", 0)
    counters["txn_committed"] = committed
    counters["txn_aborted_attempts"] = aborted
    return counters
