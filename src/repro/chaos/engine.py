"""The chaos engine: run a :class:`~repro.chaos.scenario.Scenario` against a
simulated or live cluster and verify the declared guarantees held.

One scenario, one runner, one nemesis, one oracle; only what differs between
the two backends lives in a backend object:

* **sim** — a :class:`~repro.gryff.cluster.GryffCluster` /
  :class:`~repro.spanner.cluster.SpannerCluster` with a
  :class:`~repro.chaos.faults.FaultController` on its network and per-node
  write-ahead logs.
* **live** — one :class:`~repro.net.cluster.LiveProcess` per server node
  over real asyncio TCP (ephemeral ports, shared cluster spec) and a
  :class:`~repro.api.store.LiveStore` of clients — a fleet store over
  several shard groups when the scenario asks for them.

Either way the load is the same YCSB workload through the unified
:mod:`repro.api` surface, the nemesis is the same env process stepping the
event timeline (:class:`~repro.net.realtime.RealtimeEnvironment` runs the
simulator's generators), the history streams through the
:class:`~repro.net.recorder.TraceWriter` pipeline, and the verdict comes
from the streaming checker: every epoch the declared consistency level holds,
or the violating epoch overlaps a declared fault window.  Crashed nodes'
stuck operations are closed as ``abandon`` records by a per-operation
timeout, and every crashable unit — replica, shard leader, migration
controller — answers to one oracle (:class:`NodeRecovery`): what it recovers
must equal the exact durable state it crashed with.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.api import open_store
from repro.api.levels import negotiate
from repro.chaos.faults import FaultController
from repro.chaos.scenario import FaultEvent, Scenario
from repro.core.events import Operation
from repro.core.history import History
from repro.fleet import migration
from repro.fleet.spec import FleetSpec
from repro.gryff.cluster import GryffCluster
from repro.gryff.config import GryffConfig, GryffVariant
from repro.net.check import TraceCheck
from repro.net.cluster import LiveProcess
from repro.net.load import build_pairs_and_executor, build_sessions
from repro.net.recorder import RecordingHistory, TraceWriter
from repro.net.spec import GRYFF_PROTOCOLS, SPANNER_PROTOCOLS, ClusterSpec
from repro.obs import instrument as obs
from repro.sim.clock import TrueTime
from repro.sim.stats import LatencyRecorder
from repro.spanner.cluster import SpannerCluster, augment_with_server_commits
from repro.spanner.config import SpannerConfig, Variant
from repro.spanner.replication import LeaderLease
from repro.workloads.clients import ClosedLoopDriver

__all__ = ["NodeRecovery", "ChaosReport", "run_scenario",
           "augment_gryff_with_server_installs"]


# --------------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------------- #
@dataclass
class NodeRecovery:
    """Outcome of one crash/restart cycle: does the recovered durable state
    equal the state the node crashed with?"""

    node: str
    matches: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Everything :func:`run_scenario` measured, plus the verdict."""

    scenario: str
    backend: str
    protocol: str
    model: str
    expect_clean: bool
    ops: int = 0
    epochs: int = 0
    satisfied: bool = True
    #: ``EpochVerdict.describe()`` of every violating epoch.
    violations: List[str] = field(default_factory=list)
    #: Violating epochs that do NOT overlap any fault window — real bugs.
    violations_outside_windows: List[str] = field(default_factory=list)
    recoveries: List[NodeRecovery] = field(default_factory=list)
    fault_windows: List[Tuple[float, float]] = field(default_factory=list)
    fault_counters: Dict[str, int] = field(default_factory=dict)
    #: Spanner only: ``(time, holder, term)`` lease grants per shard.
    lease_transitions: Dict[str, List[Tuple]] = field(default_factory=dict)
    abandoned: int = 0
    reconstructed: int = 0
    trace_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        """The scenario's guarantee: load actually ran, every restarted node
        recovered its exact pre-crash durable state, and the only consistency
        violations (if any) fall inside declared fault windows — none at all
        for ``expect_clean`` scenarios."""
        if self.ops == 0 or not all(r.matches for r in self.recoveries):
            return False
        if self.expect_clean:
            return self.satisfied
        return not self.violations_outside_windows

    def describe(self) -> str:
        lines = [
            f"scenario {self.scenario} [{self.backend}] "
            f"protocol={self.protocol} model={self.model}: "
            f"{'OK' if self.ok else 'FAILED'}",
            f"  ops={self.ops} epochs={self.epochs} abandoned={self.abandoned}"
            f" reconstructed={self.reconstructed}",
        ]
        if self.fault_counters:
            counts = " ".join(f"{k}={v}"
                              for k, v in sorted(self.fault_counters.items()))
            lines.append(f"  faults: {counts}")
        for recovery in self.recoveries:
            status = "recovered" if recovery.matches else "DIVERGED"
            suffix = f" ({recovery.detail})" if recovery.detail else ""
            lines.append(f"  {recovery.node}: {status}{suffix}")
        for name, transitions in sorted(self.lease_transitions.items()):
            terms = ", ".join(f"term {term}@{t:.0f}ms"
                              for t, _holder, term in transitions)
            lines.append(f"  lease {name}: {terms}")
        if self.violations:
            inside = len(self.violations) - len(self.violations_outside_windows)
            lines.append(f"  violations: {len(self.violations)} "
                         f"({inside} inside fault windows)")
            for text in self.violations_outside_windows:
                lines.append(f"    OUTSIDE WINDOW: {text}")
        else:
            lines.append("  violations: none")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "backend": self.backend,
            "protocol": self.protocol,
            "model": self.model,
            "ok": self.ok,
            "ops": self.ops,
            "epochs": self.epochs,
            "satisfied": self.satisfied,
            "abandoned": self.abandoned,
            "reconstructed": self.reconstructed,
            "violations": list(self.violations),
            "violations_outside_windows": list(self.violations_outside_windows),
            "recoveries": [{"node": r.node, "matches": r.matches,
                            "detail": r.detail} for r in self.recoveries],
            "fault_windows": [list(w) for w in self.fault_windows],
            "fault_counters": dict(self.fault_counters),
            "lease_transitions": {k: [list(t) for t in v]
                                  for k, v in self.lease_transitions.items()},
            "trace": self.trace_path,
        }


# --------------------------------------------------------------------------- #
# Durable-state snapshots (recovery determinism oracle)
# --------------------------------------------------------------------------- #
def _gryff_snapshot(replica) -> Dict[str, Any]:
    return {key: (replica.values.get(key), carstamp.as_tuple())
            for key, carstamp in replica.carstamps.items()}


def _spanner_snapshot(shard) -> Dict[str, Any]:
    return {"versions": sorted(shard.store.all_versions())}


def _node_snapshot(node) -> Dict[str, Any]:
    if hasattr(node, "carstamps"):
        return _gryff_snapshot(node)
    return _spanner_snapshot(node)


def _compare_recovery(name: str, before: Dict[str, Any],
                      node) -> NodeRecovery:
    after = _node_snapshot(node)
    if before == after:
        return NodeRecovery(node=name, matches=True)
    return NodeRecovery(
        node=name, matches=False,
        detail=f"recovered state differs from the pre-crash durable state "
               f"({len(str(before))}B expected, {len(str(after))}B recovered)")


# --------------------------------------------------------------------------- #
# History augmentation: server state the clients never saw
# --------------------------------------------------------------------------- #
def augment_gryff_with_server_installs(history: History,
                                       invoked_at: float = 0.0) -> History:
    """Add pending writes for carstamps that were read but never recorded.

    An abandoned write (client timed out mid-protocol) can still install its
    value on a quorum; later reads then return a ``(key, carstamp)`` no
    operation in the history wrote.  The model's "add zero or more
    responses" clause covers this: synthesize the missing write as a
    *pending* operation by its writer (the carstamp names it), invoked no
    later than the first read that observed it and ``invoked_at``.
    """
    written: set = set()
    observed: Dict[Tuple[str, Tuple], Tuple[Any, float]] = {}
    for op in history:
        carstamp = tuple(op.meta.get("carstamp", (0, 0, "")))
        if carstamp == (0, 0, ""):
            continue
        if op.is_mutation:
            written.add((op.key, carstamp))
        elif op.is_complete:
            key = (op.key, carstamp)
            if key not in observed or op.invoked_at < observed[key][1]:
                observed[key] = (op.value, op.invoked_at)
    orphans = {key: seen for key, seen in observed.items()
               if key not in written}
    if not orphans:
        return history
    augmented = History()
    augmented.extend(history)
    for (key, carstamp), (value, first_read_at) in sorted(
            orphans.items(), key=lambda item: repr(item[0])):
        writer = carstamp[2] or "unknown"
        augmented.add(Operation.write(
            writer, key, value,
            invoked_at=min(invoked_at, first_read_at), responded_at=None,
            carstamp=carstamp, reconstructed=True,
        ))
    return augmented


def _augmented_history(protocol: str, history: History, nodes,
                       invoked_at: float) -> History:
    if protocol in GRYFF_PROTOCOLS:
        return augment_gryff_with_server_installs(history, invoked_at)
    return augment_with_server_commits(history, nodes, invoked_at=invoked_at)


# --------------------------------------------------------------------------- #
# Checking and judging
# --------------------------------------------------------------------------- #
def _check_and_judge(report: ChaosReport, scenario: Scenario,
                     augmented: History, run_start: float) -> None:
    checked = TraceCheck(
        report.protocol, report.model, min_epoch_ops=8,
        fault_windows=scenario.fault_windows(),
    ).check_history(augmented, anchor=run_start)
    report.ops = checked.ops_checked
    report.epochs = checked.epochs
    report.satisfied = checked.satisfied
    report.fault_windows = checked.fault_windows
    report.violations = checked.violations
    report.violations_outside_windows = checked.violations_outside_windows


# --------------------------------------------------------------------------- #
# Load plumbing
# --------------------------------------------------------------------------- #
def _timeout_executor(env, executor, op_timeout_ms: float,
                      counter: List[int]):
    """Wrap ``executor`` with a client-side operation timeout.

    An operation stuck past the timeout (its server crashed or is
    partitioned away) is interrupted and announced as abandoned — the
    invocation is closed in the trace and the closed loop moves on, exactly
    what a real client with a request deadline does.
    """
    def run(session, spec):
        proc = env.process(executor(session, spec))
        yield env.any_of([proc, env.timeout(op_timeout_ms)])
        if proc.is_alive:
            proc.interrupt()
            session._client._note_abandoned()
            counter[0] += 1

    return run


def _resolve_groups(groups, session_names: List[str]) -> List[List[str]]:
    """Expand the ``"@clients"`` placeholder to every session name."""
    return [[member for name in group
             for member in (session_names if name == "@clients" else [name])]
            for group in groups]


def _reset_durable_state(trace_dir: str) -> str:
    """Start from empty durable state; returns the WAL directory.  Only what
    the engine itself writes goes — ``wal/`` (node WALs, checkpoints, the
    migration journal) and ``trace.jsonl`` — never a caller's other files."""
    wal_dir = os.path.join(trace_dir, "wal")
    shutil.rmtree(wal_dir, ignore_errors=True)
    os.makedirs(wal_dir)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(trace_dir, "trace.jsonl"))
    return wal_dir


# --------------------------------------------------------------------------- #
# The migration controller as one more crashable unit
# --------------------------------------------------------------------------- #
class _MigrationUnit:
    """``migrate`` starts a :class:`~repro.fleet.migration.
    MigrationController` under the load (dying at ``crash_phase`` if asked);
    ``recover_controller`` replays its journal, which must give back the
    durable placement the clients route by — a restarted node's oracle."""

    NAME = "migration-controller"

    def __init__(self, store, wal_dir: str):
        self.store = store      # a FleetStore: placement, tracker, fleet
        self.journal_path = os.path.join(wal_dir, f"{self.NAME}.wal")
        self._initial = store.placement.copy()
        #: One env process per ``migrate`` event.
        self.procs: List[Any] = []

    def migrate(self, event: FaultEvent) -> None:
        plan = migration.MigrationPlan.parse(
            f"{event.at_ms:g}:{event.args['plan']}")
        controller = migration.MigrationController(
            self.store.fleet, self.store, journal_path=self.journal_path,
            crash_phase=event.args.get("crash_phase"))

        def run():
            try:
                yield from controller.run_one(plan)
            except migration.ControllerCrashed:
                # The in-process stand-in for kill -9: the journal is
                # closed and the transient freeze/mirror marks (process
                # state) die with the controller; the load keeps running.
                self.store.placement.clear_transient()
            finally:
                controller.close()
                # Free its admin endpoint's name for the next controller
                # (the live transport has no deregister() of its own).
                self.store.process.transport._local.pop(
                    controller.admin.name, None)

        self.procs.append(self.store.env.process(run()))

    def recovery(self, unfinished: bool) -> NodeRecovery:
        """Replay the journal: it must give the live placement (pre-flip
        until ``flipped`` is durable), with a migration pending or not as
        the caller expects."""
        placement, pending = migration.recover_placement(self.journal_path,
                                                         self._initial)
        live = self.store.placement
        return NodeRecovery(
            node=self.NAME,
            matches=(placement.to_dict() == live.to_dict()
                     and (pending is not None) == unfinished),
            detail=f"journal epoch {placement.version}, live epoch "
                   f"{live.version}, {pending or 'nothing'} unfinished")


# --------------------------------------------------------------------------- #
# The two backends: everything that differs between sim and live
# --------------------------------------------------------------------------- #
class _SimBackend:
    """A simulated cluster on the discrete-event kernel.  Faults are
    synchronous pokes at it, so ``crash``/``restart`` wait on nothing."""

    migrations = None   # fleets exist only live (``Scenario.backends``)

    def __init__(self, scenario: Scenario, wal_dir: str,
                 controller: FaultController):
        self.leases: Dict[str, LeaderLease] = {}
        if scenario.protocol in GRYFF_PROTOCOLS:
            cluster = GryffCluster(GryffConfig(
                variant=GryffVariant(scenario.protocol), seed=scenario.seed,
                sites=["CA", "VA", "IR", "OR", "JP"][:scenario.num_servers]),
                wal_dir=wal_dir)
            #: Name -> current node; the cluster swaps restarted nodes in.
            self.nodes = cluster.replicas
            self._crash, self._restart = (cluster.crash_replica,
                                          cluster.restart_replica)
        else:
            config = SpannerConfig(variant=Variant(scenario.protocol),
                                   num_shards=scenario.num_servers,
                                   seed=scenario.seed)
            self.leases = {config.shard_name(i): LeaderLease(scenario.lease_ms)
                           for i in range(scenario.num_servers)}
            cluster = SpannerCluster(config, wal_dir=wal_dir,
                                     leases=self.leases)
            self.nodes = cluster.shards
            self._crash, self._restart = (cluster.crash_shard,
                                          cluster.restart_shard)
        cluster.network.faults = controller
        self.cluster = cluster
        self.sites = list(cluster.config.sites)

    async def open(self, history: History):
        self.cluster.history = history
        return open_store(self.cluster)

    def instrument(self, metrics) -> None:
        for name in list(self.nodes):
            obs.instrument_node(metrics, name,
                                partial(self.nodes.__getitem__, name))

    def crash(self, name: str):
        self._crash(name)
        return ()

    def restart(self, name: str):
        self._restart(name)
        return ()

    def set_skew(self, name: str, offset_ms: float) -> None:
        skewed = TrueTime(self.cluster.env,
                          epsilon=self.cluster.truetime.epsilon)
        skewed.offset_ms = offset_ms
        self.nodes[name].truetime = skewed

    def set_epsilon(self, epsilon_ms: float) -> None:
        self.cluster.truetime.epsilon = epsilon_ms
        for shard in self.nodes.values():
            shard.truetime.epsilon = epsilon_ms

    async def run(self, driver, nemesis) -> None:
        driver.start()
        self.cluster.env.run()

    async def stop(self) -> None:
        pass


def _as_event(env, coroutine):
    """Bridge asyncio -> env: start ``coroutine`` on the running loop and
    return an env event that fires with its outcome, so an env process (the
    nemesis) can ``yield`` a live process's async ``start()``/``stop()``."""
    event = env.event()

    def settle(task):
        if task.exception() is None:
            event.succeed(task.result())
        else:
            event.fail(task.exception())

    asyncio.ensure_future(coroutine).add_done_callback(settle)
    return event


class _LiveBackend:
    """One :class:`~repro.net.cluster.LiveProcess` per server node over real
    asyncio TCP and a client store (a fleet store for several groups).  A
    crash stops the node's process; a restart boots a fresh one on its WAL."""

    def __init__(self, scenario: Scenario, wal_dir: str,
                 controller: FaultController):
        protocol, params = scenario.protocol, {"seed": scenario.seed}
        self.fleet = self._node_configs = self.store = self.migrations = None
        if scenario.num_groups > 1:
            self.fleet = FleetSpec.build(
                protocol=protocol, num_groups=scenario.num_groups,
                nodes_per_group=scenario.num_servers, base_port=0,
                placement_seed=scenario.seed, params=params)
            self.spec = self.fleet.merged_spec()
            self._node_configs = self.fleet.node_configs()
        else:
            build = (ClusterSpec.gryff if protocol in GRYFF_PROTOCOLS
                     else ClusterSpec.spanner)
            self.spec = build(scenario.num_servers, variant=protocol,
                              params=params)
        for node in self.spec.nodes.values():
            node.port = 0   # ephemeral; propagated into the shared spec
        self.leases = ({name: LeaderLease(scenario.lease_ms)
                        for name in self.spec.server_names()}
                       if protocol in SPANNER_PROTOCOLS else {})
        self.sites = self.spec.sites()
        self.procs: Dict[str, LiveProcess] = {}
        self._wal_dir, self._controller = wal_dir, controller

    def _boot(self, name: str):
        """Install a fresh process for ``name`` (it recovers from the node's
        WAL); returns the coroutine that binds its listener."""
        proc = self.procs[name] = LiveProcess(
            self.spec, host_nodes=[name], wal_dir=self._wal_dir,
            leases=self.leases, faults=self._controller,
            node_configs=self._node_configs)
        return proc.start()

    async def open(self, history: History):
        for name in self.spec.server_names():
            await self._boot(name)
        self.store = open_store(self.fleet or self.spec, history=history,
                                recorder=LatencyRecorder())
        self.store.process.transport.faults = self._controller
        if self.fleet is not None:
            self.migrations = _MigrationUnit(self.store, self._wal_dir)
        return self.store

    @property
    def nodes(self) -> Dict[str, Any]:
        return {name: proc.nodes[name] for name, proc in self.procs.items()}

    def instrument(self, metrics) -> None:
        for name in list(self.procs):
            obs.instrument_process(
                metrics, partial(self.procs.__getitem__, name), label=name)
        obs.instrument_transport(metrics, self.store.process.transport,
                                 node="clients")

    def crash(self, name: str):
        self.procs[name].close_wals()
        yield _as_event(self.store.env, self.procs[name].stop())

    def restart(self, name: str):
        yield _as_event(self.store.env, self._boot(name))

    def set_skew(self, name: str, offset_ms: float) -> None:
        self.procs[name].truetime.offset_ms = offset_ms

    def set_epsilon(self, epsilon_ms: float) -> None:
        clocks = [proc.truetime for proc in self.procs.values()]
        for truetime in clocks + [self.store._truetime]:
            truetime.epsilon = epsilon_ms

    async def run(self, driver, nemesis) -> None:
        await self.store.start()
        # drive() awaits whatever start() returns, racing the event pump;
        # the nemesis may outlast the load (a late restart, a migration
        # still purging), so it waits on it along with the client loops.
        await self.store.drive(SimpleNamespace(
            start=lambda: driver.start() + [nemesis]))

    async def stop(self) -> None:
        if self.store is not None:
            await self.store.stop()
        for proc in self.procs.values():
            await proc.stop()


# --------------------------------------------------------------------------- #
# The nemesis: one env process, one action table, both backends
# --------------------------------------------------------------------------- #
def _nemesis(env, scenario: Scenario, deployment,
             controller: FaultController, session_names: List[str],
             report: ChaosReport):
    """Step the scenario's timeline on the run's own clock (simulated or
    wall), then wait out any migration still in flight."""
    migrations = deployment.migrations
    snapshots: Dict[str, Dict[str, Any]] = {}

    def crash(event):
        snapshots[event.target] = _node_snapshot(
            deployment.nodes[event.target])
        controller.isolate(event.target)
        yield from deployment.crash(event.target)

    def restart(event):
        yield from deployment.restart(event.target)
        controller.restore(event.target)
        report.recoveries.append(_compare_recovery(
            event.target, snapshots.pop(event.target, {}),
            deployment.nodes[event.target]))

    # An action returns a generator of the env events it has to wait on
    # (a live process stopping or starting), or None.
    actions = {
        "crash": crash,
        "restart": restart,
        "partition": lambda e: controller.partition(
            *_resolve_groups(e.args["groups"], session_names)),
        "heal": lambda e: controller.heal(),
        "drop": lambda e: controller.drop_matching(**e.args),
        "delay": lambda e: controller.delay_matching(
            **{"extra_ms": 20.0, **e.args}),
        "clear_rules": lambda e: controller.clear_rules(),
        "skew": lambda e: deployment.set_skew(
            e.target, e.args.get("offset_ms", 0.0)),
        "epsilon": lambda e: deployment.set_epsilon(e.args["epsilon_ms"]),
        "migrate": lambda e: migrations.migrate(e),
        "recover_controller": lambda e: report.recoveries.append(
            migrations.recovery(unfinished=True)),
    }
    start = env.now
    for event in scenario.sorted_events():
        wait = start + event.at_ms - env.now
        if wait > 0:
            yield env.timeout(wait)
        yield from actions[event.action](event) or ()
    if migrations is not None and migrations.procs:
        for proc in migrations.procs:
            yield proc
        report.recoveries.append(migrations.recovery(unfinished=False))


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #
async def _run(scenario: Scenario, backend: str, trace_dir: str,
               metrics: Optional[Any]) -> ChaosReport:
    level = negotiate(scenario.protocol, scenario.level)
    report = ChaosReport(
        scenario=scenario.name, backend=backend, protocol=scenario.protocol,
        model=level.checker_model, expect_clean=scenario.expect_clean,
        trace_path=os.path.join(trace_dir, "trace.jsonl"))
    wal_dir = _reset_durable_state(trace_dir)
    controller = FaultController(seed=scenario.seed)
    deployment = {"sim": _SimBackend, "live": _LiveBackend}[backend](
        scenario, wal_dir, controller)
    writer = TraceWriter(report.trace_path, meta={
        "protocol": scenario.protocol, "level": level.value,
        "scenario": scenario.name, "backend": backend,
        "model": report.model}, fsync=False)
    history = RecordingHistory(writer)
    abandoned = [0]
    try:
        store = await deployment.open(history)
        sessions = build_sessions(store, deployment.sites,
                                  scenario.num_clients, "chaos",
                                  scenario.level)
        pairs, executor = build_pairs_and_executor(
            store, sessions, "ycsb", scenario.write_ratio,
            scenario.conflict_rate, 0, scenario.seed)
        driver = ClosedLoopDriver(
            store.env, pairs,
            executor=_timeout_executor(store.env, executor,
                                       scenario.op_timeout_ms, abandoned),
            duration_ms=scenario.duration_ms,
            think_time_ms=scenario.think_time_ms)
        if metrics is not None:
            obs.instrument_fault_controller(metrics, controller)
            # Getters read through the backend's node / process table, so
            # whatever a restart installs is followed at the next scrape.
            deployment.instrument(metrics)
        run_start = store.env.now
        nemesis = store.env.process(_nemesis(
            store.env, scenario, deployment, controller,
            [session.name for session in sessions], report))
        await deployment.run(driver, nemesis)
    finally:
        await deployment.stop()
        writer.close()

    report.abandoned = abandoned[0]
    report.fault_counters = controller.counters()
    report.lease_transitions = {
        name: list(lease.transitions)
        for name, lease in deployment.leases.items() if lease.transitions}
    windows = scenario.fault_windows()
    augmented = _augmented_history(
        scenario.protocol, history, deployment.nodes.values(),
        invoked_at=run_start + (windows[0][0] if windows else 0.0))
    report.reconstructed = len(augmented) - len(history)
    _check_and_judge(report, scenario, augmented, run_start=run_start)
    return report


def run_scenario(scenario: Scenario, backend: str = "sim",
                 trace_dir: Optional[str] = None,
                 metrics: Optional[Any] = None) -> ChaosReport:
    """Run ``scenario`` on ``backend`` (``"sim"`` or ``"live"``).

    ``trace_dir`` receives the JSONL trace and, under ``wal/``, the per-node
    WALs and the migration journal (a fresh temporary directory when
    ``None``); whatever an earlier run left of those is removed first, so
    every run starts from empty durable state.  ``metrics`` — a
    :class:`~repro.obs.MetricsRegistry` — instruments the fault controller
    and every node for the run (``None`` attaches nothing and leaves every
    code path byte-identical).  Returns a :class:`ChaosReport`;
    ``report.ok`` is the scenario's verdict.
    """
    actions = {event.action for event in scenario.events}
    if scenario.protocol in GRYFF_PROTOCOLS and actions & {"skew", "epsilon"}:
        raise ValueError("skew/epsilon faults need a TrueTime backend "
                         "(Spanner protocols)")
    if actions & {"migrate", "recover_controller"} and scenario.num_groups < 2:
        raise ValueError("migrate/recover_controller need a fleet "
                         "(num_groups > 1)")
    if backend not in scenario.backends:
        raise ValueError(
            f"scenario {scenario.name!r} cannot run on backend {backend!r} "
            f"(it runs on: {', '.join(scenario.backends)})")
    if trace_dir is None:
        trace_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    return asyncio.run(_run(scenario, backend, trace_dir, metrics))
