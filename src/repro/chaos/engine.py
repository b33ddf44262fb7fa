"""The chaos engine: run a :class:`~repro.chaos.scenario.Scenario` against a
simulated or live cluster and verify the declared guarantees held.

One scenario, two backends, one oracle:

* **sim** — a :class:`~repro.gryff.cluster.GryffCluster` /
  :class:`~repro.spanner.cluster.SpannerCluster` with a
  :class:`~repro.chaos.faults.FaultController` on its network and per-node
  write-ahead logs; the nemesis is a simulation process stepping the event
  timeline.
* **live** — one :class:`~repro.net.cluster.LiveProcess` per server node
  over real asyncio TCP (ephemeral ports, shared cluster spec), a
  :class:`~repro.api.store.LiveStore` of clients, and an async nemesis task.

Either way the load is the same YCSB workload through the unified
:mod:`repro.api` surface, the history streams through the existing
:class:`~repro.net.recorder.TraceWriter` pipeline, and the verdict comes
from the streaming checker: every epoch the declared consistency level holds,
or the violating epoch overlaps a declared fault window.  Crashed nodes'
stuck operations are closed as ``abandon`` records by a per-operation
timeout, and each restarted node's recovered state is compared against the
exact durable state it crashed with.
"""

from __future__ import annotations

import asyncio
import tempfile
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api import open_store, ycsb_executor
from repro.api.levels import negotiate
from repro.chaos.faults import FaultController
from repro.chaos.scenario import FaultEvent, Scenario
from repro.core.events import Operation
from repro.core.history import History
from repro.net.recorder import RecordingHistory, TraceWriter
from repro.sim.stats import LatencyRecorder
from repro.workloads.clients import ClosedLoopDriver
from repro.workloads.ycsb import YcsbWorkload

__all__ = ["NodeRecovery", "ChaosReport", "run_scenario",
           "augment_gryff_with_server_installs"]

GRYFF_PROTOCOLS = ("gryff", "gryff-rsc")
SPANNER_PROTOCOLS = ("spanner", "spanner-rss")


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
    def recovered_cleanly(self) -> bool:
        return all(r.matches for r in self.recoveries)

    @property
    def ok(self) -> bool:
        """The scenario's guarantee: load actually ran, every restarted node
        recovered its exact pre-crash durable state, and the only consistency
        violations (if any) fall inside declared fault windows — none at all
        for ``expect_clean`` scenarios."""
        if self.ops == 0 or not self.recovered_cleanly:
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
    from repro.spanner.cluster import augment_with_server_commits

    return augment_with_server_commits(history, nodes, invoked_at=invoked_at)


# --------------------------------------------------------------------------- #
# Checking and judging
# --------------------------------------------------------------------------- #
def _check_and_judge(report: ChaosReport, scenario: Scenario,
                     augmented: History, run_start: float) -> None:
    from repro.net.check import TraceCheck

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
# Load plumbing shared by both backends
# --------------------------------------------------------------------------- #
def _timeout_executor(env, op_timeout_ms: float, counter: List[int]):
    """Wrap the YCSB executor with a client-side operation timeout.

    An operation stuck past the timeout (its server crashed or is
    partitioned away) is interrupted and announced as abandoned — the
    invocation is closed in the trace and the closed loop moves on, exactly
    what a real client with a request deadline does.
    """
    def run(session, spec):
        proc = env.process(ycsb_executor(session, spec))
        yield env.any_of([proc, env.timeout(op_timeout_ms)])
        if proc.is_alive:
            proc.interrupt()
            session._client._note_abandoned()
            counter[0] += 1

    return run


def _build_sessions(store, scenario: Scenario, sites: List[str]):
    sessions = []
    for index in range(scenario.num_clients):
        site = sites[index % len(sites)]
        sessions.append(store.session(
            site=site, name=f"chaos{index + 1}@{site}",
            level=scenario.level))
    return sessions


def _build_pairs(sessions, scenario: Scenario):
    return [
        (session, YcsbWorkload(client_id=session.name,
                               write_ratio=scenario.write_ratio,
                               conflict_rate=scenario.conflict_rate,
                               seed=scenario.seed * 1000 + index))
        for index, session in enumerate(sessions)
    ]


def _trace_writer(path: str, scenario: Scenario, backend: str,
                  model: str) -> TraceWriter:
    return TraceWriter(path, meta={
        "protocol": scenario.protocol,
        "level": negotiate(scenario.protocol, scenario.level).value,
        "scenario": scenario.name,
        "backend": backend,
        "model": model,
    }, fsync=False)


def _resolve_groups(groups, session_names: List[str]) -> List[List[str]]:
    resolved = []
    for group in groups:
        members: List[str] = []
        for name in group:
            if name == "@clients":
                members.extend(session_names)
            else:
                members.append(name)
        resolved.append(members)
    return resolved


def _apply_rule_event(controller: FaultController, event: FaultEvent,
                      session_names: List[str]) -> None:
    """Partition / drop / delay / clear_rules — identical on both backends."""
    args = event.args
    if event.action == "partition":
        controller.partition(*_resolve_groups(args["groups"], session_names))
    elif event.action == "heal":
        controller.heal()
    elif event.action == "drop":
        controller.drop_matching(src=args.get("src"), dst=args.get("dst"),
                                 kinds=args.get("kinds"),
                                 probability=args.get("probability", 1.0))
    elif event.action == "delay":
        controller.delay_matching(args.get("extra_ms", 20.0),
                                  src=args.get("src"), dst=args.get("dst"),
                                  kinds=args.get("kinds"),
                                  jitter_ms=args.get("jitter_ms", 0.0),
                                  reorder=args.get("reorder", True),
                                  probability=args.get("probability", 1.0))
    elif event.action == "clear_rules":
        controller.clear_rules()


def _first_window_start(scenario: Scenario) -> float:
    windows = scenario.fault_windows()
    return windows[0][0] if windows else 0.0


# --------------------------------------------------------------------------- #
# Simulated backend
# --------------------------------------------------------------------------- #
def _run_sim(scenario: Scenario, trace_dir: str,
             metrics: Optional[Any] = None) -> ChaosReport:
    protocol = scenario.protocol
    model = negotiate(protocol, scenario.level).checker_model
    report = ChaosReport(scenario=scenario.name, backend="sim",
                         protocol=protocol, model=model,
                         expect_clean=scenario.expect_clean)
    wal_dir = os.path.join(trace_dir, "wal")
    os.makedirs(wal_dir, exist_ok=True)

    leases: Dict[str, Any] = {}
    if protocol in GRYFF_PROTOCOLS:
        from repro.gryff.cluster import GryffCluster
        from repro.gryff.config import GryffConfig, GryffVariant

        sites = ["CA", "VA", "IR", "OR", "JP"][:scenario.num_servers]
        variant = (GryffVariant.GRYFF if protocol == "gryff"
                   else GryffVariant.GRYFF_RSC)
        cluster = GryffCluster(GryffConfig(variant=variant, sites=sites,
                                           seed=scenario.seed),
                               wal_dir=wal_dir)
    else:
        from repro.spanner.cluster import SpannerCluster
        from repro.spanner.config import SpannerConfig, Variant
        from repro.spanner.replication import LeaderLease

        variant = (Variant.SPANNER if protocol == "spanner"
                   else Variant.SPANNER_RSS)
        config = SpannerConfig(variant=variant,
                               num_shards=scenario.num_servers,
                               seed=scenario.seed)
        leases = {config.shard_name(i): LeaderLease(scenario.lease_ms)
                  for i in range(scenario.num_servers)}
        cluster = SpannerCluster(config, wal_dir=wal_dir, leases=leases)

    controller = FaultController(seed=scenario.seed)
    cluster.network.faults = controller
    trace_path = os.path.join(trace_dir, "trace.jsonl")
    writer = _trace_writer(trace_path, scenario, "sim", model)
    cluster.history = RecordingHistory(writer)
    report.trace_path = trace_path

    store = open_store(cluster)
    sites = list(cluster.config.sites)
    sessions = _build_sessions(store, scenario, sites)
    session_names = [session.name for session in sessions]
    abandoned = [0]
    driver = ClosedLoopDriver(
        cluster.env, _build_pairs(sessions, scenario),
        executor=_timeout_executor(cluster.env, scenario.op_timeout_ms,
                                   abandoned),
        duration_ms=scenario.duration_ms,
        think_time_ms=scenario.think_time_ms)

    def node_map():
        return (cluster.replicas if protocol in GRYFF_PROTOCOLS
                else cluster.shards)

    if metrics is not None:
        from repro.obs.instrument import (
            instrument_fault_controller,
            instrument_node,
        )

        instrument_fault_controller(metrics, controller)
        # Getters read through node_map so crash/restart replacements are
        # followed at the next scrape.
        for node_name in list(node_map()):
            instrument_node(metrics, node_name,
                            (lambda n: lambda: node_map()[n])(node_name))

    snapshots: Dict[str, Dict[str, Any]] = {}

    def nemesis():
        start = cluster.env.now
        for event in scenario.sorted_events():
            wait = start + event.at_ms - cluster.env.now
            if wait > 0:
                yield cluster.env.timeout(wait)
            if event.action == "crash":
                snapshots[event.target] = _node_snapshot(
                    node_map()[event.target])
                if protocol in GRYFF_PROTOCOLS:
                    cluster.crash_replica(event.target)
                else:
                    cluster.crash_shard(event.target)
                controller.isolate(event.target)
            elif event.action == "restart":
                if protocol in GRYFF_PROTOCOLS:
                    node = cluster.restart_replica(event.target)
                else:
                    node = cluster.restart_shard(event.target)
                controller.restore(event.target)
                report.recoveries.append(_compare_recovery(
                    event.target, snapshots.pop(event.target, {}), node))
            elif event.action == "skew":
                from repro.sim.clock import TrueTime

                shard = cluster.shards[event.target]
                skewed = TrueTime(cluster.env,
                                  epsilon=cluster.truetime.epsilon)
                skewed.offset_ms = event.args.get("offset_ms", 0.0)
                shard.truetime = skewed
            elif event.action == "epsilon":
                cluster.truetime.epsilon = event.args["epsilon_ms"]
                for shard in cluster.shards.values():
                    shard.truetime.epsilon = event.args["epsilon_ms"]
            else:
                _apply_rule_event(controller, event, session_names)

    cluster.env.process(nemesis())
    driver.start()
    cluster.env.run()
    writer.close()

    report.abandoned = abandoned[0]
    report.fault_counters = controller.counters()
    if leases:
        report.lease_transitions = {
            name: list(lease.transitions) for name, lease in leases.items()
            if lease.transitions}
    history = (cluster.kv_history() if hasattr(cluster, "kv_history")
               else cluster.history)
    augmented = _augmented_history(
        protocol, history,
        node_map().values(), invoked_at=_first_window_start(scenario))
    report.reconstructed = len(augmented) - len(history)
    _check_and_judge(report, scenario, augmented, run_start=0.0)
    return report


# --------------------------------------------------------------------------- #
# Live backend
# --------------------------------------------------------------------------- #
async def _run_live_async(scenario: Scenario, trace_dir: str,
                          metrics: Optional[Any] = None) -> ChaosReport:
    from repro.net.cluster import LiveProcess
    from repro.net.spec import ClusterSpec

    protocol = scenario.protocol
    model = negotiate(protocol, scenario.level).checker_model
    report = ChaosReport(scenario=scenario.name, backend="live",
                         protocol=protocol, model=model,
                         expect_clean=scenario.expect_clean)
    wal_dir = os.path.join(trace_dir, "wal")
    os.makedirs(wal_dir, exist_ok=True)

    if protocol in GRYFF_PROTOCOLS:
        spec = ClusterSpec.gryff(num_replicas=scenario.num_servers,
                                 variant=protocol,
                                 params={"seed": scenario.seed})
    else:
        spec = ClusterSpec.spanner(num_shards=scenario.num_servers,
                                   variant=protocol,
                                   params={"seed": scenario.seed})
    for node in spec.nodes.values():
        node.port = 0   # ephemeral; propagated into the shared spec on bind

    controller = FaultController(seed=scenario.seed)
    leases: Dict[str, Any] = {}
    if protocol in SPANNER_PROTOCOLS:
        from repro.spanner.replication import LeaderLease

        leases = {name: LeaderLease(scenario.lease_ms)
                  for name in spec.server_names()}

    procs: Dict[str, LiveProcess] = {}
    for name in spec.server_names():
        proc = LiveProcess(spec, host_nodes=[name], wal_dir=wal_dir,
                           leases=leases, faults=controller)
        await proc.start()
        procs[name] = proc

    trace_path = os.path.join(trace_dir, "trace.jsonl")
    writer = _trace_writer(trace_path, scenario, "live", model)
    history = RecordingHistory(writer)
    report.trace_path = trace_path
    store = open_store(spec, history=history, recorder=LatencyRecorder())
    store.process.transport.faults = controller
    if metrics is not None:
        from repro.obs.instrument import (
            instrument_fault_controller,
            instrument_process,
            instrument_transport,
        )

        instrument_fault_controller(metrics, controller)
        # Getters read through the procs table so the fresh LiveProcess a
        # restart installs is followed at the next scrape.
        for node_name in list(procs):
            instrument_process(metrics,
                               (lambda n: lambda: procs[n])(node_name),
                               label=node_name)
        instrument_transport(metrics, store.process.transport,
                             node="clients")
    sessions = _build_sessions(store, scenario, spec.sites())
    session_names = [session.name for session in sessions]
    abandoned = [0]
    driver = ClosedLoopDriver(
        store.env, _build_pairs(sessions, scenario),
        executor=_timeout_executor(store.env, scenario.op_timeout_ms,
                                   abandoned),
        duration_ms=scenario.duration_ms,
        think_time_ms=scenario.think_time_ms)

    snapshots: Dict[str, Dict[str, Any]] = {}

    async def nemesis(run_start: float):
        loop_start = asyncio.get_running_loop().time()
        for event in scenario.sorted_events():
            wait = event.at_ms / 1000.0 - (
                asyncio.get_running_loop().time() - loop_start)
            if wait > 0:
                await asyncio.sleep(wait)
            if event.action == "crash":
                proc = procs[event.target]
                snapshots[event.target] = _node_snapshot(
                    proc.nodes[event.target])
                proc.close_wals()
                await proc.stop()
                controller.isolate(event.target)
            elif event.action == "restart":
                proc = LiveProcess(spec, host_nodes=[event.target],
                                   wal_dir=wal_dir, leases=leases,
                                   faults=controller)
                await proc.start()
                procs[event.target] = proc
                controller.restore(event.target)
                report.recoveries.append(_compare_recovery(
                    event.target, snapshots.pop(event.target, {}),
                    proc.nodes[event.target]))
            elif event.action == "skew":
                procs[event.target].truetime.offset_ms = (
                    event.args.get("offset_ms", 0.0))
            elif event.action == "epsilon":
                for proc in procs.values():
                    if proc.truetime is not None:
                        proc.truetime.epsilon = event.args["epsilon_ms"]
                if store._truetime is not None:
                    store._truetime.epsilon = event.args["epsilon_ms"]
            else:
                _apply_rule_event(controller, event, session_names)

    await store.start()
    run_start = store.env.now
    nemesis_task = asyncio.ensure_future(nemesis(run_start))
    try:
        await store.drive(driver)
        await nemesis_task
    finally:
        nemesis_task.cancel()
        await store.stop()
        for proc in procs.values():
            await proc.stop()
        writer.close()

    report.abandoned = abandoned[0]
    report.fault_counters = controller.counters()
    if leases:
        report.lease_transitions = {
            name: list(lease.transitions) for name, lease in leases.items()
            if lease.transitions}
    nodes = [proc.nodes[name] for name, proc in procs.items()
             if name in proc.nodes]
    augmented = _augmented_history(
        protocol, history, nodes,
        invoked_at=run_start + _first_window_start(scenario))
    report.reconstructed = len(augmented) - len(history)
    _check_and_judge(report, scenario, augmented, run_start=run_start)
    return report


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def run_scenario(scenario: Scenario, backend: str = "sim",
                 trace_dir: Optional[str] = None,
                 metrics: Optional[Any] = None) -> ChaosReport:
    """Run ``scenario`` on ``backend`` (``"sim"`` or ``"live"``).

    ``trace_dir`` holds the JSONL trace and the per-node WALs (a fresh
    temporary directory when ``None``).  ``metrics`` — a
    :class:`~repro.obs.MetricsRegistry` — instruments the fault controller
    and every node for the run (``None`` attaches nothing and leaves every
    code path byte-identical).  Returns a :class:`ChaosReport`;
    ``report.ok`` is the scenario's verdict.
    """
    if scenario.protocol in GRYFF_PROTOCOLS and any(
            e.action in ("skew", "epsilon") for e in scenario.events):
        raise ValueError("skew/epsilon faults need a TrueTime backend "
                         "(Spanner protocols)")
    if trace_dir is None:
        trace_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    if backend == "sim":
        return _run_sim(scenario, trace_dir, metrics=metrics)
    if backend == "live":
        return asyncio.run(_run_live_async(scenario, trace_dir,
                                           metrics=metrics))
    raise ValueError(f"unknown backend {backend!r} (sim or live)")
