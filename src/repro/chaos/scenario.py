"""Declarative chaos scenarios.

A :class:`Scenario` is a timeline of :class:`FaultEvent`\\ s injected into a
cluster while a YCSB load runs against it: crash and restart nodes, cut and
heal partitions, drop/delay/reorder messages, skew clocks, change the
TrueTime uncertainty bound, run/kill/recover a fleet's migration controller.
The same scenario object drives both backends — the simulated clusters and
the live asyncio TCP runtime — through
:func:`repro.chaos.engine.run_scenario`.

The oracle needs to know *when* misbehavior was allowed:
:meth:`Scenario.fault_windows` derives the closed intervals during which each
injected fault (plus ``window_slack_ms`` of recovery time) was active.  A
consistency violation whose epoch falls entirely outside every window is a
real bug; one inside a window is the injected fault doing its job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FaultEvent", "Scenario", "ACTIONS"]

#: Recognised fault actions, and what ``target``/``args`` mean for each:
#:
#: ``crash``       kill -9 node ``target`` (WAL frozen, endpoint dead)
#: ``restart``     restart node ``target``, recovering from its WAL
#: ``partition``   split the cluster into ``args["groups"]`` (lists of node
#:                 names; the placeholder ``"@clients"`` expands to every
#:                 client session name)
#: ``heal``        remove the partition
#: ``drop``        drop matching messages (``args``: src/dst/kinds/probability)
#: ``delay``       delay + optionally reorder matching messages
#:                 (``args``: extra_ms/jitter_ms/reorder/src/dst/kinds/probability)
#: ``clear_rules`` remove all drop/delay rules
#: ``skew``        offset node ``target``'s clock by ``args["offset_ms"]``
#:                 (0 restores; Spanner backends only)
#: ``epsilon``     set the TrueTime uncertainty to ``args["epsilon_ms"]``
#:                 (``args["restore"]: True`` marks the sweep's end)
#: ``migrate``     start the online migration ``args["plan"]`` (a
#:                 :class:`~repro.fleet.migration.MigrationPlan` string
#:                 minus its ``at_ms``, e.g. ``split:0.5:g1``) under the
#:                 load; ``args["crash_phase"]`` kills the controller on
#:                 reaching that phase (fleets only)
#: ``recover_controller``  replay the migration journal of a crashed
#:                 controller; it must give back the placement the clients
#:                 still route by (fleets only)
ACTIONS = ("crash", "restart", "partition", "heal", "drop", "delay",
           "clear_rules", "skew", "epsilon", "migrate", "recover_controller")


#: Fault action -> (window kind, one window per target node?, opens it?) for
#: :meth:`Scenario.fault_windows`; ``skew``/``epsilon`` decide by their args.
_WINDOWS = {
    "crash": ("crash", True, True),
    "restart": ("crash", True, False),
    "partition": ("partition", False, True),
    "heal": ("partition", False, False),
    "drop": ("rules", False, True),
    "delay": ("rules", False, True),
    "clear_rules": ("rules", False, False),
    "skew": ("skew", True, lambda args: bool(args.get("offset_ms", 0.0))),
    "epsilon": ("epsilon", False, lambda args: not args.get("restore")),
}


@dataclass(frozen=True)
class FaultEvent:
    """One step of the nemesis timeline, ``at_ms`` after load start."""

    at_ms: float
    action: str
    target: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r} "
                             f"(known: {ACTIONS})")
        if self.at_ms < 0:
            raise ValueError("at_ms must be >= 0")


@dataclass
class Scenario:
    """A named fault-injection experiment over a YCSB load."""

    name: str
    protocol: str
    description: str
    events: List[FaultEvent] = field(default_factory=list)
    #: Load duration (scenario-relative ms); the run ends when every client
    #: loop passes its deadline and in-flight operations resolve or time out.
    duration_ms: float = 2_400.0
    #: Shard groups of ``num_servers`` nodes each.  More than one group is a
    #: fleet behind placement routing (nodes are named ``g0/replica1``).
    num_groups: int = 1
    num_servers: int = 3
    num_clients: int = 4
    write_ratio: float = 0.5
    conflict_rate: float = 0.2
    seed: int = 1
    #: Declared consistency level (None = the protocol's native level).
    level: Optional[str] = None
    #: Client-side operation timeout: an operation still unresolved after
    #: this long (e.g. stuck on a crashed node) is interrupted and recorded
    #: as an ``abandon`` — the history stays well-formed under faults.
    op_timeout_ms: float = 400.0
    #: Closed-loop think time between operations.  Nonzero think time gives
    #: the run quiescent instants, which is where the streaming checker can
    #: cut epochs — finer epochs localize violations to fault windows.
    think_time_ms: float = 15.0
    #: Recovery slack appended to every fault window: effects of a fault
    #: (retries, reconnects, recovering nodes) linger briefly after the
    #: fault itself is lifted.
    window_slack_ms: float = 300.0
    #: A scenario whose faults are *within spec* (clock skew below epsilon,
    #: a widened epsilon): the checker must stay fully satisfied, fault
    #: windows notwithstanding.
    expect_clean: bool = False
    #: Spanner leader-lease duration (ms); leases are always in play for
    #: Spanner chaos runs so crash scenarios exercise failover fencing.
    lease_ms: float = 400.0

    # ------------------------------------------------------------------ #
    @property
    def backends(self) -> Tuple[str, ...]:
        """Who can run this: fleet routing and migration are live-only."""
        return ("sim", "live") if self.num_groups == 1 else ("live",)

    def sorted_events(self) -> List[FaultEvent]:
        return sorted(self.events, key=lambda e: e.at_ms)

    def crashed_nodes(self) -> List[str]:
        """Nodes the timeline crashes (in event order, deduplicated)."""
        seen: List[str] = []
        for event in self.sorted_events():
            if event.action == "crash" and event.target not in seen:
                seen.append(event.target)
        return seen

    def fault_windows(self) -> List[Tuple[float, float]]:
        """Closed ``[start, end]`` intervals (scenario-relative ms) during
        which injected faults license misbehavior.

        Openers pair with their closers — ``crash``/``restart`` per node,
        ``partition``/``heal``, ``drop``+``delay``/``clear_rules``,
        ``skew``/``skew(offset 0)`` per node, ``epsilon``/
        ``epsilon(restore)`` — and every closed window is extended by
        ``window_slack_ms`` of recovery time.  An unclosed fault stays open
        through the end of the run.  A migration — even one whose controller
        is killed — opens no window: it must be invisible to clients.
        """
        open_at: Dict[Tuple[str, Optional[str]], float] = {}
        windows: List[Tuple[float, float]] = []
        for event in self.sorted_events():
            if event.action not in _WINDOWS:
                continue
            kind, per_node, opens = _WINDOWS[event.action]
            if callable(opens):
                opens = opens(event.args)
            key = (kind, event.target if per_node else None)
            if opens:
                open_at.setdefault(key, event.at_ms)
            elif key in open_at:
                windows.append((open_at.pop(key),
                                event.at_ms + self.window_slack_ms))
        end = self.duration_ms + self.op_timeout_ms + self.window_slack_ms
        for start in open_at.values():
            windows.append((start, end))
        windows.sort()
        return windows
