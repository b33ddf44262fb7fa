"""The four workloads (names are final; later issues cite them).

Each one exists to put a different set of layers on the op path; the
``why`` strings are what ``BENCHMARK.json`` records.  Rates and latency
limits are absolute numbers frozen here from the seed commit's measured
``capacity_ops_s`` on the reference box (2 cores, see README, which also
says where and why they depart from the issue's 40 % / 75 % rule); limits
= 4 x the seed's base-rate p99 rounded up to one significant figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

__all__ = ["Workload", "KeyLoader", "retwis_executor", "WORKLOADS", "by_name",
           "SESSIONS", "SPAN_SESSIONS"]

#: Session pool of the timed phases / of the fixed-op traced passes.
SESSIONS = 32
SPAN_SESSIONS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str            # gryff-rsc | spanner-rss
    level: str               # declared consistency level: rsc | rss
    generator: str           # ycsb | retwis
    write_ratio: float       # ycsb only
    conflict_rate: float     # ycsb only
    private_keys: int        # ycsb only: keys per session besides the hot key
    preload: bool            # write every key once before warm-up
    groups: int              # 1 = plain cluster, >1 = fleet
    wal: bool                # server runs with --wal-dir (fsync per append)
    recorded: bool           # load process writes the JSONL trace + inline checker
    migrations: bool         # two online migrations under the base phase
    capacity_sessions: int   # closed-loop sessions of the capacity phase
    base_rate: float         # ops/s, open loop
    peak_rate: float
    read_limit_ms: float     # p99 limits of slo_rate_ops_s
    write_limit_ms: float
    #: Shares of --seconds given to the capacity / base / peak phases.
    shares: Tuple[float, float, float]
    #: Operations per session in the fixed-op traced passes, per second of
    #: --seconds (so the passes scale with the run length and the counts
    #: repeat for a given --seconds).
    span_ops_per_s: float

    @property
    def is_fleet(self) -> bool:
        return self.groups > 1

    def topology(self) -> Any:
        """A fresh topology with a fresh epoch and every port unbound (the
        server reports the ports the kernel chose)."""
        if self.is_fleet:
            from repro.fleet.spec import FleetSpec

            return FleetSpec.build(protocol=self.protocol,
                                   num_groups=self.groups, nodes_per_group=3,
                                   base_port=0, epoch=time.time())
        from repro.net.spec import ClusterSpec

        if self.protocol == "gryff-rsc":
            spec = ClusterSpec.gryff(num_replicas=3, variant=self.protocol,
                                     epoch=time.time())
        else:
            spec = ClusterSpec.spanner(
                num_shards=3, variant=self.protocol, epoch=time.time(),
                params={"truetime_epsilon_ms": 10.0})
        for node in spec.nodes.values():
            node.port = 0
        return spec

    def pairs(self, store: Any, sessions: int, seed: int
              ) -> Tuple[List[Tuple[Any, Any]], Any]:
        """``(session, generator)`` pairs and the executor, composed from
        the public API exactly as ``repro load`` does.  The seed reaches
        the generators only."""
        from repro.api import ycsb_executor

        sites = store.spec.sites()
        opened = [store.session(site=sites[index % len(sites)],
                                name=f"client{index + 1}@{sites[index % len(sites)]}",
                                level=self.level)
                  for index in range(sessions)]
        generators = [self.new_generator(session.name, seed * 1000 + index)
                      for index, session in enumerate(opened)]
        pairs = list(zip(opened, generators))
        if self.generator == "ycsb":
            return pairs, ycsb_executor
        return pairs, retwis_executor(
            {session.name: generator for session, generator in pairs})

    def new_generator(self, client: str, seed: int) -> Any:
        """One session's workload generator."""
        if self.generator == "ycsb":
            from repro.workloads.ycsb import YcsbWorkload

            return YcsbWorkload(client_id=client, write_ratio=self.write_ratio,
                                conflict_rate=self.conflict_rate,
                                num_private_keys=self.private_keys, seed=seed)
        from repro.workloads.retwis import RetwisWorkload

        return RetwisWorkload(num_keys=10_000, zipf_skew=0.7, seed=seed,
                              value_tag=f"{client}-")

    def migration_plans(self, window_ms: float, offset_ms: float) -> List[Any]:
        """Move a quarter of the ring to g1 a third of the way through the
        window and back to g0 at two thirds."""
        from repro.fleet.migration import MigrationPlan

        return [MigrationPlan.parse(
                    f"{offset_ms + window_ms / 3:.0f}:move:0.25-0.5:g1"),
                MigrationPlan.parse(
                    f"{offset_ms + 2 * window_ms / 3:.0f}:move:0.25-0.5:g0")]


#: Attempts a Retwis transaction may take before it counts as failed.  The
#: client gives every retry a fresh wound-wait priority, so under the
#: closed loop a transaction on a Zipf-hot key can lose 25 times in a row
#: (a few per 10 000 did); no operation of this benchmark may fail, so the
#: budget is raised and the starved transaction shows in the latency instead.
RETWIS_MAX_RETRIES = 1000


def retwis_executor(workload_by_session: Dict[str, Any]):
    """``repro.api.make_retwis_executor`` with a retry budget of
    ``RETWIS_MAX_RETRIES`` instead of the session default of 25."""
    from repro.api import TransactionAborted

    def executor(session, spec):
        generator = workload_by_session[session.name]
        try:
            if spec.read_only:
                yield from session.read_only(spec.read_keys)
            else:
                yield from session.txn(
                    spec.read_keys,
                    lambda _reads: {key: generator.unique_value()
                                    for key in spec.write_keys},
                    max_retries=RETWIS_MAX_RETRIES)
        except TransactionAborted:
            pass        # counted: it completes without reaching the history

    return executor


class KeyLoader:
    """The load phase of a YCSB run: one write to every private key of a
    session's generator (and, from the first session, the hot key), so the
    store holds its full key set before anything is measured."""

    def __init__(self, generator: Any, with_hot_key: bool):
        client = generator.client_id
        self.keys = [f"{client}-key{index}"
                     for index in range(generator.num_private_keys)]
        if with_hot_key:
            self.keys.append(generator.hot_key)
        self._client = client
        self._next = 0

    def __len__(self) -> int:
        return len(self.keys)

    def next_operation(self) -> Any:
        from repro.workloads.ycsb import OperationSpec

        # Past its last key a loader rewrites it (the driver asks every
        # session for the same number of operations).
        key = self.keys[min(self._next, len(self.keys) - 1)]
        self._next += 1
        return OperationSpec(kind="write", key=key,
                             value=f"{self._client}-load{self._next}")


WORKLOADS: List[Workload] = [
    Workload(
        name="gryff-bare",
        why="Gryff-RSC, 3 replicas, YCSB 80/20, no WAL, trace or checker: "
            "codec, transport, event pump and protocol generators are all "
            "the work, so the paper's Gryff read tail stands alone",
        protocol="gryff-rsc", level="rsc", generator="ycsb",
        write_ratio=0.2, conflict_rate=0.10, private_keys=128, preload=False,
        groups=1, wal=False,
        recorded=False, migrations=False,
        capacity_sessions=SESSIONS, base_rate=1500.0, peak_rate=4600.0,
        read_limit_ms=10.0, write_limit_ms=20.0,
        shares=(0.20, 0.62, 0.18), span_ops_per_s=100.0),
    Workload(
        name="gryff-durable",
        why="same cluster behind an fsync-per-append WAL, JSONL trace and "
            "inline RSC checker in the load process, YCSB 50/50: the full op "
            "path; storage.wal bounds capacity, and writes count beside reads",
        protocol="gryff-rsc", level="rsc", generator="ycsb",
        # The WAL checkpoints the whole register state every 256 appends, so
        # its cost follows the number of keys ever written: over the default
        # 128 keys per session the p99 quadrupled within one 13 s phase.
        # 32 keys per session, all written before warm-up, make it level.
        write_ratio=0.5, conflict_rate=0.10, private_keys=4, preload=True,
        groups=1, wal=True,
        recorded=True, migrations=False,
        capacity_sessions=SESSIONS, base_rate=450.0, peak_rate=850.0,
        read_limit_ms=20.0, write_limit_ms=30.0,
        shares=(0.15, 0.70, 0.15), span_ops_per_s=32.0),
    Workload(
        name="spanner-retwis",
        why="Spanner-RSS, 3 shards, epsilon 10 ms, Retwis over Zipf 0.7 keys: "
            "the only run of locks, mvstore, 2PC and commit wait; "
            "timer-dominated - the paper's read-only-transaction tail",
        protocol="spanner-rss", level="rss", generator="retwis",
        write_ratio=0.5, conflict_rate=0.0, private_keys=0, preload=False,
        groups=1, wal=False,
        recorded=False, migrations=False,
        # 32 closed-loop sessions thrash on the Zipf-hot keys: throughput
        # falls below the 16-session level (741 vs 804 txn/s).
        capacity_sessions=16, base_rate=320.0, peak_rate=500.0,
        read_limit_ms=80.0, write_limit_ms=200.0,
        shares=(0.30, 0.52, 0.18), span_ops_per_s=10.0),
    Workload(
        name="fleet-reshard",
        why="2 groups x 3 Gryff-RSC replicas behind FleetStore routing, YCSB "
            "50/50, trace and inline checker, no WAL, two online migrations "
            "under base: the only run of fleet.*",
        protocol="gryff-rsc", level="rsc", generator="ycsb",
        write_ratio=0.5, conflict_rate=0.10, private_keys=128, preload=False,
        groups=2, wal=False,
        recorded=True, migrations=True,
        capacity_sessions=SESSIONS, base_rate=1300.0, peak_rate=2300.0,
        read_limit_ms=20.0, write_limit_ms=30.0,
        shares=(0.20, 0.62, 0.18), span_ops_per_s=50.0),
]


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r} "
                   f"(known: {[w.name for w in WORKLOADS]})")
