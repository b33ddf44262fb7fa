"""The ``reshard-crash`` chaos scenario: kill the migration controller
mid-copy, recover the placement from its journal, finish the reshard.

The fleet's migration controller journals every phase transition to a
:class:`~repro.storage.wal.WriteAheadLog` precisely so that its death is
survivable.  This scenario exercises the whole claim end to end against a
*live* two-group Gryff fleet:

1. **Phase 1 — crash.**  YCSB load runs against the fleet while a split
   migration starts; the controller kills itself after the first copy
   chunk (``crash_phase="mid_copy"``), i.e. with keys already installed
   on the destination group but the placement not yet flipped.  The load
   keeps running — clients never depend on the controller being alive.
2. **Recovery.**  :func:`~repro.fleet.migration.recover_placement` replays
   the journal: the placement must come back *pre-flip* (single-owner,
   byte-identical to the snapshot in the ``begin`` record) with the
   crashed migration reported as unfinished.
3. **Phase 2 — resume.**  A fresh controller re-runs the same plan to
   completion under renewed load; the copy phase is idempotent (installs
   merge by carstamp), so the half-copied keys are harmless.
4. **Verdict.**  Both phases' traces are merged by timestamp and the full
   offline checker validates RSC across the crash, the recovery, and the
   eventual flip.  This scenario ``expect_clean``: a migration — even a
   crashed one — is not a fault window, and any violation fails the run.

Unlike the catalog scenarios in :mod:`repro.chaos.scenarios` (single-group
timelines judged by :func:`~repro.chaos.engine.run_scenario`), this runner
is self-contained: it builds its own fleet topology and reports through
:class:`ReshardReport`.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["ReshardReport", "run_reshard_crash"]


@dataclass
class ReshardReport:
    """Everything :func:`run_reshard_crash` measured, plus the verdict."""

    scenario: str = "reshard-crash"
    protocol: str = "gryff-rsc"
    model: str = "rsc"
    crash_phase: str = "mid_copy"
    phase1_ops: int = 0
    phase2_ops: int = 0
    crashed: bool = False
    #: Placement recovered from the journal equals the pre-flip snapshot.
    recovered_matches_preflip: bool = False
    recovered_version: int = 0
    unfinished_migration: Optional[str] = None
    #: The resumed migration completed (flip + purge) in phase 2.
    resumed: bool = False
    final_epoch: int = 0
    final_unfinished: Optional[str] = None
    keys_copied: int = 0
    pause_ms: float = 0.0
    #: Offline checker verdict over the merged phase-1 + phase-2 history.
    merged_ops: int = 0
    satisfied: bool = False
    violation: Optional[str] = None
    trace_paths: List[str] = field(default_factory=list)
    journal_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        """The scenario's guarantee: the controller crashed where asked,
        the journal recovered the exact pre-flip placement, the resumed
        migration completed, and the merged history is clean — migrations
        are ``expect_clean``, so there are no excusable violations."""
        return (self.phase1_ops > 0 and self.phase2_ops > 0
                and self.crashed and self.recovered_matches_preflip
                and self.unfinished_migration is not None
                and self.resumed and self.final_unfinished is None
                and self.satisfied)

    def describe(self) -> str:
        lines = [
            f"scenario {self.scenario} [live] protocol={self.protocol} "
            f"model={self.model}: {'OK' if self.ok else 'FAILED'}",
            f"  phase 1: {self.phase1_ops} ops, controller crashed at "
            f"{self.crash_phase}: {self.crashed}",
            f"  recovery: pre-flip placement restored="
            f"{self.recovered_matches_preflip} (version "
            f"{self.recovered_version}, unfinished "
            f"{self.unfinished_migration})",
            f"  phase 2: {self.phase2_ops} ops, resumed migration "
            f"completed={self.resumed} (epoch {self.final_epoch}, "
            f"{self.keys_copied} key(s) copied, pause "
            f"{self.pause_ms:.1f} ms)",
            f"  merged check: {self.merged_ops} ops — "
            + ("SATISFIED" if self.satisfied
               else f"VIOLATED ({self.violation})"),
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "backend": "live",
            "protocol": self.protocol,
            "model": self.model,
            "ok": self.ok,
            "crash_phase": self.crash_phase,
            "phase1_ops": self.phase1_ops,
            "phase2_ops": self.phase2_ops,
            "crashed": self.crashed,
            "recovered_matches_preflip": self.recovered_matches_preflip,
            "recovered_version": self.recovered_version,
            "unfinished_migration": self.unfinished_migration,
            "resumed": self.resumed,
            "final_epoch": self.final_epoch,
            "final_unfinished": self.final_unfinished,
            "keys_copied": self.keys_copied,
            "pause_ms": self.pause_ms,
            "merged_ops": self.merged_ops,
            "satisfied": self.satisfied,
            "violation": self.violation,
            "traces": list(self.trace_paths),
            "journal": self.journal_path,
        }


async def _run_async(trace_dir: str, *, seed: int,
                     duration_ms: float) -> ReshardReport:
    from repro.fleet import FleetSpec, MigrationPlan, recover_placement
    from repro.net.cluster import LiveProcess
    from repro.net.load import run_load

    report = ReshardReport()
    fleet = FleetSpec.build(protocol=report.protocol, num_groups=2,
                            base_port=0, placement_seed=3)
    initial = fleet.placement.copy()
    plan = MigrationPlan.parse("500:split:0.5:g1")
    journal = os.path.join(trace_dir, "reshard.journal")
    trace1 = os.path.join(trace_dir, "reshard-phase1.jsonl")
    trace2 = os.path.join(trace_dir, "reshard-phase2.jsonl")
    report.journal_path = journal
    report.trace_paths = [trace1, trace2]

    server = LiveProcess(fleet.merged_spec(),
                         node_configs=fleet.node_configs())
    await server.start()
    try:
        summary1 = await run_load(
            fleet, num_clients=3, duration_ms=duration_ms, seed=seed,
            trace_path=trace1, client_prefix="reshard1",
            migrations=[plan], migration_journal=journal,
            migration_crash_phase=report.crash_phase)
        report.phase1_ops = summary1["ops"]
        report.crashed = bool(summary1["migration"]["crashed"])

        placement, unfinished = recover_placement(journal, initial)
        report.recovered_version = placement.version
        report.unfinished_migration = unfinished
        report.recovered_matches_preflip = (
            placement.to_dict() == initial.to_dict())

        # Resume from the recovered placement: a fresh controller re-runs
        # the same plan (the copy is idempotent) while new load arrives.
        fleet.placement = placement
        summary2 = await run_load(
            fleet, num_clients=3, duration_ms=duration_ms, seed=seed + 1,
            trace_path=trace2, client_prefix="reshard2",
            migrations=[MigrationPlan(at_ms=300.0, kind=plan.kind,
                                      frac_lo=plan.frac_lo,
                                      frac_hi=plan.frac_hi, dst=plan.dst)],
            migration_journal=journal)
        report.phase2_ops = summary2["ops"]
        migrations = summary2["migration"]["migrations"]
        if migrations and not summary2["migration"]["crashed"]:
            report.resumed = True
            report.keys_copied = migrations[0]["keys_copied"]
            report.pause_ms = migrations[0]["pause_ms"]
    finally:
        await server.stop()

    final_placement, final_unfinished = recover_placement(journal, initial)
    report.final_epoch = final_placement.version
    report.final_unfinished = final_unfinished
    return report


def _check_merged(report: ReshardReport) -> None:
    from repro.net.check import TraceCheck

    checked = TraceCheck(report.protocol, report.model).batch(
        report.trace_paths)
    report.merged_ops = checked.ops_checked
    report.satisfied = checked.satisfied
    report.violation = None if checked.satisfied else checked.reason


def run_reshard_crash(trace_dir: Optional[str] = None, *, seed: int = 13,
                      duration_ms: float = 1800.0) -> ReshardReport:
    """Run the scenario; see the module docstring.  ``trace_dir`` receives
    the two phase traces and the migration journal (a temp dir when
    ``None``)."""
    if trace_dir is None:
        trace_dir = tempfile.mkdtemp(prefix="repro-reshard-")
    else:
        os.makedirs(trace_dir, exist_ok=True)
    report = asyncio.run(_run_async(trace_dir, seed=seed,
                                    duration_ms=duration_ms))
    _check_merged(report)
    return report
