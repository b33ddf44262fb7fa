"""The named scenario catalog (``python -m repro chaos --list``).

Each scenario runs unchanged on every backend it supports (``--backend
sim|live|both``; a multi-group fleet scenario is live-only) and is expected
to come back :attr:`~repro.chaos.engine.ChaosReport.ok`: either its faults
are within spec (``expect_clean``) and the checker stays fully satisfied, or
any violation the faults provoke falls inside the scenario's fault windows —
and every crashed unit recovers its exact pre-crash durable state.
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos.scenario import FaultEvent, Scenario

__all__ = ["all_scenarios", "get_scenario", "scenario_names"]


def _catalog() -> List[Scenario]:
    return [
        Scenario(
            name="replica-crash-restart",
            protocol="gryff-rsc",
            description="Kill -9 one Gryff replica mid-load, restart it, and "
                        "require its WAL-recovered registers to equal the "
                        "pre-crash durable state.",
            events=[
                FaultEvent(600, "crash", "replica2"),
                FaultEvent(1400, "restart", "replica2"),
            ],
        ),
        Scenario(
            name="leader-crash-failover",
            protocol="spanner-rss",
            description="Kill -9 a Spanner shard leader, let its lease "
                        "expire, and restart it: recovery replays the WAL "
                        "and re-election bumps the lease term (fencing).",
            num_servers=2,
            events=[
                FaultEvent(600, "crash", "shard1"),
                FaultEvent(1200, "restart", "shard1"),
            ],
        ),
        Scenario(
            name="partition-heal",
            protocol="gryff-rsc",
            description="Symmetric partition: one replica isolated from the "
                        "majority and every client, then healed.  Quorums "
                        "stay available on the majority side throughout.",
            events=[
                FaultEvent(500, "partition", args={"groups": [
                    ["replica0", "replica1", "@clients"], ["replica2"]]}),
                FaultEvent(1300, "heal"),
            ],
        ),
        Scenario(
            name="drop-reorder-burst",
            protocol="gryff-rsc",
            description="A lossy, reordering network burst: every message "
                        "dropped with p=0.25 and half the survivors delayed "
                        "out of FIFO order, then the rules are cleared.",
            events=[
                FaultEvent(400, "drop", args={"probability": 0.25}),
                FaultEvent(400, "delay", args={"extra_ms": 25.0,
                                               "jitter_ms": 10.0,
                                               "reorder": True,
                                               "probability": 0.5}),
                FaultEvent(1400, "clear_rules"),
            ],
        ),
        Scenario(
            name="clock-skew-sweep",
            protocol="spanner-rss",
            description="Sweep one shard leader's clock offset through "
                        "+4ms / -4ms / 0 — inside the ±epsilon=10ms TrueTime "
                        "bound, so the checker must stay fully satisfied.",
            num_servers=2,
            expect_clean=True,
            events=[
                FaultEvent(400, "skew", "shard0", args={"offset_ms": 4.0}),
                FaultEvent(1000, "skew", "shard0", args={"offset_ms": -4.0}),
                FaultEvent(1600, "skew", "shard0", args={"offset_ms": 0.0}),
            ],
        ),
        Scenario(
            name="truetime-epsilon-sweep",
            protocol="spanner-rss",
            description="Sweep the TrueTime uncertainty bound 10 -> 4 -> 20 "
                        "-> 10 ms while clocks stay true: every bound still "
                        "covers the (zero) actual skew, so the checker must "
                        "stay fully satisfied.",
            num_servers=2,
            expect_clean=True,
            events=[
                FaultEvent(400, "epsilon", args={"epsilon_ms": 4.0}),
                FaultEvent(1000, "epsilon", args={"epsilon_ms": 20.0}),
                FaultEvent(1600, "epsilon", args={"epsilon_ms": 10.0,
                                                  "restore": True}),
            ],
        ),
        Scenario(
            name="gryff-smoke",
            protocol="gryff-rsc",
            description="CI smoke: a short kill/restart plus partition/heal "
                        "cycle on 3-replica Gryff-RSC under YCSB.",
            duration_ms=1800,
            events=[
                FaultEvent(300, "crash", "replica1"),
                FaultEvent(900, "restart", "replica1"),
                FaultEvent(1100, "partition", args={"groups": [
                    ["replica0", "replica1", "@clients"], ["replica2"]]}),
                FaultEvent(1500, "heal"),
            ],
        ),
        Scenario(
            name="spanner-smoke",
            protocol="spanner-rss",
            description="CI smoke: a short kill/restart plus partition/heal "
                        "cycle on 2-shard Spanner-RSS under YCSB.",
            num_servers=2,
            duration_ms=1800,
            events=[
                FaultEvent(300, "crash", "shard1"),
                FaultEvent(900, "restart", "shard1"),
                FaultEvent(1100, "partition", args={"groups": [
                    ["shard0", "@clients"], ["shard1"]]}),
                FaultEvent(1500, "heal"),
            ],
        ),
        Scenario(
            name="reshard-crash",
            protocol="gryff-rsc",
            description="kill -9 the migration controller mid-copy, recover "
                        "the placement from its journal, finish the reshard",
            num_groups=2,
            duration_ms=1400,
            expect_clean=True,
            events=[
                FaultEvent(300, "migrate", args={"plan": "move:0-0.5:g1",
                                                 "crash_phase": "mid_copy"}),
                FaultEvent(600, "recover_controller"),
                FaultEvent(800, "migrate", args={"plan": "move:0-0.5:g1"}),
            ],
        ),
    ]


def all_scenarios() -> Dict[str, Scenario]:
    """Name -> scenario for the whole catalog (fresh objects each call)."""
    return {scenario.name: scenario for scenario in _catalog()}


def scenario_names() -> List[str]:
    return [scenario.name for scenario in _catalog()]


def get_scenario(name: str) -> Scenario:
    scenarios = all_scenarios()
    try:
        return scenarios[name]
    except KeyError:
        known = ", ".join(sorted(scenarios))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
