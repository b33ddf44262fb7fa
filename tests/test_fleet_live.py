"""Live fleet runs over real asyncio TCP: routing, cross-group
transactions, online migration under load, and the single-group
degenerate equivalence.

These tests bind ephemeral ports (``base_port=0``); the server
:class:`~repro.net.cluster.LiveProcess` and the client
:class:`~repro.api.store.FleetStore` share the same ``NodeSpec`` objects,
so the bound ports propagate automatically.
"""

import asyncio

import pytest

from repro.api import UnsupportedOperationError, open_store
from repro.api.adapters import FleetGryffSession, GryffSession
from repro.api.store import FleetStore, LiveStore
from repro.fleet.migration import MigrationPlan
from repro.fleet.spec import FleetSpec
from repro.net.cluster import LiveProcess
from repro.net.load import run_load
from repro.net.recorder import read_trace
from repro.net.spec import ClusterSpec


def _run(coro):
    return asyncio.run(coro)


async def _with_fleet(fleet, body):
    server = LiveProcess(fleet.merged_spec(),
                         node_configs=fleet.node_configs())
    await server.start()
    try:
        return await body()
    finally:
        await server.stop()


# --------------------------------------------------------------------------- #
# Split AND merge under open-loop load (the tentpole acceptance run)
# --------------------------------------------------------------------------- #
class TestMigrationUnderLoad:
    def test_three_group_split_and_merge_open_loop(self, tmp_path):
        fleet = FleetSpec.build(protocol="gryff-rsc", num_groups=3,
                                base_port=0, placement_seed=1)
        # Pick ranges dynamically so the merge actually changes ownership:
        # split bisects a g1-owned range toward g2, then the merge absorbs
        # a g2-owned range into g0.
        mid_of = {r.group: (r.lo + r.hi) / 2 for r in
                  fleet.placement.ranges()}
        split_frac = mid_of["g1"] / (1 << 32)
        merge_frac = mid_of["g2"] / (1 << 32)
        plans = [MigrationPlan.parse(f"400:split:{split_frac:.6f}:g2"),
                 MigrationPlan.parse(f"1200:merge:{merge_frac:.6f}:g0")]

        async def body():
            return await run_load(
                fleet, num_clients=4, duration_ms=2200.0, seed=7,
                rate=400.0,
                trace_path=str(tmp_path / "fleet3.jsonl"),
                check_inline=True, check_min_epoch_ops=16,
                migrations=plans,
                migration_journal=str(tmp_path / "fleet3.journal"))

        summary = _run(_with_fleet(fleet, body))
        assert summary["ops"] > 100
        migration = summary["migration"]
        assert migration["crashed"] is False
        assert len(migration["migrations"]) == 2
        # Two flips: epoch 1 -> 3.
        assert migration["placement_epoch"] == 3
        # Zero lost/duplicated operations: the streaming checker validated
        # the declared level across both reconfiguration boundaries.
        assert summary["check"]["satisfied"] is True
        for mig in migration["migrations"]:
            assert mig["epoch_after"] == mig["epoch_before"] + 1
            assert mig["pause_ms"] >= 0.0
        # Migration windows are reported chaos-style but expect_clean.
        assert all(w["expect"] == "clean" for w in migration["windows"])

    def test_spanner_migration_under_load(self, tmp_path):
        fleet = FleetSpec.build(protocol="spanner-rss", num_groups=2,
                                nodes_per_group=2, base_port=0)

        async def body():
            return await run_load(
                fleet, num_clients=3, duration_ms=1500.0, seed=5,
                conflict_rate=0.3, check_inline=True, check_min_epoch_ops=16,
                migrations=[MigrationPlan.parse("500:split:0.5:g1")],
                migration_journal=str(tmp_path / "sp.journal"))

        summary = _run(_with_fleet(fleet, body))
        assert summary["ops"] > 0
        assert summary["migration"]["crashed"] is False
        assert len(summary["migration"]["migrations"]) == 1
        assert summary["check"]["satisfied"] is True


# --------------------------------------------------------------------------- #
# Cross-group transactions
# --------------------------------------------------------------------------- #
class TestCrossGroup:
    def test_spanner_txn_and_read_only_span_groups(self):
        fleet = FleetSpec.build(protocol="spanner-rss", num_groups=2,
                                nodes_per_group=2, base_port=0)
        placement = fleet.placement
        key_a = next(f"k{i}" for i in range(1000)
                     if placement.owner(f"k{i}") == "g0")
        key_b = next(f"k{i}" for i in range(1000)
                     if placement.owner(f"k{i}") == "g1")

        async def body():
            store = FleetStore(fleet)
            session = store.session()
            assert "fleet_routing" in session.capabilities
            await store.start()
            try:
                env = store.env

                def txn():
                    # One transaction writing keys owned by both groups:
                    # routed through the unmodified cross-group 2PC.
                    result = yield from session.txn(
                        [], lambda reads: {key_a: "va", key_b: "vb"})
                    return result

                def snapshot():
                    result = yield from session.read_only([key_a, key_b])
                    return result

                await env.as_future(env.process(txn()))
                values = await env.as_future(env.process(snapshot()))
            finally:
                await store.stop()
            return values

        values = _run(_with_fleet(fleet, body))
        assert values == {key_a: "va", key_b: "vb"}

    def test_gryff_multi_key_shapes_rejected(self):
        fleet = FleetSpec.build(protocol="gryff-rsc", num_groups=2,
                                base_port=0)
        store = FleetStore(fleet)
        session = store.session()
        # Rejected at the session surface (capability-negotiated): no
        # server round trip happens, so no cluster is needed.
        with pytest.raises(UnsupportedOperationError, match="multi-key"):
            session.txn([], lambda reads: {"a": 1, "b": 2})
        with pytest.raises(UnsupportedOperationError, match="multi-key"):
            session.read_only(["a", "b"])
        with pytest.raises(UnsupportedOperationError, match="read sets"):
            session.txn(["a"], lambda reads: {"a": 1})


# --------------------------------------------------------------------------- #
# Capabilities
# --------------------------------------------------------------------------- #
class TestCapabilities:
    def test_fleet_sessions_advertise_routing(self):
        fleet = FleetSpec.build(protocol="gryff-rsc", num_groups=2,
                                base_port=0)
        session = FleetStore(fleet).session()
        assert isinstance(session, FleetGryffSession)
        assert "fleet_routing" in session.capabilities

    def test_plain_sessions_do_not(self):
        assert "fleet_routing" not in GryffSession.capabilities
        spec = ClusterSpec.gryff(num_replicas=3, base_port=0)
        assert "fleet_routing" not in LiveStore(spec).session().capabilities

    def test_open_store_dispatches_fleet_files(self, tmp_path):
        fleet = FleetSpec.build(num_groups=2, base_port=0)
        path = str(tmp_path / "fleet.json")
        fleet.save(path)
        store = open_store(f"live:{path}")
        assert isinstance(store, FleetStore)
        assert store.fleet.group_ids() == ["g0", "g1"]
        cluster_path = str(tmp_path / "cluster.json")
        ClusterSpec.gryff(num_replicas=3, base_port=0).save(cluster_path)
        plain = open_store(f"live:{cluster_path}")
        assert isinstance(plain, LiveStore)
        assert not isinstance(plain, FleetStore)


# --------------------------------------------------------------------------- #
# Single-group degenerate fleet == plain LiveStore
# --------------------------------------------------------------------------- #
class TestDegenerateFleet:
    def test_single_group_run_matches_livestore_shape(self, tmp_path):
        """A 1-group fleet adds zero events and zero record types.

        Same closed-loop workload, same seed, against a standalone cluster
        and a single-group fleet: the traces must contain identical record
        types, identical op types, identical per-process op counts, and
        the same checker verdict — the fleet layer is invisible when there
        is nothing to route between.
        """
        fleet = FleetSpec.build(protocol="gryff-rsc", num_groups=1,
                                base_port=0)
        spec = ClusterSpec.gryff(num_replicas=3, base_port=0)
        kwargs = dict(num_clients=2, duration_ms=None, ops_per_client=25,
                      seed=17, check_inline=True, check_min_epoch_ops=16)

        async def fleet_body():
            return await run_load(
                fleet, trace_path=str(tmp_path / "fleet1.jsonl"), **kwargs)

        async def plain_body():
            server = LiveProcess(spec)
            await server.start()
            try:
                return await run_load(
                    spec, trace_path=str(tmp_path / "plain.jsonl"), **kwargs)
            finally:
                await server.stop()

        fleet_summary = _run(_with_fleet(fleet, fleet_body))
        plain_summary = _run(plain_body())

        assert fleet_summary["ops"] == plain_summary["ops"] == 50
        assert fleet_summary["check"]["satisfied"] is True
        assert plain_summary["check"]["satisfied"] is True
        # Everything routed to the only group; no pauses, no mirrors.
        assert fleet_summary["routed_ops"] == {"g0": 50}

        def shape(path):
            meta, history = read_trace(path)
            types = sorted({op.op_type.name for op in history})
            per_process = sorted(len(history.by_process(p))
                                 for p in history.processes())
            return types, per_process, len(history)

        assert shape(str(tmp_path / "fleet1.jsonl")) == \
            shape(str(tmp_path / "plain.jsonl"))
