"""End-to-end live cluster runs over real asyncio TCP on localhost.

These tests bind ephemeral ports (port 0 in the spec), so they are safe to
run in parallel with anything else on the machine.
"""

import asyncio
import json

import pytest

from repro.cli import main as cli_main
from repro.net.check import check_trace, default_model_for
from repro.net.cluster import LiveProcess, serve_forever
from repro.net.load import run_load
from repro.net.recorder import read_trace
from repro.net.spec import ClusterSpec
from repro.net.wire import (
    FrameDecoder,
    WireError,
    encode_frame,
    message_to_frame,
)
from repro.sim.network import Message


# --------------------------------------------------------------------------- #
# Wire codec
# --------------------------------------------------------------------------- #
class TestWireCodec:
    def test_frame_round_trip(self):
        message = Message(src="a", dst="b", kind="read1",
                          payload={"key": "x", "carstamp": (1, 0, "w")},
                          send_time=12.5, msg_id=3)
        decoder = FrameDecoder()
        (record,) = decoder.feed(encode_frame(message_to_frame(message)))
        assert record["src"] == "a" and record["kind"] == "read1"
        assert record["payload"]["carstamp"] == [1, 0, "w"]
        # Clean EOF: the stream ends at a frame boundary, nothing buffered.
        assert decoder.pending_bytes == 0

    def test_truncated_frame_is_left_pending(self):
        """EOF two bytes short of a frame: no record surfaces and the
        leftover bytes are what the transport reports as a mid-frame
        close."""
        frame = encode_frame({"v": 1})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-2]) == []
        assert decoder.pending_bytes == len(frame) - 2

    def test_oversized_frame_rejected(self):
        with pytest.raises(WireError):
            FrameDecoder().feed(b"\xff\xff\xff\xff")


# --------------------------------------------------------------------------- #
# Cluster spec
# --------------------------------------------------------------------------- #
class TestClusterSpec:
    def test_json_round_trip(self, tmp_path):
        spec = ClusterSpec.gryff(num_replicas=3, base_port=9100)
        path = str(tmp_path / "cluster.json")
        spec.save(path)
        loaded = ClusterSpec.load(path)
        assert loaded.protocol == "gryff-rsc"
        assert list(loaded.nodes) == ["replica0", "replica1", "replica2"]
        assert loaded.nodes["replica1"].port == 9101
        assert loaded.epoch == spec.epoch

    def test_gryff_config_matches_node_names(self):
        spec = ClusterSpec.gryff(num_replicas=3)
        config = spec.gryff_config()
        assert config.replica_names() == spec.server_names()
        assert config.quorum_size == 2

    def test_spanner_config_single_site(self):
        spec = ClusterSpec.spanner(num_shards=2,
                                   params={"truetime_epsilon_ms": 3.0})
        config = spec.spanner_config()
        assert config.num_shards == 2
        assert config.truetime_epsilon_ms == 3.0
        # Localhost deployments estimate t_ee with the single-DC matrix.
        assert config.latency_matrix().rtt("local", "local") == pytest.approx(0.2)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(protocol="zab", nodes={})


# --------------------------------------------------------------------------- #
# Live Gryff-RSC
# --------------------------------------------------------------------------- #
def _run_gryff_live(tmp_path, variant="gryff-rsc", ops_per_client=6,
                    num_clients=3):
    trace_path = str(tmp_path / "gryff.jsonl")

    async def scenario():
        spec = ClusterSpec.gryff(num_replicas=3, base_port=0, variant=variant)
        server = LiveProcess(spec)
        await server.start()
        try:
            summary = await run_load(
                spec, num_clients=num_clients, duration_ms=None,
                ops_per_client=ops_per_client, write_ratio=0.5,
                conflict_rate=0.4, seed=11, trace_path=trace_path)
        finally:
            await server.stop()
        return summary, server

    summary, server = asyncio.run(scenario())
    return summary, server, trace_path


class TestLiveGryff:
    def test_three_replica_rsc_end_to_end(self, tmp_path):
        summary, server, trace_path = _run_gryff_live(tmp_path)
        assert summary["ops"] == 18
        assert summary["throughput_ops_per_s"] > 0
        stats = server.node_stats()
        assert sum(s["reads"] + s["write2"] for s in stats.values()) > 0

        meta, history = read_trace(trace_path)
        assert meta["protocol"] == "gryff-rsc"
        assert len(history) == 18
        assert history.is_well_formed()
        result = check_trace(history, meta["protocol"])
        assert result.model == "rsc"
        assert result, result.reason

    def test_linearizable_gryff_variant(self, tmp_path):
        summary, _, trace_path = _run_gryff_live(tmp_path, variant="gryff",
                                                 ops_per_client=4,
                                                 num_clients=2)
        assert summary["ops"] == 8
        meta, history = read_trace(trace_path)
        result = check_trace(history, "gryff")
        assert result.model == "linearizability"
        assert result, result.reason

    def test_client_retries_until_server_is_up(self, tmp_path):
        """Reconnect/backoff: load starts before the listeners exist."""

        async def scenario():
            spec = ClusterSpec.gryff(num_replicas=3, base_port=0)
            server = LiveProcess(spec)
            # Pre-bind to fix the ports, then close and delay the restart, so
            # the client's first connection attempts are refused.
            await server.start()
            await server.stop()
            restarted = LiveProcess(spec)

            async def delayed_start():
                await asyncio.sleep(0.3)
                await restarted.start()

            starter = asyncio.ensure_future(delayed_start())
            try:
                summary = await run_load(spec, num_clients=1, duration_ms=None,
                                         ops_per_client=2, write_ratio=1.0,
                                         conflict_rate=0.0, seed=5)
            finally:
                await starter
                await restarted.stop()
            return summary

        summary = asyncio.run(scenario())
        assert summary["ops"] == 2


# --------------------------------------------------------------------------- #
# Live Spanner-RSS
# --------------------------------------------------------------------------- #
class TestLiveSpanner:
    def test_two_shard_rss_end_to_end(self, tmp_path):
        trace_path = str(tmp_path / "spanner.jsonl")

        async def scenario():
            spec = ClusterSpec.spanner(num_shards=2, base_port=0,
                                       params={"truetime_epsilon_ms": 1.0})
            server = LiveProcess(spec)
            await server.start()
            try:
                summary = await run_load(
                    spec, num_clients=2, duration_ms=None, ops_per_client=5,
                    write_ratio=0.5, conflict_rate=0.4, seed=3,
                    trace_path=trace_path)
            finally:
                await server.stop()
            return summary, server.node_stats()

        summary, stats = asyncio.run(scenario())
        assert summary["ops"] == 10
        assert set(summary["categories"]) <= {"ro", "rw"}
        assert sum(s["commits"] for s in stats.values()) > 0

        meta, history = read_trace(trace_path)
        assert meta["protocol"] == "spanner-rss"
        result = check_trace(history, "spanner-rss")
        assert result.model == "rss"
        assert result, result.reason
        # Transactions carry their protocol witness data through the trace.
        assert all("commit_ts" in op.meta or "snapshot_ts" in op.meta
                   for op in history)

    def test_retwis_workload_on_spanner(self, tmp_path):
        async def scenario():
            spec = ClusterSpec.spanner(num_shards=2, base_port=0,
                                       params={"truetime_epsilon_ms": 1.0})
            server = LiveProcess(spec)
            await server.start()
            try:
                summary = await run_load(spec, num_clients=2, duration_ms=None,
                                         ops_per_client=3, workload="retwis",
                                         num_keys=100, seed=9)
            finally:
                await server.stop()
            return summary

        summary = asyncio.run(scenario())
        assert summary["ops"] >= 6   # rw retries may add latency samples


# --------------------------------------------------------------------------- #
# serve_forever and the CLI surface
# --------------------------------------------------------------------------- #
class TestServeAndCli:
    def test_serve_forever_clean_stop(self, capsys):
        async def scenario():
            spec = ClusterSpec.gryff(num_replicas=3, base_port=0)
            stop = asyncio.Event()

            async def stopper():
                await asyncio.sleep(0.1)
                stop.set()

            task = asyncio.ensure_future(stopper())
            code = await serve_forever(spec, stop_event=stop)
            await task
            return code

        assert asyncio.run(scenario()) == 0
        output = capsys.readouterr().out
        assert "repro-serve ready" in output
        assert "repro-serve stopped" in output

    def test_init_config_cli(self, tmp_path, capsys):
        out = str(tmp_path / "cluster.json")
        code = cli_main(["init-config", "--protocol", "spanner-rss",
                         "--shards", "2", "--base-port", "9310",
                         "--out", out])
        assert code == 0
        spec = ClusterSpec.load(out)
        assert spec.protocol == "spanner-rss"
        assert len(spec.nodes) == 2

    def test_live_check_cli(self, tmp_path, capsys):
        _, _, trace_path = _run_gryff_live(tmp_path, ops_per_client=3,
                                           num_clients=2)
        verdict_path = str(tmp_path / "verdict.json")
        code = cli_main(["live-check", trace_path, "--json", verdict_path])
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out
        with open(verdict_path) as handle:
            verdict = json.load(handle)
        assert verdict["model"] == "rsc" and verdict["satisfied"] is True

    def test_live_check_cli_detects_violation(self, tmp_path, capsys):
        """A forged trace with an impossible read must fail the check."""
        import io
        from repro.core.events import Operation
        from repro.core.history import History

        history = History()
        history.add(Operation.write("p1", "x", "v1", invoked_at=0.0,
                                    responded_at=1.0, carstamp=(1, 0, "p1")))
        # Reads a value nobody wrote, with a newer carstamp: illegal.
        history.add(Operation.read("p2", "x", "ghost", invoked_at=2.0,
                                   responded_at=3.0, carstamp=(2, 0, "p9")))
        trace = str(tmp_path / "bad.jsonl")
        with open(trace, "w") as handle:
            handle.write('{"type":"meta","protocol":"gryff-rsc"}\n')
            history.to_jsonl(handle)
        code = cli_main(["live-check", trace])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_live_check_cli_unknown_protocol_header(self, tmp_path, capsys):
        trace = str(tmp_path / "foreign.jsonl")
        with open(trace, "w") as handle:
            handle.write('{"type":"meta","protocol":"paxos-kv"}\n')
        code = cli_main(["live-check", trace])
        assert code == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_truncated_live_trace_still_loads(self, tmp_path):
        """Chopping the trace mid-record (a crashed load process) loses only
        the torn record; the complete prefix still parses and checks run.
        (The verdict itself may flag the truncation — a read can observe a
        write whose record was torn off — which is the checker's job.)"""
        _, _, trace_path = _run_gryff_live(tmp_path, ops_per_client=3,
                                           num_clients=2)
        with open(trace_path, "r") as handle:
            text = handle.read()
        torn = str(tmp_path / "torn.jsonl")
        with open(torn, "w") as handle:
            handle.write(text[: int(len(text) * 0.8)])
        meta, history = read_trace(torn)
        assert meta["protocol"] == "gryff-rsc"
        assert 0 < len(history) < 6
        assert history.is_well_formed()
        check_trace(history, meta["protocol"])   # must not raise

    def test_default_models(self):
        assert default_model_for("gryff") == "linearizability"
        assert default_model_for("gryff-rsc") == "rsc"
        assert default_model_for("spanner") == "strict_serializability"
        assert default_model_for("spanner-rss") == "rss"


def test_live_check_honors_the_declared_level_in_the_trace_meta(tmp_path):
    """A trace captured with `repro load --level rsc` against a LIN-native
    gryff cluster must be validated offline against rsc (the level the run
    declared and inline-checked), not the protocol's stricter default."""
    import json as _json

    from repro.core.events import Operation
    from repro.core.history import History

    history = History()
    history.add(Operation.write("p1", "x", "v1", invoked_at=0.0,
                                responded_at=1.0, carstamp=(1, 0, "p1")))
    trace = str(tmp_path / "declared.jsonl")
    with open(trace, "w") as handle:
        handle.write('{"type":"meta","protocol":"gryff","level":"rsc"}\n')
        history.to_jsonl(handle)
    verdict_path = str(tmp_path / "verdict.json")
    assert cli_main(["live-check", trace, "--json", verdict_path]) == 0
    with open(verdict_path) as handle:
        verdict = _json.load(handle)
    assert verdict["model"] == "rsc"          # declared level wins
    # An explicit --model still overrides the recorded declaration.
    assert cli_main(["live-check", trace, "--model", "linearizability",
                     "--json", verdict_path]) == 0
    with open(verdict_path) as handle:
        assert _json.load(handle)["model"] == "linearizability"
