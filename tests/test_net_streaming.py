"""Streaming capture plumbing: wire partial reads, trace rotation/follow,
invocation records, and live end-to-end inline checking."""

import asyncio
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core.events import Operation, reset_op_ids
from repro.core.history import History, resolve_jsonl_paths
from repro.net.check import (
    check_record_stream,
    check_trace,
    streaming_checker_for,
)
from repro.net.cluster import LiveProcess
from repro.net.load import run_load
from repro.net.recorder import (
    RecordingHistory,
    TraceWriter,
    follow_trace_records,
    read_trace,
)
from repro.net.spec import ClusterSpec
from repro.net.wire import FrameDecoder, WireError, encode_frame


# --------------------------------------------------------------------------- #
# Wire codec under fragmentation (slow writers / partial reads)
# --------------------------------------------------------------------------- #
class TestWirePartialReads:
    def test_records_surface_exactly_when_their_last_byte_arrives(self):
        """Audit regression: a slow writer trickling single bytes must not
        corrupt framing — decoding resumes across any split, both inside
        the length header and inside the body, and each record is handed
        over by the feed that completes it, not later."""
        records = [{"v": 1, "kind": "read1", "payload": {"i": i}}
                   for i in range(3)]
        frames = [encode_frame(record) for record in records]
        decoder = FrameDecoder()
        for record, frame in zip(records, frames):
            for offset in range(len(frame) - 1):
                assert decoder.feed(frame[offset:offset + 1]) == []
            assert decoder.feed(frame[-1:]) == [record]
        assert decoder.pending_bytes == 0     # clean EOF at a boundary

    def test_eof_inside_header_and_body_leaves_pending_bytes(self):
        """A connection that closes mid-frame — inside the length header or
        inside the body — yields no record; the buffered remainder is what
        the transport logs and drops the connection on."""
        frame = encode_frame({"v": 1})
        for cut in (1, 3, len(frame) - 1):
            decoder = FrameDecoder()
            assert decoder.feed(frame[:cut]) == []
            assert decoder.pending_bytes == cut

    def test_frame_decoder_byte_at_a_time(self):
        records = [{"v": 1, "kind": "write2", "payload": {"k": "x" * 50}},
                   {"v": 1, "kind": "ack"}]
        stream = b"".join(encode_frame(record) for record in records)
        decoder = FrameDecoder()
        decoded = []
        for offset in range(len(stream)):
            decoded.extend(decoder.feed(stream[offset:offset + 1]))
        assert decoded == records
        assert decoder.pending_bytes == 0

    def test_frame_decoder_rejects_oversize_from_header_alone(self):
        decoder = FrameDecoder()
        with pytest.raises(WireError, match="announced"):
            decoder.feed(b"\xff\xff\xff\xff")

    def test_frame_decoder_rejects_undecodable_body(self):
        body = b"not json"
        frame = len(body).to_bytes(4, "big") + body
        decoder = FrameDecoder()
        with pytest.raises(WireError, match="undecodable"):
            decoder.feed(frame)


# --------------------------------------------------------------------------- #
# TraceWriter: flushing, fsync, rotation
# --------------------------------------------------------------------------- #
def _sample_op(i, process="P1", t=None):
    t = float(i) if t is None else t
    return Operation.write(process, f"k{i}", f"v{i}",
                           invoked_at=t, responded_at=t + 0.5)


class TestTraceWriter:
    def test_flush_every_batches_writes(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter(path, flush_every=100)
        writer.record_op(_sample_op(1))
        # Header + record are buffered; a concurrent reader sees at most
        # the header until the batch flushes or the writer closes.
        writer.flush()
        with open(path) as handle:
            assert len(handle.readlines()) == 2
        writer.close()

    def test_fsync_smoke(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter(path, fsync=True)
        writer.record_op(_sample_op(1))
        writer.close()
        assert len(History.from_jsonl(path)) == 1

    def test_rotation_produces_standalone_files(self, tmp_path):
        reset_op_ids()
        base = str(tmp_path / "trace.jsonl")
        writer = TraceWriter(base, meta={"protocol": "gryff-rsc"},
                             rotate_bytes=500)
        for i in range(20):
            writer.record_invocation("P1", float(i))
            writer.record_op(_sample_op(i))
        writer.close()
        files = resolve_jsonl_paths(base)
        assert len(files) > 1
        assert not os.path.exists(base)          # only the rotated set
        for path in files:
            with open(path) as handle:
                first = json.loads(handle.readline())
            assert first["type"] == "meta"       # every file standalone
            assert first["protocol"] == "gryff-rsc"
        # Both readers accept the base path as a name for the set.
        history = History.from_jsonl(base)
        assert len(history) == 20
        meta, same = read_trace(base)
        assert meta["protocol"] == "gryff-rsc" and len(same) == 20

    def test_rotated_set_ignores_unrelated_digit_siblings(self, tmp_path):
        """Regression: only the writer's exact `-NNNN` names belong to a
        rotated set; a stale digit-leading sibling must not be swept in."""
        reset_op_ids()
        base = str(tmp_path / "trace.jsonl")
        writer = TraceWriter(base, rotate_bytes=300)
        for i in range(6):
            writer.record_op(_sample_op(i))
        writer.close()
        stray = tmp_path / "trace-2024-backup.jsonl"
        stray.write_text('{"type":"op","op_id":999,"process":"Z",'
                         '"op_type":"write","key":"z","value":1,'
                         '"invoked_at":0.0,"responded_at":1.0}\n')
        (tmp_path / "trace-2.jsonl").write_text("")   # not 4-digit padded
        files = resolve_jsonl_paths(base)
        assert str(stray) not in files
        assert all("-2." not in name for name in files)
        assert len(History.from_jsonl(base)) == 6

    def test_rotate_requires_path(self):
        import io

        with pytest.raises(ValueError):
            TraceWriter(io.StringIO(), rotate_bytes=100)


# --------------------------------------------------------------------------- #
# Follow mode (tail -f over single files and rotated sets)
# --------------------------------------------------------------------------- #
class TestFollow:
    def test_follow_reads_existing_and_stops_at_idle_timeout(self, tmp_path):
        reset_op_ids()
        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter(path, meta={"protocol": "gryff-rsc"})
        for i in range(5):
            writer.record_op(_sample_op(i))
        writer.close()
        records = list(follow_trace_records(path, idle_timeout=0))
        assert [r["type"] for r in records] == ["meta"] + ["op"] * 5

    def test_follow_crosses_rotation_boundaries(self, tmp_path):
        reset_op_ids()
        base = str(tmp_path / "trace.jsonl")
        writer = TraceWriter(base, rotate_bytes=400)
        for i in range(12):
            writer.record_op(_sample_op(i))
        writer.close()
        assert len(resolve_jsonl_paths(base)) > 1
        records = list(follow_trace_records(base, idle_timeout=0))
        assert sum(1 for r in records if r["type"] == "op") == 12

    def test_follow_sees_data_written_between_polls(self, tmp_path):
        reset_op_ids()
        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter(path)
        writer.record_op(_sample_op(0))
        writer.flush()

        appended = []

        def fake_sleep(_seconds):
            if not appended:
                writer.record_op(_sample_op(1))
                writer.flush()
                appended.append(True)

        records = list(follow_trace_records(path, idle_timeout=0.2,
                                            poll_interval=0.2,
                                            _sleep=fake_sleep))
        assert sum(1 for r in records if r["type"] == "op") == 2

    def test_follow_tolerates_truncated_tail(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type":"op","op_id":1,"process":"P1",'
                         '"op_type":"write","key":"x","value":1,'
                         '"invoked_at":0.0,"responded_at":1.0}\n')
            handle.write('{"type":"op","op_id":2,"proc')   # crash mid-record
        records = list(follow_trace_records(path, idle_timeout=0))
        assert len(records) == 1

    def test_follow_raises_on_mid_stream_corruption(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write("not json at all\n")
            handle.write('{"type":"op"}\n')
        with pytest.raises(ValueError, match="corrupt"):
            list(follow_trace_records(path, idle_timeout=0))


# --------------------------------------------------------------------------- #
# Invocation records: capture and replay
# --------------------------------------------------------------------------- #
class TestInvocationRecords:
    def test_recording_history_emits_inv_and_abandon_records(self, tmp_path):
        reset_op_ids()
        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter(path, meta={"protocol": "gryff-rsc"})
        history = RecordingHistory(writer)
        history.note_invocation("P1", 0.0)
        history.add(_sample_op(1, t=0.0))
        history.note_invocation("P2", 2.0)
        history.note_abandoned("P2", 3.0)
        writer.close()
        kinds = [json.loads(line)["type"] for line in open(path)]
        assert kinds == ["meta", "inv", "op", "inv", "abandon"]
        # The offline loader skips the streaming-only records.
        assert len(History.from_jsonl(path)) == 1

    def test_record_stream_checking_matches_batch(self, tmp_path):
        """A recorded trace replayed through the streaming checker agrees
        with the batch checker — including epoch cuts from inv records."""
        reset_op_ids()
        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter(path, meta={"protocol": "gryff-rsc"})
        history = RecordingHistory(writer)
        now = 0.0
        for i in range(10):
            history.note_invocation("P1", now)
            history.add(Operation.write(
                "P1", "x", f"v{i}", invoked_at=now, responded_at=now + 1,
                carstamp=(i + 1, 0, "P1")))
            now += 2.0
        writer.close()
        meta, loaded = read_trace(path)
        batch = check_trace(loaded, meta["protocol"])
        checker = streaming_checker_for("gryff-rsc", min_epoch_ops=3)
        report = check_record_stream(
            follow_trace_records(path, idle_timeout=0), checker)
        assert report.satisfied == bool(batch) is True
        assert report.epochs > 1                  # inv records enabled cuts
        assert report.ops_checked == 10

    def test_trace_without_inv_records_degrades_to_one_epoch(self, tmp_path):
        reset_op_ids()
        path = str(tmp_path / "t.jsonl")
        history = History()
        for i in range(6):
            history.add(Operation.write("P1", "x", f"v{i}", invoked_at=2.0 * i,
                                        responded_at=2.0 * i + 1,
                                        carstamp=(i + 1, 0, "P1")))
        history.to_jsonl(path)
        checker = streaming_checker_for("gryff-rsc", min_epoch_ops=1)
        report = check_record_stream(
            follow_trace_records(path, idle_timeout=0), checker)
        assert report.satisfied and report.epochs == 1


# --------------------------------------------------------------------------- #
# Live end-to-end: inline checking and --follow over a real TCP run
# --------------------------------------------------------------------------- #
class TestLiveInlineChecking:
    def _run_live(self, tmp_path, protocol="gryff-rsc", **kwargs):
        trace_path = str(tmp_path / "live.jsonl")

        async def scenario():
            if protocol.startswith("gryff"):
                spec = ClusterSpec.gryff(num_replicas=3, base_port=0,
                                         variant=protocol)
            else:
                spec = ClusterSpec.spanner(num_shards=2, base_port=0,
                                           params={"truetime_epsilon_ms": 1.0})
            server = LiveProcess(spec)
            await server.start()
            try:
                summary = await run_load(
                    spec, num_clients=2, duration_ms=None, ops_per_client=6,
                    write_ratio=0.5, conflict_rate=0.4, seed=7,
                    trace_path=trace_path, check_inline=True,
                    check_min_epoch_ops=1, think_time_ms=3.0, **kwargs)
            finally:
                await server.stop()
            return summary

        return asyncio.run(scenario()), trace_path

    def test_gryff_inline_check_satisfied(self, tmp_path):
        summary, trace_path = self._run_live(tmp_path)
        check = summary["check"]
        assert check["satisfied"], check
        assert check["model"] == "rsc"
        assert check["ops_checked"] == summary["ops"] == 12
        # Think time opens quiescent windows, so real epoch cuts form and
        # the peak epoch stays below the whole run (bounded memory).
        assert check["epochs"] >= 2, check
        assert check["max_segment_ops"] < check["ops_checked"], check
        kinds = {json.loads(line)["type"] for line in open(trace_path)}
        assert {"meta", "inv", "op"} <= kinds
        # The same trace replays to the same verdict offline (batch)...
        meta, history = read_trace(trace_path)
        assert bool(check_trace(history, meta["protocol"]))
        # ...and through the follow CLI (streaming).
        code = cli_main(["live-check", trace_path, "--follow",
                         "--idle-timeout", "0", "--min-epoch-ops", "1"])
        assert code == 0

    def test_spanner_inline_check_satisfied(self, tmp_path):
        summary, trace_path = self._run_live(tmp_path, protocol="spanner-rss")
        check = summary["check"]
        assert check["satisfied"], check
        assert check["model"] == "rss"
        assert check["ops_checked"] == summary["ops"]

    def test_follow_cli_detects_violation(self, tmp_path, capsys):
        reset_op_ids()
        path = str(tmp_path / "bad.jsonl")
        writer = TraceWriter(path, meta={"protocol": "gryff-rsc"})
        history = RecordingHistory(writer)
        history.note_invocation("P1", 0.0)
        history.add(Operation.write("P1", "x", "v1", invoked_at=0.0,
                                    responded_at=1.0, carstamp=(1, 0, "P1")))
        history.note_invocation("P1", 2.0)
        history.add(Operation.write("P1", "x", "v2", invoked_at=2.0,
                                    responded_at=3.0, carstamp=(2, 0, "P1")))
        history.note_invocation("P2", 10.0)
        history.add(Operation.read("P2", "x", "v1", invoked_at=10.0,
                                   responded_at=11.0, carstamp=(1, 0, "P1")))
        writer.close()
        code = cli_main(["live-check", path, "--follow",
                         "--idle-timeout", "0", "--min-epoch-ops", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in out
        assert "epoch" in out
