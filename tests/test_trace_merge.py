"""Reading traces: one entry point over one path, one rotated set, or
several traces merged into one ordered record stream.

A fleet run captures one trace per load generator; ``repro load``,
``repro live-check``, and ``repro monitor`` accept several trace paths
and merge them by timestamp through
:func:`~repro.net.recorder.merge_record_streams` before checking.  The
merge must order records by their per-type timestamps, emit exactly one
meta header (carrying ``merged_streams``), refuse mixed protocols, and
qualify op ids per stream so independently numbered generators cannot
collide in the merged history.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.events import Operation, reset_op_ids
from repro.net.recorder import (
    TraceWriter,
    follow_trace_records,
    merge_record_streams,
    read_trace,
    trace_records,
)


def _meta(protocol="gryff-rsc", **extra):
    return {"type": "meta", "protocol": protocol, "model": "rsc", **extra}


def _inv(op_id, at, process="p"):
    return {"type": "inv", "op_id": op_id, "invoked_at": at,
            "process": process}


def _op(op_id, invoked_at, responded_at, process="p", key="x", value=None):
    return {"type": "op", "op_id": op_id, "op_type": "write",
            "process": process, "key": key, "value": value,
            "invoked_at": invoked_at, "responded_at": responded_at}


class TestMergeOrdering:
    def test_records_interleave_by_timestamp(self):
        a = [_meta(), _op(1, 0.0, 10.0, "pa"), _op(2, 20.0, 30.0, "pa")]
        b = [_meta(), _op(1, 5.0, 15.0, "pb"), _op(2, 22.0, 25.0, "pb")]
        merged = list(merge_record_streams([a, b]))
        assert merged[0]["type"] == "meta"
        times = [r["responded_at"] for r in merged[1:]]
        assert times == sorted(times) == [10.0, 15.0, 25.0, 30.0]

    def test_meta_first_with_stream_count(self):
        merged = list(merge_record_streams([[_meta()], [_meta()]]))
        assert merged[0]["merged_streams"] == 2
        assert merged[0]["protocol"] == "gryff-rsc"
        assert len(merged) == 1

    def test_edge_records_stay_with_their_operation(self):
        a = [_meta(), _op(1, 0.0, 10.0, "pa"),
             {"type": "edge", "src_op": 1, "dst_op": 1},
             _op(2, 40.0, 50.0, "pa")]
        b = [_meta(), _op(7, 15.0, 20.0, "pb")]
        merged = list(merge_record_streams([a, b]))
        kinds = [(r["type"], r.get("src_op") or r.get("op_id"))
                 for r in merged[1:]]
        # The edge (timestampless) inherits its stream's last timestamp,
        # so it sorts immediately after the op it annotates.
        assert kinds == [("op", "t0:1"), ("edge", "t0:1"),
                         ("op", "t1:7"), ("op", "t0:2")]

    def test_protocol_mismatch_rejected(self):
        a = [_meta("gryff-rsc")]
        b = [_meta("spanner-rss")]
        with pytest.raises(ValueError, match="different protocols"):
            list(merge_record_streams([a, b]))


class TestIdQualification:
    def test_multi_stream_ids_are_namespaced(self):
        a = [_meta(), _op(1, 0.0, 1.0, "pa")]
        b = [_meta(), _op(1, 2.0, 3.0, "pb")]
        merged = list(merge_record_streams([a, b]))
        ids = {r["op_id"] for r in merged if r["type"] == "op"}
        assert ids == {"t0:1", "t1:1"}

    def test_single_stream_passes_through_unmodified(self):
        source = [_meta(), _op(1, 0.0, 1.0), _inv(2, 2.0)]
        merged = list(merge_record_streams([source]))
        assert merged[1]["op_id"] == 1      # untouched, still an int
        assert merged[2]["op_id"] == 2

    def test_edge_endpoints_qualified_consistently(self):
        a = [_meta(), _op(1, 0.0, 1.0, "pa"), _op(2, 2.0, 3.0, "pa"),
             {"type": "edge", "src_op": 1, "dst_op": 2}]
        b = [_meta(), _op(1, 5.0, 6.0, "pb")]
        merged = list(merge_record_streams([a, b]))
        edge = next(r for r in merged if r["type"] == "edge")
        assert (edge["src_op"], edge["dst_op"]) == ("t0:1", "t0:2")


class TestMergedFiles:
    def _write(self, path, records):
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def test_read_trace_merges_several_paths(self, tmp_path):
        ta = str(tmp_path / "a.jsonl")
        tb = str(tmp_path / "b.jsonl")
        self._write(ta, [_meta(), _op(1, 0.0, 10.0, "pa", value="va"),
                         _op(2, 20.0, 30.0, "pa", value="va2")])
        self._write(tb, [_meta(), _op(1, 12.0, 15.0, "pb", value="vb")])
        meta, history = read_trace([ta, tb])
        assert meta["protocol"] == "gryff-rsc"
        assert meta["merged_streams"] == 2
        assert len(history) == 3
        assert {op.process for op in history} == {"pa", "pb"}
        # Same numeric ids from both generators coexist after merging.
        assert len({op.op_id for op in history}) == 3

    def test_live_check_cli_accepts_multiple_traces(self, tmp_path,
                                                    capsys):
        ta = str(tmp_path / "a.jsonl")
        tb = str(tmp_path / "b.jsonl")
        self._write(ta, [_meta(), _op(1, 0.0, 10.0, "pa", value="v1")])
        self._write(tb, [_meta(), _op(1, 12.0, 15.0, "pb", value="v2")])
        rc = cli_main(["live-check", ta, tb])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 ops" in out and "2 process(es)" in out

    def test_monitor_merges_traces(self, tmp_path):
        from repro.obs.monitor import run_monitor

        ta = str(tmp_path / "a.jsonl")
        tb = str(tmp_path / "b.jsonl")
        self._write(ta, [_meta(), _op(1, 0.0, 10.0, "pa", value="v1")])
        self._write(tb, [_meta(), _op(1, 12.0, 15.0, "pb", value="v2")])
        report = run_monitor([ta, tb], idle_timeout=0.0, min_epoch_ops=1)
        assert report.exit_code == 0
        assert report.ops_checked == 2
        assert report.trace == f"{ta},{tb}"


class TestSingleReaderEntryPoint:
    """``trace_records`` hides the single-vs-merged reader choice: one
    source is followed as written, several are merged."""

    def _write_set(self, base, ops=12, rotate_bytes=None, process="P1"):
        reset_op_ids()
        writer = TraceWriter(base, meta={"protocol": "gryff-rsc"},
                             rotate_bytes=rotate_bytes)
        for i in range(ops):
            writer.record_invocation(process, 2.0 * i)
            writer.record_op(Operation.write(
                process, "x", f"{process}-{i}", invoked_at=2.0 * i,
                responded_at=2.0 * i + 1.0, carstamp=(i + 1, 0, process)))
        writer.close()

    def test_one_path_passes_through_unmodified(self, tmp_path):
        path = str(tmp_path / "one.jsonl")
        self._write_set(path)
        with open(path) as handle:
            written = [json.loads(line) for line in handle]
        assert list(trace_records(path, idle_timeout=0)) == written
        assert list(trace_records([path], idle_timeout=0)) == written
        ids = [r["op_id"] for r in written if r["type"] == "op"]
        assert ids and all(isinstance(op_id, int) for op_id in ids)

    def test_one_rotated_set_keeps_every_file_header(self, tmp_path):
        base = str(tmp_path / "rot.jsonl")
        self._write_set(base, ops=30, rotate_bytes=600)
        records = list(trace_records(base, idle_timeout=0))
        assert records == list(follow_trace_records(base, idle_timeout=0))
        headers = [r for r in records if r["type"] == "meta"]
        assert len(headers) > 2                  # one per file, not merged
        assert "merged_streams" not in headers[0]
        assert all(isinstance(r["op_id"], int)
                   for r in records if r["type"] == "op")

    def test_two_traces_are_merged_and_qualified(self, tmp_path):
        ta, tb = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        self._write_set(ta, ops=3, process="PA")
        self._write_set(tb, ops=3, process="PB")
        records = list(trace_records([ta, tb], idle_timeout=0))
        assert [r["type"] for r in records].count("meta") == 1
        assert records[0]["merged_streams"] == 2
        ids = {r["op_id"] for r in records if r["type"] == "op"}
        assert ids == {f"t{s}:{i}" for s in (0, 1) for i in (1, 2, 3)}

    def test_read_trace_accepts_every_source_kind(self, tmp_path):
        one = str(tmp_path / "one.jsonl")
        rot = str(tmp_path / "rot.jsonl")
        self._write_set(one, ops=4)
        self._write_set(rot, ops=30, rotate_bytes=600)
        for source, ops in ((one, 4), (rot, 30), ([one, rot], 34)):
            meta, history = read_trace(source)
            assert meta["protocol"] == "gryff-rsc"
            assert len(history) == ops
        with open(one) as handle:
            assert len(read_trace(handle)[1]) == 4

    def test_read_trace_refuses_a_missing_path(self, tmp_path):
        one = str(tmp_path / "one.jsonl")
        self._write_set(one, ops=2)
        missing = str(tmp_path / "missing.jsonl")
        with pytest.raises(FileNotFoundError):
            read_trace(missing)
        with pytest.raises(FileNotFoundError):
            read_trace([one, missing])

    def test_monitor_counts_on_a_rotated_set_are_unchanged(self, tmp_path):
        """Every line of every file is one record (per-file headers
        included); every op line is one checked operation."""
        from repro.core.history import resolve_jsonl_paths
        from repro.obs.monitor import run_monitor

        base = str(tmp_path / "rot.jsonl")
        self._write_set(base, ops=30, rotate_bytes=600)
        lines = [json.loads(line) for path in resolve_jsonl_paths(base)
                 for line in open(path)]
        report = run_monitor(base, idle_timeout=0, min_epoch_ops=4)
        assert report.exit_code == 0
        assert report.records == len(lines)
        assert report.ops_checked == 30 == sum(
            1 for record in lines if record["type"] == "op")
