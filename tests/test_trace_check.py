"""The one trace-checking pipeline (:class:`repro.net.check.TraceCheck`) and
its five front-ends: ``load --check-inline``, ``live-check``,
``live-check --follow``, ``monitor`` and the chaos judge must pick the same
model for the same declaration and judge the same violation the same way
against the same fault window."""

import asyncio
import json

import pytest

import repro.net.check as check_module
from repro.api.levels import ConsistencyLevel
from repro.chaos import FaultEvent, Scenario, run_scenario
from repro.chaos.engine import ChaosReport, _check_and_judge
from repro.cli import main as cli_main
from repro.core.events import Operation, reset_op_ids
from repro.net.check import TraceCheck, resolve_model
from repro.net.cluster import LiveProcess
from repro.net.load import run_load
from repro.net.recorder import RecordingHistory, TraceWriter, read_trace
from repro.net.spec import ClusterSpec
from repro.obs.monitor import run_monitor


def _write_trace(path, meta, stale_read_at=None, trailing_writes=0):
    """Single-writer register trace with quiescent gaps: ``writes`` clean
    writes, optionally a stale read (an RSC violation in its own epoch) and
    more clean writes after it."""
    reset_op_ids()
    writer = TraceWriter(path, meta=meta)
    history = RecordingHistory(writer)
    stamp = [0]

    def write(at):
        stamp[0] += 1
        history.note_invocation("P1", at)
        history.add(Operation.write("P1", "x", f"v{stamp[0]}", invoked_at=at,
                                    responded_at=at + 1.0,
                                    carstamp=(stamp[0], 0, "P1")))

    for i in range(8):
        write(2.0 * i)
    if stale_read_at is not None:
        history.note_invocation("P2", stale_read_at)
        history.add(Operation.read("P2", "x", "v1", invoked_at=stale_read_at,
                                   responded_at=stale_read_at + 1.0,
                                   carstamp=(1, 0, "P1")))
        for i in range(trailing_writes):
            write(stale_read_at + 2.0 * (i + 1))
    writer.close()


# --------------------------------------------------------------------------- #
# One precedence rule, five front-ends
# --------------------------------------------------------------------------- #
#: (header hints, explicit override, the model every front-end must check).
#: ``gryff`` defaults to linearizability and also honors RSC, so each rung
#: of the precedence ladder changes the answer.
MODEL_CASES = {
    "no-hints": ({}, None, "linearizability"),
    "level-only": ({"level": "rsc"}, None, "rsc"),
    "model-only": ({"model": "rsc"}, None, "rsc"),
    "both-plus-override": ({"level": "lin", "model": "linearizability"},
                           "rsc", "rsc"),
}


@pytest.fixture
def checked_models(monkeypatch):
    """Every model a checker was actually built or run for, in order."""
    seen = []
    real_streaming = check_module.streaming_checker_for
    real_batch = check_module.check_trace

    def streaming(protocol, model=None, **kwargs):
        seen.append(model)
        return real_streaming(protocol, model, **kwargs)

    def batch(history, protocol, model=None):
        seen.append(model)
        return real_batch(history, protocol, model)

    monkeypatch.setattr(check_module, "streaming_checker_for", streaming)
    monkeypatch.setattr(check_module, "check_trace", batch)
    return seen


def _live_check(path, override, follow, tmp_path):
    out = str(tmp_path / "verdict.json")
    argv = ["live-check", path, "--json", out]
    if follow:
        argv += ["--follow", "--idle-timeout", "0"]
    if override:
        argv += ["--model", override]
    assert cli_main(argv) == 0
    with open(out) as handle:
        return json.load(handle)["model"]


def _load_inline(level, trace_path):
    async def scenario():
        spec = ClusterSpec.gryff(num_replicas=3, base_port=0, variant="gryff")
        server = LiveProcess(spec)
        await server.start()
        try:
            return await run_load(spec, num_clients=1, duration_ms=None,
                                  ops_per_client=3, seed=5, level=level,
                                  trace_path=trace_path, check_inline=True)
        finally:
            await server.stop()

    return asyncio.run(scenario())["check"]["model"]


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_every_front_end_checks_the_same_model(case, tmp_path, capsys,
                                               checked_models):
    hints, override, expected = MODEL_CASES[case]
    header = {"protocol": "gryff", **hints}
    assert resolve_model("gryff", header, override) == expected
    path = str(tmp_path / "trace.jsonl")
    _write_trace(path, header)

    # The three readers resolve the model from the header and the override.
    checked = {
        "live-check": _live_check(path, override, False, tmp_path),
        "live-check --follow": _live_check(path, override, True, tmp_path),
        "monitor": run_monitor(path, model=override, idle_timeout=0).model,
    }
    # The two writers never read a header: they declare a level (None = the
    # protocol's own), which reaches the pipeline as the explicit override.
    level = None if case == "no-hints" else \
        ConsistencyLevel.parse(expected).value
    load_trace = str(tmp_path / "load.jsonl")
    checked["load --check-inline"] = _load_inline(level, load_trace)
    chaos = run_scenario(
        Scenario(name="tiny", protocol="gryff", description="no faults",
                 duration_ms=150.0, num_clients=2, level=level),
        backend="sim", trace_dir=str(tmp_path / "chaos"))
    checked["chaos judge"] = chaos.model
    assert checked == dict.fromkeys(checked, expected)
    # Not only reported: each front-end's checker really ran that model.
    assert len(checked_models) >= len(checked)
    assert set(checked_models) == {expected}
    # And what a writer declared is what a reader later resolves.
    assert _live_check(load_trace, None, False, tmp_path) == expected
    assert _live_check(chaos.trace_path, None, True, tmp_path) == expected


# --------------------------------------------------------------------------- #
# One window judge: the chaos engine and the monitor agree
# --------------------------------------------------------------------------- #
#: (fault window, trailing writes after the stale read at t=100, excused?)
WINDOW_CASES = {
    "inside": ((90.0, 120.0), 0, True),
    "outside": ((0.0, 50.0), 0, False),
    # The stale read's epoch is the open final one: it runs to infinity and
    # so overlaps a window that only opens later.
    "open-final-epoch-meets-later-window": ((500.0, 600.0), 0, True),
    # ...but once later operations close that epoch, the same window is
    # clearly disjoint from it.
    "closed-epoch-before-later-window": ((500.0, 600.0), 9, False),
}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_chaos_judge_and_monitor_classify_identically(case, tmp_path):
    window, trailing_writes, excused = WINDOW_CASES[case]
    path = str(tmp_path / "doctored.jsonl")
    _write_trace(path, {"protocol": "gryff-rsc"}, stale_read_at=100.0,
                 trailing_writes=trailing_writes)

    monitored = run_monitor(path, min_epoch_ops=8, idle_timeout=0,
                            fault_windows=[window])

    # The chaos judge: the same history, the same window as a scenario's
    # partition/heal interval, anchored at the same instant (t=0).
    scenario = Scenario(
        name="doctored", protocol="gryff-rsc", description="",
        window_slack_ms=0.0,
        events=[FaultEvent(window[0], "partition", args={"groups": []}),
                FaultEvent(window[1], "heal")])
    assert scenario.fault_windows() == [window]
    judged = ChaosReport(scenario="doctored", backend="sim",
                         protocol="gryff-rsc", model="rsc",
                         expect_clean=False, ops=1)
    _meta, history = read_trace(path)
    _check_and_judge(judged, scenario, history, run_start=0.0)

    assert len(judged.violations) == 1
    assert judged.violations == monitored.violations
    assert (judged.violations_outside_windows
            == monitored.violations_outside_windows)
    assert judged.fault_windows == monitored.fault_windows == [window]
    assert (judged.violations_outside_windows == []) is excused
    assert judged.ok is excused
    assert (monitored.alert is None) is excused
    assert monitored.exit_code == (0 if excused else 1)


# --------------------------------------------------------------------------- #
# Pipeline details the front-ends rely on
# --------------------------------------------------------------------------- #
class TestTraceCheck:
    def test_one_report_shape_for_streaming_and_batch(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _write_trace(path, {"protocol": "gryff-rsc"})
        streamed = TraceCheck(min_epoch_ops=3).follow(path, idle_timeout=0)
        batch = TraceCheck().batch(path)
        assert streamed.to_dict().keys() == batch.to_dict().keys()
        assert streamed.streaming and not batch.streaming
        assert streamed.satisfied and batch.satisfied
        assert streamed.ops_checked == batch.ops_checked == 8
        assert streamed.epochs > 1 and batch.epochs == 0
        assert streamed.to_dict()["operations"] == 8

    def test_empty_and_headerless_sources_check_nothing(self, tmp_path):
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        report = TraceCheck().follow(empty, idle_timeout=0)
        assert report.model is None and report.records == 0
        bare = str(tmp_path / "bare.jsonl")
        _write_trace(bare, {"note": "no protocol"})
        report = TraceCheck().follow(bare, idle_timeout=0)
        assert report.model is None and report.records == 1
        assert TraceCheck().batch(bare).model is None
        assert TraceCheck("gryff-rsc").batch(bare).model == "rsc"

    def test_stop_on_unexcused_ends_the_fold_at_the_violating_epoch(
            self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        _write_trace(path, {"protocol": "gryff-rsc"}, stale_read_at=100.0,
                     trailing_writes=20)
        full = TraceCheck(min_epoch_ops=4).follow(path, idle_timeout=0)
        stopped = TraceCheck(min_epoch_ops=4).follow(
            path, idle_timeout=0, stop_on_unexcused=True)
        assert not full.satisfied and not stopped.satisfied
        assert stopped.records < full.records
        assert stopped.first_violation.index == full.first_violation.index

    def test_unknown_level_in_the_header_declares_nothing(self):
        assert resolve_model("spanner", {"level": "bogus"}) == \
            "strict_serializability"
