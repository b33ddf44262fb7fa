"""Unit tests for the benchmark's pure functions (no sockets, < 1 s).

Collected by the tier-1 run; everything that touches a live cluster is
exercised by ``run.py --smoke`` instead.
"""

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from e2ebench import metrics, stats, tracing, workloads  # noqa: E402
from e2ebench.load import OpTape  # noqa: E402


# --------------------------------------------------------------------------- #
# Windows
# --------------------------------------------------------------------------- #
def steady_run(seconds=4, rate=1000, latency_ms=1.0):
    """Completion times (ms) and latencies of a perfectly steady run with a
    small deterministic ripple, so percentiles are not all equal."""
    times, values = [], []
    for index in range(seconds * rate):
        times.append(index * 1000.0 / rate)
        values.append(latency_ms + (index % 10) * 0.01)
    return times, values


def test_slice_windows_buckets_by_time_and_drops_outsiders():
    buckets = stats.slice_windows([0, 5, 10, 15, 19.9, 20, -1], list("abcdefg"),
                                  0, 20, 2)
    assert buckets == [["a", "b"], ["c", "d", "e"]]
    with pytest.raises(ValueError):
        stats.slice_windows([1], [1], 5, 5, 1)


def test_window_count_respects_both_guards():
    assert stats.window_count(samples=10_000, span_s=13.0) == 13   # >= 1 s each
    assert stats.window_count(samples=1_000, span_s=13.0) == 5     # >= 200 each
    assert stats.window_count(samples=150, span_s=13.0) == 1       # widen, never 0
    assert stats.window_count(samples=10_000, span_s=0.5) == 1


def test_one_stall_moves_the_whole_run_p99_but_not_the_reported_one():
    times, values = steady_run()
    clean = stats.windowed_percentile(times, values, 0, 4000, 99)
    # A 50 ms stall at t = 2.5 s: every operation due during it completes
    # when it ends, so 50 operations (1.25 % of the run) see up to 50 ms.
    stalled = list(values)
    for index, at in enumerate(times):
        if 2500 <= at < 2550:
            stalled[index] = values[index] + (2550 - at)
    hit = stats.windowed_percentile(times, stalled, 0, 4000, 99)
    assert hit.whole_run > 10 * clean.whole_run
    assert hit.value == pytest.approx(clean.value)
    assert hit.windows == 4 and hit.samples == 4000 and not hit.thin
    assert hit.iqr > clean.iqr


def test_a_slowdown_of_every_window_moves_the_reported_value():
    times, values = steady_run()
    slower = stats.windowed_percentile(times, [v * 1.2 for v in values],
                                       0, 4000, 50)
    base = stats.windowed_percentile(times, values, 0, 4000, 50)
    assert slower.value == pytest.approx(base.value * 1.2)


def test_thin_phases_are_flagged_and_empty_ones_return_none():
    times, values = steady_run(seconds=4, rate=200)       # 800 samples
    thin = stats.windowed_percentile(times, values, 0, 4000, 99)
    assert thin.thin and thin.windows == 4
    sparse = stats.windowed_percentile(times[:300], values[:300], 0, 4000, 99)
    assert sparse.windows == 1                            # 300 // 200
    assert stats.windowed_percentile([], [], 0, 4000, 99) is None
    assert stats.windowed_rate([], 0, 4000) is None


def test_windowed_rate_takes_the_good_side_quartile():
    times, _ = steady_run(seconds=4, rate=1000)
    # Remove half of the completions of the last second: one slow window.
    kept = [t for t in times if t < 3000 or int(t) % 2 == 0]
    rate = stats.windowed_rate(kept, 0, 4000)
    assert rate.windows == 4 and rate.samples == 3500
    assert rate.value == pytest.approx(1000.0)            # the slow window is ignored
    assert rate.whole_run == pytest.approx(875.0)
    assert stats.quiet_quartile([1, 2, 3, 4, 5], "lower") == 2
    assert stats.quiet_quartile([1, 2, 3, 4, 5], "higher") == 4


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([7], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_nested_and_sibling_children():
    #          0:[0,100]
    #          ├── 1:[10,30] ── 3:[12,18]
    #          └── 2:[20,50]        (overlaps its sibling by 10)
    starts = [0, 10, 20, 12]
    ends = [100, 30, 50, 18]
    parents = [-1, 0, 0, 1]
    assert stats.self_times(starts, ends, parents) == [
        100 - 40,      # siblings cover [10,50) once; the grandchild is not ours
        20 - 6,
        30,
        6,
    ]


def test_self_time_clips_children_to_the_parent():
    assert stats.self_times([10, 0], [20, 15], [-1, 0]) == [5, 15]


def test_span_recorder_nests_by_call_stack_and_uninstalls():
    recorder = tracing.SpanRecorder()

    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    recorder.patch(Layer, "outer", recorder.timed("a", "outer", Layer.outer))
    recorder.patch(Layer, "inner", recorder.timed("b", "inner", Layer.inner))
    recorder.patch(Layer, "__doc__", None)
    assert Layer().outer() == 2
    assert list(recorder.parents) == [-1, 0, 0]
    table = recorder.table()
    assert table["a/outer"]["calls"] == 1 and table["b/inner"]["calls"] == 2
    assert table["a/outer"]["self_ns"] == (
        table["a/outer"]["total_ns"] - table["b/inner"]["total_ns"])
    recorder.uninstall()
    assert not hasattr(Layer.outer, "__wrapped__")
    assert Layer().outer() == 2 and len(recorder.sids) == 3


def test_module_groups():
    assert tracing.module_group("/x/src/repro/net/wire.py") == "net.wire"
    assert tracing.module_group("/x/src/repro/sim/engine.py") == "sim"
    assert tracing.module_group("/x/src/repro/obs/http.py") == "other"
    assert tracing.module_group("/usr/lib/python3.11/asyncio/events.py") == "asyncio"
    assert tracing.module_group("/usr/lib/python3.11/selectors.py") == "idle"
    assert tracing.module_group("/usr/lib/python3.11/json/encoder.py") == "other"


# --------------------------------------------------------------------------- #
# The latency-limit metric
# --------------------------------------------------------------------------- #
def test_slo_phase_rules():
    ok = dict(read_p99_ms=5.0, write_p99_ms=9.0, read_limit_ms=10.0,
              write_limit_ms=20.0, failed=0, backlog_mid=3, backlog_end=35)
    assert stats.slo_phase_ok(**ok)
    assert not stats.slo_phase_ok(**dict(ok, backlog_end=36))   # growing backlog
    assert not stats.slo_phase_ok(**dict(ok, read_p99_ms=10.1))
    assert not stats.slo_phase_ok(**dict(ok, write_p99_ms=20.1))
    assert not stats.slo_phase_ok(**dict(ok, failed=1))         # a failure misses any limit
    assert not stats.slo_phase_ok(**dict(ok, read_p99_ms=None)) # no samples


def test_slo_rate_is_the_highest_passing_rate_or_zero():
    assert stats.slo_rate([(2400.0, True), (4600.0, True)]) == 4600.0
    assert stats.slo_rate([(2400.0, True), (4600.0, False)]) == 2400.0
    assert stats.slo_rate([(2400.0, False), (4600.0, False)]) == 0.0


# --------------------------------------------------------------------------- #
# Comparing runs
# --------------------------------------------------------------------------- #
PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95]


def test_judge_improved_needs_wins_and_a_gap_beyond_the_parents_spread():
    change = [value * 0.8 for value in PARENT]
    assert stats.judge(PARENT, change, "lower", 0.10)["verdict"] == "improved"
    # Wins every pair, but by less than the parent's own inter-quartile range.
    barely = [value - 0.01 for value in PARENT]
    assert stats.judge(PARENT, barely, "lower", 0.10)["verdict"] == "within bound"
    # "higher is better" flips the direction.
    assert stats.judge(PARENT, change, "higher", 0.10)["verdict"] == "regressed"


def test_judge_regressed_and_within_bound():
    worse = [value * 1.15 for value in PARENT]
    verdict = stats.judge(PARENT, worse, "lower", 0.10)
    assert verdict["verdict"] == "regressed"
    assert verdict["worsening"] == pytest.approx(0.15)
    slightly = [value * 1.05 for value in PARENT]
    assert stats.judge(PARENT, slightly, "lower", 0.10)["verdict"] == "within bound"


def test_judge_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [8.0, 12.0, 9.0, 11.5, 8.5, 12.5, 9.5, 10.5, 8.2, 11.8]
    verdict = stats.judge(PARENT, noisy, "lower", 0.10)
    assert verdict["verdict"] == "unresolved"
    assert verdict["change_spread"] > 0.10
    with pytest.raises(ValueError):
        stats.judge(PARENT, noisy[:3], "lower", 0.10)


def test_spread_is_the_drivers_measure():
    assert stats.spread([1.0]) == 0.0
    values = [9, 10, 11, 10, 10, 9, 11, 10, 10, 10]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10) == pytest.approx(
        0.05)


# --------------------------------------------------------------------------- #
# The tape
# --------------------------------------------------------------------------- #
def test_op_tape_pairs_each_record_with_its_issue_time():
    class Env:
        now = 0.0

    env = Env()
    tape = OpTape()

    def executor(session, spec):
        env.now += spec          # the operation takes `spec` ms
        yield

    timed = tape.timing(executor, env)
    for intended, service in ((0.0, 2.0), (1.0, 3.0)):
        for _ in timed(None, service):
            pass
        tape.record("read", intended, env.now)
    assert tape.latencies() == [2.0, 4.0]
    assert tape.queue_waits() == [0.0, 1.0]      # second one was issued 1 ms late
    assert len(tape.select(frozenset({"write"}))) == 0


# --------------------------------------------------------------------------- #
# The catalogue and the manifest
# --------------------------------------------------------------------------- #
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_catalogue_meets_the_manifest_contract():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m.unit)
               for m in metrics.END_TO_END + metrics.PER_LAYER)
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    setup = [m for m in metrics.END_TO_END if m.name == "setup_s"]
    assert setup and setup[0].unit == "s" and setup[0].better == "lower"
    assert setup[0].bound == max(m.bound for m in metrics.END_TO_END)
    assert 2 <= len(workloads.WORKLOADS) <= 8
    for workload in workloads.WORKLOADS:
        assert NAME.match(workload.name)
        assert len(workload.why) <= 200 and "\n" not in workload.why
        assert abs(sum(workload.shares) - 1.0) < 1e-9


def test_benchmark_json_is_generated_from_the_catalogue():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside this checkout")
    with open(path, "r", encoding="utf-8") as handle:
        on_disk = json.load(handle)
    assert on_disk == metrics.manifest(
        [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS])
