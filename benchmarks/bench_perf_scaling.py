"""Perf-scaling benchmark: checker edge derivation and sim kernel throughput.

Runs the performance suite from :mod:`repro.bench.perfsuite` at the
``REPRO_BENCH_SCALE`` scale and writes ``BENCH_perf.json`` at the repository
root (baseline comparison included when the committed seed baseline is
present).  The assertions are intentionally loose lower bounds — an order of
magnitude below typical measurements — so CI catches genuine regressions
without flaking on machine noise.
"""

import os

import pytest

from repro.bench.perfsuite import attach_baseline, perf_report_rows, run_perf_suite
from repro.bench.reporting import format_table, write_json_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def perf_payload():
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    payload = attach_baseline(run_perf_suite(scale))
    write_json_report(os.path.join(REPO_ROOT, "BENCH_perf.json"), payload)
    return payload


def test_perf_suite_writes_report(perf_payload):
    print()
    print(format_table(["metric", "value"], perf_report_rows(perf_payload),
                       title=f"Performance suite — scale {perf_payload['scale']}"))
    assert os.path.exists(os.path.join(REPO_ROOT, "BENCH_perf.json"))


def test_constraint_derivation_speedup(perf_payload):
    """The sweep-line engine must beat the naive quadratic loops clearly."""
    for row in perf_payload["constraints"]:
        if row["ops"] >= 1000:
            assert row["real_time_speedup"] > 5.0, row
            assert row["regular_speedup"] > 5.0, row


def test_sim_kernel_throughput_floor(perf_payload):
    """Loose absolute floor: the slotted kernel measures ~1M events/s."""
    assert perf_payload["sim"]["events_per_s"] > 100_000


def test_streaming_checker_bounded_memory(perf_payload):
    """Epoch-windowed checking must hold peak memory bounded per epoch.

    The streaming checker sees the same operations as the batch checker but
    retains only the current epoch plus the carried frontier state, so its
    peak traced heap must come in clearly below batch at 10k+ ops, and the
    largest epoch must be a small fraction of the history.  Throughput is
    machine-dependent and only floor-checked.
    """
    rows = perf_payload["streaming"]
    assert rows, "streaming section missing from the perf payload"
    for row in rows:
        assert row["epochs"] > 1, row
        assert row["max_segment_ops"] < row["ops"] / 2, row
        assert row["stream_peak_mb"] < row["batch_peak_mb"], row
        assert row["stream_ops_per_s"] > 1_000, row


def test_sweep_wall_clock_recorded_and_deterministic(perf_payload):
    """The serial-vs-parallel sweep section must show matching results.

    Wall-clock speedup depends on the core count of the machine, so only
    the determinism claim (parallel payloads == serial payloads) is
    asserted unconditionally; the >1x speedup assertion is opt-in via
    REPRO_PERF_STRICT=1 on machines with multiple cores.
    """
    sweep = perf_payload["sweep_wall_clock"]
    assert sweep["trials"] > 0
    assert sweep["serial_wall_s"] > 0
    assert sweep["results_match"] is True
    if (os.environ.get("REPRO_PERF_STRICT") == "1"
            and (sweep["cpu_count"] or 1) > 1 and sweep["jobs"] > 1):
        assert sweep["speedup"] > 1.0


def test_metrics_overhead_within_bounds(perf_payload):
    """Attaching the metrics registry must not tank live throughput.

    The instrumentation is scrape-time collectors plus a handful of integer
    increments on the transport hot path, so the on/off throughput ratio
    sits near 1.0.  The live loop is I/O-bound and CI machines are noisy,
    so the unconditional bound is loose (>= 0.75); the paper-claim bound of
    "within 5%" (>= 0.95) is opt-in via REPRO_PERF_STRICT=1 on quiet hosts.
    """
    metrics = perf_payload["metrics_overhead"]
    assert metrics["ops"] > 0
    assert metrics["registry_off_ops_per_s"] > 0
    assert metrics["registry_on_ops_per_s"] > 0
    assert metrics["throughput_ratio"] >= 0.75, metrics
    if os.environ.get("REPRO_PERF_STRICT") == "1":
        assert metrics["throughput_ratio"] >= 0.95, metrics


def test_speedup_vs_seed_baseline(perf_payload):
    """The baseline comparison must be present and well-formed.

    The seed baseline was measured on a particular machine, so asserting an
    absolute cross-machine speedup would fail on any slower runner; the
    numeric >1x assertion is opt-in via REPRO_PERF_STRICT=1 (useful when
    benchmarking on the same host that produced the baseline).
    """
    speedups = perf_payload.get("speedups_vs_seed")
    if not speedups:
        pytest.skip("seed baseline not available")
    assert speedups["sim_events_per_s"] > 0
    if os.environ.get("REPRO_PERF_STRICT") == "1":
        assert speedups["sim_events_per_s"] > 1.0
