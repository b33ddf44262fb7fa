"""Performance suite for the checker and simulation hot paths.

The suite measures three layers at several history sizes:

* **Constraint-edge derivation** — the sweep-line engine in
  :mod:`repro.core.orders` versus the naive quadratic reference loops
  (the seed implementation, kept as ``naive_*`` functions for exactly this
  comparison).
* **Serialization search** — exhaustive ``check_rss`` throughput on small
  synthetic histories (exercises the dense-int / memoized search).
* **Simulation kernel** — raw events/sec of the discrete-event engine on a
  timeout-ping workload and a store (mailbox) handoff workload.

``run_perf_suite`` returns a JSON-serializable payload;
``python -m repro perf`` and ``benchmarks/bench_perf_scaling.py`` are the
front ends.  The synthetic-history generator is deterministic so numbers are
comparable across commits (the committed seed baseline in
``benchmarks/BENCH_seed_baseline.json`` was produced by this same suite at
the seed commit).
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench.runner import ParallelRunner, default_jobs
from repro.core import orders as _orders
from repro.core.history import History
from repro.core.events import Operation
from repro.core.orders import naive_real_time_edges, naive_regular_constraint_edges
from repro.core.relations import CausalOrder, regular_constraint_edges
from repro.sim.engine import Environment, Store

__all__ = [
    "PERF_SCALES",
    "SEED_BASELINE_PATH",
    "synthetic_history",
    "bench_constraint_derivation",
    "bench_serialization_search",
    "bench_sim_kernel",
    "bench_metrics_overhead",
    "bench_streaming_checker",
    "bench_sweep_wall_clock",
    "run_perf_suite",
    "attach_baseline",
    "perf_report_rows",
]

#: The committed perf payload measured by this same suite at the seed commit
#: (quadratic edge derivation, dict-backed event kernel).
SEED_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))),
    "benchmarks", "BENCH_seed_baseline.json",
)

#: History sizes exercised per scale.
PERF_SCALES: Dict[str, Dict[str, Any]] = {
    "quick": {
        "history_sizes": (200, 500, 1000),
        "sim_rounds": 200,
        "sim_procs": 100,
        "store_items": 5000,
        "search_checks": 30,
        "sweep_client_counts": (4, 8, 16),
        "sweep_duration_ms": 600.0,
        "streaming_sizes": (10_000, 100_000),
        "metrics_ops_per_client": 40,
        "metrics_clients": 4,
        "metrics_repeats": 2,
    },
    "full": {
        "history_sizes": (200, 500, 1000, 2000, 5000),
        "sim_rounds": 500,
        "sim_procs": 200,
        "store_items": 20000,
        "search_checks": 100,
        "sweep_client_counts": (4, 8, 16, 32),
        "sweep_duration_ms": 2_000.0,
        "streaming_sizes": (10_000, 100_000),
        "metrics_ops_per_client": 80,
        "metrics_clients": 4,
        "metrics_repeats": 3,
    },
}


# --------------------------------------------------------------------------- #
# Deterministic synthetic histories
# --------------------------------------------------------------------------- #
def synthetic_history(
    n_ops: int,
    n_processes: int = 8,
    n_keys: int = 32,
    write_ratio: float = 0.4,
    seed: int = 0,
    pending_mutations: int = 2,
) -> History:
    """A well-formed history with ``n_ops`` operations.

    Each process issues sequential operations with random durations and
    gaps; writes use globally unique values so reads-from is unambiguous.
    Reads observe the most recent write to their key (linearizable oracle),
    so the history is admitted by every model — which keeps the exhaustive
    checkers out of pathological backtracking while still exercising the
    edge-derivation layers fully.
    """
    rng = random.Random(seed)
    # Sequential intervals per process, then a global sweep by invocation time
    # applying writes atomically at invocation (a linearizable oracle).
    intervals = []
    clock = {f"P{i}": 0.0 for i in range(n_processes)}
    for _ in range(n_ops):
        process = f"P{rng.randrange(n_processes)}"
        start = clock[process] + rng.uniform(0.0, 3.0)
        end = start + rng.uniform(0.5, 4.0)
        intervals.append((start, end, process))
        clock[process] = end
    intervals.sort(key=lambda item: item[0])

    last_index_of = {}
    for index, (_, _, process) in enumerate(intervals):
        last_index_of[process] = index
    pending_indices = set(sorted(last_index_of.values(),
                                 reverse=True)[:pending_mutations])

    history = History()
    state: Dict[Any, Any] = {}
    counter = 0
    for index, (start, end, process) in enumerate(intervals):
        key = f"k{rng.randrange(n_keys)}"
        if index in pending_indices:
            counter += 1
            op = Operation.write(process, key, f"v{counter}", invoked_at=start,
                                 responded_at=None)
        elif rng.random() < write_ratio:
            counter += 1
            value = f"v{counter}"
            state[key] = value
            op = Operation.write(process, key, value, invoked_at=start,
                                 responded_at=end)
        else:
            op = Operation.read(process, key, state.get(key),
                                invoked_at=start, responded_at=end)
        history.add(op)
    return history


def _time(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds.

    Floored at 1 ns so ratios computed from the result are always defined,
    even on a coarse-resolution timer.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


# --------------------------------------------------------------------------- #
# Benchmarks
# --------------------------------------------------------------------------- #
def bench_constraint_derivation(history_sizes: Sequence[int],
                                seed: int = 7) -> List[Dict[str, Any]]:
    """Naive vs sweep-line derivation of the constraint edge sets."""
    rows = []
    for size in history_sizes:
        history = synthetic_history(size, seed=seed)
        ops = history.operations()
        repeats = 3 if size <= 500 else 1
        naive_rt_s = _time(lambda: naive_real_time_edges(history, ops), repeats)
        naive_reg_s = _time(lambda: naive_regular_constraint_edges(history), repeats)
        fast_rt_s = _time(lambda: _orders.real_time_edges(history, ops), repeats)
        fast_reg_s = _time(lambda: regular_constraint_edges(history), repeats)
        causal_s = _time(lambda: CausalOrder(history), repeats)
        rows.append({
            "ops": size,
            "naive_real_time_s": naive_rt_s,
            "naive_regular_s": naive_reg_s,
            "naive_real_time_ops_per_s": size / naive_rt_s,
            "fast_real_time_s": fast_rt_s,
            "fast_regular_s": fast_reg_s,
            "causal_build_s": causal_s,
            "fast_real_time_ops_per_s": size / fast_rt_s,
            "real_time_speedup": naive_rt_s / fast_rt_s,
            "regular_speedup": naive_reg_s / fast_reg_s,
        })
    return rows


def bench_serialization_search(n_checks: int, seed: int = 11) -> Dict[str, Any]:
    """Exhaustive check_rss throughput over small synthetic histories."""
    from repro.core.checkers import check_rss

    histories = [
        synthetic_history(10, n_processes=3, n_keys=3, seed=seed + i,
                          pending_mutations=1)
        for i in range(n_checks)
    ]
    for history in histories:  # warm caches outside the timed region
        history.operations()

    def run() -> None:
        for history in histories:
            result = check_rss(history)
            assert result.satisfied

    elapsed = _time(run, repeats=2)
    return {
        "checks": n_checks,
        "total_s": elapsed,
        "checks_per_s": n_checks / elapsed,
    }


def bench_sim_kernel(n_procs: int, n_rounds: int, store_items: int
                     ) -> Dict[str, Any]:
    """Raw kernel throughput: timeout ping and store handoff workloads."""
    counts: Dict[str, int] = {}

    def timeout_workload() -> None:
        env = Environment()

        def worker(env: Environment, delay: float):
            for _ in range(n_rounds):
                yield env.timeout(delay)

        for i in range(n_procs):
            env.process(worker(env, (i % 7) + 1))
        env.run()
        counts["timeout"] = env.events_scheduled

    def store_workload() -> None:
        env = Environment()
        store = Store(env)

        def producer(env: Environment):
            for i in range(store_items):
                store.put(i)
                yield env.timeout(1)

        def consumer(env: Environment):
            for _ in range(store_items):
                yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        counts["store"] = env.events_scheduled

    timeout_s = _time(timeout_workload, repeats=3)
    timeout_events = counts["timeout"]
    store_s = _time(store_workload, repeats=3)
    store_events = counts["store"]
    return {
        "timeout_events": timeout_events,
        "timeout_s": timeout_s,
        "timeout_events_per_s": timeout_events / timeout_s,
        "store_events": store_events,
        "store_s": store_s,
        "store_events_per_s": store_events / store_s,
        "events_per_s": (timeout_events + store_events) / (timeout_s + store_s),
    }


def _invocation_witness(history: History) -> List[Operation]:
    """The linearizable-oracle witness of a synthetic history: operations in
    invocation order (the generator applies writes at invocation, so this
    order replays legally and respects every RSC constraint)."""
    return sorted((op for op in history if op.is_complete),
                  key=lambda op: (op.invoked_at, op.op_id))


def _traced_peak_mb(fn: Callable[[], Any]) -> float:
    """Peak traced Python heap (MB) allocated while running ``fn``."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def bench_streaming_checker(sizes: Sequence[int] = (10_000, 100_000),
                            min_epoch_ops: int = 64,
                            seed: int = 23) -> List[Dict[str, Any]]:
    """Streaming (epoch-windowed) vs batch witness checking.

    Both sides validate the same witness construction on the same synthetic
    history (model: RSC).  Wall time is measured without tracing; the
    ``*_peak_mb`` columns are the peak *traced Python heap allocated by the
    check itself* in a second, tracemalloc-instrumented pass — the shared
    input history is excluded from both sides, so the columns compare the
    checkers' working sets: whole-history structures for batch, one epoch
    plus the carried frontier state for streaming.
    """
    from repro.core.checkers.streaming import (
        StreamingWitnessChecker,
        history_events,
        replay_events,
    )
    from repro.core.checkers.witness import check_with_witness
    from repro.core.specification import RegisterSpec

    rows = []
    for size in sizes:
        history = synthetic_history(size, seed=seed, pending_mutations=0)
        # Events are prepared outside the measured region: a live deployment
        # streams them from the wire/trace, so materializing them is not
        # part of the checker's working set.
        events = history_events(history)

        def run_batch() -> None:
            result = check_with_witness(history, _invocation_witness(history),
                                        model="rsc", spec=RegisterSpec())
            assert result.satisfied, result.reason

        report_box: Dict[str, Any] = {}

        def run_streaming() -> None:
            checker = StreamingWitnessChecker(
                _invocation_witness, model="rsc", spec=RegisterSpec(),
                min_epoch_ops=min_epoch_ops)
            report = replay_events(events, checker)
            assert report.satisfied, report.first_violation
            report_box["report"] = report

        batch_s = _time(run_batch, repeats=1)
        stream_s = _time(run_streaming, repeats=1)
        batch_peak_mb = _traced_peak_mb(run_batch)
        stream_peak_mb = _traced_peak_mb(run_streaming)
        report = report_box["report"]
        rows.append({
            "ops": size,
            "min_epoch_ops": min_epoch_ops,
            "epochs": report.epochs,
            "max_segment_ops": report.max_segment_ops,
            "batch_s": batch_s,
            "stream_s": stream_s,
            "batch_ops_per_s": size / batch_s,
            "stream_ops_per_s": size / stream_s,
            "batch_peak_mb": batch_peak_mb,
            "stream_peak_mb": stream_peak_mb,
            "peak_mb_ratio": stream_peak_mb / max(batch_peak_mb, 1e-9),
        })
    return rows


def bench_metrics_overhead(ops_per_client: int = 40, num_clients: int = 4,
                           repeats: int = 2, seed: int = 31) -> Dict[str, Any]:
    """Live Gryff ops/s with the metrics registry detached vs attached.

    Runs the same fixed-op closed-loop load (3 in-process replicas, real
    asyncio TCP) twice per repeat — once with ``metrics=None`` everywhere
    (the default, uninstrumented path) and once with one
    :class:`~repro.obs.MetricsRegistry` instrumenting the server process
    *and* the load's client transport — and reports the best throughput of
    each side plus their ratio.  The instrumented side also renders the
    registry once per run, so the scrape cost is inside the measurement.

    The numbers are honest live-loop throughputs on whatever machine runs
    the suite: the loop is I/O-bound, so the ratio hovers around 1.0 and is
    only loosely bounded in CI (see ``benchmarks/bench_perf_scaling.py``).
    """
    import asyncio

    from repro.net.cluster import LiveProcess
    from repro.net.load import run_load
    from repro.net.spec import ClusterSpec

    async def one_run(registry) -> float:
        spec = ClusterSpec.gryff(num_replicas=3, base_port=0)
        server = LiveProcess(spec, metrics=registry)
        await server.start()
        try:
            summary = await run_load(
                spec, num_clients=num_clients, duration_ms=None,
                ops_per_client=ops_per_client, write_ratio=0.5,
                conflict_rate=0.2, seed=seed, metrics=registry)
        finally:
            await server.stop()
        if registry is not None:
            registry.render()
        assert summary["ops"] == num_clients * ops_per_client
        return summary["throughput_ops_per_s"]

    def best(with_registry: bool) -> float:
        top = 0.0
        for _ in range(repeats):
            if with_registry:
                from repro.obs.registry import MetricsRegistry

                registry = MetricsRegistry()
            else:
                registry = None
            top = max(top, asyncio.run(one_run(registry)))
        return top

    off = best(False)
    on = best(True)
    return {
        "ops": num_clients * ops_per_client,
        "clients": num_clients,
        "repeats": repeats,
        "registry_off_ops_per_s": off,
        "registry_on_ops_per_s": on,
        "throughput_ratio": on / max(off, 1e-9),
    }


def bench_sweep_wall_clock(client_counts: Sequence[int] = (4, 8, 16),
                           duration_ms: float = 600.0,
                           jobs: Optional[int] = None) -> Dict[str, Any]:
    """Serial vs parallel wall clock of a quick-scale Figure 6 sweep.

    Runs the same (client-count × variant) grid once at ``jobs=1`` (the old
    serial driver behavior) and once across ``jobs`` worker processes, and
    records the wall-clock speedup plus an aggregate-equality check — the
    parallel run must produce exactly the same trial payloads.  The cache is
    disabled for both runs so the comparison measures computation only.
    """
    from repro.bench.spanner_experiments import figure6_sweep

    jobs = jobs if jobs is not None else default_jobs()
    sweep = figure6_sweep(client_counts=tuple(client_counts),
                          duration_ms=duration_ms)
    serial = ParallelRunner(jobs=1).run(sweep)
    row: Dict[str, Any] = {
        "trials": len(sweep.trials),
        "client_counts": list(client_counts),
        "duration_ms": duration_ms,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "serial_wall_s": serial.wall_clock_s,
    }
    if jobs > 1:
        parallel = ParallelRunner(jobs=jobs).run(sweep)
        row["parallel_wall_s"] = parallel.wall_clock_s
        row["speedup"] = serial.wall_clock_s / max(parallel.wall_clock_s, 1e-9)
        row["results_match"] = parallel.data() == serial.data()
    else:
        row["parallel_wall_s"] = None
        row["speedup"] = 1.0
        row["results_match"] = True
    return row


def run_perf_suite(scale: str = "quick",
                   jobs: Optional[int] = None) -> Dict[str, Any]:
    """Run every perf benchmark at ``scale`` and return the payload."""
    if scale not in PERF_SCALES:
        raise ValueError(f"unknown perf scale {scale!r}; use one of {sorted(PERF_SCALES)}")
    params = PERF_SCALES[scale]
    return {
        "schema": "bench-perf/7",
        "scale": scale,
        "sweep_engine": True,
        "constraints": bench_constraint_derivation(params["history_sizes"]),
        "search": bench_serialization_search(params["search_checks"]),
        "sim": bench_sim_kernel(params["sim_procs"], params["sim_rounds"],
                                params["store_items"]),
        "streaming": bench_streaming_checker(params["streaming_sizes"]),
        "metrics_overhead": bench_metrics_overhead(
            params["metrics_ops_per_client"], params["metrics_clients"],
            repeats=params["metrics_repeats"]),
        "sweep_wall_clock": bench_sweep_wall_clock(
            params["sweep_client_counts"], params["sweep_duration_ms"],
            jobs=jobs),
    }


def attach_baseline(payload: Dict[str, Any],
                    baseline_path: Optional[str] = None) -> Dict[str, Any]:
    """Attach the committed seed-commit measurements and derived speedups.

    The constraint-derivation speedups are already apples-to-apples (the
    ``naive_*`` functions *are* the seed code, timed in the same run); the
    simulation-kernel speedup needs the seed numbers, which no longer exist
    in-tree and are read from the committed baseline JSON.
    """
    path = baseline_path or SEED_BASELINE_PATH
    if not os.path.exists(path):
        payload["baseline"] = None
        return payload
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    payload["baseline"] = baseline
    speedups: Dict[str, Any] = {}
    base_sim = baseline.get("sim") or {}
    cur_sim = payload["sim"]
    for metric in ("timeout_events_per_s", "store_events_per_s", "events_per_s"):
        base_value = base_sim.get(metric)
        cur_value = cur_sim.get(metric)
        if base_value and cur_value:
            speedups[f"sim_{metric}"] = cur_value / base_value
    base_search = (baseline.get("search") or {}).get("checks_per_s")
    cur_search = payload["search"].get("checks_per_s")
    if base_search and cur_search:
        speedups["search_checks_per_s"] = cur_search / base_search
    base_rows = {row["ops"]: row for row in baseline.get("constraints", ())}
    for row in payload["constraints"]:
        base_row = base_rows.get(row["ops"])
        if not base_row:
            continue
        # Seed production path == naive loops; compare against our fast path.
        speedups[f"real_time_edges@{row['ops']}"] = (
            base_row["naive_real_time_s"] / row["fast_real_time_s"])
        speedups[f"regular_edges@{row['ops']}"] = (
            base_row["naive_regular_s"] / row["fast_regular_s"])
        if base_row.get("causal_build_s") and row.get("causal_build_s"):
            speedups[f"causal_build@{row['ops']}"] = (
                base_row["causal_build_s"] / row["causal_build_s"])
    payload["speedups_vs_seed"] = speedups
    return payload


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def perf_report_rows(payload: Dict[str, Any]) -> List[List[Any]]:
    """Flatten a perf payload into ``[metric, value]`` rows for format_table."""
    rows: List[List[Any]] = []
    for row in payload["constraints"]:
        size = row["ops"]
        rows.append([f"real-time edges naive @ {size} ops (s)",
                     f"{row['naive_real_time_s']:.4f}"])
        rows.append([f"real-time edges sweep @ {size} ops (s)",
                     f"{row['fast_real_time_s']:.4f}"])
        rows.append([f"real-time speedup @ {size} ops",
                     f"{row['real_time_speedup']:.1f}x"])
        rows.append([f"regular speedup @ {size} ops",
                     f"{row['regular_speedup']:.1f}x"])
    search = payload["search"]
    rows.append(["rss checks/s", f"{search['checks_per_s']:.1f}"])
    sim = payload["sim"]
    rows.append(["sim timeout events/s", f"{sim['timeout_events_per_s']:,.0f}"])
    rows.append(["sim store events/s", f"{sim['store_events_per_s']:,.0f}"])
    rows.append(["sim combined events/s", f"{sim['events_per_s']:,.0f}"])
    for row in payload.get("streaming", ()):
        size = row["ops"]
        rows.append([f"stream check @ {size} ops (ops/s)",
                     f"{row['stream_ops_per_s']:,.0f}"])
        rows.append([f"batch check @ {size} ops (ops/s)",
                     f"{row['batch_ops_per_s']:,.0f}"])
        rows.append([f"stream peak heap @ {size} ops (MB)",
                     f"{row['stream_peak_mb']:.2f} "
                     f"(batch {row['batch_peak_mb']:.2f}, "
                     f"{row['epochs']} epochs, "
                     f"peak epoch {row['max_segment_ops']} ops)"])
    metrics = payload.get("metrics_overhead")
    if metrics:
        rows.append([f"live ops/s, registry off ({metrics['ops']} ops)",
                     f"{metrics['registry_off_ops_per_s']:,.0f}"])
        rows.append(["live ops/s, registry on",
                     f"{metrics['registry_on_ops_per_s']:,.0f}"])
        rows.append(["metrics throughput ratio (on/off)",
                     f"{metrics['throughput_ratio']:.3f}"])
    sweep = payload.get("sweep_wall_clock")
    if sweep:
        rows.append([f"sweep serial wall clock ({sweep['trials']} trials, s)",
                     f"{sweep['serial_wall_s']:.2f}"])
        if sweep.get("parallel_wall_s") is not None:
            rows.append([f"sweep parallel wall clock (--jobs {sweep['jobs']}, s)",
                         f"{sweep['parallel_wall_s']:.2f}"])
            rows.append(["sweep parallel speedup", f"{sweep['speedup']:.2f}x"])
            rows.append(["sweep parallel results match serial",
                         "yes" if sweep["results_match"] else "NO"])
    for name, value in (payload.get("speedups_vs_seed") or {}).items():
        rows.append([f"vs seed: {name}", f"{value:.2f}x"])
    return rows
