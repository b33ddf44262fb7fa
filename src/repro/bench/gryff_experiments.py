"""Gryff / Gryff-RSC experiment drivers (Figure 7 and §7.4).

``run_ycsb_experiment`` reproduces the §7.2 setup: five replicas, one per
Table 2 region, sixteen closed-loop clients spread evenly over the regions,
a YCSB read/write mix with a configurable conflict rate.
``figure7_experiment`` sweeps the write ratio at a fixed conflict rate and
reports p99 read latency for Gryff and Gryff-RSC.  ``overhead_experiment``
reproduces §7.4: no wide-area emulation, 10% conflicts, 50/50 and 95/5 mixes,
throughput and median latency within a few percent across variants.

The sweep drivers (``figure7_experiment`` / ``overhead_experiment``) run
their (write-ratio, variant) grids through :mod:`repro.bench.runner` —
``jobs=1`` is bit-identical to the old serial loops, ``jobs=N`` spreads the
independent trials across worker processes, and ``resume=True`` reuses
cached trial results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.api import open_store, ycsb_executor
from repro.bench.runner import SweepSpec, run_sweep
from repro.core.history import History
from repro.gryff.config import GryffConfig, GryffVariant
from repro.sim.stats import LatencyRecorder, Percentiles, percentile
from repro.workloads.clients import ClosedLoopDriver
from repro.workloads.ycsb import YcsbWorkload

__all__ = [
    "GryffExperimentResult",
    "run_ycsb_experiment",
    "ycsb_trial",
    "figure7_sweep",
    "figure7_experiment",
    "overhead_sweep",
    "overhead_experiment",
]


@dataclass
class GryffExperimentResult:
    """Outcome of one Gryff / Gryff-RSC run."""

    variant: GryffVariant
    config: GryffConfig
    recorder: LatencyRecorder
    replica_stats: Dict[str, Dict[str, int]]
    reads_fast: int
    reads_slow: int
    duration_ms: float
    consistency_ok: Optional[bool] = None
    history: Optional[History] = None

    def read_percentiles(self) -> Percentiles:
        return self.recorder.percentiles("read")

    def write_percentiles(self) -> Percentiles:
        return self.recorder.percentiles("write")

    def p99_read_ms(self) -> float:
        samples = self.recorder.samples("read")
        return percentile(samples, 99.0) if samples else 0.0

    def p999_read_ms(self) -> float:
        samples = self.recorder.samples("read")
        return percentile(samples, 99.9) if samples else 0.0

    def throughput(self) -> float:
        return self.recorder.throughput()

    def slow_read_fraction(self) -> float:
        total = self.reads_fast + self.reads_slow
        return self.reads_slow / total if total else 0.0


def run_ycsb_experiment(
    variant: GryffVariant,
    write_ratio: float,
    conflict_rate: float,
    num_clients: int = 16,
    duration_ms: float = 60_000.0,
    wide_area: bool = True,
    server_cpu_ms: float = 0.0,
    seed: int = 1,
    record_history: bool = False,
    check_consistency: bool = False,
) -> GryffExperimentResult:
    """Run the YCSB workload against one variant (§7.2 / §7.4 setup)."""
    config = GryffConfig(variant=variant, wide_area=wide_area,
                         server_cpu_ms=server_cpu_ms, seed=seed)
    store = open_store("sim-gryff", config=config)
    pairs = []
    for index in range(num_clients):
        site = config.sites[index % len(config.sites)]
        session = store.session(site, record_history=record_history)
        pairs.append((session, YcsbWorkload(
            client_id=session.name, write_ratio=write_ratio,
            conflict_rate=conflict_rate, seed=seed * 1000 + index,
        )))
    driver = ClosedLoopDriver(
        store.env, pairs, ycsb_executor, duration_ms=duration_ms,
    )
    driver.start()
    store.run()

    consistency_ok = None
    if check_consistency and record_history:
        consistency_ok = bool(store.check_consistency())
    return GryffExperimentResult(
        variant=variant,
        config=config,
        recorder=store.recorder,
        replica_stats=store.cluster.replica_stats(),
        reads_fast=sum(session.reads_fast for session in store.sessions),
        reads_slow=sum(session.reads_slow for session in store.sessions),
        duration_ms=store.env.now,
        consistency_ok=consistency_ok,
        history=store.history if record_history else None,
    )


def _gryff_summary(result: GryffExperimentResult) -> Dict[str, Any]:
    """Compact, picklable summary of one Gryff run (what the figures use)."""
    recorder = result.recorder
    reads = recorder.samples("read")
    writes = recorder.samples("write")
    combined = sorted(reads + writes)
    return {
        "variant": result.variant.value,
        "duration_ms": result.duration_ms,
        "throughput": recorder.throughput(),
        "counts": {category: recorder.count(category)
                   for category in recorder.categories()},
        "read_p99_ms": recorder.quantile("read", 99.0) if reads else 0.0,
        "read_p999_ms": recorder.quantile("read", 99.9) if reads else 0.0,
        "read_p50_ms": recorder.quantile("read", 50.0) if reads else 0.0,
        "combined_p50_ms": combined[len(combined) // 2] if combined else 0.0,
        "reads_fast": result.reads_fast,
        "reads_slow": result.reads_slow,
        "slow_read_fraction": result.slow_read_fraction(),
        "replica_stats": result.replica_stats,
        "consistency_ok": result.consistency_ok,
    }


def ycsb_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Runner trial: one §7.2 / §7.4 YCSB run → compact summary."""
    params = dict(params)
    variant = GryffVariant(params.pop("variant"))
    result = run_ycsb_experiment(variant, **params)
    return _gryff_summary(result)


def figure7_sweep(conflict_rate: float,
                  write_ratios: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
                  seed: int = 1, **kwargs) -> SweepSpec:
    """The Figure 7 grid: write ratios × both variants at one conflict rate."""
    base = dict(kwargs)
    base["conflict_rate"] = conflict_rate
    return SweepSpec.grid(
        "figure7", "gryff_ycsb",
        axes={"write_ratio": list(write_ratios),
              "variant": [GryffVariant.GRYFF.value, GryffVariant.GRYFF_RSC.value]},
        base=base, seed=seed,
    )


def figure7_experiment(conflict_rate: float,
                       write_ratios: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
                       jobs: Optional[int] = None, resume: bool = False,
                       cache_dir: Optional[str] = None, seed: int = 1,
                       **kwargs) -> List[Dict[str, Any]]:
    """Figure 7: p99 read latency vs write ratio at one conflict rate."""
    sweep = figure7_sweep(conflict_rate, write_ratios, seed=seed, **kwargs)
    outcome = run_sweep(sweep, jobs=jobs, resume=resume, cache_dir=cache_dir)
    summaries = outcome.data()
    rows = []
    for index, write_ratio in enumerate(write_ratios):
        gryff = summaries[index * 2]
        rsc = summaries[index * 2 + 1]
        gryff_p99 = gryff["read_p99_ms"]
        rsc_p99 = rsc["read_p99_ms"]
        reduction = (1.0 - rsc_p99 / gryff_p99) * 100.0 if gryff_p99 else 0.0
        rows.append({
            "conflict_rate": conflict_rate,
            "write_ratio": write_ratio,
            "gryff_p99_ms": gryff_p99,
            "gryff_rsc_p99_ms": rsc_p99,
            "reduction_pct": reduction,
            "gryff_slow_read_fraction": gryff["slow_read_fraction"],
            "gryff_p999_ms": gryff["read_p999_ms"],
            "gryff_rsc_p999_ms": rsc["read_p999_ms"],
        })
    return rows


def overhead_sweep(write_ratios: Sequence[float] = (0.5, 0.05),
                   conflict_rate: float = 0.10,
                   num_clients: int = 16,
                   duration_ms: float = 5_000.0,
                   server_cpu_ms: float = 0.05,
                   seed: int = 1) -> SweepSpec:
    """The §7.4 grid: write ratios × both variants, no wide-area links."""
    return SweepSpec.grid(
        "overhead", "gryff_ycsb",
        axes={"write_ratio": list(write_ratios),
              "variant": [GryffVariant.GRYFF.value, GryffVariant.GRYFF_RSC.value]},
        base={"conflict_rate": conflict_rate, "num_clients": num_clients,
              "duration_ms": duration_ms, "wide_area": False,
              "server_cpu_ms": server_cpu_ms},
        seed=seed,
    )


def overhead_experiment(write_ratios: Sequence[float] = (0.5, 0.05),
                        conflict_rate: float = 0.10,
                        num_clients: int = 16,
                        duration_ms: float = 5_000.0,
                        server_cpu_ms: float = 0.05,
                        seed: int = 1,
                        jobs: Optional[int] = None, resume: bool = False,
                        cache_dir: Optional[str] = None) -> List[Dict[str, Any]]:
    """§7.4: Gryff-RSC's throughput/latency overhead without wide-area links."""
    sweep = overhead_sweep(write_ratios, conflict_rate, num_clients,
                           duration_ms, server_cpu_ms, seed)
    outcome = run_sweep(sweep, jobs=jobs, resume=resume, cache_dir=cache_dir)
    summaries = outcome.data()
    rows = []
    for index, write_ratio in enumerate(write_ratios):
        row: Dict[str, Any] = {"write_ratio": write_ratio,
                               "conflict_rate": conflict_rate}
        for offset, label in ((0, "gryff"), (1, "gryff_rsc")):
            summary = summaries[index * 2 + offset]
            row[f"{label}_throughput"] = summary["throughput"]
            row[f"{label}_p50_ms"] = summary["combined_p50_ms"]
        gryff_throughput = row["gryff_throughput"]
        if gryff_throughput:
            row["throughput_delta_pct"] = (
                (row["gryff_rsc_throughput"] - gryff_throughput)
                / gryff_throughput * 100.0
            )
        else:
            row["throughput_delta_pct"] = 0.0
        rows.append(row)
    return rows
