"""Spanner / Spanner-RSS experiment drivers (Figures 5 and 6).

``run_retwis_experiment`` reproduces the §6.1 setup: three shards with
leaders in CA/VA/IR, Retwis over Zipfian keys, partly-open clients in every
data center.  ``figure5_experiment`` runs both variants at one skew and
returns the read-only-transaction tail-latency comparison.

``run_load_experiment`` reproduces the §6.2 setup: a single data center,
eight shards, zero TrueTime error, closed-loop clients with a uniform
workload; ``figure6_experiment`` sweeps the number of clients and reports
throughput versus median latency for both variants.

Both figure drivers execute their (variant, parameter) grids through
:mod:`repro.bench.runner`: ``jobs=1`` reproduces the old serial in-process
behavior bit-for-bit, ``jobs=N`` fans the independent trials across a
process pool, and ``resume=True`` reuses cached trial results.  The trial
functions (``retwis_trial`` / ``load_trial``) return compact picklable
summaries — percentiles and counters, never histories — which is all the
figures need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.api import make_retwis_executor, open_store, reset_session
from repro.bench.runner import SweepSpec, run_sweep
from repro.core.history import History
from repro.sim.stats import LatencyRecorder, Percentiles
from repro.spanner.client import TransactionAborted  # noqa: F401  (re-export)
from repro.spanner.config import SpannerConfig, Variant
from repro.workloads.clients import ClosedLoopDriver, PartlyOpenDriver
from repro.workloads.retwis import RetwisWorkload

__all__ = [
    "SpannerExperimentResult",
    "run_retwis_experiment",
    "retwis_trial",
    "figure5_sweep",
    "figure5_experiment",
    "run_load_experiment",
    "load_trial",
    "figure6_sweep",
    "figure6_experiment",
    "FIGURE5_FRACTIONS",
]

#: The y-axis gridlines of Figure 5.
FIGURE5_FRACTIONS = (0.5, 0.9, 0.99, 0.995, 0.999)


@dataclass
class SpannerExperimentResult:
    """Outcome of one Spanner / Spanner-RSS run."""

    variant: Variant
    config: SpannerConfig
    recorder: LatencyRecorder
    shard_stats: Dict[str, Dict[str, int]]
    committed: int
    aborted_attempts: int
    duration_ms: float
    consistency_ok: Optional[bool] = None
    history: Optional[History] = None

    def ro_percentiles(self) -> Percentiles:
        return self.recorder.percentiles("ro")

    def rw_percentiles(self) -> Percentiles:
        return self.recorder.percentiles("rw")

    def ro_cdf(self, fractions: Sequence[float] = FIGURE5_FRACTIONS):
        return self.recorder.cdf("ro", fractions)

    def throughput(self) -> float:
        return self.recorder.throughput()

    def blocked_fraction(self) -> float:
        requests = sum(stats["ro_requests"] for stats in self.shard_stats.values())
        blocked = sum(stats["ro_blocked"] for stats in self.shard_stats.values())
        return blocked / requests if requests else 0.0


def run_retwis_experiment(
    variant: Variant,
    zipf_skew: float,
    duration_ms: float = 30_000.0,
    clients_per_site: int = 4,
    session_arrival_rate_per_sec: float = 1.2,
    continue_probability: float = 0.9,
    think_time_ms: float = 0.0,
    num_keys: int = 10_000,
    seed: int = 1,
    record_history: bool = False,
    check_consistency: bool = False,
    config_overrides: Optional[Dict[str, Any]] = None,
) -> SpannerExperimentResult:
    """Run the Retwis workload against one variant (§6.1 setup)."""
    overrides = dict(config_overrides or {})
    config = SpannerConfig(variant=variant, seed=seed, num_keys=num_keys, **overrides)
    store = open_store("sim-spanner", config=config)
    workload_by_session: Dict[str, RetwisWorkload] = {}
    pairs = []
    for site_index, site in enumerate(config.sites):
        for client_index in range(clients_per_site):
            session = store.session(site, record_history=record_history)
            workload = RetwisWorkload(
                num_keys=num_keys, zipf_skew=zipf_skew,
                seed=seed * 1000 + site_index * 100 + client_index,
                value_tag=f"{session.name}-",
            )
            workload_by_session[session.name] = workload
            pairs.append((session, workload))

    executor = make_retwis_executor(workload_by_session)
    driver = PartlyOpenDriver(
        store.env, pairs, executor,
        arrival_rate_per_client=session_arrival_rate_per_sec / 1000.0,
        duration_ms=duration_ms,
        continue_probability=continue_probability,
        think_time_ms=think_time_ms,
        reset_session=reset_session,
        seed=seed,
    )
    driver.start()
    store.run()

    consistency_ok = None
    if check_consistency and record_history:
        consistency_ok = bool(store.check_consistency())
    return SpannerExperimentResult(
        variant=variant,
        config=config,
        recorder=store.recorder,
        shard_stats=store.cluster.shard_stats(),
        committed=store.cluster.total_committed(),
        aborted_attempts=sum(s.aborted_attempts for s in store.sessions),
        duration_ms=store.env.now,
        consistency_ok=consistency_ok,
        history=store.history if record_history else None,
    )


def _spanner_summary(result: SpannerExperimentResult,
                     cdf_fractions: Sequence[float] = FIGURE5_FRACTIONS,
                     ) -> Dict[str, Any]:
    """Compact, picklable summary of one Spanner run (what the figures use)."""
    recorder = result.recorder
    ro = recorder.samples("ro")
    rw = recorder.samples("rw")
    all_samples = ro + rw
    return {
        "variant": result.variant.value,
        "committed": result.committed,
        "aborted_attempts": result.aborted_attempts,
        "duration_ms": result.duration_ms,
        "throughput": recorder.throughput(),
        "blocked_fraction": result.blocked_fraction(),
        "counts": {category: recorder.count(category)
                   for category in recorder.categories()},
        "ro_cdf_ms": {str(fraction): (recorder.quantile("ro", fraction * 100.0)
                                      if ro else 0.0)
                      for fraction in cdf_fractions},
        "ro_p50_ms": recorder.quantile("ro", 50.0) if ro else 0.0,
        "rw_p50_ms": recorder.quantile("rw", 50.0) if rw else 0.0,
        "overall_p50_ms": (sorted(all_samples)[len(all_samples) // 2]
                           if all_samples else 0.0),
        "shard_stats": result.shard_stats,
        "consistency_ok": result.consistency_ok,
    }


def retwis_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Runner trial: one §6.1 Retwis run → compact summary."""
    params = dict(params)
    variant = Variant(params.pop("variant"))
    cdf_fractions = params.pop("cdf_fractions", FIGURE5_FRACTIONS)
    result = run_retwis_experiment(variant, **params)
    return _spanner_summary(result, cdf_fractions)


def figure5_sweep(zipf_skew: float, seed: int = 1, **kwargs) -> SweepSpec:
    """The Figure 5 grid: both variants at one skew."""
    base = dict(kwargs)
    base["zipf_skew"] = zipf_skew
    return SweepSpec.grid(
        "figure5", "spanner_retwis",
        axes={"variant": [Variant.SPANNER.value, Variant.SPANNER_RSS.value]},
        base=base, seed=seed,
    )


def figure5_experiment(zipf_skew: float, jobs: Optional[int] = None,
                       resume: bool = False, cache_dir: Optional[str] = None,
                       seed: int = 1, **kwargs) -> Dict[str, Any]:
    """Figure 5: RO-transaction tail latency, Spanner vs Spanner-RSS."""
    sweep = figure5_sweep(zipf_skew, seed=seed, **kwargs)
    outcome = run_sweep(sweep, jobs=jobs, resume=resume, cache_dir=cache_dir)
    spanner, spanner_rss = outcome.data()
    rows = []
    for fraction in FIGURE5_FRACTIONS:
        spanner_value = spanner["ro_cdf_ms"][str(fraction)]
        rss_value = spanner_rss["ro_cdf_ms"][str(fraction)]
        reduction = (1.0 - rss_value / spanner_value) * 100.0 if spanner_value else 0.0
        rows.append({
            "fraction": fraction,
            "spanner_ms": spanner_value,
            "spanner_rss_ms": rss_value,
            "reduction_pct": reduction,
        })
    return {"skew": zipf_skew,
            "results": {"spanner": spanner, "spanner_rss": spanner_rss},
            "rows": rows}


# --------------------------------------------------------------------------- #
# Figure 6: throughput vs median latency under high load
# --------------------------------------------------------------------------- #
def run_load_experiment(
    variant: Variant,
    num_clients: int,
    duration_ms: float = 5_000.0,
    num_shards: int = 8,
    num_keys: int = 5_000,
    server_cpu_ms: float = 0.05,
    seed: int = 1,
) -> SpannerExperimentResult:
    """Run the §6.2 high-load setup: one data center, uniform keys, ε = 0."""
    config = SpannerConfig(
        variant=variant,
        num_shards=num_shards,
        num_keys=num_keys,
        sites=["DC"],
        leader_sites=["DC"],
        truetime_epsilon_ms=0.0,
        jitter_ms=0.0,
        server_cpu_ms=server_cpu_ms,
        seed=seed,
    )
    store = open_store("sim-spanner", config=config)
    workload_by_session: Dict[str, RetwisWorkload] = {}
    pairs = []
    for index in range(num_clients):
        session = store.session("DC", record_history=False)
        workload = RetwisWorkload(num_keys=num_keys, zipf_skew=0.0,
                                  seed=seed * 500 + index,
                                  value_tag=f"{session.name}-")
        workload_by_session[session.name] = workload
        pairs.append((session, workload))
    executor = make_retwis_executor(workload_by_session)
    driver = ClosedLoopDriver(
        store.env, pairs, executor, duration_ms=duration_ms,
    )
    driver.start()
    store.run()
    return SpannerExperimentResult(
        variant=variant,
        config=config,
        recorder=store.recorder,
        shard_stats=store.cluster.shard_stats(),
        committed=store.cluster.total_committed(),
        aborted_attempts=sum(s.aborted_attempts for s in store.sessions),
        duration_ms=store.env.now,
    )


def load_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Runner trial: one §6.2 high-load run → compact summary."""
    params = dict(params)
    variant = Variant(params.pop("variant"))
    result = run_load_experiment(variant, **params)
    return _spanner_summary(result)


def figure6_sweep(client_counts: Sequence[int] = (4, 8, 16, 32, 64),
                  seed: int = 1, **kwargs) -> SweepSpec:
    """The Figure 6 grid: client counts × both variants."""
    return SweepSpec.grid(
        "figure6", "spanner_load",
        axes={"num_clients": list(client_counts),
              "variant": [Variant.SPANNER.value, Variant.SPANNER_RSS.value]},
        base=dict(kwargs), seed=seed,
    )


def figure6_experiment(client_counts: Sequence[int] = (4, 8, 16, 32, 64),
                       jobs: Optional[int] = None, resume: bool = False,
                       cache_dir: Optional[str] = None, seed: int = 1,
                       **kwargs) -> List[Dict[str, Any]]:
    """Figure 6: throughput vs p50 latency as closed-loop clients increase."""
    sweep = figure6_sweep(client_counts, seed=seed, **kwargs)
    outcome = run_sweep(sweep, jobs=jobs, resume=resume, cache_dir=cache_dir)
    summaries = outcome.data()
    rows = []
    for index, count in enumerate(client_counts):
        row: Dict[str, Any] = {"clients": count}
        for offset, label in ((0, "spanner"), (1, "spanner_rss")):
            summary = summaries[index * 2 + offset]
            row[f"{label}_throughput"] = summary["throughput"]
            row[f"{label}_p50_ms"] = summary["ro_p50_ms"]
            row[f"{label}_overall_p50_ms"] = summary["overall_p50_ms"]
        rows.append(row)
    return rows
