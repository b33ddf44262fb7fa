"""Pure statistics for the end-to-end benchmark (no I/O, no clocks).

Everything the benchmark reports goes through these functions, so they are
unit-tested in ``test_e2e_stats.py`` without a socket in sight.

The central statistic is a **quartile over equal windows of the per-window
percentile**.  A shared box stalls for 5-15 ms a few times a minute and
slows down by 5-60 % for seconds at a time; such interference doubles a
whole-run p99 but touches only some windows, and it only ever makes a window
worse.  So the reported value is the quartile of the per-window values on
the metric's *good* side — the first quartile for latencies and CPU, the
third for rates: the level the system holds in its quiet windows, which
still moves when every window gets slower.  (The median across windows was
measured first: its run-to-run spread was 2x wider, see README.)
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MIN_WINDOW_S", "MIN_WINDOW_SAMPLES", "MIN_PHASE_SAMPLES",
    "percentile", "window_count", "slice_windows", "WindowStat",
    "quiet_quartile", "windowed_percentile", "windowed_rate", "self_times", "slo_phase_ok",
    "slo_rate", "spread", "worsening", "judge",
]

#: Guards of the windowed statistic: a window is at least this long and
#: holds at least this many samples of the category; a phase holds at least
#: MIN_PHASE_SAMPLES (ten samples beyond p99 once pooled).
MIN_WINDOW_S = 1.0
MIN_WINDOW_SAMPLES = 200
MIN_PHASE_SAMPLES = 1000


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ascending ``ordered``, linearly
    interpolated between closest ranks."""
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def window_count(samples: int, span_s: float) -> int:
    """How many equal windows ``span_s`` seconds holding ``samples`` samples
    are cut into: as many as keep every window >= MIN_WINDOW_S long and
    (on average) >= MIN_WINDOW_SAMPLES full, and never fewer than one —
    windows widen when the category is sparse."""
    by_time = int(span_s / MIN_WINDOW_S)
    by_samples = samples // MIN_WINDOW_SAMPLES
    return max(1, min(by_time, by_samples))


def slice_windows(times: Sequence[float], values: Sequence[float],
                  start: float, end: float, windows: int) -> List[List[float]]:
    """Bucket ``values`` by ``times`` into ``windows`` equal slices of
    ``[start, end)``; samples outside the interval are dropped."""
    if end <= start or windows < 1:
        raise ValueError("need a non-empty interval and at least one window")
    width = (end - start) / windows
    buckets: List[List[float]] = [[] for _ in range(windows)]
    for at, value in zip(times, values):
        if start <= at < end:
            buckets[min(int((at - start) / width), windows - 1)].append(value)
    return buckets


@dataclass
class WindowStat:
    """One reported value: the good-side quartile of per-window values, with
    what a reader needs to judge it."""

    value: float
    median: float         # the median across windows, for comparison
    samples: int          # samples of the category inside the interval
    windows: int
    iqr: float            # inter-quartile range of the per-window values
    whole_run: float      # the same percentile over all samples pooled
    thin: bool            # True when the >= MIN_PHASE_SAMPLES guard failed

    def as_dict(self) -> Dict[str, float]:
        return {"value": self.value, "median": self.median,
                "samples": self.samples,
                "windows": self.windows, "iqr": self.iqr,
                "whole_run": self.whole_run, "thin": self.thin}


def _iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def quiet_quartile(per_window: Sequence[float], better: str) -> float:
    """The quartile of ``per_window`` on the good side: the first quartile
    when lower is better, the third when higher is."""
    return percentile(sorted(per_window), 25.0 if better == "lower" else 75.0)


def windowed_percentile(times: Sequence[float], values: Sequence[float],
                        start: float, end: float, q: float,
                        time_unit_s: float = 0.001) -> Optional[WindowStat]:
    """First quartile over equal windows of the per-window ``q``-th
    percentile (latencies: lower is better).

    ``times`` (completion instants) and ``start``/``end`` share one unit,
    ``time_unit_s`` seconds long (milliseconds by default).  Returns ``None``
    when the interval holds no sample at all.
    """
    inside = [v for t, v in zip(times, values) if start <= t < end]
    if not inside:
        return None
    count = window_count(len(inside), (end - start) * time_unit_s)
    per_window = [percentile(sorted(bucket), q)
                  for bucket in slice_windows(times, values, start, end, count)
                  if bucket]
    return WindowStat(
        value=quiet_quartile(per_window, "lower"),
        median=statistics.median(per_window), samples=len(inside),
        windows=len(per_window), iqr=_iqr(per_window),
        whole_run=percentile(sorted(inside), q),
        thin=len(inside) < MIN_PHASE_SAMPLES)


def windowed_rate(times: Sequence[float], start: float, end: float,
                  time_unit_s: float = 0.001) -> Optional[WindowStat]:
    """Third quartile over equal windows of completions per second."""
    inside = sum(1 for t in times if start <= t < end)
    if not inside:
        return None
    span_s = (end - start) * time_unit_s
    count = window_count(inside, span_s)
    buckets = slice_windows(times, times, start, end, count)
    rates = [len(bucket) / (span_s / count) for bucket in buckets]
    return WindowStat(value=quiet_quartile(rates, "higher"),
                      median=statistics.median(rates), samples=inside,
                      windows=count, iqr=_iqr(rates),
                      whole_run=inside / span_s,
                      thin=inside < MIN_PHASE_SAMPLES)


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
def self_times(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int]) -> List[int]:
    """Self time of every span: its duration minus the part of that interval
    its direct children cover.  ``parents[i]`` is the index of span ``i``'s
    parent or -1.  Children are clipped to the parent's interval and sibling
    overlap is counted once."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            lo = max(starts[index], starts[parent])
            hi = min(ends[index], ends[parent])
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(max(end - start - covered, 0))
    return result


# --------------------------------------------------------------------------- #
# The latency-limit metric
# --------------------------------------------------------------------------- #
#: A backlog may end a phase this much above its mid-phase level (one pool
#: of sessions) before it counts as growing.
BACKLOG_SLACK = 32


def slo_phase_ok(read_p99_ms: Optional[float], write_p99_ms: Optional[float],
                 read_limit_ms: float, write_limit_ms: float, failed: int,
                 backlog_mid: int, backlog_end: int) -> bool:
    """Whether one fixed-rate phase met the workload's latency limits: both
    p99s within their limits, nothing failed (a failed request misses any
    limit), and the backlog not growing."""
    if read_p99_ms is None or write_p99_ms is None:
        return False
    return (read_p99_ms <= read_limit_ms and write_p99_ms <= write_limit_ms
            and failed == 0
            and backlog_end <= backlog_mid + BACKLOG_SLACK)


def slo_rate(phases: Sequence[Tuple[float, bool]]) -> float:
    """The highest ``rate`` among ``(rate, met the limits)`` phases that met
    them, or 0.0 when none did."""
    return max((rate for rate, ok in phases if ok), default=0.0)


# --------------------------------------------------------------------------- #
# Comparing two sets of runs
# --------------------------------------------------------------------------- #
def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (the driver's steadiness measure)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf


def worsening(parent: float, change: float, better: str) -> float:
    """By what share of ``parent`` the ``change`` value is worse (negative
    when it is better)."""
    if parent == 0:
        return 0.0 if change == 0 else math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def judge(parent: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> Dict[str, object]:
    """Decide one metric x workload from paired runs (parent[i] ran beside
    change[i]).

    * ``improved``     — the change wins at least nine tenths of the pairs
      (ties count for neither side) and the medians differ by more than the
      parent's own inter-quartile range;
    * ``regressed``    — the change's median is worse by more than ``bound``;
    * ``unresolved``   — neither, but either side's spread exceeds
      ``bound``, so "unchanged" cannot be claimed;
    * ``within bound`` — otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on each side")
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    worse = worsening(parent_median, change_median, better)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if better == "lower" else c > p))
    losses = sum(1 for p, c in zip(parent, change)
                 if (c > p if better == "lower" else c < p))
    parent_spread, change_spread = spread(parent), spread(change)
    parent_iqr = parent_spread * abs(parent_median)
    if (wins >= 0.9 * len(parent) and worse < 0
            and abs(change_median - parent_median) > parent_iqr):
        verdict = "improved"
    elif worse > bound:
        verdict = "regressed"
    elif max(parent_spread, change_spread) > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"verdict": verdict, "parent_median": parent_median,
            "change_median": change_median, "worsening": worse,
            "parent_spread": parent_spread, "change_spread": change_spread,
            "wins": wins, "losses": losses, "pairs": len(parent)}
