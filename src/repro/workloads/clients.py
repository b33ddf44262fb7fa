"""Load-generating client loops (§6.1, §7.2).

Three drivers are provided:

* :class:`ClosedLoopDriver` — a fixed set of sessions, each issuing its next
  operation as soon as the previous one completes (optionally with think
  time).  Used for the Gryff evaluation and the high-load experiments.
* :class:`PartlyOpenDriver` — the partly-open model of §6.1 [80]: sessions
  arrive according to a Poisson process; after each transaction the session
  continues with probability ``p`` (after think time ``H``) and otherwise
  ends.  Each session starts with a fresh causal context (a separate
  ``t_min``).
* :class:`OpenLoopDriver` — a fixed *arrival rate* (Poisson or
  deterministic schedule), independent of how fast the system responds.
  Latency is measured from each arrival's **intended** send time, so
  queueing delay under saturation is charged to the operations that
  suffered it — the coordinated-omission correction a closed loop cannot
  provide (a closed-loop client stops generating while it waits, silently
  omitting exactly the samples that would have seen the queue).

All drivers are protocol-agnostic: they take a sequence of
``(session, workload)`` pairs — typically :class:`repro.api.Session`
objects paired with their workload generators — and an *executor* callable,
``executor(session, spec)``, returning a generator that performs one
workload item against the given session (:mod:`repro.api.executors` has the
standard ones).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["ClosedLoopDriver", "PartlyOpenDriver", "OpenLoopDriver"]

Pair = Tuple[Any, Any]


def _checked_pairs(pairs: Sequence[Any]) -> List[Pair]:
    """Validate the driver's ``(session, workload)`` pairs."""
    checked: List[Pair] = []
    for index, item in enumerate(pairs):
        try:
            session, workload = item
        except (TypeError, ValueError):
            raise TypeError(
                f"item {index} is not a (session, workload) pair: "
                f"{item!r}; drivers take explicit pairs "
                f"(zip your sessions and workload generators)") from None
        checked.append((session, workload))
    return checked


def _next_item(workload):
    if hasattr(workload, "next_transaction"):
        return workload.next_transaction()
    return workload.next_operation()


def _item_category(spec) -> str:
    """Latency-recorder category for one workload item."""
    kind = getattr(spec, "kind", None)
    if kind is not None:
        return kind
    return "txn-ro" if getattr(spec, "read_only", False) else "txn"


class ClosedLoopDriver:
    """Runs ``count``-or-``duration``-bounded closed loops on a set of sessions."""

    def __init__(self, env, pairs: Sequence[Pair],
                 executor: Callable[[Any, Any], Any],
                 duration_ms: Optional[float] = None,
                 operations_per_client: Optional[int] = None,
                 think_time_ms: float = 0.0,
                 warmup_ms: float = 0.0):
        if duration_ms is None and operations_per_client is None:
            raise ValueError("specify duration_ms or operations_per_client")
        self.env = env
        self.pairs = _checked_pairs(pairs)
        self.executor = executor
        self.duration_ms = duration_ms
        self.operations_per_client = operations_per_client
        self.think_time_ms = think_time_ms
        self.warmup_ms = warmup_ms
        self.completed = 0

    def start(self) -> List[Any]:
        """Spawn one loop process per session; returns the processes."""
        return [
            self.env.process(self._loop(session, workload))
            for session, workload in self.pairs
        ]

    def _loop(self, session, workload):
        deadline = None
        if self.duration_ms is not None:
            deadline = self.env.now + self.warmup_ms + self.duration_ms
        issued = 0
        while True:
            if deadline is not None and self.env.now >= deadline:
                return
            if (self.operations_per_client is not None
                    and issued >= self.operations_per_client):
                return
            spec = _next_item(workload)
            yield from self.executor(session, spec)
            issued += 1
            self.completed += 1
            if self.think_time_ms > 0:
                yield self.env.timeout(self.think_time_ms)


@dataclass
class SessionStats:
    """Book-keeping for the partly-open driver."""

    sessions: int = 0
    transactions: int = 0


class PartlyOpenDriver:
    """The partly-open client model of §6.1.

    Each of the given sessions runs an independent arrival process: end-user
    sessions arrive with exponential inter-arrival times of rate
    ``arrival_rate_per_client`` (per millisecond); a session issues
    transactions back to back, continuing with probability
    ``continue_probability`` after each one and waiting ``think_time_ms`` in
    between.  ``reset_session`` is called at the start of every session
    (:func:`repro.api.executors.reset_session` gives each end-user session
    its own causal context — a fresh ``t_min`` on Spanner).
    """

    def __init__(self, env, pairs: Sequence[Pair],
                 executor: Callable[[Any, Any], Any],
                 arrival_rate_per_client: Optional[float] = None,
                 duration_ms: Optional[float] = None,
                 continue_probability: float = 0.9,
                 think_time_ms: float = 0.0,
                 reset_session: Optional[Callable[[Any], None]] = None,
                 seed: int = 0):
        if arrival_rate_per_client is None or duration_ms is None:
            raise TypeError(
                "arrival_rate_per_client and duration_ms are required")
        self.env = env
        self.pairs = _checked_pairs(pairs)
        self.executor = executor
        self.arrival_rate = arrival_rate_per_client
        self.duration_ms = duration_ms
        self.continue_probability = continue_probability
        self.think_time_ms = think_time_ms
        self.reset_session = reset_session
        self.rng = random.Random(seed)
        self.stats = SessionStats()

    def start(self) -> List[Any]:
        return [
            self.env.process(self._arrival_loop(session, workload))
            for session, workload in self.pairs
        ]

    def _arrival_loop(self, session, workload):
        deadline = self.env.now + self.duration_ms
        while self.env.now < deadline:
            inter_arrival = self.rng.expovariate(self.arrival_rate)
            yield self.env.timeout(inter_arrival)
            if self.env.now >= deadline:
                return
            yield from self._session(session, workload, deadline)

    def _session(self, session, workload, deadline):
        self.stats.sessions += 1
        if self.reset_session is not None:
            self.reset_session(session)
        while True:
            spec = _next_item(workload)
            yield from self.executor(session, spec)
            self.stats.transactions += 1
            if self.env.now >= deadline:
                return
            if self.rng.random() > self.continue_probability:
                return
            if self.think_time_ms > 0:
                yield self.env.timeout(self.think_time_ms)


class OpenLoopDriver:
    """Arrival-rate load generation with coordinated-omission-correct latency.

    A single scheduler process emits arrivals at ``rate_per_s`` — Poisson
    (``arrival="poisson"``, seeded and reproducible) or a deterministic
    fixed-spacing schedule (``arrival="fixed"``) — for ``duration_ms``,
    *regardless of how fast operations complete*.  Each arrival claims a
    free session from the pool; when every session is busy the arrival
    queues in a backlog and keeps its **intended** send time.  When
    ``recorder`` is given, each completion is recorded as ``(intended
    arrival, completion)``, so time spent waiting for a session is part of
    the reported latency.  That is the coordinated-omission correction: a
    closed-loop client would simply have issued fewer operations while the
    system was slow, hiding the queueing delay from the percentiles.

    Sessions stay strictly sequential (one in-flight operation each), which
    the recorded history's per-process model requires; open-loop concurrency
    comes from the size of the session pool, so ``len(pairs)`` bounds the
    number of simultaneously outstanding operations.

    After the last scheduled arrival the driver drains the backlog and
    in-flight operations, giving up after ``drain_timeout_ms`` (leftover
    arrivals are counted in ``abandoned``).  :meth:`stats` reports offered
    vs. completed counts, the achieved rate, and the backlog high-water
    mark — ``achieved_rate_per_s`` falling well short of the requested rate
    means the system (or the session pool) saturated.
    """

    def __init__(self, env, pairs: Sequence[Pair],
                 executor: Callable[[Any, Any], Any],
                 rate_per_s: Optional[float] = None,
                 duration_ms: Optional[float] = None,
                 arrival: str = "poisson",
                 seed: int = 0,
                 recorder: Optional[Any] = None,
                 drain_timeout_ms: float = 10_000.0):
        if rate_per_s is None or duration_ms is None:
            raise TypeError("rate_per_s and duration_ms are required")
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if arrival not in ("poisson", "fixed"):
            raise ValueError(f"unknown arrival schedule {arrival!r} "
                             f"(poisson or fixed)")
        self.env = env
        self.pairs = _checked_pairs(pairs)
        self.executor = executor
        if not self.pairs:
            raise ValueError("at least one (session, workload) pair is required")
        self.rate_per_s = rate_per_s
        self.duration_ms = duration_ms
        self.arrival = arrival
        self.recorder = recorder
        self.drain_timeout_ms = drain_timeout_ms
        self.rng = random.Random(seed)
        self.offered = 0
        self.completed = 0
        self.abandoned = 0
        self.backlog_peak = 0
        self._free: List[Pair] = list(self.pairs)
        self._backlog: "deque[float]" = deque()
        self._in_flight = 0
        self._started_at: Optional[float] = None
        self._ended_at: Optional[float] = None

    def start(self) -> List[Any]:
        """Spawn the scheduler process (workers spawn per arrival)."""
        return [self.env.process(self._schedule_loop())]

    def _schedule_loop(self):
        env = self.env
        interarrival_ms = 1000.0 / self.rate_per_s
        start = env.now
        self._started_at = start
        deadline = start + self.duration_ms
        poisson = self.arrival == "poisson"
        expovariate = self.rng.expovariate
        next_time = start
        while True:
            next_time += (expovariate(1.0 / interarrival_ms) if poisson
                          else interarrival_ms)
            if next_time > deadline:
                break
            # Behind schedule (delay <= 0): dispatch immediately without
            # yielding — the open loop catches up in a burst and every
            # arrival keeps its intended timestamp.
            delay = next_time - env.now
            if delay > 0:
                yield env.timeout(delay)
            self._arrive(next_time)
        drain_deadline = env.now + self.drain_timeout_ms
        while ((self._in_flight or self._backlog)
               and env.now < drain_deadline):
            yield env.timeout(5.0)
        self.abandoned += len(self._backlog)
        self._backlog.clear()
        self._ended_at = env.now

    def _arrive(self, intended: float) -> None:
        self.offered += 1
        if self._free:
            pair = self._free.pop()
            self._in_flight += 1
            self.env.process(self._worker(pair, intended))
        else:
            self._backlog.append(intended)
            if len(self._backlog) > self.backlog_peak:
                self.backlog_peak = len(self._backlog)

    def _worker(self, pair, intended: float):
        session, workload = pair
        env = self.env
        recorder = self.recorder
        while True:
            spec = _next_item(workload)
            yield from self.executor(session, spec)
            self.completed += 1
            if recorder is not None:
                recorder.record(_item_category(spec), intended, env.now)
            if self._backlog:
                # Serve the oldest queued arrival on this freed session; its
                # wait so far stays inside its recorded latency.
                intended = self._backlog.popleft()
                continue
            self._free.append(pair)
            self._in_flight -= 1
            return

    def stats(self) -> "dict[str, Any]":
        """Offered vs. achieved accounting for the run summary."""
        wall_ms = None
        achieved = None
        if self._started_at is not None and self._ended_at is not None:
            wall_ms = self._ended_at - self._started_at
            if wall_ms > 0:
                achieved = self.completed * 1000.0 / wall_ms
        return {
            "arrival": self.arrival,
            "requested_rate_per_s": self.rate_per_s,
            "achieved_rate_per_s": achieved,
            "offered": self.offered,
            "completed": self.completed,
            "abandoned": self.abandoned,
            "backlog_peak": self.backlog_peak,
            "sessions": len(self.pairs),
            "wall_ms": wall_ms,
        }
