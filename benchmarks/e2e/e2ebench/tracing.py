"""Spans, counters and profile folding — all from outside ``src/``.

Two traced passes feed the per-layer ledger:

* **spans** — class-level timing wrappers around the layers' public entry
  points record ``(layer, name, start_ns, end_ns, parent)`` in memory; a
  span's self time is its duration minus what its children cover.  Every
  wrapped function is synchronous, so one stack gives the parent.
* **calls** — the same load under ``cProfile`` in both processes, self time
  and call count folded per ``repro`` module.  About 3x slower and biased
  toward modules made of many small calls, so it supplies call *counts* and
  fills in the generator-based layers the wrappers cannot time.

Nothing here is imported by ``src/``; the wrappers are installed by the
benchmark (``serve_traced.py`` in the server, ``run.py`` in the load
process) and removed again.
"""

from __future__ import annotations

import cProfile
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from e2ebench import stats

__all__ = ["SpanRecorder", "install", "fold_profile", "module_group",
           "RAW_SPAN_LIMIT"]

#: Raw spans written to ``trace-<workload>.json`` per process; the
#: per-(layer, name) table always covers every span.
RAW_SPAN_LIMIT = 20_000
#: Message batches kept for the isolated codec drive.
_CAPTURE_BATCHES = 400


class SpanRecorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []         # sid -> (layer, name)
        self.sids = array("H")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        #: CPU ns of spans that block (the WAL append waits in fsync, so
        #: its wall time is not CPU); keyed by span index.
        self.cpu_ns: Dict[int, int] = {}
        self.counts: Dict[str, int] = {}
        self.captured: Dict[str, Any] = {}
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------- #
    def timed(self, layer: str, name: str, function: Callable,
              cpu: bool = False, capture: Optional[str] = None) -> Callable:
        """``function`` recording one span per call.  ``cpu`` also records
        thread CPU time; ``capture`` keeps the first few second arguments
        (a message batch) under that key for the isolated drives."""
        sid = len(self.names)
        self.names.append((layer, name))
        add_sid, add_parent = self.sids.append, self.parents.append
        add_start, add_end, ends = self.starts.append, self.ends.append, self.ends
        stack, cpu_ns = self._stack, self.cpu_ns
        push, pop = stack.append, stack.pop
        clock, thread_clock = time.perf_counter_ns, time.thread_time_ns
        kept: Optional[List[Any]] = None
        if capture is not None:
            kept = self.captured.setdefault(capture, [])

        def wrapper(*args, **kwargs):
            index = len(ends)
            add_sid(sid)
            add_parent(stack[-1])
            add_end(0)
            push(index)
            if kept is not None and len(kept) < _CAPTURE_BATCHES:
                kept.append(list(args[1]))
            cpu_started = thread_clock() if cpu else 0
            add_start(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                if cpu:
                    cpu_ns[index] = thread_clock() - cpu_started
                pop()

        wrapper.__wrapped__ = function
        return wrapper

    def counted(self, key: str, function: Callable) -> Callable:
        """``function`` counting its calls under ``key`` (no timing: for
        calls so short a clock read would dominate them)."""
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    def patch(self, owner: Any, attribute: str, wrapped: Callable) -> None:
        """Replace ``owner.attribute`` (a class or a module) until
        :meth:`uninstall`."""
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- results ----------------------------------------------------- #
    def table(self) -> Dict[str, Dict[str, float]]:
        """Per ``layer/name``: calls, total and self wall ns, and CPU ns
        where recorded."""
        own = stats.self_times(self.starts, self.ends, self.parents)
        rows: Dict[str, Dict[str, float]] = {}
        for layer, name in self.names:
            rows[f"{layer}/{name}"] = {"layer": layer, "calls": 0,
                                       "total_ns": 0, "self_ns": 0, "cpu_ns": 0}
        for index, sid in enumerate(self.sids):
            layer, name = self.names[sid]
            row = rows[f"{layer}/{name}"]
            row["calls"] += 1
            row["total_ns"] += self.ends[index] - self.starts[index]
            row["self_ns"] += own[index]
            row["cpu_ns"] += self.cpu_ns.get(index, 0)
        return rows

    def durations(self, layer: str, name: str) -> List[int]:
        sid = self.names.index((layer, name))
        return [self.ends[i] - self.starts[i]
                for i, s in enumerate(self.sids) if s == sid]

    def raw(self, limit: int = RAW_SPAN_LIMIT) -> List[List[Any]]:
        """The first ``limit`` spans as ``[layer, name, start_ns, end_ns,
        parent index]`` rows."""
        rows = []
        for index in range(min(len(self.sids), limit)):
            layer, name = self.names[self.sids[index]]
            rows.append([layer, name, self.starts[index], self.ends[index],
                         self.parents[index]])
        return rows


def install(recorder: SpanRecorder) -> None:
    """Wrap the layers' entry points, class-level, in the calling process.
    Entry points that process never reaches simply record nothing."""
    import os as os_module

    from repro.core.checkers.streaming import _StreamingBase
    from repro.fleet.ring import PlacementMap
    from repro.net.realtime import RealtimeEnvironment
    from repro.net.recorder import TraceWriter
    from repro.net.transport import LiveTransport
    from repro.net.wire import BinaryEncoder, FrameDecoder
    from repro.storage.wal import WriteAheadLog
    from repro.workloads.retwis import RetwisWorkload
    from repro.workloads.ycsb import YcsbWorkload

    def timed(owner, attribute, layer, **options):
        recorder.patch(owner, attribute, recorder.timed(
            layer, f"{owner.__name__}.{attribute}",
            owner.__dict__[attribute], **options))

    def counted(owner, attribute, key):
        recorder.patch(owner, attribute,
                       recorder.counted(key, vars(owner)[attribute]))

    timed(YcsbWorkload, "next_operation", "workloads")
    timed(RetwisWorkload, "next_transaction", "workloads")
    timed(LiveTransport, "send", "net.transport")
    timed(BinaryEncoder, "encode_batch", "net.wire", capture="batches")
    timed(FrameDecoder, "feed", "net.wire")
    timed(WriteAheadLog, "append", "storage.wal", cpu=True)
    timed(TraceWriter, "record_op", "net.recorder")
    timed(TraceWriter, "record_invocation", "net.recorder")
    timed(_StreamingBase, "on_op", "core.checkers.streaming")
    timed(_StreamingBase, "on_invocation", "core.checkers.streaming")
    timed(_StreamingBase, "on_edge", "core.checkers.streaming")
    # The fleet clients route through owner_of_point (owner() delegates to
    # it), several times per operation; counting both shows which is used.
    counted(PlacementMap, "owner", "fleet.ring.owner")
    counted(PlacementMap, "owner_of_point", "fleet.ring.owner_of_point")
    counted(RealtimeEnvironment, "kick", "net.realtime.kick")
    counted(RealtimeEnvironment, "timeout", "net.realtime.timeout")
    counted(RealtimeEnvironment, "schedule", "net.realtime.schedule")
    counted(os_module, "fsync", "os.fsync")


# --------------------------------------------------------------------------- #
# The calls pass
# --------------------------------------------------------------------------- #
_GROUP_PREFIXES = [
    ("net/wire.py", "net.wire"), ("net/transport.py", "net.transport"),
    ("net/realtime.py", "net.realtime"), ("net/recorder.py", "net.recorder"),
    ("sim/", "sim"), ("gryff/", "gryff"), ("spanner/", "spanner"),
    ("fleet/", "fleet"), ("api/", "api"), ("workloads/", "workloads"),
    ("core/", "core"), ("storage/", "storage"),
]


def module_group(filename: str) -> str:
    """The ledger group of a code object's file."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    if marker in path:
        inside = path.rsplit(marker, 1)[1]
        for prefix, group in _GROUP_PREFIXES:
            if inside.startswith(prefix):
                return group
        return "other"
    if "/asyncio/" in path:
        return "asyncio"
    if path.endswith("/selectors.py"):
        return "idle"          # the event loop waiting for I/O: not work
    return "other"


def fold_profile(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Self seconds and call counts per ledger group.

    A Python function's self time goes to its module's group.  C and
    builtin functions have no module of their own, so each caller is
    charged the builtin time spent on its behalf (``json.dumps`` inside the
    recorder is recorder time; a socket send inside asyncio is asyncio
    time).  The profiler's clock is wall time, so a call that blocks
    (``fsync``) weighs what it waited; the event loop's own wait for I/O
    lands in the ``idle`` group, which the ledger leaves out."""
    groups: Dict[str, Dict[str, float]] = {}

    def add(group: str, seconds: float, calls: int) -> None:
        row = groups.setdefault(group, {"self_s": 0.0, "calls": 0})
        row["self_s"] += seconds
        row["calls"] += calls

    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            continue                       # charged to its callers below
        group = module_group(code.co_filename)
        add(group, entry.inlinetime, entry.callcount)
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                add(group, sub.inlinetime, 0)
    return groups
