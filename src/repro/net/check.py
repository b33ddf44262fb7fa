"""The one place a trace becomes a verdict.

The same witness-based constructions the simulator validates itself with
(Theorems D.5 and D.15) apply to live histories: operations carry their
protocol witness data (commit/snapshot timestamps, carstamps) in ``meta``,
which survives the JSONL round trip.

:class:`TraceCheck` owns the whole pipeline — open the source, pick the
model, build the checker, fold, judge violations against fault windows,
report — and every tool that checks a history is a thin front-end over it:
``load --check-inline`` (:meth:`TraceCheck.observe`), ``live-check``
(:meth:`TraceCheck.batch`), ``live-check --follow`` and ``monitor``
(:meth:`TraceCheck.follow`), and the chaos judges
(:meth:`TraceCheck.check_history`, :meth:`TraceCheck.batch`).

Two granularities underneath:

* **batch** — :func:`check_trace` on a finished history (one whole-history
  witness validation);
* **streaming** — :func:`streaming_checker_for` builds a
  :class:`~repro.core.checkers.streaming.StreamingWitnessChecker` that
  consumes event records *as they are written*, checking one quiescent
  epoch at a time with bounded memory and the same per-protocol witness
  construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

from repro.core.checkers import check_with_witness
from repro.core.checkers.base import CheckResult
from repro.core.checkers.streaming import (
    EpochVerdict,
    StreamingWitnessChecker,
    StreamReport,
    stream_history,
)
from repro.core.events import Operation
from repro.core.history import History
from repro.core.specification import RegisterSpec, TransactionalKVSpec
from repro.gryff.cluster import gryff_witness_order
from repro.net.recorder import read_trace, trace_records
from repro.net.spec import GRYFF_PROTOCOLS, SPANNER_PROTOCOLS
from repro.spanner.cluster import spanner_witness_order

__all__ = [
    "default_model_for",
    "resolve_model",
    "check_trace",
    "streaming_checker_for",
    "check_record_stream",
    "record_time",
    "TraceReport",
    "TraceCheck",
]


_DEFAULT_MODELS = {
    "gryff": "linearizability",
    "gryff-rsc": "rsc",
    "spanner": "strict_serializability",
    "spanner-rss": "rss",
}


def default_model_for(protocol: str) -> str:
    """The consistency model each deployment variant must satisfy.

    Raises ``ValueError`` for unknown protocols (trace headers are
    caller-supplied data, e.g. files written by other tools).
    """
    model = _DEFAULT_MODELS.get(protocol)
    if model is None:
        raise ValueError(
            f"unknown protocol {protocol!r} "
            f"(known: {sorted(_DEFAULT_MODELS)})")
    return model


def resolve_model(protocol: str, meta: Optional[Dict[str, Any]] = None,
                  override: Optional[str] = None) -> str:
    """The one model-precedence rule: an explicit ``override``, then the
    trace header's ``model``, then the model of its declared ``level``
    (``repro load --level``), then the protocol's default."""
    meta = meta or {}
    if override:
        return override
    if meta.get("model"):
        return meta["model"]
    if meta.get("level"):
        from repro.api.levels import ConsistencyLevel

        try:
            return ConsistencyLevel.parse(meta["level"]).checker_model
        except ValueError:
            pass   # an unknown level declares nothing
    return default_model_for(protocol)


def check_trace(history: History, protocol: str,
                model: Optional[str] = None) -> CheckResult:
    """Check a (live or simulated) history against ``protocol``'s model."""
    model = model or default_model_for(protocol)
    if protocol in GRYFF_PROTOCOLS:
        witness = gryff_witness_order(history, model)
        if witness is None:
            return CheckResult(
                satisfied=False, model=model,
                reason="carstamp, causal, and real-time constraints are cyclic",
            )
        return check_with_witness(history, witness, model=model,
                                  spec=RegisterSpec())
    if protocol in SPANNER_PROTOCOLS:
        return check_with_witness(history, spanner_witness_order(history),
                                  model=model, spec=TransactionalKVSpec())
    raise ValueError(f"unknown protocol {protocol!r}")


# --------------------------------------------------------------------------- #
# Streaming (epoch-windowed) trace checking
# --------------------------------------------------------------------------- #
def streaming_checker_for(
    protocol: str,
    model: Optional[str] = None,
    min_epoch_ops: int = 64,
    on_verdict: Optional[Callable[[EpochVerdict], None]] = None,
) -> StreamingWitnessChecker:
    """A bounded-memory streaming checker for ``protocol``'s live traces.

    Each quiescent epoch is validated with the protocol's own witness
    construction (carstamps for Gryff, commit/snapshot timestamps for
    Spanner) against the protocol's consistency model, carrying only the
    replayed specification state across epoch cuts.
    """
    model = model or default_model_for(protocol)
    if protocol in GRYFF_PROTOCOLS:
        return StreamingWitnessChecker(
            witness_fn=lambda history: gryff_witness_order(history, model),
            model=model, spec=RegisterSpec(),
            min_epoch_ops=min_epoch_ops, on_verdict=on_verdict,
        )
    if protocol in SPANNER_PROTOCOLS:
        return StreamingWitnessChecker(
            witness_fn=spanner_witness_order,
            model=model, spec=TransactionalKVSpec(),
            min_epoch_ops=min_epoch_ops, on_verdict=on_verdict,
        )
    raise ValueError(f"unknown protocol {protocol!r}")


def check_record_stream(
    records: Iterable[Dict[str, Any]],
    checker: StreamingWitnessChecker,
) -> StreamReport:
    """Drive a streaming checker from parsed trace records.

    Dispatches ``inv``/``op``/``edge``/``abandon`` records (anything else,
    including per-file ``meta`` headers of a rotated set, is skipped) and
    closes the checker when the iterable ends.
    """
    for record in records:
        kind = record.get("type")
        if kind == "op":
            checker.complete(Operation.from_dict(record))
        elif kind == "inv":
            checker.begin(record["process"], record["invoked_at"])
        elif kind == "edge":
            checker.edge(record["src_op"], record["dst_op"])
        elif kind == "abandon":
            checker.abandon(record["process"], record["at"])
    return checker.close()


# --------------------------------------------------------------------------- #
# The pipeline
# --------------------------------------------------------------------------- #
#: Record fields that carry a trace timestamp, by record type.
_TIME_FIELDS = {"inv": "invoked_at", "op": "invoked_at", "abandon": "at"}


def record_time(record: Dict[str, Any]) -> Optional[float]:
    """The trace timestamp of a record (``None`` for meta/edge records)."""
    value = record.get(_TIME_FIELDS.get(record.get("type"), ""))
    return None if value is None else float(value)


@dataclass
class TraceReport:
    """What one :class:`TraceCheck` run observed and concluded.

    ``model is None`` means nothing was checked: the source was empty
    (``records == 0``) or named no protocol.
    """

    trace: Optional[str] = None
    protocol: Optional[str] = None
    model: Optional[str] = None
    #: Epoch-windowed streaming check, or one whole-history batch check.
    streaming: bool = True
    satisfied: bool = True
    #: Batch: the witness check's reason.  Streaming: the first violating
    #: epoch, described.
    reason: str = ""
    records: int = 0
    ops_checked: int = 0
    epochs: int = 0
    max_segment_ops: int = 0
    verdicts: List[EpochVerdict] = field(default_factory=list)
    first_violation: Optional[EpochVerdict] = None
    #: ``EpochVerdict.describe()`` of every violating epoch.
    violations: List[str] = field(default_factory=list)
    #: Violating epochs that overlap no fault window — real bugs.
    violations_outside_windows: List[str] = field(default_factory=list)
    #: The fault windows in trace time (anchored, rounded for display).
    fault_windows: List[Tuple[float, float]] = field(default_factory=list)
    interrupted: bool = False

    def verdict_text(self) -> str:
        return "SATISFIED" if self.satisfied else f"VIOLATED ({self.reason})"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace,
            "protocol": self.protocol,
            "model": self.model,
            "streaming": self.streaming,
            "satisfied": self.satisfied,
            "reason": self.reason,
            "records": self.records,
            # One count under both names external parsers read it by.
            "operations": self.ops_checked,
            "ops_checked": self.ops_checked,
            "epochs": self.epochs,
            "max_segment_ops": self.max_segment_ops,
            "first_violation": (self.first_violation.describe()
                                if self.first_violation else None),
            "verdicts": [verdict.describe() for verdict in self.verdicts],
            "violations": list(self.violations),
            "violations_outside_windows":
                list(self.violations_outside_windows),
            "fault_windows": [list(w) for w in self.fault_windows],
            "interrupted": self.interrupted,
        }


class TraceCheck:
    """Follow-and-check one history: source → model → checker → verdicts.

    Parameters
    ----------
    protocol, model:
        Explicit overrides.  A trace source fills in whatever is ``None``
        from its ``meta`` header (:func:`resolve_model` has the precedence);
        in-memory sources have no header, so ``protocol`` is required there.
    min_epoch_ops:
        Epoch size floor of the streaming checker.
    fault_windows:
        Source-relative ``(start_ms, end_ms)`` intervals during which
        violations are expected.  They are anchored at the first timestamped
        record of a trace, or at the ``anchor`` an in-memory source names.
    on_verdict, on_record:
        Observers: every closed epoch's verdict (already judged against the
        windows), and every trace record before it is folded.
    report:
        The report to fill in — a front-end with fields of its own passes
        an instance of its :class:`TraceReport` subclass.

    One source method per source kind — :meth:`observe` (a live ``History``
    observer), :meth:`check_history` (a finished in-memory ``History``),
    :meth:`follow` (trace paths, streamed), :meth:`batch` (trace paths, one
    whole-history check) — each ending in the same :class:`TraceReport`.
    """

    def __init__(self, protocol: Optional[str] = None,
                 model: Optional[str] = None, *,
                 min_epoch_ops: int = 64,
                 fault_windows: Sequence[Tuple[float, float]] = (),
                 on_verdict: Optional[Callable[[EpochVerdict], None]] = None,
                 on_record: Optional[Callable[[Dict[str, Any]], None]] = None,
                 report: Optional[TraceReport] = None):
        self.report = report if report is not None else TraceReport()
        self.report.protocol = protocol
        self._override = model
        self._min_epoch_ops = min_epoch_ops
        self._relative_windows = [(float(s), float(e))
                                  for s, e in fault_windows]
        #: The fault windows in trace time, once anchored.
        self.windows: Optional[List[Tuple[float, float]]] = None
        self._on_verdict = on_verdict
        self._on_record = on_record
        #: The streaming checker, once the model is known.
        self.checker: Optional[StreamingWitnessChecker] = None
        #: The loaded history of a :meth:`batch` check.
        self.history: Optional[History] = None

    # -- model, windows, judging ----------------------------------------- #
    def _start(self, meta: Optional[Dict[str, Any]] = None
               ) -> StreamingWitnessChecker:
        report = self.report
        report.model = resolve_model(report.protocol, meta, self._override)
        self.checker = streaming_checker_for(
            report.protocol, report.model,
            min_epoch_ops=self._min_epoch_ops, on_verdict=self._judge)
        return self.checker

    def _anchor(self, at: float) -> None:
        self.windows = [(at + s, at + e) for s, e in self._relative_windows]
        self.report.fault_windows = [(round(s, 3), round(e, 3))
                                     for s, e in self.windows]

    def excused(self, verdict: EpochVerdict) -> bool:
        """Does the epoch overlap a fault window?  An epoch with no start
        begins at 0; the open final epoch runs to infinity, so it overlaps
        every window that has not closed before it began."""
        lo = verdict.start_time if verdict.start_time is not None else 0.0
        hi = (verdict.end_time if verdict.end_time is not None
              else float("inf"))
        return any(lo <= w_end and hi >= w_start
                   for w_start, w_end in self.windows or ())

    def _judge(self, verdict: EpochVerdict) -> None:
        if verdict.satisfied is False:
            text = verdict.describe()
            self.report.violations.append(text)
            if not self.excused(verdict):
                self.report.violations_outside_windows.append(text)
        if self._on_verdict is not None:
            self._on_verdict(verdict)

    # -- sources --------------------------------------------------------- #
    def observe(self, history: History) -> "TraceCheck":
        """Ride on a live history's observer hook; :meth:`close` reports.
        (No record stream, so nothing anchors fault windows here.)"""
        history.attach_observer(self._start())
        return self

    def check_history(self, history: History,
                      anchor: float = 0.0) -> TraceReport:
        """Replay a finished in-memory history in event-time order."""
        checker = self._start()
        self._anchor(anchor)
        stream_history(history, self.report.model, checker=checker)
        return self.close()

    def follow(self, sources: Union[str, Sequence[str]], *,
               stop_on_unexcused: bool = False,
               instrument: Optional[
                   Callable[[StreamingWitnessChecker], None]] = None,
               **follow_kwargs) -> TraceReport:
        """Stream one trace (or several, merged) through the checker.

        ``follow_kwargs`` go to :func:`~repro.net.recorder.trace_records`
        (``idle_timeout=0`` reads to EOF).  ``stop_on_unexcused`` ends the
        fold at the first violation outside every fault window;
        ``instrument`` sees the checker once it exists, before any record
        is folded (metrics binding).  Ctrl-C ends the fold and is reported
        as ``interrupted``; ``ValueError`` (corrupt record, unknown
        protocol or model) propagates.
        """
        report = self.report
        report.trace = _label(sources)
        try:
            records = self._watched(trace_records(sources, **follow_kwargs),
                                    stop_on_unexcused)
            first = next(records, None)
            if first is not None:
                meta = first if first.get("type") == "meta" else {}
                report.protocol = report.protocol or meta.get("protocol")
                if report.protocol:
                    checker = self._start(meta)
                    if instrument is not None:
                        instrument(checker)
                    check_record_stream(itertools.chain([first], records),
                                        checker)
        except KeyboardInterrupt:
            report.interrupted = True
        return self.close()

    def _watched(self, records: Iterable[Dict[str, Any]],
                 stop_on_unexcused: bool) -> Iterator[Dict[str, Any]]:
        report = self.report
        for record in records:
            report.records += 1
            if self.windows is None:
                stamp = record_time(record)
                if stamp is not None:
                    self._anchor(stamp)
            if self._on_record is not None:
                self._on_record(record)
            yield record
            if stop_on_unexcused and report.violations_outside_windows:
                return

    def batch(self, sources: Union[str, Sequence[str]]) -> TraceReport:
        """Load finished trace(s) and run one whole-history witness check.
        ``FileNotFoundError`` and ``ValueError`` propagate."""
        report = self.report
        report.trace, report.streaming = _label(sources), False
        meta, self.history = read_trace(sources)
        report.protocol = report.protocol or meta.get("protocol")
        if report.protocol:
            report.model = resolve_model(report.protocol, meta, self._override)
            result = check_trace(self.history, report.protocol, report.model)
            report.satisfied, report.reason = bool(result), result.reason
            report.ops_checked = len(self.history)
        return report

    def close(self) -> TraceReport:
        """Flush the final epoch and summarize (idempotent)."""
        report = self.report
        if self.checker is not None:
            stream = self.checker.close()
            report.satisfied = stream.satisfied
            report.ops_checked = stream.ops_checked
            report.epochs = stream.epochs
            report.max_segment_ops = stream.max_segment_ops
            report.verdicts = stream.verdicts
            report.first_violation = stream.first_violation
            if stream.first_violation is not None:
                report.reason = stream.first_violation.describe()
        return report


def _label(sources: Union[str, Sequence[str]]) -> str:
    return sources if isinstance(sources, str) else ",".join(sources)
