"""Live history capture.

The protocol clients already append every completed operation to a
:class:`~repro.core.history.History`; :class:`RecordingHistory` additionally
streams each event to a JSONL trace file *as it happens*, so a crash mid-run
loses at most the in-flight operation.  The file format is the
:meth:`History.to_jsonl` format plus:

* one leading ``{"type": "meta", ...}`` record per file describing the run
  (protocol, model to check, epoch), which ``repro live-check`` uses to pick
  the right checker;
* one ``{"type": "inv", ...}`` record per invocation and one
  ``{"type": "abandon", ...}`` record per operation that aborted out of its
  retry budget.  These carry no payload the offline loader needs
  (``History.from_jsonl`` skips them), but they are what lets the streaming
  checker detect quiescent frontiers — epoch cut points — online.

Long-running captures can bound file sizes with ``rotate_bytes``: the writer
then produces ``trace-0001.jsonl``, ``trace-0002.jsonl``, ... (each with its
own meta header, so every file is standalone-loadable), and the readers
accept the base path as a name for the whole set.

Reading has one entry point, :func:`trace_records`: one path, one rotated
set, or several traces merged by timestamp, followed live or read to EOF.
:func:`read_trace` loads the same sources into a :class:`History`.
"""

from __future__ import annotations

import json
import os
import time as _time
import warnings
from typing import (
    Any, Callable, Dict, IO, Iterator, Optional, Sequence, Tuple, Union,
)

from repro.core.events import Operation
from repro.core.history import History, iter_jsonl_records, resolve_jsonl_paths

__all__ = [
    "TRACE_SCHEMA",
    "TraceWriter",
    "RecordingHistory",
    "read_trace",
    "trace_records",
    "follow_trace_records",
    "merge_record_streams",
]

TRACE_SCHEMA = "repro-trace/2"


class TraceWriter:
    """Appends history records to a JSONL trace file.

    Parameters
    ----------
    destination:
        Path or open text handle.
    meta:
        Extra fields for the per-file ``{"type": "meta"}`` header.
    flush_every:
        Flush after every N records (default 1 — every record, the
        durability contract ``live-check`` relies on).  Larger values trade
        tail-loss-on-crash for fewer syscalls on hot paths.
    fsync:
        Also ``os.fsync`` on every flush, surviving OS crashes too.
    rotate_bytes:
        When set (path destinations only), start a new file once the
        current one reaches this size: ``trace.jsonl`` becomes the set
        ``trace-0001.jsonl``, ``trace-0002.jsonl``, ...  Rotation happens
        at record boundaries and each file carries the meta header.
    """

    def __init__(self, destination: Union[str, IO[str]],
                 meta: Optional[Dict[str, Any]] = None,
                 flush_every: int = 1,
                 fsync: bool = False,
                 rotate_bytes: Optional[int] = None):
        self._flush_every = max(1, int(flush_every))
        self._fsync = fsync
        self._since_flush = 0
        self._bytes_written = 0
        self._file_index = 0
        self._header: Dict[str, Any] = {"type": "meta", "schema": TRACE_SCHEMA}
        self._header.update(meta or {})
        if rotate_bytes is not None:
            if not isinstance(destination, str):
                raise ValueError("rotate_bytes requires a path destination")
            if rotate_bytes <= 0:
                raise ValueError("rotate_bytes must be positive")
        self._rotate_bytes = rotate_bytes
        self._path = destination if isinstance(destination, str) else None
        if isinstance(destination, str):
            self._handle: IO[str] = open(self._next_path(), "w",
                                         encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self._write_header()

    # ------------------------------------------------------------------ #
    def _next_path(self) -> str:
        if self._rotate_bytes is None:
            return self._path  # type: ignore[return-value]
        self._file_index += 1
        stem, suffix = os.path.splitext(self._path)  # type: ignore[arg-type]
        return f"{stem}-{self._file_index:04d}{suffix}"

    def _write_header(self) -> None:
        header = dict(self._header)
        if self._rotate_bytes is not None:
            header["file_index"] = self._file_index
        self._emit(header)

    def _emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        self._handle.write(line)
        # json.dumps keeps ensure_ascii, so character count == byte count.
        self._bytes_written += len(line)
        self._since_flush += 1
        if self._since_flush >= self._flush_every:
            self.flush()

    def _write(self, record: Dict[str, Any]) -> None:
        self._emit(record)
        if (self._rotate_bytes is not None
                and self._bytes_written >= self._rotate_bytes):
            self.flush()
            # A completed file of the set must be durable before the writer
            # moves on — readers treat every non-final file as torn-free —
            # so rotation fsyncs even when per-record fsync is off.
            if not self._fsync:
                try:
                    os.fsync(self._handle.fileno())
                except (AttributeError, OSError, ValueError):
                    pass
            self._handle.close()
            self._handle = open(self._next_path(), "w", encoding="utf-8")
            self._bytes_written = 0
            self._write_header()

    def flush(self) -> None:
        """Flush buffered records (and fsync when configured)."""
        self._since_flush = 0
        if self._handle.closed:
            return
        self._handle.flush()
        if self._fsync:
            try:
                os.fsync(self._handle.fileno())
            except (AttributeError, OSError, ValueError):
                pass  # in-memory handles have no file descriptor

    # ------------------------------------------------------------------ #
    def record_invocation(self, process: str, invoked_at: float) -> None:
        self._write({"type": "inv", "process": process,
                     "invoked_at": invoked_at})

    def record_abandon(self, process: str, at_time: float) -> None:
        self._write({"type": "abandon", "process": process, "at": at_time})

    def record_op(self, op: Operation) -> None:
        record = {"type": "op"}
        record.update(op.to_dict())
        self._write(record)

    def record_edge(self, src_op: Operation, dst_op: Operation) -> None:
        self._write({"type": "edge", "src_op": src_op.op_id,
                     "dst_op": dst_op.op_id})

    # History observer interface (History.attach_observer) -------------- #
    def on_invocation(self, process: str, invoked_at: float) -> None:
        self.record_invocation(process, invoked_at)

    def on_abandoned(self, process: str, at_time: float) -> None:
        self.record_abandon(process, at_time)

    def on_op(self, op: Operation) -> None:
        self.record_op(op)

    def on_edge(self, src_op: Operation, dst_op: Operation) -> None:
        self.record_edge(src_op, dst_op)

    def close(self) -> None:
        self.flush()
        if self._owns_handle and not self._handle.closed:
            self._handle.close()


class RecordingHistory(History):
    """A history that mirrors every appended event into a trace file.

    Implemented over the generic :meth:`History.attach_observer` hook, so an
    inline streaming checker can be attached beside the writer and both see
    the identical event stream.
    """

    def __init__(self, writer: TraceWriter):
        super().__init__()
        self._writer = writer
        self.attach_observer(writer)


def trace_records(sources: Union[str, Sequence[str]],
                  **follow_kwargs) -> Iterator[Dict[str, Any]]:
    """The record stream of one trace or of several merged by timestamp.

    ``sources`` is one path (a plain file or the base path of a rotated
    set) or a sequence of paths.  A single source is followed as written —
    every record, per-file ``meta`` headers included, with its op ids
    untouched (:func:`follow_trace_records`); several sources go through
    :func:`merge_record_streams` (one merged ``meta``, op ids qualified per
    stream).  ``follow_kwargs`` are :func:`follow_trace_records`'s;
    ``idle_timeout=0`` reads what exists to EOF and stops.
    """
    paths = [sources] if isinstance(sources, str) else list(sources)
    if len(paths) == 1:
        return follow_trace_records(paths[0], **follow_kwargs)
    return merge_record_streams(paths, **follow_kwargs)


def read_trace(source: Union[str, Sequence[str], IO[str]]
               ) -> Tuple[Dict[str, Any], History]:
    """Load a finished trace in one streaming pass: ``(meta, history)``.

    ``source`` is anything :func:`trace_records` opens — one path, a rotated
    set, several traces to merge — or an open text handle.  ``meta`` is the
    first ``{"type": "meta"}`` record (empty dict if the file is a bare
    :meth:`History.to_jsonl` dump).  A crash-truncated final line is
    tolerated — the capture loses at most its in-flight record; a path that
    names no file raises ``FileNotFoundError``.
    """
    meta: Dict[str, Any] = {}

    def capture_meta(records):
        for record in records:
            if not meta and record.get("type") == "meta":
                meta.update(record)
                continue
            yield record

    if hasattr(source, "read"):
        records = iter_jsonl_records(source)
    else:
        paths = [source] if isinstance(source, str) else list(source)
        for path in paths:
            resolve_jsonl_paths(path)   # a follower would wait for the file
        records = trace_records(paths, idle_timeout=0)
    return meta, History.from_records(capture_meta(records))


# --------------------------------------------------------------------------- #
# Tail a live trace (rotated sets included)
# --------------------------------------------------------------------------- #
def follow_trace_records(
    path: str,
    poll_interval: float = 0.2,
    idle_timeout: Optional[float] = None,
    stop: Optional[Callable[[], bool]] = None,
    max_poll_interval: Optional[float] = None,
    backoff: float = 2.0,
    _sleep: Callable[[float], None] = _time.sleep,
) -> Iterator[Dict[str, Any]]:
    """Yield parsed trace records as they are written (``tail -f``).

    Follows the single file at ``path`` or, when ``path`` names a rotated
    set, each ``<stem>-NNNN<suffix>`` file in order — moving to the next
    file once the current one stops growing and a successor exists.  The
    generator returns when ``stop()`` goes true or no new data arrives for
    ``idle_timeout`` seconds (``idle_timeout=0`` reads exactly what exists
    and returns; ``None`` follows forever).

    Idle polling backs off exponentially when ``max_poll_interval`` is
    set: each sleep with no new data multiplies the delay by ``backoff``
    (from ``poll_interval`` up to ``max_poll_interval``), and any data
    resets it — a long-lived monitor on an idle cluster polls rarely but
    reacts at ``poll_interval`` granularity once traffic resumes.  The
    default ``max_poll_interval=None`` keeps the historical fixed-interval
    behavior.

    A partial trailing line is buffered until its newline arrives; at
    stream end an undecodable partial tail is tolerated (crash truncation),
    but an undecodable line *mid-stream* raises ``ValueError``.
    """
    if max_poll_interval is not None:
        if max_poll_interval < poll_interval:
            raise ValueError("max_poll_interval must be >= poll_interval")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")

    def candidate_files() -> list:
        if os.path.exists(path):
            return [path]
        try:
            return resolve_jsonl_paths(path)
        except FileNotFoundError:
            return []

    index = 0
    handle: Optional[IO[str]] = None
    buffer = ""
    idle = 0.0
    delay = poll_interval
    try:
        while True:
            files = candidate_files()
            if handle is None and index < len(files):
                handle = open(files[index], "r", encoding="utf-8")
                idle = 0.0
                delay = poll_interval
            chunk = handle.read() if handle is not None else ""
            if chunk:
                idle = 0.0
                delay = poll_interval
                buffer += chunk
                *lines, buffer = buffer.split("\n")
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValueError(
                            f"corrupt trace record in {files[index]}: {exc}"
                        ) from exc
                continue
            if handle is not None and index + 1 < len(files):
                # The writer rotated on; this file is complete.
                if buffer.strip():
                    raise ValueError(
                        f"trace file {files[index]} ends mid-record but has "
                        f"a successor — corrupt rotation")
                handle.close()
                handle = None
                buffer = ""
                index += 1
                continue
            if stop is not None and stop():
                break
            if idle_timeout is not None and idle >= idle_timeout:
                break
            _sleep(delay)
            idle += delay
            if max_poll_interval is not None:
                delay = min(delay * backoff, max_poll_interval)
    finally:
        if handle is not None:
            handle.close()
    # Stream over: tolerate a crash-truncated final record, loudly.
    tail = buffer.strip()
    if tail:
        try:
            yield json.loads(tail)
        except json.JSONDecodeError as exc:
            warnings.warn(
                f"trace {path} ends with a torn record (discarded): {exc}",
                RuntimeWarning, stacklevel=2)


# --------------------------------------------------------------------------- #
# Merge several traces into one ordered stream
# --------------------------------------------------------------------------- #
def _record_ts(record: Dict[str, Any], last: float) -> float:
    """The merge timestamp of a record.

    ``edge`` records (and anything else without a timestamp) inherit the
    last timestamp seen on their own stream, which keeps them immediately
    after the operation they annotate — the checkers resolve edges by op id,
    so interleaving from other streams at the same instant is harmless.
    """
    kind = record.get("type")
    if kind == "inv":
        return float(record.get("invoked_at", last))
    if kind == "op":
        return float(record.get("responded_at", last))
    if kind == "abandon":
        return float(record.get("at", last))
    return last


def merge_record_streams(sources, **follow_kwargs) -> Iterator[Dict[str, Any]]:
    """Merge trace record streams into one timestamp-ordered stream.

    ``sources`` are trace paths (each opened with
    :func:`follow_trace_records`, forwarding ``follow_kwargs``) or
    already-built record iterables.  Exactly one ``meta`` record is yielded
    first — the first stream's header plus a ``merged_streams`` count —
    and the per-stream headers must agree on the protocol (a merged check
    needs one checker).  A fleet run captures one trace per load generator;
    merging them reconstructs the single global history the streaming
    checker consumes.

    The merge is *streaming*: it holds one head record per source, always
    yields the earliest, and advances only that source — so it can follow
    live traces, at the cost of blocking on a silent stream until its
    follower times out or produces data (an ordered merge cannot do better:
    the earliest record cannot be known without every stream's head).

    Each load generator numbers its operations from 1, so when merging more
    than one stream every op id (``op_id``, ``src_op``, ``dst_op``) is
    qualified with its stream index (``"t0:17"``) to keep ids unique in the
    merged history.  A single source passes through unmodified.
    """
    iterators = [follow_trace_records(source, **follow_kwargs)
                 if isinstance(source, str) else iter(source)
                 for source in sources]
    count = len(iterators)
    heads: list = [None] * count
    last_ts = [float("-inf")] * count
    meta: Optional[Dict[str, Any]] = None

    def qualify(index: int, record: Dict[str, Any]) -> Dict[str, Any]:
        if count == 1:
            return record
        rewritten = dict(record)
        for field in ("op_id", "src_op", "dst_op"):
            if field in rewritten:
                rewritten[field] = f"t{index}:{rewritten[field]}"
        return rewritten

    def advance(index: int) -> bool:
        nonlocal meta
        for record in iterators[index]:
            if record.get("type") == "meta":
                if meta is None:
                    meta = dict(record)
                elif record.get("protocol") != meta.get("protocol"):
                    raise ValueError(
                        f"cannot merge traces of different protocols: "
                        f"{meta.get('protocol')!r} vs "
                        f"{record.get('protocol')!r}")
                continue  # headers repeat per rotated file; keep the first
            heads[index] = qualify(index, record)
            return True
        heads[index] = None
        return False

    active = [index for index in range(count) if advance(index)]
    emitted_meta = False

    def merged_meta() -> Dict[str, Any]:
        header = dict(meta or {})
        header.setdefault("type", "meta")
        header["merged_streams"] = count
        return header

    while active:
        if not emitted_meta:
            yield merged_meta()
            emitted_meta = True
        best = min(active,
                   key=lambda index: (_record_ts(heads[index],
                                                 last_ts[index]), index))
        record = heads[best]
        last_ts[best] = _record_ts(record, last_ts[best])
        yield record
        if not advance(best):
            active.remove(best)
    if not emitted_meta:
        yield merged_meta()
