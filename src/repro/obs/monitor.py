"""The ``repro monitor`` correctness sidecar.

A monitor is the alerting front-end of the one trace-checking pipeline,
:class:`~repro.net.check.TraceCheck`: it follows a live trace (rotated sets
and merged fleet traces included), lets the pipeline judge every epoch
against the declared fault windows, and turns the paper's guarantee into an
*operational* signal:

* its own ``/metrics`` endpoint reports the last verdict, the first
  violating epoch, checker lag (wall-clock age of the oldest record not
  yet covered by a closed epoch), and peak heap;
* the first epoch that violates the declared model *outside every known
  fault window* emits one structured alert record (schema
  ``repro-alert/1``), stops the follow loop, and exits non-zero — the
  sidecar contract a supervisor restarts/pages on;
* violations *inside* a declared fault window are expected (the chaos
  engine's own judging rule) and only counted.

Fault windows are scenario-relative millisecond intervals the pipeline
anchors at the first timestamped record of the trace (the chaos engine
anchors the same windows at its ``run_start``, sampled just before the
first operation; every catalog window carries slack well above the
difference).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.net.check import TraceCheck, TraceReport, record_time
from repro.obs.http import MetricsServer
from repro.obs.instrument import instrument_checker
from repro.obs.registry import MetricsRegistry

__all__ = ["ALERT_SCHEMA", "MonitorReport", "run_monitor"]

ALERT_SCHEMA = "repro-alert/1"


@dataclass
class MonitorReport(TraceReport):
    """The pipeline's report plus what the sidecar did about it."""

    alert: Optional[Dict[str, Any]] = None
    exit_code: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {**super().to_dict(), "alert": self.alert,
                "exit_code": self.exit_code}


class _MetricsThread(threading.Thread):
    """Serve /metrics on a private asyncio loop beside the follow loop.

    The follow loop is a synchronous generator (it blocks in ``sleep``
    between polls), so the endpoint gets its own thread + event loop —
    scrapes stay responsive however long the checker chews on an epoch.
    """

    def __init__(self, registry: MetricsRegistry, host: str, port: int):
        super().__init__(name="repro-monitor-metrics", daemon=True)
        self._registry = registry
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self.bound_port: Optional[int] = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # pragma: no cover - defensive
            self.error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        server = MetricsServer(self._registry, host=self._host,
                               port=self._port)
        try:
            self.bound_port = await server.start()
        except OSError as exc:
            self.error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._shutdown.wait()
        await server.close()

    def start_and_wait(self) -> int:
        self.start()
        self._ready.wait(timeout=10.0)
        if self.error is not None:
            raise RuntimeError(
                f"cannot serve monitor metrics: {self.error}")
        if self.bound_port is None:
            raise RuntimeError("monitor metrics endpoint did not start")
        return self.bound_port

    def stop(self) -> None:
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        self.join(timeout=5.0)


def run_monitor(
    trace,
    *,
    protocol: Optional[str] = None,
    model: Optional[str] = None,
    min_epoch_ops: int = 64,
    poll_interval: float = 0.2,
    max_poll_interval: Optional[float] = 2.0,
    backoff: float = 2.0,
    idle_timeout: Optional[float] = None,
    stop: Optional[Callable[[], bool]] = None,
    fault_windows: Sequence[Tuple[float, float]] = (),
    metrics_port: Optional[int] = None,
    metrics_host: str = "127.0.0.1",
    registry: Optional[MetricsRegistry] = None,
    alert_path: Optional[str] = None,
    on_verdict: Optional[Callable[[Any], None]] = None,
    _clock: Callable[[], float] = time.time,
) -> MonitorReport:
    """Tail ``trace`` and check it continuously; see the module docstring.

    ``trace`` is one path or a sequence of paths (one per load generator of
    a fleet run, merged by timestamp).  ``protocol`` / ``model`` override
    the trace header (:func:`~repro.net.check.resolve_model`).
    ``fault_windows`` are scenario-relative ``(start_ms, end_ms)``
    intervals.  ``metrics_port`` (0 = ephemeral) serves the monitor's own
    ``/metrics``; the bound server runs until the monitor returns.  Exit
    codes in the report: 0 clean, 1 out-of-window violation (``alert`` is
    set), 2 unusable trace.
    """
    registry = registry if registry is not None else MetricsRegistry()
    report = MonitorReport()

    # Checker-lag bookkeeping: the wall instant the oldest record not yet
    # covered by a closed epoch was seen by the monitor.
    state = {"pending": 0, "pending_since": 0.0}

    def lag_seconds() -> float:
        if state["pending"] == 0:
            return 0.0
        return max(0.0, _clock() - state["pending_since"])

    records_total = registry.counter(
        "repro_monitor_records_total", "Trace records the monitor consumed.")
    alerts_total = registry.counter(
        "repro_monitor_alerts_total", "Out-of-window violation alerts.")
    registry.gauge(
        "repro_monitor_following", "1 while the follow loop is running.",
    ).set_function(lambda: 1.0)

    def on_record(record: Dict[str, Any]) -> None:
        records_total.inc()
        if record_time(record) is not None:
            if state["pending"] == 0:
                state["pending_since"] = _clock()
            state["pending"] += 1

    def handle_verdict(verdict: Any) -> None:
        state["pending"] = 0
        if on_verdict is not None:
            on_verdict(verdict)
        if report.alert is not None or not report.violations_outside_windows:
            return
        # The first violation the pipeline judged outside every window.
        alerts_total.inc()
        report.alert = {
            "type": "alert",
            "schema": ALERT_SCHEMA,
            "trace": report.trace,
            "protocol": report.protocol,
            "model": verdict.model,
            "epoch": {
                "index": verdict.index,
                "ops": verdict.ops,
                "start_time": verdict.start_time,
                "end_time": verdict.end_time,
                "reason": verdict.reason,
                "op_ids": sorted(verdict.op_ids)[:64],
            },
            "fault_windows": [list(w) for w in check.windows or ()],
            "wall_time": _clock(),
        }
        _emit_alert(report.alert, alert_path)

    check = TraceCheck(protocol, model, min_epoch_ops=min_epoch_ops,
                       fault_windows=fault_windows,
                       on_verdict=handle_verdict, on_record=on_record,
                       report=report)
    metrics_thread: Optional[_MetricsThread] = None
    if metrics_port is not None:
        metrics_thread = _MetricsThread(registry, metrics_host, metrics_port)
        metrics_thread.start_and_wait()
    try:
        check.follow(
            trace, stop_on_unexcused=True,
            instrument=lambda checker: instrument_checker(
                registry, checker, lag_seconds=lag_seconds),
            poll_interval=poll_interval, idle_timeout=idle_timeout,
            stop=stop, max_poll_interval=max_poll_interval, backoff=backoff)
    finally:
        if metrics_thread is not None:
            metrics_thread.stop()
    report.exit_code = 2 if report.model is None else int(
        report.alert is not None)
    return report


def _emit_alert(alert: Dict[str, Any], alert_path: Optional[str]) -> None:
    line = json.dumps(alert, sort_keys=True)
    if alert_path:
        with open(alert_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    print(f"repro-monitor ALERT {line}", file=sys.stderr, flush=True)
