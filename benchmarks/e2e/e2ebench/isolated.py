"""Isolated drives: time one layer's public function on captured inputs.

Each function takes inputs captured from the workload's spans pass (the
messages it really sent, the history it really recorded, the keys it really
touched) and times direct calls — no sockets, no pump unless the pump is the
layer.  Every drive runs a fixed amount of work and reports the best of a
few repeats: interference only ever adds time.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Callable, Dict, List, Sequence

from e2ebench import stats

__all__ = ["wire", "pump", "timers", "spanner_store", "wal_recover",
           "recorder", "checker", "ring", "generator"]

_REPEATS = 3


def _best(run: Callable[[], float]) -> float:
    """Smallest of ``_REPEATS`` timings of ``run`` (which returns seconds)."""
    return min(run() for _ in range(_REPEATS))


def _timed(function: Callable[[], Any]) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


# --------------------------------------------------------------------------- #
def wire(batches: Sequence[Sequence[Any]], mean_batch: float) -> Dict[str, float]:
    """Encode/decode cost per message for both codecs, on the captured
    messages regrouped at the observed mean batch size."""
    from repro.net.wire import (BinaryEncoder, FrameDecoder, encode_frame,
                                message_to_frame)

    messages = [message for batch in batches for message in batch]
    names = ("net.wire.encode_us_per_msg", "net.wire.decode_us_per_msg",
             "net.wire.json_encode_us_per_msg", "net.wire.json_decode_us_per_msg")
    if not messages:
        return dict.fromkeys(names, 0.0)
    size = max(1, round(mean_batch))
    groups = [messages[i:i + size] for i in range(0, len(messages), size)]
    count = len(messages)
    binary_frames: List[bytes] = []
    json_frames: List[bytes] = []

    def encode_binary() -> None:
        encoder = BinaryEncoder()
        binary_frames[:] = [encoder.hello_frame()] + [
            encoder.encode_batch(group) for group in groups]

    def encode_json() -> None:
        json_frames[:] = [encode_frame(message_to_frame(message))
                          for message in messages]

    def decode(frames: List[bytes]) -> Callable[[], None]:
        def run() -> None:
            decoder = FrameDecoder()
            decoded = 0
            for frame in frames:
                decoded += len(decoder.feed(frame))
            if decoded != count:
                raise RuntimeError(f"decoded {decoded} of {count} messages")
        return run

    per_msg = 1e6 / count
    result = {
        names[0]: _best(lambda: _timed(encode_binary)) * per_msg,
        names[2]: _best(lambda: _timed(encode_json)) * per_msg,
    }
    result[names[1]] = _best(lambda: _timed(decode(binary_frames))) * per_msg
    result[names[3]] = _best(lambda: _timed(decode(json_frames))) * per_msg
    return result


# --------------------------------------------------------------------------- #
def _pingpong(env: Any, rounds: int):
    """Two processes bouncing a token through two Stores."""
    ping, pong = env.store(), env.store()

    def left():
        for _ in range(rounds):
            ping.put(1)
            yield pong.get()

    def right():
        for _ in range(rounds):
            yield ping.get()
            pong.put(1)

    return env.process(left()), env.process(right())


def pump(rounds: int = 20_000) -> Dict[str, float]:
    """Events per second of the same two-process Store ping-pong under the
    simulated run loop and under the asyncio-pumped realtime environment."""
    from repro.net.realtime import RealtimeEnvironment
    from repro.sim.engine import Environment

    def simulated() -> float:
        env = Environment()
        _pingpong(env, rounds)
        seconds = _timed(env.run)
        return env.events_scheduled / seconds

    async def realtime_once() -> float:
        env = RealtimeEnvironment()
        left, right = _pingpong(env, rounds)
        started = time.perf_counter()
        await env.run_async(stop_when=lambda: not (left.is_alive
                                                   or right.is_alive))
        return env.events_scheduled / (time.perf_counter() - started)

    return {
        "sim.engine.events_per_s": max(simulated() for _ in range(_REPEATS)),
        "net.realtime.pingpong_events_per_s": max(
            asyncio.run(realtime_once()) for _ in range(_REPEATS)),
    }


def timers(count: int = 1000, delays_ms: Sequence[float] = (1.0, 5.0, 20.0),
           lanes: int = 25) -> Dict[str, float]:
    """How late ``env.timeout(d)`` fires on an otherwise idle pump: ``count``
    timeouts cycling through ``delays_ms``, on ``lanes`` concurrent
    processes so the drive takes well under a second."""
    from repro.net.realtime import RealtimeEnvironment

    late: List[float] = []

    async def run() -> None:
        env = RealtimeEnvironment()

        def lane(index: int):
            for step in range(count // lanes):
                delay = delays_ms[(index + step) % len(delays_ms)]
                started = env.now
                yield env.timeout(delay)
                late.append(env.now - started - delay)

        procs = [env.process(lane(index)) for index in range(lanes)]
        await env.run_async(stop_when=lambda: not any(p.is_alive for p in procs))

    asyncio.run(run())
    ordered = sorted(late)
    return {"net.realtime.timer_late_p50_ms": stats.percentile(ordered, 50),
            "net.realtime.timer_late_p99_ms": stats.percentile(ordered, 99)}


# --------------------------------------------------------------------------- #
def spanner_store(history: Any) -> Dict[str, float]:
    """Lock table and multi-version store on the key sets of the captured
    transactions: acquire every lock of a transaction and release them;
    apply its writes at its commit timestamp; read its keys back at it."""
    from repro.sim.engine import Environment
    from repro.spanner.locks import LockMode, LockTable
    from repro.spanner.mvstore import MultiVersionStore

    names = ("spanner.locks.acquire_release_us_per_txn",
             "spanner.mvstore.read_at_us", "spanner.mvstore.apply_us")
    txns = []
    for op in history.operations():
        at = op.meta.get("commit_ts") or op.meta.get("snapshot_ts") or 0.0
        txns.append((sorted(op.keys_read()), op.values_written(), float(at)))
    if not txns:
        return dict.fromkeys(names, 0.0)

    def locks() -> None:
        table = LockTable(Environment())
        for index, (reads, writes, _) in enumerate(txns):
            txn_id = f"t{index}"
            for key in reads:
                table.acquire(key, LockMode.READ, txn_id, float(index))
            for key in writes:
                table.acquire(key, LockMode.WRITE, txn_id, float(index))
            table.release_all(txn_id)

    applies = sum(len(writes) for _, writes, _ in txns)
    reads_total = sum(len(reads) for reads, _, _ in txns)

    def apply() -> MultiVersionStore:
        store = MultiVersionStore()
        for _, writes, commit_ts in txns:
            store.apply_many(writes, commit_ts)
        return store

    filled = apply()

    def read() -> None:
        for reads, _, commit_ts in txns:
            for key in reads:
                filled.read_at(key, commit_ts)

    return {
        names[0]: _best(lambda: _timed(locks)) * 1e6 / len(txns),
        names[2]: _best(lambda: _timed(apply)) * 1e6 / max(applies, 1),
        names[1]: _best(lambda: _timed(read)) * 1e6 / max(reads_total, 1),
    }


def wal_recover(wal_dir: str) -> Dict[str, float]:
    """``recover()`` on the logs the pass left behind, per thousand records
    (checkpoint payload keys count as records: recovery reads them too)."""
    from repro.storage.wal import WriteAheadLog

    records = 0
    seconds = 0.0
    for name in sorted(os.listdir(wal_dir)):
        if not name.endswith(".wal"):
            continue
        wal = WriteAheadLog(os.path.join(wal_dir, name))
        try:
            started = time.perf_counter()
            snapshot = wal.recover()
            seconds += time.perf_counter() - started
        finally:
            wal.close()
        records += len(snapshot.records) + sum(
            len(section) for section in (snapshot.state or {}).values()
            if isinstance(section, dict))
    return {"storage.wal.recover_ms_per_krecord":
            seconds * 1e6 / records if records else 0.0}


def recorder(history: Any, scratch_path: str) -> Dict[str, float]:
    """``TraceWriter`` cost per operation (one ``inv`` and one ``op`` record
    each, flushed per record as the live capture does)."""
    from repro.net.recorder import TraceWriter

    ops = history.operations()
    if not ops:
        return {"net.recorder.record_us_per_op": 0.0}

    def run() -> float:
        writer = TraceWriter(scratch_path)
        try:
            started = time.perf_counter()
            for op in ops:
                writer.record_invocation(op.process, op.invoked_at)
                writer.record_op(op)
            return time.perf_counter() - started
        finally:
            writer.close()

    return {"net.recorder.record_us_per_op": _best(run) * 1e6 / len(ops)}


def checker(history: Any, protocol: str, model: str) -> Dict[str, float]:
    """The streaming witness checker folding the captured history, replayed
    in event order."""
    from repro.core.checkers.streaming import stream_history
    from repro.net.check import streaming_checker_for

    count = len(history)
    if not count:
        return {"core.checkers.streaming.fold_us_per_op": 0.0}

    def run() -> float:
        folding = streaming_checker_for(protocol, model=model)
        started = time.perf_counter()
        report = stream_history(history, model, checker=folding)
        seconds = time.perf_counter() - started
        if not report.satisfied:
            raise RuntimeError("isolated checker fold found a violation: "
                               f"{report.first_violation.describe()}")
        return seconds

    return {"core.checkers.streaming.fold_us_per_op": _best(run) * 1e6 / count}


def ring(placement: Any, history: Any) -> Dict[str, float]:
    """``PlacementMap.owner`` per captured key."""
    keys = [key for op in history.operations()
            for key in op.keys_read() | op.keys_written()]
    if not keys:
        return {"fleet.ring.owner_us_per_key": 0.0}

    def run() -> None:
        owner = placement.owner
        for key in keys:
            owner(key)

    return {"fleet.ring.owner_us_per_key":
            _best(lambda: _timed(run)) * 1e6 / len(keys)}


def generator(make_generator: Callable[[], Any], count: int = 20_000
              ) -> Dict[str, float]:
    """The workload generator alone: ``count`` items from a fresh one."""
    def run() -> float:
        source = make_generator()
        draw = (source.next_transaction if hasattr(source, "next_transaction")
                else source.next_operation)
        started = time.perf_counter()
        for _ in range(count):
            draw()
        return time.perf_counter() - started

    return {"workloads.gen_us_per_op": _best(run) * 1e6 / count}
