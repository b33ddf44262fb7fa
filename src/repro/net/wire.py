"""Length-prefixed wire codec: JSON v1 and binary v2.

Every frame on a live-cluster connection is a 4-byte big-endian length
followed by a body.  The first body byte selects the codec version:

* ``{`` (0x7B) — a UTF-8 JSON object, the v1 data frame::

     {"v": 1, "src": "client1@CA", "dst": "replica0",
      "kind": "read1", "payload": {...}, "send_time": 123.4, "msg_id": 7}

* ``0xB2`` — a binary v2 frame: magic byte, frame-type byte, then a
  struct-packed body (layout diagram in ``docs/live_runtime.md``).  Three
  frame types exist:

  - ``HELLO`` (1): the sender's wire version plus a snapshot of its
    string-intern table.  Sent first on every (re)connection, so the
    receiver can resolve interned ids even after the sender reconnects
    mid-run with a warm table.
  - ``MSG`` (2): one protocol message.
  - ``BATCH`` (3): a varint message count followed by that many messages —
    the unit the transport coalesces one event-loop tick's sends into.

  A message is ``src``/``dst``/``kind`` as interned-string refs,
  ``send_time`` as a big-endian float64, ``msg_id`` as a varint, and the
  payload as a msgpack-style tagged value tree (None/bool/int/float/str/
  list/dict; dict keys are interned — protocol payloads repeat the same
  small key set millions of times).  An interned-string ref is
  ``varint(id << 1 | define)``; with ``define`` set, a varint byte length
  and the UTF-8 bytes follow and the receiver learns the mapping.
  Receivers keep one intern table per connection (inside their
  :class:`FrameDecoder`); senders keep theirs per channel, surviving
  reconnects — the HELLO snapshot re-synchronizes the other side.

Because version dispatch is per-frame, a v2 listener serves a v1 (JSON)
connection transparently: replies go out in JSON unless a v2 HELLO arrived
on that connection first.  JSON stays the ``nc``-able debug codec
(``--codec json``); payload semantics are identical in both directions
(tuples become lists in flight, which the protocol code re-normalizes on
receipt), so the sim and live wire formats remain interchangeable.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.network import Message

__all__ = [
    "WIRE_VERSION",
    "JSON_WIRE_VERSION",
    "BINARY_MAGIC",
    "MAX_FRAME_BYTES",
    "WireError",
    "encode_frame",
    "BinaryEncoder",
    "FrameDecoder",
    "message_to_frame",
    "frame_to_message",
]

#: Current (binary) wire version announced in HELLO frames.
WIRE_VERSION = 2
#: The length-prefixed JSON format every peer understands.
JSON_WIRE_VERSION = 1

#: First body byte of every v2 frame.  JSON bodies always start with ``{``
#: (0x7B), so one byte distinguishes the codecs per-frame.
BINARY_MAGIC = 0xB2

_FT_HELLO = 1
_FT_MSG = 2
_FT_BATCH = 3

_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_LIST = 6
_T_DICT = 7

#: Upper bound on one frame; a peer announcing more is treated as corrupt.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_FLOAT = struct.Struct(">d")


class WireError(Exception):
    """Raised for malformed or oversized frames."""


def encode_frame(record: Dict[str, Any]) -> bytes:
    """Serialize one record to a length-prefixed JSON (v1) frame."""
    body = json.dumps(record, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    """Decode one JSON frame body to a record, with the error contract."""
    try:
        record = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(record, dict):
        raise WireError(f"frame is not an object: {record!r}")
    return record


# --------------------------------------------------------------------- #
# Binary v2 primitives
# --------------------------------------------------------------------- #
def _write_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(view, pos: int, end: int) -> "tuple[int, int]":
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise WireError("truncated varint in v2 frame")
        byte = view[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise WireError("varint too long in v2 frame")


#: Cap on interned strings per channel.  Data-dependent dict keys (Spanner
#: write maps are keyed by user keys) would otherwise grow the sender table
#: — and every reconnect HELLO — without bound; once full, unseen strings
#: travel as one-shot literals (define ref 0) and are not remembered.
_INTERN_LIMIT = 4096


def _frame(body: bytearray) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + bytes(body)


def _coerce_key(key: Any) -> str:
    """Match ``json.dumps``'s coercion of non-string dict keys, so a payload
    round-trips identically through either codec."""
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, (int, float)):
        return str(key)
    raise WireError(f"unencodable dict key: {key!r}")


class BinaryEncoder:
    """Per-channel sender state for the v2 binary codec.

    The intern table grows monotonically for the channel's lifetime and is
    never reset: after a reconnect the channel sends :meth:`hello_frame`
    (a full snapshot) before any data, so the receiving side's fresh
    per-connection table catches up to every id already assigned here.
    Inline re-definitions from a re-sent in-flight frame are harmless —
    they overwrite an existing id with the identical string.  Growth stops
    at ``_INTERN_LIMIT`` entries: past that, strings the table has not
    seen travel as one-shot literals, so data-dependent dict keys cannot
    balloon the table (or the HELLO snapshot) on a long-lived channel.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}

    def hello_frame(self) -> bytes:
        """HELLO: wire version + a snapshot of the intern table so far."""
        body = bytearray((BINARY_MAGIC, _FT_HELLO))
        _write_varint(body, WIRE_VERSION)
        _write_varint(body, len(self._ids))
        for text in self._ids:  # dict insertion order == id order
            data = text.encode("utf-8")
            _write_varint(body, len(data))
            body += data
        return _frame(body)

    def encode_batch(self, messages: "Sequence[Message]") -> bytes:
        """One MSG frame for a single message, else one BATCH frame."""
        if len(messages) == 1:
            body = bytearray((BINARY_MAGIC, _FT_MSG))
            self._encode_message(body, messages[0])
        else:
            body = bytearray((BINARY_MAGIC, _FT_BATCH))
            _write_varint(body, len(messages))
            for message in messages:
                self._encode_message(body, message)
        return _frame(body)

    def _intern(self, out: bytearray, text: str) -> None:
        ids = self._ids
        ident = ids.get(text)
        if ident is not None:
            ref = ident << 1
            if ref < 0x80:
                out.append(ref)
            else:
                _write_varint(out, ref)
            return
        data = text.encode("utf-8")
        if len(ids) >= _INTERN_LIMIT:
            out.append(1)  # define ref 0: one-shot literal, not remembered
        else:
            ids[text] = len(ids)
            _write_varint(out, len(ids) << 1 | 1)  # define ref is id + 1
        _write_varint(out, len(data))
        out += data

    def _encode_message(self, out: bytearray, message: Message) -> None:
        intern = self._intern
        intern(out, message.src)
        intern(out, message.dst)
        intern(out, message.kind)
        out += _FLOAT.pack(message.send_time)
        if message.msg_id < 0:
            raise WireError(f"negative msg_id {message.msg_id}")
        _write_varint(out, message.msg_id)
        self._encode_value(out, message.payload)

    def _encode_value(self, out: bytearray, value: Any) -> None:
        # Identity checks first (bool must beat the int branch), then types
        # by payload frequency; single-byte varints are written inline.
        if value is None:
            out.append(_T_NONE)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif isinstance(value, str):
            data = value.encode("utf-8")
            length = len(data)
            if length < 0x80:
                out.append(_T_STR)
                out.append(length)
            else:
                out.append(_T_STR)
                _write_varint(out, length)
            out += data
        elif isinstance(value, int):
            raw = (value << 1) if value >= 0 else (((-value) << 1) | 1)
            if raw < 0x80:
                out.append(_T_INT)
                out.append(raw)
            else:
                out.append(_T_INT)
                _write_varint(out, raw)
        elif isinstance(value, dict):
            out.append(_T_DICT)
            _write_varint(out, len(value))
            intern = self._intern
            encode_value = self._encode_value
            for key, item in value.items():
                if type(key) is not str:
                    key = _coerce_key(key)
                intern(out, key)
                encode_value(out, item)
        elif isinstance(value, (list, tuple)):
            out.append(_T_LIST)
            _write_varint(out, len(value))
            encode_value = self._encode_value
            for item in value:
                encode_value(out, item)
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out += _FLOAT.pack(value)
        else:
            raise WireError(f"unencodable payload value: {value!r}")


class FrameDecoder:
    """Incremental frame decoder for arbitrarily fragmented byte streams.

    ``feed`` buffers fragments and returns every completed record — both
    JSON v1 frames and binary v2 frames, dispatched per-frame on the first
    body byte.  A v2 BATCH yields one record per carried message; a v2
    HELLO yields none but updates :attr:`peer_version` and resets the
    per-connection intern table to the sender's snapshot.  Decoding parses
    the buffered bytes in place through a :class:`memoryview` (no body
    copy); :class:`WireError` is raised for oversized or malformed frames
    as soon as the offending header/body is complete — an announced
    oversize is rejected from the 4 header bytes alone, before any body
    arrives.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._interned: List[str] = []
        #: Wire version the peer last announced: 2 after a v2 HELLO, 1 once
        #: a JSON frame arrives, ``None`` before any frame.  The transport
        #: uses this to pick the reply codec on accepted connections.
        self.peer_version: Optional[int] = None
        #: Completed wire frames decoded (a BATCH counts once).
        self.frames_decoded = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> "list[Dict[str, Any]]":
        records: "list[Dict[str, Any]]" = []
        buf = self._buffer
        buf.extend(data)
        header = _LENGTH.size
        while True:
            if len(buf) < header:
                return records
            (length,) = _LENGTH.unpack_from(buf)
            if length > MAX_FRAME_BYTES:
                raise WireError(f"peer announced a {length}-byte frame")
            end = header + length
            if len(buf) < end:
                return records
            if length and buf[header] == BINARY_MAGIC:
                self._decode_binary(records, header, end)
            else:
                records.append(_decode_body(bytes(buf[header:end])))
                if self.peer_version is None:
                    self.peer_version = JSON_WIRE_VERSION
            del buf[:end]
            self.frames_decoded += 1

    # ----------------------------------------------------------------- #
    # v2 frame bodies
    # ----------------------------------------------------------------- #
    def _decode_binary(self, records: list, start: int, end: int) -> None:
        view = memoryview(self._buffer)
        try:
            if start + 2 > end:
                raise WireError("truncated v2 frame header")
            ftype = view[start + 1]
            pos = start + 2
            if ftype == _FT_MSG:
                record, pos = self._decode_message(view, pos, end)
                records.append(record)
            elif ftype == _FT_BATCH:
                count, pos = _read_varint(view, pos, end)
                if count > end - pos:
                    raise WireError("batch count overruns frame")
                for _ in range(count):
                    record, pos = self._decode_message(view, pos, end)
                    records.append(record)
            elif ftype == _FT_HELLO:
                pos = self._decode_hello(view, pos, end)
            else:
                raise WireError(f"unknown v2 frame type {ftype}")
            if pos != end:
                raise WireError("trailing bytes in v2 frame")
        except (IndexError, UnicodeDecodeError, struct.error) as exc:
            raise WireError(f"malformed v2 frame: {exc}") from exc
        finally:
            view.release()

    def _decode_hello(self, view, pos: int, end: int) -> int:
        version, pos = _read_varint(view, pos, end)
        count, pos = _read_varint(view, pos, end)
        if count > end - pos:  # every entry takes at least one byte
            raise WireError("hello table overruns frame")
        if count > _INTERN_LIMIT:
            raise WireError(f"hello table of {count} entries exceeds "
                            f"{_INTERN_LIMIT}")
        table: List[str] = []
        for _ in range(count):
            length, pos = _read_varint(view, pos, end)
            if pos + length > end:
                raise WireError("truncated hello entry")
            table.append(str(view[pos:pos + length], "utf-8"))
            pos += length
        self._interned = table
        self.peer_version = version
        return pos

    def _decode_message(self, view, pos: int, end: int):
        src, pos = self._read_interned(view, pos, end)
        dst, pos = self._read_interned(view, pos, end)
        kind, pos = self._read_interned(view, pos, end)
        if pos + 8 > end:
            raise WireError("truncated v2 message")
        (send_time,) = _FLOAT.unpack_from(view, pos)
        pos += 8
        msg_id, pos = _read_varint(view, pos, end)
        payload, pos = self._decode_value(view, pos, end)
        return {"v": WIRE_VERSION, "src": src, "dst": dst, "kind": kind,
                "payload": payload, "send_time": send_time,
                "msg_id": msg_id}, pos

    def _read_interned(self, view, pos: int, end: int):
        # Inline fast path for the dominant case: a one-byte reference.
        if pos < end and view[pos] < 0x80:
            ref = view[pos]
            pos += 1
        else:
            ref, pos = _read_varint(view, pos, end)
        table = self._interned
        if not ref & 1:
            ident = ref >> 1
            if ident >= len(table):
                raise WireError(f"unknown interned id {ident}")
            return table[ident], pos
        length, pos = _read_varint(view, pos, end)
        if pos + length > end:
            raise WireError("truncated interned string")
        text = str(view[pos:pos + length], "utf-8")
        pos += length
        ident = (ref >> 1) - 1  # define ref is id + 1; ref 0 is a literal
        if ident < 0:
            return text, pos  # one-shot literal (sender table was full)
        if ident == len(table):
            if ident >= _INTERN_LIMIT:
                raise WireError("interned table overflow")
            table.append(text)
        elif ident < len(table):
            table[ident] = text  # re-sent definition after a reconnect
        else:
            raise WireError(f"interned id {ident} defined out of order")
        return text, pos

    def _decode_value(self, view, pos: int, end: int):
        # Tags ordered by payload frequency; single-byte varints inline.
        if pos >= end:
            raise WireError("truncated v2 value")
        tag = view[pos]
        pos += 1
        if tag == _T_STR:
            if pos < end and view[pos] < 0x80:
                length = view[pos]
                pos += 1
            else:
                length, pos = _read_varint(view, pos, end)
            if pos + length > end:
                raise WireError("truncated v2 string")
            return str(view[pos:pos + length], "utf-8"), pos + length
        if tag == _T_INT:
            if pos < end and view[pos] < 0x80:
                raw = view[pos]
                pos += 1
            else:
                raw, pos = _read_varint(view, pos, end)
            return (-(raw >> 1) if raw & 1 else raw >> 1), pos
        if tag == _T_DICT:
            count, pos = _read_varint(view, pos, end)
            if count > end - pos:
                raise WireError("dict count overruns frame")
            result: Dict[str, Any] = {}
            read_interned = self._read_interned
            decode_value = self._decode_value
            for _ in range(count):
                key, pos = read_interned(view, pos, end)
                result[key], pos = decode_value(view, pos, end)
            return result, pos
        if tag == _T_LIST:
            count, pos = _read_varint(view, pos, end)
            if count > end - pos:
                raise WireError("list count overruns frame")
            items = []
            append = items.append
            decode_value = self._decode_value
            for _ in range(count):
                item, pos = decode_value(view, pos, end)
                append(item)
            return items, pos
        if tag == _T_FLOAT:
            if pos + 8 > end:
                raise WireError("truncated v2 value")
            (value,) = _FLOAT.unpack_from(view, pos)
            return value, pos + 8
        if tag == _T_NONE:
            return None, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        raise WireError(f"unknown value tag {tag}")


def message_to_frame(message: Message) -> Dict[str, Any]:
    """The JSON (v1) wire record for one protocol message."""
    return {
        "v": JSON_WIRE_VERSION,
        "src": message.src,
        "dst": message.dst,
        "kind": message.kind,
        "payload": message.payload,
        "send_time": message.send_time,
        "msg_id": message.msg_id,
    }


def frame_to_message(record: Dict[str, Any], deliver_time: float) -> Message:
    """Rebuild a :class:`~repro.sim.network.Message` from a data frame."""
    try:
        return Message(
            src=record["src"],
            dst=record["dst"],
            kind=record["kind"],
            payload=record.get("payload"),
            send_time=record.get("send_time", 0.0),
            deliver_time=deliver_time,
            msg_id=record.get("msg_id", 0),
        )
    except KeyError as exc:
        raise WireError(f"data frame missing field {exc}") from exc
