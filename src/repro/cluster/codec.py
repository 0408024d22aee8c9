"""The wire codec: ``Fact``s and control payloads as versioned byte envelopes.

The synchronous simulator moves :class:`~repro.datalog.terms.Fact` objects
between Python ``Counter`` buffers by reference; a distributed runtime has to
put them on a wire.  This module defines that wire format:

* **values** — a small tagged binary encoding closed under the data values
  the engine actually uses (``None``, bools, arbitrary-precision ints,
  floats, unicode strings, bytes, and arbitrarily nested tuples — node
  identifiers and invented ILOG values are tuples of strings/ints);
* **facts** — relation name + encoded value tuple;
* **envelopes** — a fixed header (magic, codec version, kind, sender,
  round, sequence) followed by a kind-specific body:

  ========  ====================================================
  kind      body
  ========  ====================================================
  DATA      the batch of message facts produced by one transition
  TOKEN     a Safra termination-detection token (count, colour,
            probe number) — see :mod:`repro.cluster.runtime`
  STOP      empty; the initiator's shutdown broadcast
  ========  ====================================================

Decoding is strict: truncated buffers, bad magic, unknown versions, unknown
tags and trailing bytes all raise :class:`CodecError` rather than returning
partial data — a node must never act on a frame it cannot fully parse.
Every integer field is little-endian and length-prefixed payloads carry a
``u32`` length, so the format is platform-independent.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Hashable, Sequence

from ..datalog.terms import Fact

__all__ = [
    "CODEC_VERSION",
    "MAGIC",
    "KIND_DATA",
    "KIND_TOKEN",
    "KIND_STOP",
    "KIND_DELTA",
    "KIND_NAMES",
    "CodecError",
    "TokenState",
    "Envelope",
    "encode_value",
    "decode_value",
    "join_encoded",
    "encode_fact",
    "decode_fact",
    "encode_envelope",
    "decode_envelope",
    "peek_kind",
]

#: First bytes of every frame ("RePro Wire Codec").
MAGIC = b"RPWC"

#: Bumped whenever the wire layout changes; decoders reject everything else.
CODEC_VERSION = 1

KIND_DATA = 1
KIND_TOKEN = 2
KIND_STOP = 3
#: Streaming input injection: like a data envelope on the wire (it carries
#: facts and is counted by the Safra ring), but the facts *extend the
#: receiver's local input fragment* instead of being delivered as messages.
#: The ``round`` field carries the feed epoch index.
KIND_DELTA = 4

KIND_NAMES = {
    KIND_DATA: "data",
    KIND_TOKEN: "token",
    KIND_STOP: "stop",
    KIND_DELTA: "delta",
}

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

# Value tags.
_T_NONE = 0x4E  # 'N'
_T_TRUE = 0x54  # 'T'
_T_FALSE = 0x46  # 'F'
_T_INT = 0x49  # 'I'
_T_FLOAT = 0x44  # 'D'
_T_STR = 0x53  # 'S'
_T_BYTES = 0x42  # 'B'
_T_TUPLE = 0x55  # 'U'


class CodecError(ValueError):
    """Raised on malformed, truncated, or wrong-version wire data, and on
    attempts to encode values outside the wire-representable universe."""


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------


def _encode_value(value: Hashable, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif type(value) is int:
        payload = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
        out.append(_T_INT)
        out += _U32.pack(len(payload))
        out += payload
    elif type(value) is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif type(value) is str:
        payload = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(payload))
        out += payload
    elif type(value) is bytes:
        out.append(_T_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif type(value) is tuple:
        out.append(_T_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(item, out)
    else:
        raise CodecError(
            f"value {value!r} of type {type(value).__name__} is not "
            f"wire-representable (supported: None, bool, int, float, str, "
            f"bytes, tuple)"
        )


class _Reader:
    """A strict cursor over a bytes buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise CodecError(
                f"truncated frame: wanted {count} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def done(self) -> bool:
        return self.pos == len(self.data)


def _decode_value(reader: _Reader) -> Hashable:
    tag = reader.u8()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return int.from_bytes(reader.take(reader.u32()), "little", signed=True)
    if tag == _T_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _T_STR:
        try:
            return reader.take(reader.u32()).decode("utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"invalid utf-8 in string payload: {error}") from None
    if tag == _T_BYTES:
        return bytes(reader.take(reader.u32()))
    if tag == _T_TUPLE:
        count = reader.u32()
        if count > len(reader.data):  # cheap bomb guard: one byte per element min
            raise CodecError(f"tuple length {count} exceeds frame size")
        return tuple(_decode_value(reader) for _ in range(count))
    raise CodecError(f"unknown value tag 0x{tag:02x} at offset {reader.pos - 1}")


def encode_value(value: Hashable) -> bytes:
    """Encode one tagged value to a self-contained byte string.

    The same tagged encoding the envelope bodies use; the checkpoint layer
    (:mod:`repro.cluster.checkpoint`) builds snapshots and write-ahead-log
    entries out of these so durable state shares the wire format's
    versioning and strictness.
    """
    out = bytearray()
    _encode_value(value, out)
    return bytes(out)


def join_encoded(items: Sequence[bytes]) -> bytes:
    """The bytes :func:`encode_value` writes for a tuple whose items
    encode to *items*: the tuple tag, the count, the items concatenated."""
    return bytes((_T_TUPLE,)) + _U32.pack(len(items)) + b"".join(items)


def decode_value(data: bytes) -> Hashable:
    """Decode one tagged value; the buffer must contain exactly one value."""
    reader = _Reader(data)
    value = _decode_value(reader)
    if not reader.done():
        raise CodecError(f"{len(data) - reader.pos} trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# Facts
# ----------------------------------------------------------------------


def _encode_fact(fact: Fact, out: bytearray) -> None:
    relation = fact.relation.encode("utf-8")
    out += _U32.pack(len(relation))
    out += relation
    out += _U32.pack(len(fact.values))
    for value in fact.values:
        _encode_value(value, out)


def encode_fact(fact: Fact) -> bytes:
    """Encode one fact (relation + value tuple) to bytes."""
    out = bytearray()
    _encode_fact(fact, out)
    return bytes(out)


def _decode_fact(reader: _Reader) -> Fact:
    try:
        relation = reader.take(reader.u32()).decode("utf-8")
    except UnicodeDecodeError as error:
        raise CodecError(f"invalid utf-8 in relation name: {error}") from None
    if not relation:
        raise CodecError("fact with empty relation name")
    arity = reader.u32()
    if arity > len(reader.data):
        raise CodecError(f"fact arity {arity} exceeds frame size")
    values = tuple(_decode_value(reader) for _ in range(arity))
    return Fact(relation, values)


def decode_fact(data: bytes) -> Fact:
    """Decode one fact; the buffer must contain exactly one fact."""
    reader = _Reader(data)
    fact = _decode_fact(reader)
    if not reader.done():
        raise CodecError(f"{len(data) - reader.pos} trailing bytes after fact")
    return fact


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TokenState:
    """The payload of a Safra termination token.

    ``count`` accumulates the per-node (sent − received) message counters as
    the token travels the ring; ``black`` records whether any visited node
    received a message since it last forwarded the token; ``probe`` numbers
    the circulation (telemetry: how many ring round-trips quiescence took).
    """

    count: int = 0
    black: bool = False
    probe: int = 1


@dataclass(frozen=True)
class Envelope:
    """One wire frame: header metadata plus a kind-specific body."""

    kind: int
    sender: Hashable
    round: int
    sequence: int
    facts: tuple[Fact, ...] = ()
    token: TokenState | None = None

    def __post_init__(self) -> None:
        if self.kind not in KIND_NAMES:
            raise CodecError(f"unknown envelope kind {self.kind!r}")
        if self.kind == KIND_TOKEN and self.token is None:
            raise CodecError("token envelopes need a TokenState")
        if self.kind not in (KIND_DATA, KIND_DELTA) and self.facts:
            raise CodecError("only data and delta envelopes carry facts")


def encode_envelope(envelope: Envelope) -> bytes:
    """Serialize an envelope to one self-contained frame."""
    out = bytearray()
    out += MAGIC
    out.append(CODEC_VERSION)
    out.append(envelope.kind)
    _encode_value(envelope.sender, out)
    out += _U32.pack(envelope.round)
    out += _U64.pack(envelope.sequence)
    if envelope.kind in (KIND_DATA, KIND_DELTA):
        out += _U32.pack(len(envelope.facts))
        for fact in envelope.facts:
            _encode_fact(fact, out)
    elif envelope.kind == KIND_TOKEN:
        token = envelope.token
        assert token is not None
        _encode_value(int(token.count), out)
        out.append(1 if token.black else 0)
        out += _U32.pack(token.probe)
    return bytes(out)


def decode_envelope(data: bytes) -> Envelope:
    """Parse one frame, validating magic, version, kinds and exact length."""
    reader = _Reader(data)
    magic = reader.take(4)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r} (expected {MAGIC!r})")
    version = reader.u8()
    if version != CODEC_VERSION:
        raise CodecError(
            f"unsupported codec version {version} (this build speaks "
            f"{CODEC_VERSION})"
        )
    kind = reader.u8()
    if kind not in KIND_NAMES:
        raise CodecError(f"unknown envelope kind {kind}")
    sender = _decode_value(reader)
    round_ = reader.u32()
    sequence = reader.u64()
    facts: tuple[Fact, ...] = ()
    token: TokenState | None = None
    if kind in (KIND_DATA, KIND_DELTA):
        count = reader.u32()
        if count > len(reader.data):
            raise CodecError(f"fact count {count} exceeds frame size")
        facts = tuple(_decode_fact(reader) for _ in range(count))
    elif kind == KIND_TOKEN:
        count_value = _decode_value(reader)
        if type(count_value) is not int:
            raise CodecError("token count must be an int")
        colour = reader.u8()
        if colour not in (0, 1):
            raise CodecError(f"token colour must be 0 or 1, got {colour}")
        token = TokenState(
            count=count_value, black=bool(colour), probe=reader.u32()
        )
    if not reader.done():
        raise CodecError(f"{len(data) - reader.pos} trailing bytes after envelope")
    return Envelope(
        kind=kind,
        sender=sender,
        round=round_,
        sequence=sequence,
        facts=facts,
        token=token,
    )


def peek_kind(data: bytes) -> int:
    """The envelope kind of a frame without a full decode (transport fault
    wrappers use this to leave control traffic on the reliable path)."""
    if len(data) < 6 or data[:4] != MAGIC:
        raise CodecError("not an envelope frame")
    if data[4] != CODEC_VERSION:
        raise CodecError(f"unsupported codec version {data[4]}")
    kind = data[5]
    if kind not in KIND_NAMES:
        raise CodecError(f"unknown envelope kind {kind}")
    return kind
