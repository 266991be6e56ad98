"""Length-prefixed frame codec for the socket gateway.

One frame is ``u32 big-endian payload length || payload``, where the
payload is the repo's canonical byte encoding
(:func:`repro.serialization.canonical_encode`) of a str-keyed mapping —
the same self-describing format every hash, signature, and segment-log
record already uses, so the wire inherits the storage layer's
round-trip guarantee: a transaction decoded off the socket re-encodes
to the exact bytes it is hashed and signed over.

Frame bodies always carry ``"op"`` (see the ``OP_*`` constants) and,
for request/response correlation on one connection, ``"seq"``.  Batched
submits put many transaction mappings in one frame (``"txs"``); batched
replies stream back as multiple frames (see :mod:`repro.gateway`'s
design note for the full state machine).

Corruption policy is fail-closed, mirroring :func:`repro.serialization.
canonical_decode`: an oversized length prefix, truncated payload, or a
payload that does not decode to a mapping raises
:class:`~repro.errors.GatewayError` — garbage never half-parses.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Any

from ..errors import GatewayError, SerializationError
from ..persist.codec import (
    canonical_decode,
    transaction_from_mapping,
    transaction_to_mapping,
)
from ..serialization import canonical_encode

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame_payload",
    "read_frame",
    "read_frame_sync",
    "frame_to_txs",
    "txs_to_frame_body",
]

# Hard ceiling on one frame's payload.  A 4-byte prefix could announce
# 4 GiB; a gateway terminating thousands of untrusted capture clients
# must bound what a single frame can make it buffer.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

# Client → server ops.
OP_HELLO = "hello"
OP_SUBMIT = "submit"
OP_OPS = "ops"
OP_PING = "ping"
OP_BYE = "bye"
# Server → client ops.
OP_HELLO_OK = "hello_ok"
OP_RETRY_AFTER = "retry_after"
OP_REPORT = "report"
OP_OPS_OK = "ops_ok"
OP_PONG = "pong"
OP_ERROR = "error"
OP_GOODBYE = "goodbye"

# Wire protocol version: a HELLO carrying a different major version is
# refused with a structured error instead of mis-parsing frames.
PROTOCOL_VERSION = 1


def encode_frame(body: dict) -> bytes:
    """One wire frame for ``body`` (length prefix + canonical bytes)."""
    payload = canonical_encode(body)
    if len(payload) > MAX_FRAME_BYTES:
        raise GatewayError(
            f"frame payload {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling", reason="frame_too_large",
        )
    return _LEN.pack(len(payload)) + payload


def decode_frame_payload(payload: bytes) -> dict:
    """Decode one frame payload back to its body mapping (fail-closed)."""
    try:
        body = canonical_decode(payload)
    except SerializationError as exc:
        raise GatewayError(f"corrupt frame payload: {exc}",
                           reason="corrupt_frame") from None
    if not isinstance(body, dict) or "op" not in body:
        raise GatewayError("frame payload is not an op mapping",
                           reason="corrupt_frame")
    return body


def _check_length(raw: bytes) -> int:
    (length,) = _LEN.unpack(raw)
    if length > MAX_FRAME_BYTES:
        raise GatewayError(
            f"peer announced a {length}-byte frame (ceiling "
            f"{MAX_FRAME_BYTES})", reason="frame_too_large",
        )
    return length


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from ``reader``.

    Returns ``None`` on a clean EOF at a frame boundary (the peer hung
    up between frames — a normal disconnect).  EOF *inside* a frame is
    a truncated write from a dying peer and raises
    :class:`~repro.errors.GatewayError` (``connection_closed``) so the
    caller can count the aborted connection.
    """
    try:
        raw_len = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise GatewayError("peer closed mid-frame (truncated length)",
                           reason="connection_closed") from None
    length = _check_length(raw_len)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise GatewayError("peer closed mid-frame (truncated payload)",
                           reason="connection_closed") from None
    return decode_frame_payload(payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket) -> dict | None:
    """Blocking-socket twin of :func:`read_frame` (same EOF contract)."""
    raw_len = _recv_exact(sock, _LEN.size)
    if not raw_len:
        return None
    if len(raw_len) < _LEN.size:
        raise GatewayError("peer closed mid-frame (truncated length)",
                           reason="connection_closed")
    length = _check_length(raw_len)
    payload = _recv_exact(sock, length)
    if len(payload) < length:
        raise GatewayError("peer closed mid-frame (truncated payload)",
                           reason="connection_closed")
    return decode_frame_payload(payload)


# ---------------------------------------------------------------------------
# Batched submits: one frame = many encoded transactions
# ---------------------------------------------------------------------------
def txs_to_frame_body(txs, seq: int) -> dict:
    """A SUBMIT body carrying a whole batch of transactions."""
    return {
        "op": OP_SUBMIT,
        "seq": seq,
        "txs": [transaction_to_mapping(tx) for tx in txs],
    }


def frame_to_txs(body: dict) -> list:
    """Decode a SUBMIT body's batch; malformed entries fail the frame
    (the gateway answers with a structured error, never a half-batch)."""
    raw = body.get("txs")
    if not isinstance(raw, list):
        raise GatewayError("submit frame carries no transaction list",
                           reason="protocol")
    try:
        return [transaction_from_mapping(m) for m in raw]
    except (KeyError, TypeError, ValueError) as exc:
        raise GatewayError(
            f"submit frame carries a malformed transaction: "
            f"{type(exc).__name__}: {exc}", reason="corrupt_frame",
        ) from None


def error_body(exc: GatewayError, seq: int | None = None) -> dict:
    """A structured ERROR frame body for ``exc``."""
    body: dict[str, Any] = {"op": OP_ERROR}
    body.update(exc.as_dict())
    if seq is not None:
        body["seq"] = seq
    return body
