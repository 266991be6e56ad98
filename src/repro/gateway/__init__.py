"""Socket gateway: the network front door to the ingest pipeline.

Until this package, "capture clients" were function calls: every
provenance event entered through in-process
:meth:`~repro.ingest.pipeline.IngestPipeline.submit`.  The gateway
turns the pipeline's admission contract into a wire protocol so O(1000)
real capture processes — IoT sensors, supply-chain scanners, audit
shims — can stream transactions over TCP into one chain deployment,
with the same never-drop, backpressure-first semantics the in-process
path guarantees.

Design note
===========

Frame format
------------

One frame is ``u32 big-endian payload length || payload``; the payload
is :func:`repro.serialization.canonical_encode` of a str-keyed mapping.
That is deliberately the codec every hash and signature already uses
(:mod:`repro.serialization` owns both directions), so the wire format
inherits the storage format's round-trip guarantee: a transaction
decoded off the socket re-encodes to the exact bytes it is hashed and
signed over — signatures verify server-side with no re-signing, and a
gateway-submitted batch seals to byte-identical blocks, Merkle roots,
and shard-beacon commitments as the same batch submitted in process
(``tests/test_gateway.py`` pins this).  Frames above a 16 MiB ceiling,
truncated frames, and payloads that do not decode to an op mapping are
refused fail-closed with structured ``error`` frames
(:class:`~repro.errors.GatewayError`), never half-parsed.

Every request carries ``op`` and ``seq``; replies echo ``seq``.  Ops:

====================  ===================================================
client → server       ``hello`` (proto + tenant), ``submit`` (a batch of
                      transaction mappings), ``ops``, ``ping``, ``bye``
server → client       ``hello_ok``, streamed ``retry_after`` chunks +
                      one final ``report`` per submit, ``ops_ok``,
                      ``pong``, ``error``, ``goodbye``
====================  ===================================================

Backpressure state machine
--------------------------

A SUBMIT batch goes through ``pipeline.submit_many`` — bounded queues,
never blocking, never dropping.  Per connection the server then walks:

``OPEN`` —(submit, all queued)→ ``OPEN`` (final ``report`` only,
``strikes := 0``)

``OPEN`` —(submit, some bounced)→ ``OPEN``: each bounced transaction
rides a ``retry_after`` chunk carrying the full structured
:class:`~repro.errors.QueueFull` mapping (depth, capacity, watermark,
``retry_after_s`` — EWMA round pace × rounds, clamped to the
:data:`~repro.errors.RETRY_AFTER_FLOOR_S` floor so a client honoring it
verbatim never hot-loops); ``strikes += 1``.

``OPEN`` —(strikes ≥ pause_after)→ ``PAUSED``: the server stops
*reading* the connection for the advertised retry-after (capped at
``pause_cap_s``), so a client that ignores hints is throttled by its
own kernel socket buffer instead of monopolizing the event loop;
counted in ``gateway_pauses_total``.  Any fully-queued submit resets to
``OPEN``.

Client side, :meth:`~repro.gateway.client.AsyncGatewayClient.
submit_with_retry` sleeps the larger of the server hint and
:class:`~repro.net_retry.RetryPolicy`'s exponential schedule
(:func:`~repro.net_retry.sleep_backoff`), resubmits only the bounced
tail, and — when the attempt budget runs out — raises
``GatewayError(reason="backpressure_budget")`` with the still-pending
transactions attached.  Between the queues' never-drop and the client's
pending-or-queued invariant, a capture event is only ever *somewhere*:
queued, sealed, or explicitly handed back.

Drain semantics
---------------

:meth:`~repro.gateway.server.GatewayServer.drain` is the graceful
shutdown, in contract order: (1) the acceptor closes — new connects are
refused at the socket; (2) in-flight submits finish and their streamed
reports flush, while later submits get ``error/"draining"`` frames;
(3) the pipeline pumps and seals until queues and mempools are empty;
(4) every surviving client receives ``goodbye`` and is closed.  A peer
that disconnects mid-reply is counted — every unflushed frame lands on
``gateway_frames_undeliverable_total`` (the same series
:class:`~repro.network.simnet.SimNet` uses for replies racing an
``unregister``) — and never aborts the accept loop.
"""

from .client import AsyncGatewayClient, GatewayClient, SubmitResult
from .frames import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
    read_frame_sync,
)
from .server import GatewayServer

__all__ = [
    "AsyncGatewayClient",
    "GatewayClient",
    "GatewayServer",
    "SubmitResult",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "encode_frame",
    "read_frame",
    "read_frame_sync",
]
