"""``capture_gateway``: signed capture transactions over loopback TCP.

The bench starts a server process (``gateway_child.py``) in front of a
durable 4-shard deployment, opens one connection and, from one caller
thread, keeps one batched submit frame outstanding on it — a closed
loop.  One connection, not one per core: the server's event loop and
its sealing thread already fill both cores of a 2-core host, and a
second connection's frame queued behind the first made the ack time
measure the scheduler.  The ack is the frame's submit -> report round
trip (``submit_with_retry``: a bounced frame retries and still counts
once).  Once every frame is acked, the bench polls the ops frame until
``txs_sealed_total`` covers everything submitted; the events/s figure
runs to that point.  Afterwards the server drains and exits and the
bench reopens the store: every tx must be on its home chain.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time

from repro.errors import ReproError
from repro.gateway import AsyncGatewayClient
from repro.net_retry import RetryPolicy
from repro.sharding import ShardedChain

from . import inputs, stats
from .common import (N_SHARDS, Ctx, Measured, Trial, check_committed,
                     disk_bytes, remove_tree, restarts)
from .spans import Span

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "gateway_child.py")
CONNECTIONS = 1
FRAME = 64
N_SIGNERS = 32
N_SUBJECTS = 2048
#: Frames a trial's measured region sends (after one primed frame per
#: connection).
TRIAL_FRAMES = 64
RESTARTS = 2
#: Generous: a frame bounced by a full queue retries rather than fails.
POLICY = RetryPolicy(max_retries=200, tick_s=0.001, max_backoff_ticks=64)
CHILD_TIMEOUT_S = 60.0

CONFIG = {"n_shards": N_SHARDS, "connections": CONNECTIONS,
          "frame_txs": FRAME, "signers": N_SIGNERS,
          "subjects": N_SUBJECTS, "trial_frames": TRIAL_FRAMES,
          "restarts_per_trial": RESTARTS,
          "verify_signatures": True, "require_signatures": True,
          "auto_seal": True, "library_defaults": True}
#: The gated tail.  p99 (printed as ``ack_p99_ms``, context only) has
#: fewer than 10 of a run's ~640 acks beyond it.
TAIL_P = 90.0
OP = "submit frame acked (client submit -> server report)"


def make_inputs(seed: int) -> dict:
    keys = inputs.signer_keys(seed, N_SIGNERS)
    txs = inputs.signed_txs(seed, (CONNECTIONS + TRIAL_FRAMES) * FRAME, keys,
                            inputs.subject_population(N_SUBJECTS))
    frames = [txs[i:i + FRAME] for i in range(0, len(txs), FRAME)]
    return {"frames": frames, "digest": inputs.digest(txs)}


async def _sealed(client: AsyncGatewayClient) -> int:
    body = await client.ops()
    return int(body["snapshot"]["counters"].get("txs_sealed_total", 0))


async def _wait_sealed(client: AsyncGatewayClient, target: int) -> None:
    while await _sealed(client) < target:
        await asyncio.sleep(0.005)


async def _drive(port: int, frames: list, t: Trial, t_start: float,
                 rec, roots) -> None:
    """Prime, then run the closed loop over the remaining frames."""
    clients = [await AsyncGatewayClient.connect(
        "127.0.0.1", port, tenant=f"fleet-{k}", policy=POLICY)
        for k in range(CONNECTIONS)]
    # Set-up ends once one primed frame per connection is committed.
    for k, client in enumerate(clients):
        await client.submit_with_retry(frames[k])
    await _wait_sealed(clients[0], CONNECTIONS * FRAME)
    t.setup_s = time.perf_counter() - t_start

    next_frame = CONNECTIONS
    retried = 0

    async def loop(client: AsyncGatewayClient) -> None:
        nonlocal next_frame, retried
        request = f"conn{client.conn_id}"
        while next_frame < len(frames):
            batch = frames[next_frame]
            next_frame += 1
            t0 = time.perf_counter()
            if rec is not None:
                with rec.span("gateway.ack", request=request):
                    result = await client.submit_with_retry(batch)
            else:
                result = await client.submit_with_retry(batch)
            t.latencies.append(time.perf_counter() - t0)
            t.check(result.queued == len(batch),
                    f"frame queued {result.queued}/{len(batch)}")
            retried += result.attempts > 1

    with Measured(rec, roots) as m:
        await asyncio.gather(*(loop(c) for c in clients))
        await _wait_sealed(clients[0], len(frames) * FRAME)
    t.ops = (len(frames) - CONNECTIONS) * FRAME
    t.measured_s = t.ops_wall_s = m.wall_s
    t.counters["gateway.retry_after"] = retried
    for client in clients:
        await client.close()


def reopen_and_verify(path: str, txs: list) -> tuple[ShardedChain, bool]:
    """Reopen the deployment the server left and verify what its acks
    promised: the chains verify, every acknowledged tx is on its home
    chain, and the newest one's block is proven under a beacon header."""
    sharded = ShardedChain(N_SHARDS, storage_dir=path)
    try:
        sharded.verify_all()
    except ReproError:
        return sharded, False
    router = sharded.router
    for tx in txs:
        shard = sharded.shards[router.route(tx)]
        if shard.storage.blocks.tx_location(tx.tx_id) is None:
            return sharded, False
    shard = sharded.shards[router.route(txs[-1])]
    block = shard.chain.find_transaction(txs[-1].tx_id)[0]
    bundle = sharded.beacon.light_bundle(shard.shard_id, block.height,
                                         block.block_hash)
    header = sharded.beacon.chain.block_at(
        bundle.shard_proof.beacon_height).header
    return sharded, bundle.verify(header)


def trial(ctx: Ctx, data: dict, rec=None, roots: list | None = None
          ) -> Trial:
    frames = data["frames"]
    t = Trial()
    path = ctx.fresh_dir("gateway")
    out = path + ".child.json"
    t_start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, "--dir", path, "--seed", str(ctx.seed),
         "--signers", str(N_SIGNERS), "--trace", "1" if rec else "0",
         "--out", out],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"gateway server did not start: {line!r}")
        asyncio.run(_drive(int(line.split()[1]), frames, t, t_start,
                           rec, roots))
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    t.check(proc.returncode == 0,
            f"gateway server exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        child = json.load(fh)
    os.remove(out)
    t.executor = child["executor"]
    t.spans = [Span(**row) for row in child["spans"]]
    t.counters.update(child["counters"])

    txs = [tx for frame in frames for tx in frame]
    sharded = restarts(t, RESTARTS, lambda: reopen_and_verify(path, txs),
                       rec, roots)
    check_committed(t, sharded, txs)
    t.stored_bytes = disk_bytes(sharded)
    t.stored_events = len(txs)
    if rec is not None:
        rec.add("persist.bytes_written", t.stored_bytes)
    sharded.close()
    remove_tree(path)
    return t


def named_metrics(trials: list[Trial], summary: dict) -> dict:
    n = summary["samples"]
    acks = [x for t in trials for x in t.latencies] or [0.0]
    return {
        "gateway_events_per_s": (summary["ops_per_s"], "1/s", n["trials"]),
        "ack_p50_ms": (summary["op_p50_ms"], "ms", n["op_latency"]),
        "ack_p90_ms": (summary["op_tail_ms"], "ms", n["op_latency"]),
        "ack_p99_ms": (stats.percentile(acks, 99.0) * 1e3, "ms",
                       n["op_latency"]),
    }
