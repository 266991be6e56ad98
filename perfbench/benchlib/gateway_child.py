"""The gateway server process ``capture_gateway`` starts.

A ``GatewayServer(auto_seal=True)`` in front of a durable 4-shard
deployment that requires and verifies signatures.  It prints
``PORT <n>`` once it listens, serves until its standard input closes,
then drains, closes the deployment and writes what it recorded (spans
when traced, obs-series deltas, ingest counters) as JSON to ``--out``.

    python3 perfbench/benchlib/gateway_child.py --dir D --seed S \
        --signers N --trace 0 --out F
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"),
                os.path.dirname(HERE)]

from repro.gateway import GatewayServer  # noqa: E402
from repro.ingest import IngestPipeline  # noqa: E402
from repro.sharding import ShardedChain  # noqa: E402

from benchlib import inputs, layers  # noqa: E402
from benchlib.common import N_SHARDS, executor_used  # noqa: E402
from benchlib.spans import Patcher, SpanRecorder  # noqa: E402


async def serve(server: GatewayServer) -> None:
    host, port = await server.start()
    print(f"PORT {port}", flush=True)
    loop = asyncio.get_running_loop()
    closed = asyncio.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        loop.call_soon_threadsafe(closed.set)

    reader = threading.Thread(target=wait_for_eof, daemon=True)
    reader.start()
    await closed.wait()
    await server.drain()
    reader.join()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--signers", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    inputs.signer_keys(args.seed, args.signers)   # registers the keys
    rec = SpanRecorder()
    obs0 = layers.obs_totals()
    with Patcher(rec, layers.PATCHES if args.trace else ()):
        sharded = ShardedChain(N_SHARDS, storage_dir=args.dir)
        for shard in sharded.shards:
            shard.chain.params.require_signatures = True
        pipeline = IngestPipeline(sharded, verify_signatures=True)
        server = GatewayServer(pipeline, auto_seal=True)
        try:
            asyncio.run(serve(server))
        finally:
            sharded.close()
    stats = pipeline.stats
    counters = dict(rec.counters)
    counters.update(layers.obs_delta(obs0, layers.obs_totals()))
    counters.update({
        "ingest.admitted": stats.admitted,
        "ingest.duplicates": stats.duplicates,
        "ingest.invalid": stats.invalid,
        "ingest.queuefull": stats.rejected,
        "ingest.backlog_max": rec.maxima.get("ingest.backlog", 0.0),
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"spans": [s._asdict() for s in rec.spans],
                   "counters": counters,
                   "executor": executor_used(sharded)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
