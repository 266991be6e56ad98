"""``replica_catchup``: fresh replicas catch up from a durable source.

Set-up builds and closes a durable single-shard source.  The measured
part reopens it (timed to the first verified answer), serves it over
``SimNet`` through a ``SnapshotServer``, then repeatedly calls
``ShardedChain.spawn_replica(...).catch_up()`` into a fresh directory:
offer, image chunks and block tail, each checked against the beacon.
Every replica must end on the source's head hash and state root, and
must serve a federated proof that verifies against the source's beacon.
"""

from __future__ import annotations

import os
import time

from repro.ingest import IngestPipeline
from repro.network import ChainNode, LatencyModel, SimNet
from repro.persist import DurableStorage
from repro.sharding import ShardedChain, ShardedQueryEngine
from repro.sync import SnapshotServer

from . import inputs
from .common import (Ctx, Measured, Trial, check_committed, executor_used,
                     remove_tree, restarts, seal_everything)

N_SOURCE_EVENTS = 600
BUILD_BURST = 256
N_SUBJECTS = 512
PROOF_SAMPLE = 2
#: A trial reopens the source RESTARTS times, each followed by
#: CATCHUPS_PER_RESTART measured catch-ups.
RESTARTS = 2
CATCHUPS_PER_RESTART = 4

CONFIG = {"n_shards": 1, "source_events": N_SOURCE_EVENTS,
          "build_burst": BUILD_BURST, "subjects": N_SUBJECTS,
          "network": "SimNet(LatencyModel(base=1, jitter=0))",
          "proof_sample_per_catchup": PROOF_SAMPLE,
          "restarts_per_trial": RESTARTS,
          "catchups_per_restart": CATCHUPS_PER_RESTART,
          "library_defaults": True}
TAIL_P = 75.0
OP = "replica caught up (spawn_replica + catch_up to the source head)"


def make_inputs(seed: int) -> dict:
    events = inputs.capture_events(
        seed, N_SOURCE_EVENTS, inputs.subject_population(N_SUBJECTS),
        prefix="s", stream="source")
    return {"events": events, "digest": inputs.digest(events)}


def reopen_and_audit(path: str, subjects: list[str]
                     ) -> tuple[ShardedChain, bool]:
    """Reopen the source and answer a verified history for every
    sampled subject: the source is back in service once it can prove
    what it holds (a single answer takes ~40 ms and is mostly jitter)."""
    source = ShardedChain(1, storage_dir=path)
    engine = ShardedQueryEngine(source)
    return source, all(engine.history_verified(s).verified
                       for s in subjects)


def _catch_up(t: Trial, n: int, source: ShardedChain, net, workdir: str,
              events, sample, rec) -> None:
    """One fresh replica caught up, checked against the source, closed
    and removed."""
    shard = source.shards[0]
    rdir = os.path.join(workdir, f"replica-{n}")
    c0 = time.perf_counter()
    replica = source.spawn_replica(0, rdir, net, peers=["source"])
    report = replica.catch_up()
    elapsed = time.perf_counter() - c0
    t.latencies.append(elapsed)
    t.ops += report.blocks_installed
    t.ops_wall_s += elapsed
    if rec is not None:
        rec.add("sync.bytes", report.bytes_received)
        rec.add("sync.catchup_s", elapsed)
    same = (replica.chain.head.block_hash == shard.chain.head.block_hash
            and replica.chain.state.state_root()
            == shard.chain.state.state_root())
    t.check(same, f"replica {n} head/state root differ from source")
    beacon = source.beacon.chain
    for k in range(PROOF_SAMPLE):
        record = sample[(n * PROOF_SAMPLE + k) % len(sample)]
        proof = replica.federated_proof(record["record_id"])
        header = beacon.block_at(proof.beacon_height).header
        stored = replica.query.database.get(record["record_id"])
        v0 = time.perf_counter()
        good = proof.verify(stored, header)
        t.proof_verify_s.append(time.perf_counter() - v0)
        t.check(good, f"replica proof {record['record_id']} failed")
    replica.close()
    storage = DurableStorage(rdir)
    t.stored_bytes += storage.disk_usage()
    t.stored_events += len(events)
    storage.close()
    remove_tree(rdir)


def trial(ctx: Ctx, data: dict, rec=None, roots: list | None = None
          ) -> Trial:
    events = data["events"]
    t = Trial()
    path = ctx.fresh_dir("source")
    t0 = time.perf_counter()
    source = ShardedChain(1, storage_dir=path)
    pipeline = IngestPipeline(source)
    for i in range(0, len(events), BUILD_BURST):
        burst = events[i:i + BUILD_BURST]
        pipeline.submit_many([tx for _, tx in burst])
        source.ingest_records([r for r, _ in burst])
        pipeline.seal_round()
    seal_everything(pipeline)
    source.close()
    t.setup_s = time.perf_counter() - t0

    stride = max(1, len(events) // 97)
    sample = [r for r, _ in events[::stride]]
    subjects = sorted({r["subject"] for r in sample})
    # Restarts are spread through the trial, between groups of
    # catch-ups, so they sample the same machine conditions.
    for group in range(RESTARTS):
        source = restarts(t, 1, lambda: reopen_and_audit(path, subjects),
                          rec, roots)
        t.executor = executor_used(source)
        net = SimNet(LatencyModel(base=1, jitter=0), seed=ctx.seed)
        ChainNode("source", net).serve_sync(SnapshotServer(source))
        with Measured(rec, roots) as m:
            for k in range(CATCHUPS_PER_RESTART):
                n = group * CATCHUPS_PER_RESTART + k
                try:
                    _catch_up(t, n, source, net, ctx.workdir, events,
                              sample, rec)
                except Exception as exc:  # a raise is a failed catch-up
                    t.check(False, f"catch-up {n} raised {exc!r}")
        t.measured_s += m.wall_s
        if group < RESTARTS - 1:
            source.close()
    check_committed(t, source, [tx for _, tx in events])
    source.close()
    remove_tree(path)
    return t


def named_metrics(trials: list[Trial], summary: dict) -> dict:
    n = summary["samples"]
    return {
        "catchup_s": (summary["op_p50_ms"] / 1e3, "s", n["op_latency"]),
        "catchup_p75_s": (summary["op_tail_ms"] / 1e3, "s",
                          n["op_latency"]),
        "blocks_installed_per_s": (summary["ops_per_s"], "1/s",
                                   n["trials"]),
        "replica_bytes_per_event": (summary["stored_bytes_per_event"], "B",
                                    n["trials"]),
    }
