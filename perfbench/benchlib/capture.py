"""``capture_durable``: an in-process capture source on a durable 4-shard
deployment.

Bursts of events (a provenance record plus its capture transaction) go
through ``IngestPipeline.submit_many`` + ``ShardedChain.ingest_records``
and one ``pipeline.seal_round()`` each.  A trial ends with drain +
``flush_anchors()`` + one more round.  Per-tx commit latency runs from
the burst's submit to the end of the round that sealed and
beacon-anchored the tx's block; it is computed after the clock stops,
from per-round end times and per-shard heights.
"""

from __future__ import annotations

import bisect
import time

from repro.ingest import IngestPipeline
from repro.sharding import ShardedChain, ShardedQueryEngine

from . import inputs, stats
from .common import (N_SHARDS, Ctx, Measured, Trial, audit_sample,
                     check_committed, disk_bytes, executor_used,
                     first_verified_history, remove_tree, restarts,
                     seal_everything)

BURST = 256
#: Bursts a trial primes the deployment with during set-up.
PRIME_BURSTS = 2
#: Events a trial's measured region captures.
TRIAL_EVENTS = 16 * BURST
#: Distinct subjects the capture stream writes to.
N_SUBJECTS = 2048
RESTARTS = 2
AUDIT_SAMPLE = 16


def make_inputs(seed: int) -> dict:
    subjects = inputs.subject_population(N_SUBJECTS)
    events = inputs.capture_events(seed, PRIME_BURSTS * BURST + TRIAL_EVENTS,
                                   subjects)
    return {"events": events,
            "digest": inputs.digest([(r, tx) for r, tx in events])}


def _round(pipeline, log: list, sharded: ShardedChain) -> None:
    pipeline.seal_round()
    log.append((time.perf_counter(),
                tuple(s.chain.height for s in sharded.shards)))


def _ingest(pipeline, sharded, batch, log) -> None:
    """Submit + record ingest; a full queue seals a round and retries
    (a retry that succeeds is not a failure)."""
    report = pipeline.submit_many([tx for _, tx in batch])
    while report.rejected:
        _round(pipeline, log, sharded)
        report = pipeline.submit_many([tx for tx, _ in report.rejected])
    sharded.ingest_records([r for r, _ in batch])


def trial(ctx: Ctx, data: dict, rec=None, roots: list | None = None
          ) -> Trial:
    events = data["events"]
    t = Trial()
    path = ctx.fresh_dir("capture")
    log: list[tuple[float, tuple]] = []
    t0 = time.perf_counter()
    sharded = ShardedChain(N_SHARDS, storage_dir=path)
    pipeline = IngestPipeline(sharded)
    # Set-up ends with primed bursts: first-touch costs (sqlite
    # statement caches, segment files, the seal thread pool) land here.
    start = PRIME_BURSTS * BURST
    for i in range(0, start, BURST):
        _ingest(pipeline, sharded, events[i:i + BURST], log)
        _round(pipeline, log, sharded)
    seal_everything(pipeline)
    t.setup_s = time.perf_counter() - t0
    t.executor = executor_used(sharded)
    bytes0 = disk_bytes(sharded)

    log.clear()
    bursts: list[tuple[float, int]] = []     # (submit time, first event)
    with Measured(rec, roots) as m:
        for i in range(start, len(events), BURST):
            if rec is not None:
                rec.request = f"burst{i // BURST}"
            bursts.append((time.perf_counter(), i))
            _ingest(pipeline, sharded, events[i:i + BURST], log)
            _round(pipeline, log, sharded)
        while pipeline.backlog or sharded.mempool_backlog:
            _round(pipeline, log, sharded)
        sharded.flush_anchors()
        _round(pipeline, log, sharded)
    timed = events[start:]
    t.measured_s = t.ops_wall_s = m.wall_s
    t.ops = len(timed)
    if rec is not None:
        rec.add("persist.bytes_written", disk_bytes(sharded) - bytes0)
        stats = pipeline.stats
        rec.add("ingest.admitted", stats.admitted)
        rec.add("ingest.duplicates", stats.duplicates)
        rec.add("ingest.invalid", stats.invalid)
        rec.add("ingest.queuefull", stats.rejected)

    # Commit latency per tx, from the per-round log (clock stopped).
    ends = [end for end, _ in log]
    per_shard = [[h[s] for _, h in log] for s in range(N_SHARDS)]
    router = sharded.router
    for tb, lo in bursts:
        for _, tx in events[lo:lo + BURST]:
            sid = router.route(tx)
            loc = sharded.shards[sid].storage.blocks.tx_location(tx.tx_id)
            if loc is not None:           # a lost tx fails below
                r = bisect.bisect_left(per_shard[sid], loc[0])
                t.latencies.append(ends[r] - tb)

    check_committed(t, sharded, [tx for _, tx in events])
    sharded.close()
    del pipeline, sharded
    subject = timed[0][0]["subject"]
    sharded = restarts(
        t, RESTARTS,
        lambda: first_verified_history(path, N_SHARDS, subject), rec, roots)
    # Read at rest: closing checkpointed the sqlite WAL, whose high-water
    # size depends on where its checkpoints fell.
    t.stored_bytes = disk_bytes(sharded)
    t.stored_events = len(events)
    # Sampled from the end back, so the last anchor batches — the ones
    # only the final round commits to the beacon — are always audited.
    stride = max(1, len(timed) // AUDIT_SAMPLE)
    audit_sample(t, sharded, ShardedQueryEngine(sharded),
                 [r for r, _ in timed[::-stride][:AUDIT_SAMPLE]])
    sharded.close()
    remove_tree(path)
    return t


def named_metrics(trials: list[Trial], summary: dict) -> dict:
    """The workload's own names for the headline figures, with their
    units and sample counts."""
    n = summary["samples"]
    commits = [x for t in trials for x in t.latencies] or [0.0]
    return {
        "capture_events_per_s": (summary["ops_per_s"], "1/s", n["trials"]),
        "commit_p50_ms": (summary["op_p50_ms"], "ms", n["op_latency"]),
        "commit_p75_ms": (summary["op_tail_ms"], "ms", n["op_latency"]),
        "commit_p90_ms": (stats.percentile(commits, 90.0) * 1e3, "ms",
                          n["op_latency"]),
    }


CONFIG = {"n_shards": N_SHARDS, "burst": BURST, "subjects": N_SUBJECTS,
          "prime_bursts": PRIME_BURSTS, "trial_events": TRIAL_EVENTS,
          "tenants": inputs.N_TENANTS, "restarts_per_trial": RESTARTS,
          "audit_sample": AUDIT_SAMPLE, "library_defaults": True}
#: Every tx of a burst shares its sealing round, so the independent
#: samples are bursts (16 a trial), not txs.  The gated tail is p75;
#: p90 (printed as ``commit_p90_ms``) sits on the slowest ~15 rounds of
#: a run, which fsync stalls move by a quarter from run to run.
TAIL_P = 75.0
OP = "event committed (submit -> end of its sealing round)"
