"""``audit_mixed``: restart a closed deployment, then serve verified
audits beside a small share of writes.

Set-up builds and closes a durable 4-shard deployment whose subject
population is several times the query caches (4 shards x 256
``QueryCache`` entries).  The measured part (1) reopens it, timed to
the first verified answer, then (2) runs a closed loop of
``history_verified``, ``trace_verified`` and ``federated_proof`` +
``FederatedProof.verify`` against the beacon header, on Zipf-skewed
subjects.  A write (an ingest burst sealed and anchored) invalidates
the caches of the shards it touches.  The mix keeps the cache hit ratio
well away from 50%, where the query median would sit on the hit/miss
boundary and flip between runs.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.ingest import IngestPipeline
from repro.sharding import ShardedChain, ShardedQueryEngine

from . import inputs
from .common import (N_SHARDS, Ctx, Measured, Trial, check_committed,
                     disk_bytes, executor_used, first_verified_history,
                     remove_tree, restarts, seal_everything)

N_SUBJECTS = 4096
PER_SUBJECT = 2
ZIPF_EXPONENT = 0.9
MIX = inputs.AuditMix()
#: Operations a trial's measured loop runs.
TRIAL_OPS = 2500
WRITE_BURST = 32
BUILD_BURST = 256
RESTARTS = 2

CONFIG = {"n_shards": N_SHARDS, "subjects": N_SUBJECTS,
          "records_per_subject": PER_SUBJECT, "zipf_exponent": ZIPF_EXPONENT,
          "mix": vars(MIX), "trial_ops": TRIAL_OPS,
          "write_burst": WRITE_BURST, "restarts_per_trial": RESTARTS,
          "query_cache_entries": N_SHARDS * 256, "library_defaults": True}
TAIL_P = 99.0
OP = "verified query answered (history_verified / trace_verified)"


def make_inputs(seed: int) -> dict:
    subjects = inputs.subject_population(N_SUBJECTS)
    base = inputs.every_subject_events(seed, subjects, PER_SUBJECT)
    by_subject: dict[str, list[str]] = defaultdict(list)
    for record, _ in base:
        by_subject[record["subject"]].append(record["record_id"])
    ops = inputs.audit_ops(seed, TRIAL_OPS, subjects, by_subject,
                           ZIPF_EXPONENT, MIX)
    n_writes = sum(1 for op in ops if op[0] == "write")
    writes = inputs.capture_events(seed, n_writes * WRITE_BURST, subjects,
                                   prefix="w", stream="writes")
    return {"base": base, "ops": ops, "writes": writes,
            "digest": inputs.digest(base, ops, writes)}


def _ingest(pipeline, sharded, events) -> None:
    report = pipeline.submit_many([tx for _, tx in events])
    if report.rejected:
        raise RuntimeError(f"{len(report.rejected)} txs bounced")
    sharded.ingest_records([r for r, _ in events])


def _proof(t: Trial, sharded, engine, record_id: str, subject: str) -> bool:
    """Build one federated proof and check it against the beacon header
    alone; the check is timed into ``proof_verify_s``."""
    proof = engine.federated_proof(record_id, subject)
    record = sharded.shard_for_subject(subject).database.get(record_id)
    header = sharded.beacon.chain.block_at(proof.beacon_height).header
    v0 = time.perf_counter()
    good = proof.verify(record, header)
    t.proof_verify_s.append(time.perf_counter() - v0)
    return good


def trial(ctx: Ctx, data: dict, rec=None, roots: list | None = None
          ) -> Trial:
    base, ops, writes = data["base"], data["ops"], data["writes"]
    t = Trial()
    path = ctx.fresh_dir("audit")
    t0 = time.perf_counter()
    sharded = ShardedChain(N_SHARDS, storage_dir=path)
    pipeline = IngestPipeline(sharded)
    for i in range(0, len(base), BUILD_BURST):
        _ingest(pipeline, sharded, base[i:i + BUILD_BURST])
        pipeline.seal_round()
    seal_everything(pipeline)
    sharded.close()
    t.setup_s = time.perf_counter() - t0

    subject = base[0][0]["subject"]
    sharded = restarts(
        t, RESTARTS,
        lambda: first_verified_history(path, N_SHARDS, subject), rec, roots)
    engine = ShardedQueryEngine(sharded)
    t.executor = executor_used(sharded)
    pipeline = IngestPipeline(sharded)
    caches = [s.query.cache for s in sharded.shards]
    cache0 = [(c.hits, c.misses, c.invalidations) for c in caches]
    queries0, hit0 = engine.queries, engine.shards_hit
    n_writes = 0
    done = 0
    bytes0 = disk_bytes(sharded)
    with Measured(rec, roots) as m:
        for op in ops:
            if rec is not None:
                rec.request = f"op{done}"
            kind = op[0]
            try:
                q0 = time.perf_counter()
                if kind == "history":
                    good = engine.history_verified(op[1]).verified
                elif kind == "trace":
                    good = engine.trace_verified(op[1], op[2]).verified
                elif kind == "proof":
                    good = _proof(t, sharded, engine, op[1], op[2])
                else:
                    lo = op[1] * WRITE_BURST
                    _ingest(pipeline, sharded, writes[lo:lo + WRITE_BURST])
                    seal_everything(pipeline)
                    n_writes += 1
                    good = True
                if kind in ("history", "trace"):
                    t.latencies.append(time.perf_counter() - q0)
            except Exception as exc:  # a raise is a failed op, not a crash
                good = False
                op = (*op, repr(exc))
            t.check(good, f"{kind} {op[1:]} not verified")
            done += 1
    t.ops = done
    t.measured_s = t.ops_wall_s = m.wall_s
    if rec is not None:
        rec.add("persist.bytes_written", disk_bytes(sharded) - bytes0)
        for c, (h, mi, inv) in zip(caches, cache0):
            rec.add("provenance.cache_hits", c.hits - h)
            rec.add("provenance.cache_misses", c.misses - mi)
            rec.add("provenance.cache_invalidations", c.invalidations - inv)
        rec.add("sharding.queries", engine.queries - queries0)
        rec.add("sharding.shards_hit", engine.shards_hit - hit0)
    t.counters["audit.cache_hit_ratio"] = (
        sum(c.hits - h for c, (h, _, _) in zip(caches, cache0))
        / max(1, sum(c.hits - h + c.misses - mi
                     for c, (h, mi, _) in zip(caches, cache0))))

    written = writes[:n_writes * WRITE_BURST]
    check_committed(t, sharded, [tx for _, tx in base + written])
    t.stored_bytes = disk_bytes(sharded)
    t.stored_events = len(base) + len(written)
    sharded.close()
    remove_tree(path)
    return t


def named_metrics(trials: list[Trial], summary: dict) -> dict:
    n = summary["samples"]
    hit = [t.counters["audit.cache_hit_ratio"] for t in trials
           if "audit.cache_hit_ratio" in t.counters] or [0.0]
    return {
        "audit_ops_per_s": (summary["ops_per_s"], "1/s", n["trials"]),
        "verified_query_p50_ms": (summary["op_p50_ms"], "ms",
                                  n["op_latency"]),
        "verified_query_p99_ms": (summary["op_tail_ms"], "ms",
                                  n["op_latency"]),
        "query_cache_hit_ratio": (sum(hit) / len(hit), "ratio", len(hit)),
    }
