"""Which library calls the traced run wraps, and the per-layer metrics
derived from the spans, hook counters and obs-series deltas.

Span names are ``<layer>.<call>``; the layer names are the library's
package names: gateway, ingest, sharding, chain, persist, storage,
provenance, crypto, sync, network.  Where a layer's only exposure is an
existing obs series (fsync time, verify time, signature-cache hits,
network counters), the bench reads that series' delta instead of
wrapping anything.
"""

from __future__ import annotations

from collections import defaultdict

from repro.chain.blockchain import Blockchain
from repro.chain.transaction import Transaction
from repro.gateway.server import GatewayServer
from repro.ingest.pipeline import IngestPipeline
from repro.network.simnet import SimNet
from repro.obs.runtime import telemetry
from repro.persist.durable import DurableBlockStore, DurableRecordStore
from repro.provenance.anchor import AnchorService
from repro.provenance.query import ProvenanceQueryEngine
from repro.sharding.beacon import BeaconChain
from repro.sharding.query import FederatedProof, ShardedQueryEngine
from repro.sharding.shardchain import ShardedChain
from repro.storage.provdb import ProvenanceDatabase
from repro.sync.replica import ShardReplica
from repro.sync.server import SnapshotServer

from .spans import SpanRecorder, Span, account, descendants

LAYERS = ("gateway", "ingest", "sharding", "chain", "persist", "storage",
          "provenance", "crypto", "sync", "network")


def _after_submit(rec: SpanRecorder, args, _result) -> None:
    rec.note_max("ingest.backlog", args[0].backlog)


def _after_round(rec: SpanRecorder, _args, report) -> None:
    durations = [s.duration_s for s in report.per_shard.values()]
    rec.add("sharding.rounds")
    rec.add("sharding.blocks",
            sum(s.blocks_produced for s in report.per_shard.values()))
    rec.add("sharding.shard_seal_sum_s", sum(durations))
    rec.add("sharding.shard_seal_max_s", max(durations, default=0.0))
    rec.add("sharding.beacon_s", report.beacon_duration_s)


def _after_by_subject(rec: SpanRecorder, _args, rows) -> None:
    rec.add("storage.rows", len(rows))


def _gateway_request(args) -> str:
    # (self, conn, body): the client side tags its ack spans the same way
    return f"conn{args[1].conn_id}"


#: (class, method, span name[, wrapper options])
PATCHES = (
    (GatewayServer, "_handle_submit", "gateway.handle",
     {"request_of": _gateway_request}),
    (IngestPipeline, "submit_many", "ingest.submit",
     {"hook": _after_submit}),
    (IngestPipeline, "pump", "ingest.pump"),
    (IngestPipeline, "seal_round", "ingest.seal_round"),
    (IngestPipeline, "_verify_batch", "crypto.verify_batch"),
    (Transaction, "verify_signature", "crypto.verify_signature"),
    (ShardedChain, "__init__", "sharding.open"),
    (ShardedChain, "seal_round", "sharding.seal_round",
     {"hook": _after_round, "publishes_ambient": True}),
    (ShardedChain, "ingest_records", "sharding.ingest_records"),
    (ShardedChain, "flush_anchors", "sharding.flush_anchors"),
    (ShardedQueryEngine, "history_verified", "sharding.history_verified"),
    (ShardedQueryEngine, "trace_verified", "sharding.trace_verified"),
    (ShardedQueryEngine, "federated_proof", "sharding.federated_proof"),
    (BeaconChain, "prove_shard_block", "sharding.beacon_prove"),
    (BeaconChain, "verify_shard_block", "sharding.beacon_verify"),
    (BeaconChain, "light_bundle", "sharding.light_bundle"),
    (Blockchain, "append_blocks", "chain.append_blocks"),
    (DurableBlockStore, "append_blocks", "persist.block_append"),
    (DurableBlockStore, "block_at", "persist.block_at"),
    (DurableBlockStore, "install_raw", "persist.install_raw"),
    (DurableRecordStore, "append_many", "persist.record_append"),
    (DurableRecordStore, "get", "persist.record_get"),
    (DurableRecordStore, "iter_items", "persist.record_scan"),
    (ProvenanceDatabase, "insert_many", "storage.insert_many"),
    (ProvenanceDatabase, "by_subject", "storage.by_subject",
     {"hook": _after_by_subject}),
    (ProvenanceQueryEngine, "history", "provenance.history"),
    (AnchorService, "prove", "provenance.prove"),
    (AnchorService, "verify", "provenance.verify"),
    (AnchorService, "flush", "provenance.anchor_flush"),
    (AnchorService, "prove_for_light_client", "provenance.prove_light"),
    (FederatedProof, "verify", "provenance.proof_verify"),
    (SnapshotServer, "offer", "sync.offer"),
    (SnapshotServer, "chunk", "sync.chunk"),
    (SnapshotServer, "tail", "sync.tail"),
    (ShardReplica, "catch_up", "sync.catch_up"),
    (SimNet, "send", "network.send"),
    (SimNet, "step", "network.step"),
)

#: Obs series read as deltas: per-layer key -> series name prefix.
OBS_SERIES = {
    "ingest.verify_s": ("histograms", "ingest_verify_seconds"),
    "persist.fsync_s": ("histograms", "persist_fsync_seconds"),
    "persist.fsyncs": ("counters", "persist_fsyncs_total"),
    "gateway.pauses": ("counters", "gateway_pauses_total"),
    "crypto.sig_cache_hits": ("counters", "sig_verify_cache_hits_total"),
    "crypto.sig_cache_misses": ("counters", "sig_verify_cache_misses_total"),
    "network.messages": ("counters", "net_messages_delivered_total"),
    "network.bytes": ("counters", "net_bytes_sent_total"),
}


def obs_totals() -> dict[str, float]:
    """Current totals of :data:`OBS_SERIES` in the process registry
    (histograms contribute their sum; labels are summed over)."""
    snap = telemetry().registry.snapshot()
    out = {}
    for key, (kind, prefix) in OBS_SERIES.items():
        total = 0.0
        for name, value in snap[kind].items():
            if name == prefix or name.startswith(prefix + "{"):
                total += value["sum"] if kind == "histograms" else value
        out[key] = total
    return out


def obs_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0.0) for k in after}


#: The per-layer metrics every traced run reports, with units.
PER_LAYER = {
    "gateway.handle_s": "s", "gateway.wire_s": "s",
    "gateway.frames": "count", "gateway.retry_after": "count",
    "gateway.pauses": "count",
    "ingest.submit_s": "s", "ingest.pump_s": "s",
    "ingest.backlog_max": "count", "ingest.admitted": "count",
    "ingest.duplicates": "count", "ingest.invalid": "count",
    "ingest.queuefull": "count", "ingest.verify_s": "s",
    "crypto.sig_cache_hit_ratio": "ratio",
    "sharding.seal_round_s": "s", "sharding.shard_seal_sum_s": "s",
    "sharding.shard_seal_max_s": "s", "sharding.seal_overlap": "ratio",
    "sharding.beacon_s": "s", "sharding.rounds": "count",
    "sharding.blocks_per_round": "count",
    "sharding.beacon_proof_s": "s",
    "sharding.shards_hit_per_query": "count",
    "sharding.light_bundle_s": "s",
    "chain.append_s": "s",
    "persist.block_append_s": "s", "persist.record_append_s": "s",
    "persist.fsync_s": "s", "persist.fsyncs": "count",
    "persist.bytes_written": "B",
    "persist.record_get_s": "s", "persist.record_gets": "count",
    "persist.block_at_s": "s", "persist.record_scan_s": "s",
    "persist.install_raw_s": "s",
    "storage.insert_many_s": "s", "storage.by_subject_s": "s",
    "storage.rows_per_query": "count",
    "provenance.query_s": "s", "provenance.cache_hit_ratio": "ratio",
    "provenance.cache_invalidations": "count",
    "provenance.prove_s": "s", "provenance.verify_s": "s",
    "provenance.anchor_flush_s": "s", "provenance.proof_verify_s": "s",
    "sync.offer_s": "s", "sync.chunk_s": "s", "sync.tail_s": "s",
    "sync.mib_per_s": "MiB/s",
    "network.messages": "count", "network.bytes": "B",
    "obs.trace_overhead": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.unattributed_share": "ratio",
    "trace.parallelism": "ratio",
    "trace.wall_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span], roots: list[Span],
                      counters: dict[str, float], obs: dict[str, float],
                      trace_overhead: float) -> dict[str, float]:
    """Fold one workload's traced trials into :data:`PER_LAYER`.

    ``spans`` hold every process's spans (orphans already adopted);
    ``roots`` are the traced trials' measured regions — only spans under
    them count, so the post-run correctness checks do not; ``counters``
    are hook and workload counters; ``obs`` the obs-series deltas.
    """
    dur: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in (s for root in roots for s in descendants(spans, root.sid)):
        dur[s.name] += s.duration
        calls[s.name] += 1
    wall = unattributed = self_total = 0.0
    layer_time: dict[str, float] = defaultdict(float)
    for root in roots:
        acc = account(spans, root)
        wall += acc["wall_s"]
        unattributed += acc["unattributed_s"]
        self_total += acc["self_total_s"]
        for layer, value in acc["layer_s"].items():
            layer_time[layer] += value
    c = defaultdict(float, counters)
    rounds = c["sharding.rounds"]
    m = {
        "gateway.handle_s": dur["gateway.handle"],
        "gateway.wire_s": dur["gateway.ack"] - dur["gateway.handle"],
        "gateway.frames": calls["gateway.handle"],
        "gateway.retry_after": c["gateway.retry_after"],
        "gateway.pauses": obs["gateway.pauses"],
        "ingest.submit_s": dur["ingest.submit"],
        "ingest.pump_s": dur["ingest.pump"],
        "ingest.backlog_max": c["ingest.backlog_max"],
        "ingest.admitted": c["ingest.admitted"],
        "ingest.duplicates": c["ingest.duplicates"],
        "ingest.invalid": c["ingest.invalid"],
        "ingest.queuefull": c["ingest.queuefull"],
        "ingest.verify_s": obs["ingest.verify_s"],
        "crypto.sig_cache_hit_ratio": _ratio(
            obs["crypto.sig_cache_hits"],
            obs["crypto.sig_cache_hits"] + obs["crypto.sig_cache_misses"]),
        "sharding.seal_round_s": dur["sharding.seal_round"],
        "sharding.shard_seal_sum_s": c["sharding.shard_seal_sum_s"],
        "sharding.shard_seal_max_s": c["sharding.shard_seal_max_s"],
        "sharding.seal_overlap": _ratio(c["sharding.shard_seal_sum_s"],
                                        dur["sharding.seal_round"]),
        "sharding.beacon_s": c["sharding.beacon_s"],
        "sharding.rounds": rounds,
        "sharding.blocks_per_round": _ratio(c["sharding.blocks"], rounds),
        "sharding.beacon_proof_s": (dur["sharding.beacon_prove"]
                                    + dur["sharding.beacon_verify"]),
        "sharding.shards_hit_per_query": _ratio(c["sharding.shards_hit"],
                                                c["sharding.queries"]),
        "sharding.light_bundle_s": dur["sharding.light_bundle"],
        "chain.append_s": dur["chain.append_blocks"],
        "persist.block_append_s": dur["persist.block_append"],
        "persist.record_append_s": dur["persist.record_append"],
        "persist.fsync_s": obs["persist.fsync_s"],
        "persist.fsyncs": obs["persist.fsyncs"],
        "persist.bytes_written": c["persist.bytes_written"],
        "persist.record_get_s": dur["persist.record_get"],
        "persist.record_gets": calls["persist.record_get"],
        "persist.block_at_s": dur["persist.block_at"],
        "persist.record_scan_s": dur["persist.record_scan"],
        "persist.install_raw_s": dur["persist.install_raw"],
        "storage.insert_many_s": dur["storage.insert_many"],
        "storage.by_subject_s": dur["storage.by_subject"],
        "storage.rows_per_query": _ratio(c["storage.rows"],
                                         calls["storage.by_subject"]),
        "provenance.query_s": dur["provenance.history"],
        "provenance.cache_hit_ratio": _ratio(
            c["provenance.cache_hits"],
            c["provenance.cache_hits"] + c["provenance.cache_misses"]),
        "provenance.cache_invalidations": c["provenance.cache_invalidations"],
        "provenance.prove_s": dur["provenance.prove"],
        "provenance.verify_s": dur["provenance.verify"],
        "provenance.anchor_flush_s": dur["provenance.anchor_flush"],
        "provenance.proof_verify_s": dur["provenance.proof_verify"],
        "sync.offer_s": dur["sync.offer"],
        "sync.chunk_s": dur["sync.chunk"],
        "sync.tail_s": dur["sync.tail"],
        "sync.mib_per_s": _ratio(c["sync.bytes"] / (1024 * 1024),
                                 c["sync.catchup_s"]),
        "network.messages": obs["network.messages"],
        "network.bytes": obs["network.bytes"],
        "obs.trace_overhead": trace_overhead,
        "trace.unattributed_share": _ratio(unattributed, wall),
        "trace.parallelism": _ratio(self_total, wall),
        "trace.wall_s": wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_time[layer], wall)
    return m
