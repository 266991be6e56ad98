"""``ShardedChain``: N independent chain stacks behind one facade.

Each shard owns a full vertical slice — :class:`Blockchain`,
:class:`Mempool`, :class:`ProvenanceDatabase`, :class:`AnchorService`,
:class:`ProvenanceQueryEngine` — so shards share *nothing* and, on a real
deployment, run on separate machines.  The facade:

* routes submitted transactions and ingested records to their home shard
  (:class:`~repro.sharding.router.ShardRouter`),
* seals one block per loaded shard per **round** (:meth:`seal_round`) and
  anchors every block produced in the round into the
  :class:`~repro.sharding.beacon.BeaconChain`,
* maintains the cross-shard lock table the two-phase-commit coordinator
  uses (a transaction touching a locked subject is deferred, not lost),
* reports per-shard seal timings so the scaling benchmark can model the
  deployment's critical path (shards seal concurrently; the round takes
  as long as its slowest shard plus the beacon commit).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..chain import Blockchain, ChainParams, Mempool, Transaction
from ..chain.block import Block
from ..errors import (
    QueueFull,
    RETRY_AFTER_FLOOR_S,
    ReproError,
    ShardError,
)
from ..obs.runtime import telemetry as default_telemetry
from ..provenance.anchor import AnchorReceipt, AnchorService
from ..provenance.query import ProvenanceQueryEngine, QueryCache
from ..storage.provdb import ProvenanceDatabase
from .beacon import BeaconChain, BeaconReceipt
from .router import ShardRouter, namespace_of

#: Seal engines :meth:`ShardedChain.seal_round` accepts.
EXECUTORS = ("serial", "process")


class Shard:
    """One shard's full stack (chain, mempool, database, anchors, queries).

    With a :class:`~repro.persist.durable.DurableStorage` attached, the
    chain, record database, and state snapshot live in the shard's store
    directory, and anchor-service state is checkpointed into the store's
    meta table — reopening the same directory restores the whole stack
    without genesis replay.  Mempool contents are deliberately *not*
    persisted: an unsealed transaction was never acknowledged as durable.
    """

    _ANCHOR_META_KEY = "anchor_state"

    def __init__(self, shard_id: int, params: ChainParams,
                 anchor_batch_size: int = 64,
                 storage=None, snapshot_interval: int = 0,
                 contract_runtime_factory=None) -> None:
        self.shard_id = shard_id
        self.storage = storage
        runtime = (contract_runtime_factory()
                   if contract_runtime_factory is not None else None)
        if storage is None:
            self.chain = Blockchain(params, contract_runtime=runtime)
            self.database = ProvenanceDatabase()
        else:
            self.chain = Blockchain(
                params,
                store=storage.blocks,
                snapshot_store=storage.state,
                snapshot_interval=snapshot_interval,
                contract_runtime=runtime,
            )
            self.database = ProvenanceDatabase(store=storage.records)
        self.mempool = Mempool()
        self.anchor = AnchorService(
            self.chain,
            batch_size=anchor_batch_size,
            sender=f"shard-{shard_id}-anchor",
        )
        if storage is not None:
            anchor_state = storage.get_meta(self._ANCHOR_META_KEY)
            if anchor_state is not None:
                self.anchor.restore_state(anchor_state)
        self.query = ProvenanceQueryEngine(
            self.database, anchor_service=self.anchor, cache=QueryCache()
        )

    def checkpoint(self) -> None:
        """Persist anchor state + state snapshot + fsync (durable only)."""
        if self.storage is None:
            return
        self.storage.put_meta(self._ANCHOR_META_KEY,
                              self.anchor.dump_state())
        self.chain.checkpoint()
        self.storage.sync()

    def close(self) -> None:
        if self.storage is None:
            return
        self.checkpoint()
        self.storage.close()


@dataclass(frozen=True)
class LockEntry:
    """One cross-shard lock: owner, holder epoch, and lease expiry.

    ``epoch`` is the coordinator generation that took the lock — a
    recovered coordinator (higher epoch) may reclaim entries from dead
    generations, and protocol legs from a fenced (lower) epoch are
    refused at submit time.  ``expires_round`` is the sealing round
    after which the lease is stale: a live coordinator renews its
    leases every round tick, so an expired lease means its holder died
    without unlocking and the facade may drop it.
    """

    xid: str
    epoch: int = 0
    expires_round: int = 0


@dataclass(frozen=True)
class ShardSealStats:
    """What one shard did in one sealing round.

    ``duration_s`` covers the shard's whole round of work: admission of
    the transactions routed to it since the previous round (accumulated
    by :meth:`ShardedChain.submit_many`) plus block build and execution.
    """

    txs_sealed: int
    blocks_produced: int
    duration_s: float
    mempool_backlog: int


@dataclass
class _ShardJob:
    """One shard's share of a sealing round: the blocks popped from its
    mempool, its own time in the round so far, and the error that
    stopped it, if any.  ``frames``, ``widx`` and ``wire`` are set only
    for a job shipped to the process pool."""

    shard_id: int
    blocks: list[Block] = field(default_factory=list)
    txs_sealed: int = 0
    trace_ctx: Any = None
    active_s: float = 0.0
    error: Exception | None = None
    frames: list[bytes] = field(default_factory=list)
    widx: int = 0
    wire: bytes | None = None


@dataclass(frozen=True)
class RoundReport:
    """Outcome of one :meth:`ShardedChain.seal_round`."""

    round_no: int
    per_shard: Mapping[int, ShardSealStats]
    beacon_receipt: BeaconReceipt | None
    beacon_duration_s: float
    #: Shards whose seal failed this round (quarantine mode only):
    #: shard id -> structured error dict (reason / message / streak).
    failed_shards: Mapping[int, dict] = field(default_factory=dict)

    @property
    def txs_sealed(self) -> int:
        return sum(s.txs_sealed for s in self.per_shard.values())

    @property
    def critical_path_s(self) -> float:
        """Round wall time under the deployment model: shards seal in
        parallel (slowest shard dominates), then the beacon commits."""
        slowest = max(
            (s.duration_s for s in self.per_shard.values()), default=0.0
        )
        return slowest + self.beacon_duration_s

    @property
    def serial_s(self) -> float:
        """Single-machine time: every shard sealed back to back."""
        return (sum(s.duration_s for s in self.per_shard.values())
                + self.beacon_duration_s)


@dataclass
class SubmitReport:
    """Batch-submit outcome with per-shard backpressure accounting.

    Every submitted transaction lands in exactly one bucket:

    * ``accepted[shard]`` — admitted into that shard's mempool;
    * ``queued[shard]`` — parked in an ingest-pipeline queue (admission
      will happen at the next pump; only the pipeline fills this);
    * ``deferred`` — bounced off an active cross-shard lock, retry after
      the transfer settles (``deferred_by_shard`` counts them per home
      shard);
    * ``rejected`` — bounced off a *full* queue or mempool, each paired
      with its structured :class:`~repro.errors.QueueFull` signal
      carrying depth, watermark, and retry-after;
    * ``duplicates`` — already known.

    Nothing is ever silently dropped: the four buckets plus duplicates
    partition the input.
    """

    accepted: dict[int, int] = field(default_factory=dict)
    deferred: list[Transaction] = field(default_factory=list)
    duplicates: int = 0
    queued: dict[int, int] = field(default_factory=dict)
    deferred_by_shard: dict[int, int] = field(default_factory=dict)
    rejected: list[tuple[Transaction, QueueFull]] = field(
        default_factory=list
    )

    @property
    def accepted_total(self) -> int:
        return sum(self.accepted.values())

    @property
    def queued_total(self) -> int:
        return sum(self.queued.values())

    @property
    def deferred_total(self) -> int:
        return len(self.deferred)

    @property
    def rejected_total(self) -> int:
        return len(self.rejected)

    @property
    def rejected_by_shard(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for _, signal in self.rejected:
            sid = -1 if signal.shard_id is None else signal.shard_id
            counts[sid] = counts.get(sid, 0) + 1
        return counts

    def min_retry_after_s(self) -> float:
        """Soonest worthwhile retry across every rejection (0.0 if none)."""
        return min((s.retry_after_s for _, s in self.rejected),
                   default=0.0)

    def backpressure_summary(self) -> dict[int, dict[str, int]]:
        """Per-shard ``{accepted, queued, deferred, rejected}`` counters
        — the observable a capture source throttles on."""
        shards = (set(self.accepted) | set(self.queued)
                  | set(self.deferred_by_shard)
                  | set(self.rejected_by_shard))
        return {
            sid: {
                "accepted": self.accepted.get(sid, 0),
                "queued": self.queued.get(sid, 0),
                "deferred": self.deferred_by_shard.get(sid, 0),
                "rejected": self.rejected_by_shard.get(sid, 0),
            }
            for sid in sorted(shards)
        }


class ShardedChain:
    """Facade over N shards, a router, a lock table, and the beacon."""

    _FACADE_META_KEY = "facade_state"
    _BEACON_META_KEY = "beacon_state"
    _LAYOUT_META_KEY = "layout"

    def __init__(
        self,
        n_shards: int,
        max_block_txs: int = 256,
        reorg_journal_depth: int = 64,
        anchor_batch_size: int = 64,
        chain_id_prefix: str = "shard",
        router: ShardRouter | None = None,
        storage_dir: str | None = None,
        snapshot_interval: int = 0,
        checkpoint_every_rounds: int = 0,
        executor: str = "serial",
        exec_workers: int | None = None,
        contract_runtime_factory=None,
        telemetry=None,
        lock_lease_rounds: int = 16,
        quarantine_after: int = 0,
        quarantine_probe_every: int = 2,
        retry_floor_s: float = RETRY_AFTER_FLOOR_S,
    ) -> None:
        if n_shards < 1:
            raise ShardError("need at least one shard")
        if retry_floor_s <= 0.0:
            raise ShardError("retry_floor_s must be > 0")
        if lock_lease_rounds < 1:
            raise ShardError("lock_lease_rounds must be >= 1")
        if quarantine_after < 0:
            raise ShardError("quarantine_after must be >= 0")
        if quarantine_probe_every < 1:
            raise ShardError("quarantine_probe_every must be >= 1")
        if executor not in EXECUTORS:
            raise ShardError(f"unknown executor mode {executor!r}")
        if exec_workers is not None and exec_workers < 1:
            raise ShardError("exec_workers must be >= 1")
        self.router = router or ShardRouter(n_shards)
        if self.router.n_shards != n_shards:
            raise ShardError("router shard count does not match")
        self.storage_dir = storage_dir
        self.checkpoint_every_rounds = checkpoint_every_rounds
        shard_storages: list[Any] = [None] * n_shards
        beacon_storage = None
        if storage_dir is not None:
            from ..persist.durable import DurableStorage

            beacon_storage = DurableStorage(
                os.path.join(storage_dir, "beacon")
            )
            layout = beacon_storage.get_meta(self._LAYOUT_META_KEY)
            if layout is None:
                beacon_storage.put_meta(self._LAYOUT_META_KEY,
                                        {"n_shards": n_shards})
            elif layout.get("n_shards") != n_shards:
                stored = layout.get("n_shards")
                beacon_storage.close()
                raise ShardError(
                    f"store directory was laid out for "
                    f"{stored} shards, not {n_shards}"
                )
            shard_storages = [
                DurableStorage(os.path.join(storage_dir, f"shard-{i}"))
                for i in range(n_shards)
            ]
        self._beacon_storage = beacon_storage
        self.shards = [
            Shard(
                i,
                ChainParams(
                    chain_id=f"{chain_id_prefix}-{i}",
                    max_block_txs=max_block_txs,
                    reorg_journal_depth=reorg_journal_depth,
                ),
                anchor_batch_size=anchor_batch_size,
                storage=shard_storages[i],
                snapshot_interval=snapshot_interval,
                contract_runtime_factory=contract_runtime_factory,
            )
            for i in range(n_shards)
        ]
        self.contract_runtime_factory = contract_runtime_factory
        self.beacon = BeaconChain(
            ChainParams(chain_id=f"{chain_id_prefix}-beacon"),
            store=beacon_storage.blocks if beacon_storage else None,
            snapshot_store=beacon_storage.state if beacon_storage else None,
        )
        # (shard_id, subject) -> LockEntry.  Guards cross-shard
        # atomicity: while a subject is mid-handoff, conflicting writes
        # are deferred instead of interleaving with the 2PC phases.
        # Entries carry a holder epoch and a lease round (see
        # LockEntry); seal_round sweeps expired leases.
        self._locks: dict[tuple[int, str], LockEntry] = {}
        self.lock_lease_rounds = lock_lease_rounds
        # Coordinator fencing: the highest coordinator epoch this facade
        # has seen.  Protocol legs stamped with an older epoch are
        # refused at submit time (a zombie coordinator that lost a
        # recovery race cannot drive half a transfer).
        self.coordinator_epoch: int | None = None
        # In-memory meta fallback: the durable 2PC WAL rides the beacon
        # store's meta table when one exists; in-memory deployments get
        # the same surface (so coordinator crash/recovery is testable
        # without disk) backed by this dict of encoded values.
        self._meta_mem: dict[str, bytes] = {}
        # Graceful degradation (quarantine_after > 0): consecutive seal
        # failures per shard, and the quarantine roster with per-shard
        # rounds-skipped counters driving periodic re-admission probes.
        self.quarantine_after = quarantine_after
        self.quarantine_probe_every = quarantine_probe_every
        self._seal_fail_streak: dict[int, int] = {}
        self._quarantined: dict[int, int] = {}
        # Highest block height per shard already committed to the beacon.
        self._anchored_height = [0] * n_shards
        # Per-shard admission time (hashing + mempool insert) accumulated
        # by submit_many between rounds; seal_round folds it into each
        # shard's round duration — on a real deployment every shard node
        # pays its own admission cost, so the scaling model must too.
        self._pending_ingest_s = [0.0] * n_shards
        self.rounds_sealed = 0
        self._coordinators: list[Any] = []
        self._replica_seq = 0
        # Process-pool sealing (repro.exec): default executor mode for
        # seal_round, pool width, the cached pool itself, and per-shard
        # replica bookkeeping — (worker index, worker epoch, height,
        # state root) last confirmed held by the shard's exec worker.
        # A mismatch at job-build time ships a fresh state image.
        self.executor = executor
        self.exec_workers = (exec_workers if exec_workers is not None
                             else min(4, max(2, n_shards)))
        self._exec_pool = None
        self._worker_shard_state: dict[int, tuple[int, int, int, bytes]] = {}
        # EWMA of recent round wall time; feeds retry-after estimates.
        # retry_floor_s both seeds the estimate before the first seal
        # and clamps every advertised retry-after (hot-loop guard).
        self._round_pace_s = 0.0
        self.retry_floor_s = retry_floor_s
        # Telemetry (ISSUE 7): spans per shard round / beacon commit,
        # latency histograms on the per-round paths (cheap there — one
        # observe per shard per round), and a collector publishing the
        # per-shard load gauges the resharding/autoscaler consumes.
        # The most recent RoundReport backs health_report()'s
        # slowest-shard attribution.
        self.telemetry = telemetry if telemetry is not None \
            else default_telemetry()
        registry = self.telemetry.registry
        self._tracer = self.telemetry.tracer
        self._m_seal_shard_s = registry.histogram("seal_shard_seconds")
        self._m_seal_round_s = registry.histogram("seal_round_seconds")
        self._m_beacon_s = registry.histogram("seal_beacon_seconds")
        self._m_txs_sealed = registry.counter("txs_sealed_total")
        self._m_exec_offloaded = registry.counter(
            "exec_rounds_offloaded_total"
        )
        self._m_exec_fallback = registry.counter("exec_fallback_total")
        self._m_leases_expired = registry.counter(
            "xshard_lock_leases_expired_total"
        )
        self._m_quarantined = registry.counter("shard_quarantined_total")
        self._m_readmitted = registry.counter("shard_readmitted_total")
        self._m_seal_failures = registry.counter("shard_seal_failures_total")
        registry.register_collector(self._collect_metrics)
        self._last_round: RoundReport | None = None
        if beacon_storage is not None:
            beacon_state = beacon_storage.get_meta(self._BEACON_META_KEY)
            if beacon_state is not None:
                self.beacon.restore_state(beacon_state)
            facade = beacon_storage.get_meta(self._FACADE_META_KEY)
            if facade is not None:
                self.rounds_sealed = int(facade["rounds_sealed"])
                self._anchored_height = [int(h)
                                         for h in facade["anchored_height"]]
                # Locks checkpointed mid-2PC are NOT restored here: the
                # owning coordinator died with the old process.  The
                # durable transfer WAL (sharding.twophase) is the source
                # of truth — CrossShardCoordinator.recover() re-owns the
                # locks of every in-flight transfer under its new epoch
                # and resolves each one (finalize when all commit legs
                # are on-chain, presumed-abort otherwise), so nothing
                # stays wedged and nothing half-commits.
                self._locks = {}

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _collect_metrics(self) -> None:
        """Registry collector: publish per-shard load gauges at snapshot
        time.  Nothing here runs on a hot path — the resharding planner
        and ops surfaces read these from ``snapshot()``."""
        registry = self.telemetry.registry
        for shard in self.shards:
            sid = str(shard.shard_id)
            registry.gauge("shard_mempool_backlog", shard=sid).set(
                len(shard.mempool)
            )
            registry.gauge("shard_height", shard=sid).set(
                shard.chain.height
            )
            registry.gauge("shard_anchored_height", shard=sid).set(
                self._anchored_height[shard.shard_id]
            )
        registry.gauge("crossshard_locks_active").set(len(self._locks))
        registry.gauge("round_pace_seconds").set(self._round_pace_s)
        registry.counter("rounds_sealed_total").value = self.rounds_sealed

    def _round_trace_ctx(self, blocks: list[Block]):
        """Resolve the trace context for a shard's round: the context
        bound at ``pipeline.submit`` for the first sealed transaction
        that has one.  Cheap when tracing is idle (one attribute read)."""
        tracer = self._tracer
        if not blocks or not tracer.has_bound_txs:
            return None
        return tracer.take_tx_ctx(
            tx.tx_id for block in blocks for tx in block.transactions
        )

    def health_report(self) -> dict:
        """Operator rollup: per-shard backlog and heights, round pace,
        and slowest-shard attribution for the most recent sealed round.
        Every key is canonical-encodable (shard ids are strings), so the
        gateway's ``ops/metrics`` topic ships it over SimNet verbatim."""
        per_shard: dict[str, dict] = {}
        for shard in self.shards:
            sid = shard.shard_id
            per_shard[str(sid)] = {
                "height": shard.chain.height,
                "anchored_height": self._anchored_height[sid],
                "mempool_backlog": len(shard.mempool),
                "seal_fail_streak": self._seal_fail_streak.get(sid, 0),
                "quarantined": sid in self._quarantined,
            }
        report: dict[str, Any] = {
            "n_shards": len(self.shards),
            "rounds_sealed": self.rounds_sealed,
            "round_pace_s": self._round_pace_s,
            "mempool_backlog_total": self.mempool_backlog,
            "locks_active": len(self._locks),
            "quarantined_shards": sorted(str(sid)
                                         for sid in self._quarantined),
            "per_shard": per_shard,
            "slowest_shard": None,
            "slowest_seal_s": 0.0,
            "critical_path_s": 0.0,
        }
        last = self._last_round
        if last is not None:
            report["last_round_no"] = last.round_no
            report["last_round_txs"] = last.txs_sealed
            report["critical_path_s"] = last.critical_path_s
            slowest_sid = None
            slowest_s = 0.0
            for sid, stats in last.per_shard.items():
                per_shard[str(sid)]["last_seal_s"] = stats.duration_s
                per_shard[str(sid)]["last_txs_sealed"] = stats.txs_sealed
                if stats.duration_s >= slowest_s:
                    slowest_sid, slowest_s = sid, stats.duration_s
            if slowest_sid is not None:
                # String, like the per_shard keys it indexes into.
                report["slowest_shard"] = str(slowest_sid)
                report["slowest_seal_s"] = slowest_s
        return report

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Checkpoint every shard, the beacon, and the facade state so a
        reopened :class:`ShardedChain` on the same ``storage_dir`` resumes
        exactly here.  No-op for in-memory deployments."""
        if self._beacon_storage is None:
            return
        for shard in self.shards:
            shard.checkpoint()
        self._beacon_storage.put_meta(self._BEACON_META_KEY,
                                      self.beacon.dump_state())
        self._beacon_storage.put_meta(
            self._FACADE_META_KEY,
            {
                "rounds_sealed": self.rounds_sealed,
                "anchored_height": list(self._anchored_height),
                "locks": [
                    [sid, subject, entry.xid, entry.epoch,
                     entry.expires_round]
                    for (sid, subject), entry in self._locks.items()
                ],
            },
        )
        self.beacon.chain.checkpoint()
        self._beacon_storage.sync()

    def tier_storage(self, keep_tail: int = 256,
                     compact_records: bool = True) -> dict[int, dict]:
        """Tier every durable shard store: archive cold blocks into the
        store's CAS and compact the segment logs (see
        :meth:`~repro.persist.durable.DurableStorage.tier`).  The hot
        tail is clamped to the reorg journal window — a reorg can never
        need to truncate below the archival boundary.  Returns per-shard
        stats; no-op (empty) for in-memory deployments."""
        stats: dict[int, dict] = {}
        for shard in self.shards:
            if shard.storage is None:
                continue
            floor = shard.chain.params.reorg_journal_depth + 1
            shard.checkpoint()
            stats[shard.shard_id] = shard.storage.tier(
                keep_tail=max(keep_tail, floor),
                compact_records=compact_records,
            )
        return stats

    def close(self) -> None:
        """Checkpoint and release every store (reopenable afterwards)."""
        if self._exec_pool is not None:
            self._exec_pool.shutdown()
            self._exec_pool = None
            self._worker_shard_state.clear()
        if self._beacon_storage is None:
            return
        self.checkpoint()
        for shard in self.shards:
            shard.storage.close()
        self._beacon_storage.close()

    def crash(self) -> None:
        """Fail-stop, for crash testing: release every OS resource
        WITHOUT checkpointing, as if the process died right here.
        Durable state is exactly what the stores already committed —
        sealed block segments, per-write meta commits (the 2PC WAL) —
        while derived facade/beacon meta stays at the last checkpoint,
        which is what a reopened :class:`ShardedChain` plus
        ``CrossShardCoordinator(recover=True)`` must cope with."""
        if self._exec_pool is not None:
            self._exec_pool.shutdown()
            self._exec_pool = None
            self._worker_shard_state.clear()
        self._coordinators.clear()
        if self._beacon_storage is None:
            return
        for shard in self.shards:
            shard.storage.close()
        self._beacon_storage.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard(self, shard_id: int) -> Shard:
        if not 0 <= shard_id < len(self.shards):
            raise ShardError(f"no shard {shard_id}")
        return self.shards[shard_id]

    def shard_for_subject(self, subject: str) -> Shard:
        return self.shards[self.router.shard_for_subject(subject)]

    @property
    def total_txs_committed(self) -> int:
        return sum(len(s.chain.receipts) for s in self.shards)

    @property
    def mempool_backlog(self) -> int:
        return sum(len(s.mempool) for s in self.shards)

    @property
    def unanchored_blocks(self) -> int:
        """Shard blocks not yet committed to the beacon — anchor-service
        blocks appended since the last round, or a failed round's
        blocks.  The next :meth:`seal_round` anchors them."""
        return sum(max(0, shard.chain.height
                       - self._anchored_height[shard.shard_id])
                   for shard in self.shards)

    def verify_all(self, deep: bool = False) -> None:
        """Audit every shard chain and the beacon (raises on tampering)."""
        for shard in self.shards:
            shard.chain.verify(deep=deep)
        self.beacon.chain.verify(deep=deep)

    # ------------------------------------------------------------------
    # Meta (the 2PC coordinator's WAL surface; see sharding.twophase)
    # ------------------------------------------------------------------
    def put_meta(self, key: str, value: Any) -> None:
        """Persist one canonical-encodable value.  Durable deployments
        write through the beacon store's meta table (each write commits
        before returning — the WAL property the 2PC coordinator relies
        on); in-memory deployments round-trip through the canonical
        codec into a process-local dict, so coordinator crash/recovery
        behaves identically in both."""
        if self._beacon_storage is not None:
            self._beacon_storage.put_meta(key, value)
            return
        from ..serialization import canonical_encode

        self._meta_mem[key] = canonical_encode(value)

    def get_meta(self, key: str, default: Any = None) -> Any:
        if self._beacon_storage is not None:
            return self._beacon_storage.get_meta(key, default)
        encoded = self._meta_mem.get(key)
        if encoded is None:
            return default
        from ..persist.codec import canonical_decode

        return canonical_decode(encoded)

    # ------------------------------------------------------------------
    # Locks (the 2PC coordinator's table; see sharding.twophase)
    # ------------------------------------------------------------------
    def set_coordinator_epoch(self, epoch: int) -> None:
        """Fence every earlier coordinator generation: protocol legs
        stamped with an older epoch are refused from now on."""
        if self.coordinator_epoch is not None \
                and epoch < self.coordinator_epoch:
            raise ShardError(
                f"coordinator epoch {epoch} is behind the fenced epoch "
                f"{self.coordinator_epoch}", reason="fenced_epoch",
            )
        self.coordinator_epoch = epoch

    def acquire_lock(self, shard_id: int, subject: str, xid: str,
                     epoch: int = 0,
                     lease_rounds: int | None = None) -> bool:
        """Take (or renew) the lock on ``(shard_id, subject)``.

        Re-acquiring with the owning ``xid`` renews the lease and
        updates the holder epoch — the coordinator calls this every
        round tick for its in-flight transfers, so a lease that *does*
        expire marks a dead holder."""
        key = (shard_id, subject)
        owner = self._locks.get(key)
        if owner is not None and owner.xid != xid:
            return False
        lease = self.lock_lease_rounds if lease_rounds is None \
            else lease_rounds
        self._locks[key] = LockEntry(
            xid=xid, epoch=epoch,
            expires_round=self.rounds_sealed + lease,
        )
        return True

    def reclaim_lock(self, shard_id: int, subject: str, xid: str,
                     epoch: int) -> None:
        """Recovery-only: forcibly re-own a lock for ``xid`` under a new
        coordinator epoch, whatever entry (if any) a dead generation
        left behind.  Only the WAL-replaying coordinator may call this —
        it knows ``xid`` owned the subject when the old process died."""
        self._locks[(shard_id, subject)] = LockEntry(
            xid=xid, epoch=epoch,
            expires_round=self.rounds_sealed + self.lock_lease_rounds,
        )

    def release_lock(self, shard_id: int, subject: str, xid: str,
                     epoch: int | None = None) -> None:
        """Release iff ``xid`` owns the entry (and, when ``epoch`` is
        given, iff the holder epoch matches — a fenced coordinator
        cannot release the lock its recovered successor re-owns)."""
        key = (shard_id, subject)
        owner = self._locks.get(key)
        if owner is None or owner.xid != xid:
            return
        if epoch is not None and owner.epoch != epoch:
            return
        del self._locks[key]

    def drop_stale_locks(self, current_epoch: int) -> int:
        """Drop every lock held by an older coordinator epoch (recovery
        sweep: the WAL-replaying coordinator re-owns the locks of the
        transfers it is resolving first, then sweeps the rest — entries
        whose transfers already reached a terminal state but whose
        unlock never ran before the crash)."""
        stale = [key for key, entry in self._locks.items()
                 if entry.epoch < current_epoch]
        for key in stale:
            del self._locks[key]
        return len(stale)

    def _expire_stale_locks(self) -> None:
        """Lease sweep (start of every round): entries whose lease round
        passed belong to holders that stopped renewing — a coordinator
        that died without its WAL being replayed.  Dropping them frees
        the subjects; handoff records only materialize on full commit,
        so this is presumed-abort, never data loss."""
        if not self._locks:
            return
        expired = [key for key, entry in self._locks.items()
                   if entry.expires_round < self.rounds_sealed]
        for key in expired:
            del self._locks[key]
        if expired:
            self._m_leases_expired.inc(len(expired))

    def lock_owner(self, shard_id: int, subject: str) -> str | None:
        entry = self._locks.get((shard_id, subject))
        return entry.xid if entry is not None else None

    def lock_entry(self, shard_id: int, subject: str) -> LockEntry | None:
        return self._locks.get((shard_id, subject))

    def _blocked_by_lock(self, shard_id: int, tx: Transaction) -> bool:
        subject = self.router.lock_key_for(tx)
        if subject is None:
            return False
        owner = self._locks.get((shard_id, subject))
        return owner is not None and tx.payload.get("xid") != owner.xid

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _add_to_mempool(self, shard_id: int, tx: Transaction) -> bool:
        """Admit one transaction, enriching a raw mempool ``QueueFull``
        with the shard id and retry-after estimate."""
        try:
            return self.shards[shard_id].mempool.add(tx)
        except QueueFull as exc:
            raise self.backpressure_signal(
                shard_id, exc.depth, exc.capacity, exc.capacity,
                source="mempool",
            ) from None

    def submit(self, tx: Transaction) -> int:
        """Route one transaction to its shard's mempool; returns the
        shard id.  Raises :class:`ShardError` on a lock conflict and a
        shard-tagged :class:`~repro.errors.QueueFull` (retry-after
        included) on a full mempool."""
        shard_id = self.router.route(tx)
        if self._blocked_by_lock(shard_id, tx):
            raise ShardError(
                f"subject {self.router.lock_key_for(tx)!r} is locked by a "
                "cross-shard transfer; resubmit after it settles"
            )
        self._add_to_mempool(shard_id, tx)
        return shard_id

    def submit_to(self, shard_id: int, tx: Transaction) -> None:
        """Protocol-path submit (2PC lock/commit/abort legs): bypasses the
        router but still honors the lock table's xid exemption.  Legs
        stamped with a fenced (older) coordinator epoch are refused — a
        zombie coordinator that lost a recovery race cannot land half a
        transfer on-chain."""
        payload = tx.payload
        if payload.get("phase") in ("lock", "commit", "abort") \
                and "xid" in payload \
                and self.coordinator_epoch is not None \
                and payload.get("epoch") != self.coordinator_epoch:
            raise ShardError(
                f"shard {shard_id}: protocol leg from fenced coordinator "
                f"epoch {payload.get('epoch')!r} refused "
                f"(current epoch {self.coordinator_epoch})",
                reason="fenced_epoch", shard_id=shard_id,
            )
        if self._blocked_by_lock(shard_id, tx):
            raise ShardError(
                f"shard {shard_id}: transaction conflicts with an active "
                "cross-shard lock"
            )
        self._add_to_mempool(shard_id, tx)

    def backpressure_signal(self, shard_id: int, depth: int,
                            capacity: int, high_watermark: int,
                            source: str = "queue") -> QueueFull:
        """Build the structured retry-after signal for one full shard
        queue, using the facade's recent round pace to convert rounds
        into wall time.

        Before the first seal the EWMA has no sample; the estimate is
        seeded with ``retry_floor_s`` per round instead of advertising
        0.0 — a remote client honoring a zero retry-after verbatim would
        hot-loop the gateway.  The final value is clamped to the same
        floor.
        """
        per_round = max(1, self.shards[shard_id].chain.params.max_block_txs)
        over = depth - high_watermark + 1
        rounds = max(1, math.ceil(over / per_round))
        pace = self._round_pace_s if self._round_pace_s > 0.0 \
            else self.retry_floor_s
        return QueueFull(
            f"shard {shard_id} {source} full "
            f"({depth}/{capacity}); retry in ~{rounds} round(s)",
            shard_id=shard_id,
            depth=depth,
            capacity=capacity,
            high_watermark=high_watermark,
            retry_after_rounds=rounds,
            retry_after_s=rounds * pace,
            min_retry_after_s=self.retry_floor_s,
        )

    def submit_many(self, txs: Iterable[Transaction]) -> SubmitReport:
        """Batched ingest.  Lock-conflicted transactions come back in
        ``deferred`` for the caller to retry once the transfer settles,
        and a shard whose mempool fills mid-batch bounces the rest of
        its bucket into ``rejected`` with a retry-after signal — nothing
        is silently dropped."""
        report = SubmitReport()
        for shard_id, bucket in self.router.partition(txs).items():
            mempool = self.shards[shard_id].mempool
            accepted = 0
            full_signal: QueueFull | None = None
            t0 = time.perf_counter()
            for i, tx in enumerate(bucket):
                if self._blocked_by_lock(shard_id, tx):
                    report.deferred.append(tx)
                    report.deferred_by_shard[shard_id] = \
                        report.deferred_by_shard.get(shard_id, 0) + 1
                    continue
                try:
                    if mempool.add(tx):
                        accepted += 1
                    else:
                        report.duplicates += 1
                except QueueFull as exc:
                    full_signal = self.backpressure_signal(
                        shard_id, exc.depth, exc.capacity, exc.capacity,
                        source="mempool",
                    )
                    for bounced in bucket[i:]:
                        report.rejected.append((bounced, full_signal))
                    break
            self._pending_ingest_s[shard_id] += time.perf_counter() - t0
            if accepted:
                report.accepted[shard_id] = accepted
        return report

    def ingest_record(
        self, record: Mapping[str, Any]
    ) -> tuple[int, AnchorReceipt | None]:
        """Store a provenance record on its home shard and queue it for
        anchoring; returns ``(shard_id, anchor receipt if one flushed)``."""
        subject = str(record.get("subject", ""))
        if not subject:
            raise ShardError("record lacks a subject to route by")
        shard_id = self.router.shard_for(namespace_of(subject))
        owner = self._locks.get((shard_id, subject))
        if owner is not None and record.get("xid") != owner.xid:
            raise ShardError(
                f"subject {subject!r} is locked by a cross-shard "
                "transfer; ingest after it settles"
            )
        shard = self.shards[shard_id]
        shard.database.insert(record)
        receipt = shard.anchor.enqueue(record)
        shard.query.notify_write()
        return shard_id, receipt

    def ingest_records(
        self, records: Sequence[Mapping[str, Any]]
    ) -> dict[int, list[AnchorReceipt]]:
        """Batched record ingest: one routing pass, one group-committed
        database insert per shard (one log write + one index transaction
        on the durable backend), then anchor enqueueing.  Returns the
        anchor receipts flushed per shard.  Lock conflicts, missing
        subjects, and duplicate record ids all raise before anything is
        stored — a batch that fails *validation* commits nothing on any
        shard.  (A storage-layer crash mid-call can still leave the
        shards committed before the failure point durably stored; their
        logs recover independently, and the failed shards' records can
        be re-ingested.)"""
        buckets: dict[int, list[dict]] = {}
        seen_ids: set[str] = set()
        for record in records:
            subject = str(record.get("subject", ""))
            if not subject:
                raise ShardError("record lacks a subject to route by")
            shard_id = self.router.shard_for(namespace_of(subject))
            owner = self._locks.get((shard_id, subject))
            if owner is not None and record.get("xid") != owner.xid:
                raise ShardError(
                    f"subject {subject!r} is locked by a cross-shard "
                    "transfer; ingest after it settles"
                )
            record_id = str(record.get("record_id", ""))
            if not record_id:
                raise ShardError("record lacks a record_id")
            if record_id in seen_ids \
                    or self.shards[shard_id].database.contains(record_id):
                raise ShardError(f"duplicate record_id {record_id!r}")
            seen_ids.add(record_id)
            buckets.setdefault(shard_id, []).append(dict(record))
        receipts: dict[int, list[AnchorReceipt]] = {}
        for shard_id, bucket in buckets.items():
            shard = self.shards[shard_id]
            shard.database.insert_many(bucket)
            flushed = [r for r in (shard.anchor.enqueue(rec)
                                   for rec in bucket) if r is not None]
            if flushed:
                receipts[shard_id] = flushed
            shard.query.notify_write()
        return receipts

    def flush_anchors(self) -> dict[int, AnchorReceipt]:
        """Force-flush every shard's pending anchor batch (anchor blocks
        are beacon-committed by the next :meth:`seal_round`)."""
        receipts: dict[int, AnchorReceipt] = {}
        for shard in self.shards:
            receipt = shard.anchor.flush()
            if receipt is not None:
                receipts[shard.shard_id] = receipt
        return receipts

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def attach_coordinator(self, coordinator: Any) -> None:
        """Register an observer whose ``on_round_sealed(report)`` runs
        after each round (the 2PC coordinator drives its phases there)."""
        self._coordinators.append(coordinator)

    def detach_coordinator(self, coordinator: Any) -> None:
        """Unregister a round observer (no-op when absent).  The chaos
        harness detaches a 'crashed' coordinator so the zombie instance
        stops being driven while its recovered successor takes over."""
        try:
            self._coordinators.remove(coordinator)
        except ValueError:
            pass

    def _note_seal_failure(self, shard_id: int, exc: Exception) -> dict:
        """Quarantine bookkeeping for one failed shard round: bump the
        failure streak, quarantine at ``quarantine_after`` consecutive
        failures, and return the structured attribution dict that lands
        in :class:`RoundReport.failed_shards`."""
        self._m_seal_failures.inc()
        streak = self._seal_fail_streak.get(shard_id, 0) + 1
        self._seal_fail_streak[shard_id] = streak
        if shard_id not in self._quarantined \
                and streak >= self.quarantine_after:
            self._quarantined[shard_id] = self.rounds_sealed
            self._m_quarantined.inc()
        err = exc if isinstance(exc, ShardError) else ShardError(
            f"shard {shard_id} failed to seal: "
            f"{type(exc).__name__}: {exc}",
            reason="seal_failed", shard_id=shard_id,
        )
        info = err.as_dict()
        info["shard_id"] = shard_id
        info["streak"] = streak
        info["quarantined"] = shard_id in self._quarantined
        return info

    def _note_seal_success(self, shard_id: int) -> None:
        """A clean shard round resets the failure streak and re-admits a
        quarantined shard (its probe round succeeded)."""
        if self._seal_fail_streak.get(shard_id):
            self._seal_fail_streak[shard_id] = 0
        if shard_id in self._quarantined:
            del self._quarantined[shard_id]
            self._m_readmitted.inc()

    def _pop_round_blocks(
        self, shard_id: int, ts: int, blocks_per_shard: int,
    ) -> tuple[list[Block], int]:
        """Drain up to ``blocks_per_shard`` batches from one shard's
        mempool and build (but do not execute) the chained blocks."""
        shard = self.shards[shard_id]
        max_txs = shard.chain.params.max_block_txs
        new_blocks: list[Block] = []
        txs_sealed = 0
        prev = shard.chain.head
        for _ in range(blocks_per_shard):
            batch = shard.mempool.pop_batch(max_txs)
            if self._locks:
                # A transaction admitted *before* a lock was taken must
                # not seal mid-2PC: hold it back for a later round (the
                # admission check alone cannot see future locks).
                kept: list[Transaction] = []
                held: list[Transaction] = []
                for tx in batch:
                    (held if self._blocked_by_lock(shard_id, tx)
                     else kept).append(tx)
                if held:
                    batch = kept
                    shard.mempool.add_many(held)
            if not batch:
                break
            block = Block(
                height=prev.height + 1,
                prev_hash=prev.block_hash,
                transactions=batch,
                timestamp=ts,
                proposer=f"shard-{shard_id}-sealer",
            )
            new_blocks.append(block)
            txs_sealed += len(batch)
            prev = block
        return new_blocks, txs_sealed

    def _append_popped_blocks(self, shard_id: int,
                              new_blocks: list[Block]) -> None:
        """Execute popped blocks in-process (the serial path, and the
        process path's fallback), re-admitting the transactions of every
        uncommitted block on failure — the batch was acknowledged only
        as *queued*, so nothing may be silently lost."""
        shard = self.shards[shard_id]
        pending = [block for block in new_blocks
                   if block.height > shard.chain.height]
        if not pending:
            return
        try:
            shard.chain.append_blocks(pending)
        except BaseException:
            # The chain unwound the group (or kept only what its store
            # committed); re-admit the rest.
            committed_height = shard.chain.height
            for block in pending:
                if block.height > committed_height:
                    shard.mempool.add_many(block.transactions)
            raise

    def _collect_round_entries(
        self, shard_id: int
    ) -> list[tuple[int, int, bytes, bytes]]:
        """Every block the beacon has not seen yet (includes anchor-
        service blocks appended between rounds).  The anchored watermark
        itself is advanced by seal_round only after the beacon commit
        succeeds — a round that fails in another shard must not leave
        this shard's blocks un-anchorable forever."""
        shard = self.shards[shard_id]
        entries: list[tuple[int, int, bytes, bytes]] = []
        for height in range(self._anchored_height[shard_id] + 1,
                            shard.chain.height + 1):
            entries.append(
                (shard_id, height,
                 shard.chain.block_at(height).block_hash, b"")
            )
        if entries:
            # The round's last entry is the shard's current head, and no
            # execution happens between here and the beacon commit — tag
            # it with the post-execution state root so snapshot images
            # taken at this height verify against the beacon.
            sid, height, block_hash, _ = entries[-1]
            entries[-1] = (sid, height, block_hash,
                           shard.chain.state.state_root())
        return entries

    def _build_shard_job(self, shard_id: int, ts: int,
                         blocks_per_shard: int, pool) -> _ShardJob:
        """Round step 1 for one shard: pop and build its blocks and, for
        the process pool, encode them once (the wire frames double as
        the store frames) into the exec job for the shard's worker.  An
        error is recorded on the job, not raised, and the popped
        transactions go back to the mempool."""
        job = _ShardJob(shard_id)
        t0 = time.perf_counter()
        try:
            job.blocks, job.txs_sealed = self._pop_round_blocks(
                shard_id, ts, blocks_per_shard
            )
            job.trace_ctx = self._round_trace_ctx(job.blocks)
            if pool is not None and job.blocks:
                from ..persist.codec import encode_block

                job.widx = shard_id % pool.n_workers
                job.frames = [encode_block(block) for block in job.blocks]
                job.wire = self._build_exec_job(
                    shard_id, job.blocks, job.frames, job.widx, pool,
                    trace_ctx=job.trace_ctx,
                )
                self._m_exec_offloaded.inc()
        except Exception as exc:  # noqa: BLE001 - the round's policy decides
            job.error = exc
            for block in job.blocks:
                self.shards[shard_id].mempool.add_many(block.transactions)
        job.active_s = time.perf_counter() - t0
        return job

    def _commit_shard_job(self, job: _ShardJob, response: bytes | None = None,
                          pool=None) -> None:
        """Round step 2 for one shard: apply its worker's reply (process
        pool) or execute its blocks in-process, committing through the
        chain's group-commit surface (one log write + one fsync + one
        index transaction on a durable store).  Either way a failure
        re-admits the uncommitted transactions and is recorded on the
        job, not raised."""
        t0 = time.perf_counter()
        try:
            with self._tracer.span("shard.commit",
                                   parent=job.trace_ctx) as span:
                span.set_attr("shard", job.shard_id)
                span.set_attr("txs", job.txs_sealed)
                if job.wire is None:
                    self._append_popped_blocks(job.shard_id, job.blocks)
                else:
                    self._apply_exec_response(
                        job.shard_id, job.blocks, job.frames, response,
                        job.widx, pool,
                    )
        except Exception as exc:  # noqa: BLE001 - the round's policy decides
            job.error = exc
        job.active_s += time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Process-pool sealing (repro.exec)
    # ------------------------------------------------------------------
    @property
    def exec_pool(self):
        """The cached process pool, or ``None`` before the first
        process-mode round (the ingest pipeline offloads verification
        through this when it exists)."""
        return self._exec_pool

    def _get_exec_pool(self, workers: int | None = None):
        from ..exec.pool import ProcessExecPool

        want = self.exec_workers if workers is None else workers
        pool = self._exec_pool
        if pool is not None and pool.n_workers != want:
            pool.shutdown()
            pool = None
            self._worker_shard_state.clear()
        if pool is None:
            pool = ProcessExecPool(
                want, runtime_factory=self.contract_runtime_factory
            )
            self._exec_pool = pool
        return pool

    def _build_exec_job(self, shard_id: int, blocks: list[Block],
                        frames: list[bytes], widx: int, pool,
                        trace_ctx=None) -> bytes:
        """Encode one shard's round as an exec job, shipping a full
        state image iff the worker's replica cannot be current — wrong
        worker slot, respawned worker (epoch bump), or parent-side state
        changes since the last confirmed round (anchor flushes, reorgs:
        detected by height/root comparison, never assumed away)."""
        from ..crypto.signatures import key_material
        from ..serialization import canonical_encode

        shard = self.shards[shard_id]
        base_height = shard.chain.height
        base_root = shard.chain.state.state_root()
        job: dict[str, Any] = {
            "kind": "exec",
            "chain": shard.chain.chain_id,
            "base_height": base_height,
            "base_root": base_root,
            "blocks": frames,
            "require_signatures": shard.chain.params.require_signatures,
        }
        if trace_ctx is not None and trace_ctx.sampled:
            # Trace context rides the canonical job frame; the worker's
            # exec span re-parents onto it and its rows merge back with
            # the reply (see repro.exec.worker).
            job["trace"] = trace_ctx.to_wire()
        recorded = self._worker_shard_state.get(shard_id)
        if recorded != (widx, pool.epoch(widx), base_height, base_root):
            job["state"] = [
                [ns, key, value]
                for ns, key, value in shard.chain.state.dump_entries()
            ]
        if shard.chain.params.require_signatures:
            # Ship the signers' key material: keys registered after the
            # pool forked would otherwise be unknown in the worker and
            # fail verification spuriously.
            keys: dict[str, bytes] = {}
            for block in blocks:
                for tx in block.transactions:
                    if tx.signer is None:
                        continue
                    secret = key_material(tx.signer)
                    if secret is not None:
                        keys[tx.signer.key_bytes.hex()] = secret
            job["keys"] = keys
        return canonical_encode(job)

    def _apply_exec_response(self, shard_id: int, blocks: list[Block],
                             frames: list[bytes],
                             response: bytes | None, widx: int,
                             pool) -> None:
        """Commit one shard's worker result, falling back to in-process
        execution on any worker failure (death, need_state, execution
        error, or a state-root divergence caught before commit)."""
        from ..persist.codec import canonical_decode, decode_receipt

        shard = self.shards[shard_id]
        reply = None
        if response is not None:
            try:
                reply = canonical_decode(response)
            except Exception:  # noqa: BLE001 - treat as worker failure
                reply = None
        if reply is not None:
            # Merge the worker's telemetry delta whatever the status —
            # an error reply still did (and should account for) work.
            self._merge_worker_telemetry(reply.get("telemetry"))
        if reply is not None and reply.get("status") == "ok":
            try:
                chain = shard.chain
                bodies = reply["receipts"]
                deltas = [
                    [(op[0], op[1], bool(op[2]), op[3]) for op in ops]
                    for ops in reply["deltas"]
                ]
                raw_items = None
                receipts_lists = None
                if hasattr(chain.store, "install_raw"):
                    raw_items = [
                        {
                            "height": block.height,
                            "block_hash": block.block_hash,
                            "frame": frame,
                            "tx_ids": [tx.tx_id
                                       for tx in block.transactions],
                            "receipts": body_list,
                        }
                        for block, frame, body_list
                        in zip(blocks, frames, bodies)
                    ]
                if chain._subscribers or raw_items is None:
                    receipts_lists = [
                        [decode_receipt(body) for body in body_list]
                        for body_list in bodies
                    ]
                chain.apply_executed_blocks(
                    blocks, deltas,
                    receipts_lists=receipts_lists,
                    raw_items=raw_items,
                    expected_state_root=reply["state_root"],
                )
                self._worker_shard_state[shard_id] = (
                    widx, pool.epoch(widx),
                    chain.height, reply["state_root"],
                )
                return
            except Exception:  # noqa: BLE001 - fall back in-process
                pass
        # Worker died, replied need_state/error, or its result failed to
        # apply: forget its replica and run the serial path — identical
        # blocks, identical state transitions, just single-process.
        self._m_exec_fallback.inc()
        self._worker_shard_state.pop(shard_id, None)
        self._append_popped_blocks(shard_id, blocks)

    def _merge_worker_telemetry(self, payload) -> None:
        """Fold a worker reply's ``telemetry`` dict (span rows plus
        counter deltas, both canonical-encodable) into this process's
        registry and tracer.  Absent or malformed payloads are ignored
        — telemetry must never fail a commit."""
        if not isinstance(payload, dict):
            return
        try:
            spans = payload.get("spans")
            if spans:
                self._tracer.ingest_rows(spans)
            deltas = payload.get("counters")
            if deltas:
                self.telemetry.registry.merge_counter_deltas(deltas)
        except Exception:  # noqa: BLE001 - observability is best-effort
            pass

    def seal_round(
        self,
        shard_ids: Sequence[int] | None = None,
        timestamp: int | None = None,
        blocks_per_shard: int = 1,
        executor: str | None = None,
        workers: int | None = None,
    ) -> RoundReport:
        """Seal up to ``blocks_per_shard`` blocks per loaded shard, then
        beacon-anchor the round.

        ``shard_ids`` restricts sealing to a subset (a stalled shard in
        the tests; a partitioned one in life).  Blocks appended outside
        the round (anchor-service flushes) are picked up and anchored
        too, so every shard block ends up under exactly one beacon
        header.

        A round is one pipeline whatever the engine:

        1. build every selected shard's job (pop + build its blocks);
        2. run the jobs — ``executor`` picks how (``None`` = the
           facade's configured default):

           * ``"serial"`` — in-process, one shard after another;
           * ``"process"`` — the :mod:`repro.exec` pool (``workers``
             sets its width, cached across rounds): validation and
             execution run in worker processes, the parent applies
             state deltas and commits as each worker finishes, with
             in-process fallback for any worker that dies mid-round;

        3. apply one error policy once every selected shard has run:
           with ``quarantine_after > 0`` a shard's
           :class:`~repro.errors.ReproError` is attributed in
           :attr:`RoundReport.failed_shards` (and counts towards its
           quarantine) while the others seal; otherwise — or for any
           other error — the first error in shard order is raised,
           nothing is beacon-committed and no anchored watermark moves;
        4. merge in shard order and commit the beacon round, so the
           beacon commitment is byte-identical across engines.
        """
        if blocks_per_shard < 1:
            raise ShardError("blocks_per_shard must be >= 1")
        mode = self.executor if executor is None else executor
        if mode not in EXECUTORS:
            raise ShardError(f"unknown executor mode {mode!r}")
        self._expire_stale_locks()
        if shard_ids is not None:
            selected = [self.shard(sid).shard_id for sid in shard_ids]
        else:
            # Skip quarantined shards except on their probe rounds — a
            # probe that seals cleanly re-admits the shard below.
            selected = [
                sid for sid in range(len(self.shards))
                if sid not in self._quarantined
                or (self.rounds_sealed - self._quarantined[sid])
                % self.quarantine_probe_every == 0
            ]
        ts = self.rounds_sealed if timestamp is None else timestamp
        round_t0 = time.perf_counter()
        per_shard: dict[int, ShardSealStats] = {}
        failed_shards: dict[int, dict] = {}
        heights: dict[int, int] = {}
        entries: list[tuple[int, int, bytes, bytes]] = []
        tolerant = self.quarantine_after > 0
        with self._tracer.root_span("round.seal") as round_span:
            round_span.set_attr("round", self.rounds_sealed)
            round_span.set_attr("mode", mode)
            pool = self._get_exec_pool(workers) if mode == "process" \
                else None
            jobs = [self._build_shard_job(sid, ts, blocks_per_shard, pool)
                    for sid in selected]                        # 1.
            if pool is None:                                    # 2.
                for job in jobs:
                    if job.error is None and job.blocks:
                        self._commit_shard_job(job)
            else:
                # Commit each shard as its worker finishes: parent-side
                # durable commits overlap the other workers' compute.
                shipped = [job for job in jobs if job.wire is not None]
                for index, response in pool.run(
                        [(job.widx, job.wire) for job in shipped]):
                    self._commit_shard_job(shipped[index], response, pool)
            for job in jobs:                                    # 3.
                if job.error is not None and not (
                        tolerant and isinstance(job.error, ReproError)):
                    raise job.error
            for job in jobs:                                    # 4.
                sid = job.shard_id
                if job.error is not None:
                    failed_shards[sid] = self._note_seal_failure(sid,
                                                                 job.error)
                    continue
                if tolerant:
                    self._note_seal_success(sid)
                t0 = time.perf_counter()
                shard_entries = self._collect_round_entries(sid)
                active_s = job.active_s + time.perf_counter() - t0
                self._m_seal_shard_s.observe(active_s)
                shard = self.shards[sid]
                per_shard[sid] = ShardSealStats(
                    txs_sealed=job.txs_sealed,
                    blocks_produced=len(shard_entries),
                    duration_s=active_s + self._pending_ingest_s[sid],
                    mempool_backlog=len(shard.mempool),
                )
                self._pending_ingest_s[sid] = 0.0
                heights[sid] = shard.chain.height
                entries.extend(shard_entries)
            t0 = time.perf_counter()
            with self._tracer.span("round.beacon_commit") as beacon_span:
                beacon_receipt = (
                    self.beacon.anchor_round(entries, timestamp=ts)
                    if entries else None
                )
                beacon_span.set_attr("entries", len(entries))
            beacon_s = time.perf_counter() - t0
            self._m_beacon_s.observe(beacon_s)
        # Advance the anchored watermarks only now, with the round's
        # beacon commitment durable: a seal or beacon failure above
        # leaves the watermarks untouched, so the next successful round
        # re-collects (and actually anchors) the same blocks.
        for sid, height in heights.items():
            self._anchored_height[sid] = height
        report = RoundReport(
            round_no=self.rounds_sealed,
            per_shard=per_shard,
            beacon_receipt=beacon_receipt,
            beacon_duration_s=beacon_s,
            failed_shards=failed_shards,
        )
        self.rounds_sealed += 1
        round_s = time.perf_counter() - round_t0
        self._round_pace_s = (round_s if self._round_pace_s == 0.0
                              else 0.8 * self._round_pace_s + 0.2 * round_s)
        self._m_seal_round_s.observe(round_s)
        self._m_txs_sealed.inc(report.txs_sealed)
        self._last_round = report
        for coordinator in self._coordinators:
            coordinator.on_round_sealed(report)
        if (self.checkpoint_every_rounds > 0
                and self.rounds_sealed % self.checkpoint_every_rounds == 0):
            self.checkpoint()
        return report

    # ------------------------------------------------------------------
    # Replicas (snapshot sync; see repro.sync)
    # ------------------------------------------------------------------
    def spawn_replica(
        self,
        shard_id: int,
        storage_dir: str,
        net,
        node_id: str | None = None,
        peers: Sequence[str] = (),
        anchor_batch_size: int | None = None,
        region: str = "default",
    ):
        """Create a :class:`~repro.sync.replica.ShardReplica` of one
        shard: a durable store directory plus a network identity that
        :meth:`~repro.sync.replica.ShardReplica.catch_up` brings to the
        beacon-anchored head over ``peers`` (snapshot-sync gateway
        nodes) with zero genesis replay.

        The replica inherits the shard's chain parameters and uses
        *this* facade's beacon as its trust root — on a real deployment
        that is the beacon light-client sync the ROADMAP still lists;
        verification only ever touches beacon headers.
        """
        from ..sync.replica import ShardReplica

        shard = self.shard(shard_id)          # validates the id
        if node_id is None:
            node_id = f"replica-{shard.chain.chain_id}-{self._replica_seq}"
            self._replica_seq += 1
        return ShardReplica(
            shard_id=shard_id,
            params=ChainParams(
                chain_id=shard.chain.chain_id,
                max_block_txs=shard.chain.params.max_block_txs,
                reorg_journal_depth=shard.chain.params.reorg_journal_depth,
            ),
            storage_dir=storage_dir,
            net=net,
            node_id=node_id,
            peers=peers,
            beacon=self.beacon,
            anchor_batch_size=(anchor_batch_size if anchor_batch_size
                               is not None else shard.anchor.batch_size),
            region=region,
        )

    def seal_until_drained(self, max_rounds: int = 10_000) -> list[RoundReport]:
        """Seal rounds until every mempool is empty and every shard block
        is beacon-committed (bench/test helper)."""
        reports: list[RoundReport] = []
        while (self.mempool_backlog or self.unanchored_blocks) \
                and len(reports) < max_rounds:
            reports.append(self.seal_round())
        if self.mempool_backlog or self.unanchored_blocks:
            raise ShardError(
                f"mempools not drained after {max_rounds} rounds"
            )
        return reports
