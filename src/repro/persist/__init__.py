"""Pluggable durable storage for chains, records, and state.

Design note (ISSUE 3 tentpole)
------------------------------

The SOK paper's provenance systems assume the ledger *survives*: SciChain
makes durable, auditable storage the core of trustworthy scientific
provenance, and the smart-contract provenance managers it surveys all
depend on a persistent, tamper-evident store.  Before this package, every
store in the library was a Python list or dict — a shard crash meant
genesis replay, and a chain could never outgrow RAM.

Three narrow interfaces (:mod:`repro.persist.stores`) now sit between the
domain layers and their bytes:

* :class:`BlockStore` — committed blocks, the tx index, receipts;
* :class:`RecordStore` — the append-only provenance record list;
* :class:`StateSnapshotStore` — one checkpointed state image.

with two backends each:

* **memory** — the seed's original lists/dicts, extracted behind the
  interface (zero behavior change; still the default everywhere);
* **durable** (:mod:`repro.persist.durable`) — append-only segment logs
  (length-prefixed canonical encodings, per-frame CRC-32, fsync-on-seal;
  :mod:`repro.persist.segment`) indexed by stdlib sqlite3: height→offset,
  tx_id→location, record_id→location, and the state snapshot stored as a
  namespace→key table.

**Why the hash encoding is the wire format.**  Frames hold the *same*
canonical bytes every hash and signature already commits to
(:mod:`repro.serialization`), and
:func:`repro.serialization.canonical_decode` is its exact inverse.  A block read back from disk therefore re-hashes to
the block hash the index recorded — corruption surfaces as a hash
mismatch, never as silently different data, which is precisely the
tamper-evidence argument the chain itself makes.

**Crash recovery.**  The commit point is the sqlite row: log frame first
(flushed), index row second.  On open, :class:`DurableStorage` walks the
index tail backwards past rows whose frames fail CRC, then truncates the
log to the last indexed frame.  Reorgs run the same truncation in the
other order (index rows deleted first), so a crash at *any* byte leaves
the pair reconcilable — the property the fault-injection suite in
``tests/test_persist.py`` exercises frame-byte by frame-byte.

**Restart without replay.**  :class:`~repro.chain.blockchain.Blockchain`
accepts ``store=`` and ``snapshot_store=``; ``checkpoint()`` saves the
state image at the head, and a reopened chain restores it and re-executes
only blocks above the snapshot (``blocks_replayed_on_open`` counts them —
0 after a clean close).  :class:`~repro.sharding.shardchain.ShardedChain`
wires a per-shard directory plus a beacon directory, persisting the
anchor batches, beacon rounds, and the facade's lock/round state in the
meta table, so a restarted deployment serves identical query and proof
results with no genesis replay.  Snapshot sync and 2PC coordinator
recovery (ROADMAP) build on exactly these pieces.
"""

from .codec import canonical_decode, decode_block, encode_block
from .durable import (
    DurableBlockStore,
    DurableRecordStore,
    DurableStateSnapshotStore,
    DurableStorage,
)
from .segment import FRAME_OVERHEAD, CrashPoint, LogLocation, SegmentLog
from .stores import (
    BlockSequenceView,
    BlockStore,
    MemoryBlockStore,
    MemoryMetaStore,
    MemoryRecordStore,
    MemoryStateSnapshotStore,
    MetaStore,
    RecordStore,
    StateSnapshotStore,
)

__all__ = [
    "canonical_decode",
    "encode_block",
    "decode_block",
    "SegmentLog",
    "LogLocation",
    "CrashPoint",
    "FRAME_OVERHEAD",
    "BlockStore",
    "RecordStore",
    "StateSnapshotStore",
    "MetaStore",
    "MemoryBlockStore",
    "MemoryRecordStore",
    "MemoryStateSnapshotStore",
    "MemoryMetaStore",
    "BlockSequenceView",
    "DurableStorage",
    "DurableBlockStore",
    "DurableRecordStore",
    "DurableStateSnapshotStore",
]
