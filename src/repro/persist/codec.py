"""Byte codec for durable storage.

The repo has one canonical, deterministic byte encoding — the
type-tagged, length-prefixed format in :mod:`repro.serialization` that
every hash and signature is computed over.  Durable storage reuses it as
the *wire format* of the segment logs.  :mod:`repro.serialization` owns
both directions of the format (``canonical_decode`` is re-exported here
for the stores and their callers); this module adds the mapping
converters for the three object kinds the stores persist — blocks (with
their transactions), execution receipts, and provenance records.

Using the hash encoding as the storage encoding is what makes the
round-trip guarantees cheap to state: a decoded transaction re-encodes to
the *same bytes* it was hashed over, so a block read back from disk
recomputes the same Merkle root and block hash it had when sealed, and
any on-disk corruption surfaces as a hash mismatch rather than silently
different data.
"""

from __future__ import annotations

from typing import Any

from ..chain.block import Block
from ..chain.receipts import Event, TransactionReceipt
from ..chain.transaction import Transaction, TxKind
from ..crypto.signatures import PublicKey
from ..errors import SerializationError, StorageError
from ..serialization import canonical_decode, canonical_encode

__all__ = [
    "canonical_decode",
    "encode_block",
    "decode_block",
    "encode_record",
    "decode_record",
    "receipt_to_mapping",
    "receipt_from_mapping",
    "transaction_to_mapping",
    "transaction_from_mapping",
]


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------
def _transaction_to_mapping(tx: Transaction) -> dict:
    m = tx.signing_body()
    if tx.signature is not None and tx.signer is not None:
        m["_sig"] = tx.signature
        m["_signer"] = tx.signer.key_bytes
    if tx.is_sealed:
        m["_sealed"] = True
    return m


def _transaction_from_mapping(m: dict) -> Transaction:
    tx = Transaction(
        sender=m["sender"],
        kind=TxKind(m["kind"]),
        payload=m["payload"],
        nonce=m["nonce"],
        timestamp=m["timestamp"],
        fee=m["fee"],
    )
    if "_sig" in m:
        tx.signature = m["_sig"]
        tx.signer = PublicKey(m["_signer"])
    if m.get("_sealed"):
        tx.seal()
    return tx


# Public aliases: the mapping form is also the *wire* form — the
# gateway (repro.gateway) batches many of these inside one canonical
# length-prefixed frame, so a transaction decoded off the socket
# re-encodes to the same bytes it is hashed and signed over.
def transaction_to_mapping(tx: Transaction) -> dict:
    """Canonical-encodable mapping for one transaction (signature,
    signer key, and seal flag included when present)."""
    return _transaction_to_mapping(tx)


def transaction_from_mapping(m: dict) -> Transaction:
    """Exact inverse of :func:`transaction_to_mapping`."""
    return _transaction_from_mapping(m)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------
def encode_block(block: Block) -> bytes:
    """Canonical bytes for one block (header fields + transactions)."""
    header = block.header
    return canonical_encode({
        "height": header.height,
        "prev_hash": header.prev_hash,
        "merkle_root": header.merkle_root,
        "timestamp": header.timestamp,
        "proposer": header.proposer,
        "consensus_meta": dict(header.consensus_meta),
        "nonce": header.nonce,
        "transactions": [_transaction_to_mapping(tx)
                         for tx in block.transactions],
    })


def decode_block(payload: bytes, expected_hash: bytes | None = None) -> Block:
    """Rebuild a block from :func:`encode_block` bytes.

    The block is reconstructed through the normal constructor, so its
    Merkle tree is rebuilt from the decoded transactions; a mismatch with
    the stored ``merkle_root`` (or with ``expected_hash``, when the index
    recorded one) means the bytes were corrupted and raises
    :class:`StorageError` rather than returning a silently different
    block.
    """
    m = canonical_decode(payload)
    block = Block(
        height=m["height"],
        prev_hash=m["prev_hash"],
        transactions=[_transaction_from_mapping(t)
                      for t in m["transactions"]],
        timestamp=m["timestamp"],
        proposer=m["proposer"],
        consensus_meta=m["consensus_meta"],
        nonce=m["nonce"],
    )
    if block.header.merkle_root != m["merkle_root"]:
        raise StorageError(
            f"stored block {m['height']} fails Merkle-root check "
            "(on-disk corruption)"
        )
    if expected_hash is not None and block.block_hash != expected_hash:
        raise StorageError(
            f"stored block {m['height']} does not hash to its indexed "
            "block hash (on-disk corruption)"
        )
    return block


# ---------------------------------------------------------------------------
# Receipts
# ---------------------------------------------------------------------------
def receipt_to_mapping(receipt: TransactionReceipt) -> dict:
    m: dict[str, Any] = {
        "tx_id": receipt.tx_id,
        "success": receipt.success,
        "gas_used": receipt.gas_used,
        "events": [e.to_canonical() for e in receipt.events],
    }
    if receipt.error is not None:
        m["error"] = receipt.error
    if receipt.block_height is not None:
        m["block_height"] = receipt.block_height
    if receipt.output is not None:
        try:
            canonical_encode(receipt.output)
        except SerializationError:
            pass  # non-encodable outputs (live objects) are not persisted
        else:
            m["output"] = receipt.output
    return m


def receipt_from_mapping(m: dict) -> TransactionReceipt:
    return TransactionReceipt(
        tx_id=m["tx_id"],
        success=m["success"],
        gas_used=m["gas_used"],
        output=m.get("output"),
        error=m.get("error"),
        events=[Event(name=e["name"], source=e["source"], data=e["data"])
                for e in m["events"]],
        block_height=m.get("block_height"),
    )


def encode_receipt(receipt: TransactionReceipt) -> bytes:
    return canonical_encode(receipt_to_mapping(receipt))


def decode_receipt(payload: bytes) -> TransactionReceipt:
    return receipt_from_mapping(canonical_decode(payload))


# ---------------------------------------------------------------------------
# Provenance records (plain canonical dicts)
# ---------------------------------------------------------------------------
def encode_record(record: dict) -> bytes:
    return canonical_encode(record)


def decode_record(payload: bytes) -> dict:
    record = canonical_decode(payload)
    if not isinstance(record, dict):
        raise StorageError("stored record did not decode to a mapping")
    return record
