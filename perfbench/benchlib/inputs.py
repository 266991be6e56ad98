"""Seeded input generation.

Everything a workload feeds the library is generated here from the
workload seed, before any clock starts: capture events, signing keys,
signed transactions, Zipf subject draws and the audit read/write mix.
:func:`digest` fingerprints what was generated, so two runs can be shown
to have used identical inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

from repro.chain import Transaction, TxKind
from repro.crypto.signatures import KeyPair

#: Tenant namespaces the capture sources spread over (prime, so tenants
#: do not line up with the 4-way shard split).
N_TENANTS = 41
OPERATIONS = ("observe", "calibrate", "transfer", "inspect")


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, input stream)."""
    return random.Random(f"perfbench:{seed}:{stream}")


def subject_population(n_subjects: int) -> list[str]:
    """``n_subjects`` objects spread round-robin over the tenants."""
    return [f"tenant-{i % N_TENANTS:02d}/obj-{i // N_TENANTS:05d}"
            for i in range(n_subjects)]


def capture_events(seed: int, n: int, subjects: list[str],
                   prefix: str = "e", stream: str = "events"
                   ) -> list[tuple[dict, Transaction]]:
    """``n`` capture events: a provenance record plus the capture
    transaction that reports it, on subjects drawn uniformly."""
    rng = rng_for(seed, stream)
    events = []
    for i in range(n):
        subject = subjects[rng.randrange(len(subjects))]
        actor = f"sensor-{rng.randrange(97):02d}"
        record = {
            "record_id": f"{prefix}{i:07d}", "subject": subject,
            "actor": actor,
            "operation": OPERATIONS[rng.randrange(len(OPERATIONS))],
            "timestamp": i,
        }
        tx = Transaction(
            actor, TxKind.DATA,
            {"subject": subject, "key": f"{prefix}{i}",
             "value": rng.randrange(1 << 30)},
            timestamp=i,
        ).seal()
        events.append((record, tx))
    return events


def every_subject_events(seed: int, subjects: list[str], per_subject: int,
                         prefix: str = "a") -> list[tuple[dict, Transaction]]:
    """Events covering every subject ``per_subject`` times, shuffled —
    so each audited subject has history to answer with."""
    rng = rng_for(seed, "coverage")
    order = [s for s in subjects for _ in range(per_subject)]
    rng.shuffle(order)
    return [
        ({"record_id": f"{prefix}{i:07d}", "subject": subject,
          "actor": f"sensor-{i % 97:02d}",
          "operation": OPERATIONS[i % len(OPERATIONS)], "timestamp": i},
         Transaction(f"sensor-{i % 97:02d}", TxKind.DATA,
                     {"subject": subject, "key": f"{prefix}{i}",
                      "value": rng.randrange(1 << 30)},
                     timestamp=i).seal())
        for i, subject in enumerate(order)
    ]


def signer_keys(seed: int, n: int) -> list[KeyPair]:
    """Deterministic signing keys.  Generating a key also registers it
    with the simulated verifier, so a server process calls this with
    the same arguments to be able to check the signatures."""
    return [KeyPair.generate(("perfbench", seed, k)) for k in range(n)]


def signed_txs(seed: int, n: int, keys: list[KeyPair],
               subjects: list[str]) -> list[Transaction]:
    rng = rng_for(seed, "signed")
    txs = []
    for i in range(n):
        key = keys[rng.randrange(len(keys))]
        tx = Transaction(
            key.address, TxKind.DATA,
            {"subject": subjects[rng.randrange(len(subjects))],
             "key": f"g{i}", "value": rng.randrange(1 << 30)},
            timestamp=i, fee=i,
        )
        txs.append(tx.sign_with(key).seal())
    return txs


def zipf_draws(rng: random.Random, population: list, n: int,
               exponent: float) -> list:
    """``n`` Zipf-skewed draws; rank order is a seeded shuffle of the
    population so the hot items land on every shard."""
    ranked = list(population)
    rng.shuffle(ranked)
    cum = list(itertools.accumulate(
        1.0 / (k ** exponent) for k in range(1, len(ranked) + 1)))
    return rng.choices(ranked, cum_weights=cum, k=n)


@dataclass(frozen=True)
class AuditMix:
    """Shares of the audit loop's operations (they sum to 1)."""

    history: float = 0.55
    trace: float = 0.20
    proof: float = 0.23
    write: float = 0.02


def audit_ops(seed: int, n_ops: int, subjects: list[str],
              records_by_subject: dict[str, list[str]], exponent: float,
              mix: AuditMix) -> list[tuple]:
    """The audit loop's closed sequence of operations:
    ``("history", s)``, ``("trace", s1, s2)``,
    ``("proof", record_id, s)`` and ``("write", burst_index)``.

    Each kind's count is exactly its share of ``n_ops`` (only the order
    is drawn), so every seed does the same number of writes — they cost
    far more than a read, and a seed-dependent count would move the
    op rate by itself."""
    rng = rng_for(seed, "audit-ops")
    counts = {kind: round(share * n_ops)
              for kind, share in vars(mix).items()}
    counts["history"] += n_ops - sum(counts.values())
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    draws = iter(zipf_draws(rng, subjects, 2 * n_ops, exponent))
    ops: list[tuple] = []
    writes = 0
    for kind in kinds:
        s = next(draws)
        if kind == "history":
            ops.append(("history", s))
        elif kind == "trace":
            ops.append(("trace", s, next(draws)))
        elif kind == "proof":
            rids = records_by_subject[s]
            ops.append(("proof", rids[rng.randrange(len(rids))], s))
        else:
            ops.append(("write", writes))
            writes += 1
    return ops


def digest(*parts) -> str:
    """sha256 over a canonical rendering of generated inputs.
    Transactions contribute their id (a hash of their content) and
    signature."""
    h = hashlib.sha256()

    def render(obj):
        if isinstance(obj, Transaction):
            return [obj.tx_id, obj.signature.hex() if obj.signature else ""]
        if isinstance(obj, (list, tuple)):
            return [render(x) for x in obj]
        if isinstance(obj, dict):
            return {str(k): render(v) for k, v in sorted(obj.items())}
        return obj

    for part in parts:
        h.update(json.dumps(render(part), sort_keys=True,
                            separators=(",", ":")).encode())
    return h.hexdigest()
