"""What every workload shares: the run context, trial bookkeeping,
deployment helpers and the correctness checks."""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field

from repro.sharding import ShardedChain, ShardedQueryEngine

from .layers import obs_delta, obs_totals
from .spans import SpanRecorder

#: The shipped default the sharded workloads run with.
N_SHARDS = 4


@dataclass
class Ctx:
    """One benchmark run: its seed, measuring time and the scratch
    directory every deployment lives under."""

    seed: int
    seconds: float
    workdir: str
    _seq: int = 0

    def fresh_dir(self, name: str) -> str:
        self._seq += 1
        path = os.path.join(self.workdir, f"{name}-{self._seq}")
        os.makedirs(path)
        return path


@dataclass
class Trial:
    """What one trial measured.  ``latencies`` are per-op seconds for
    the workload's headline op; ``ops``/``ops_wall_s`` give its rate."""

    setup_s: float = 0.0
    #: Wall time of the trial's measured region.
    measured_s: float = 0.0
    restarts: list[float] = field(default_factory=list)
    ops: int = 0
    ops_wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    stored_bytes: int = 0
    stored_events: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    proof_verify_s: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Spans another process recorded (the gateway server child).
    spans: list = field(default_factory=list)
    #: The seal executor the deployment actually resolved to.
    executor: str = ""
    #: The trial raised and stopped early.
    aborted: bool = False

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        """One checked op (or ``n``): counted attempted, failed unless
        ``ok``."""
        self.attempted += n
        if not ok:
            self.fail(what, n)


class Measured:
    """A measured region of a trial.  Untraced it is a plain clock;
    traced it is also a root span the layer spans descend from."""

    def __init__(self, rec: SpanRecorder | None, roots: list | None,
                 name: str = "bench.measure") -> None:
        self.rec = rec
        self.roots = roots
        self.name = name

    def __enter__(self) -> "Measured":
        if self.rec is not None:
            self._obs0 = obs_totals()
            self._span = self.rec.span(self.name).__enter__()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.t0
        if self.rec is not None:
            self._span.__exit__(*exc)
            self.roots.append(self._span.span)
            for key, value in obs_delta(self._obs0, obs_totals()).items():
                self.rec.add(key, value)


def executor_used(sharded: ShardedChain) -> str:
    """The seal engine ``executor="auto"`` resolves to (the same rule
    ``ShardedChain.seal_round`` applies)."""
    if sharded.executor != "auto":
        return sharded.executor
    return "thread" if sharded.seal_workers > 1 else "serial"


def disk_bytes(sharded: ShardedChain) -> int:
    """Hot-tier bytes of every shard store (``DurableStorage.disk_usage``)."""
    return sum(shard.storage.disk_usage() for shard in sharded.shards)


def seal_everything(pipeline) -> None:
    """Drain queues and mempools, force the pending anchor batches out,
    and seal one more round.

    ``run_until_drained`` stops once queues and mempools are empty, but
    the anchor blocks ``flush_anchors`` appends are only committed to the
    beacon by a *later* round; without the extra round, records in the
    last anchor batches answer ``verified=False`` — before and after a
    reopen.
    """
    pipeline.run_until_drained()
    pipeline.sharded.flush_anchors()
    pipeline.seal_round()


def first_verified_history(path: str, n_shards: int, subject: str):
    """Reopen a closed deployment and answer one verified history."""
    sharded = ShardedChain(n_shards, storage_dir=path)
    engine = ShardedQueryEngine(sharded)
    return sharded, engine.history_verified(subject).verified


def restarts(trial: Trial, times: int, reopen, rec=None, roots=None):
    """Reopen a closed deployment ``times`` times, each timed from the
    constructor to the first verified answer; ``reopen()`` returns
    ``(sharded, verified)``.  The last reopened deployment is returned
    open.  Each reopen starts from a collected heap, so a collection
    the previous phase left due does not land in the timed region."""
    for k in range(times):
        gc.collect()
        with Measured(rec, roots, "bench.restart") as m:
            sharded, verified = reopen()
        trial.restarts.append(m.wall_s)
        trial.check(verified, "first verified answer after restart failed")
        if k < times - 1:
            sharded.close()
    return sharded


def check_committed(trial: Trial, sharded: ShardedChain, txs) -> None:
    """Every submitted transaction is on its home shard's chain, and the
    whole deployment verifies."""
    try:
        sharded.verify_all()
        trial.check(True, "verify_all")
    except Exception as exc:  # any failure is a failed check, reported
        trial.check(False, f"verify_all: {exc!r}")
    router = sharded.router
    lost = sum(
        1 for tx in txs
        if sharded.shards[router.route(tx)].storage.blocks
        .tx_location(tx.tx_id) is None)
    trial.attempted += len(txs)
    if lost:
        trial.fail(f"{lost} of {len(txs)} txs not committed", lost)


def audit_sample(trial: Trial, sharded: ShardedChain,
                 engine: ShardedQueryEngine, records: list[dict]) -> None:
    """Verified history plus a checked federated proof for each sampled
    record; proof verification is timed into ``proof_verify_s``."""
    beacon = sharded.beacon.chain
    for record in records:
        rid, subject = record["record_id"], record["subject"]
        try:
            trial.check(engine.history_verified(subject).verified,
                        f"history {subject} not verified")
            proof = engine.federated_proof(rid, subject)
            header = beacon.block_at(proof.beacon_height).header
            stored = sharded.shard_for_subject(subject).database.get(rid)
            t0 = time.perf_counter()
            ok = proof.verify(stored, header)
            trial.proof_verify_s.append(time.perf_counter() - t0)
            trial.check(ok, f"proof {rid} did not verify")
        except Exception as exc:  # a raise is a failed check
            trial.check(False, f"audit of {rid} raised {exc!r}")


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
