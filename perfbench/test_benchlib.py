"""Tests for the benchmark's own logic: percentiles and the sample-count
rule, self-time and wall accounting with overlapping children, seeded
inputs, failure counting, and the refusal to run without the library.

Run: ``PYTHONPATH=src python3 -m pytest perfbench/test_benchlib.py -q``
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
from benchlib import inputs, stats  # noqa: E402
from benchlib.common import Trial  # noqa: E402
from benchlib.spans import (Span, SpanRecorder, account,  # noqa: E402
                            adopt_orphans, exposed_intervals)


# -- percentiles and the sample-count rule ----------------------------------
def test_nearest_rank_percentile_is_a_sample():
    samples = [float(x) for x in range(1, 101)]
    assert stats.percentile(samples, 50.0) == 50.0
    assert stats.percentile(samples, 99.0) == 99.0
    assert stats.percentile(samples, 100.0) == 100.0
    assert stats.percentile([3.0], 99.0) == 3.0


def test_tail_needs_ten_samples_beyond():
    assert stats.samples_beyond(99.0, 1000) == 10
    assert stats.supports(99.0, 1000)
    assert not stats.supports(99.0, 999)
    assert stats.supports(75.0, 40)
    assert not stats.supports(75.0, 39)
    summary = stats.tail_summary([float(x) for x in range(48)], 75.0)
    assert summary["tail_supported"] and summary["beyond_tail"] == 12


# -- self time and wall accounting -------------------------------------------
def span(sid, parent, start, end, name="persist.x", pid=1, request=None):
    return Span(sid, parent, name, start, end, request, 0, pid)


def test_self_time_with_overlapping_pool_children():
    # A sealing round [0, 10] whose shards ran on two pool threads.
    spans = [span(1, None, 0, 10, "sharding.seal_round"),
             span(2, 1, 1, 4, "chain.append_blocks"),
             span(3, 1, 2, 6, "chain.append_blocks"),
             span(4, 1, 8, 9, "chain.append_blocks")]
    exposed = exposed_intervals(spans)
    assert exposed[1] == [(0, 1), (6, 8), (9, 10)]   # 10 - |[1,6] u [8,9]|
    assert exposed[2] == [(1, 4)]


def test_account_splits_parallel_time_and_sums_to_wall():
    root = span(1, None, 0, 10, "bench.measure")
    spans = [root,
             span(2, 1, 1, 4, "chain.a"),
             span(3, 1, 2, 6, "persist.b")]
    acc = account(spans, root)
    # [1,2] chain alone, [2,4] shared, [4,6] persist alone.
    assert acc["layer_s"]["chain"] == pytest.approx(2.0)
    assert acc["layer_s"]["persist"] == pytest.approx(3.0)
    assert acc["unattributed_s"] == pytest.approx(5.0)
    assert sum(acc["layer_s"].values()) + acc["unattributed_s"] == \
        pytest.approx(acc["wall_s"])
    assert acc["self_total_s"] == pytest.approx(12.0)


def test_adopt_orphans_by_request_then_root():
    root = span(1, None, 0, 10, "bench.measure")
    ack = span(2, 1, 1, 5, "gateway.ack", request="conn1")
    handle = span(3, None, 2, 3, "gateway.handle", pid=2, request="conn1")
    seal = span(4, None, 6, 7, "sharding.seal_round", pid=2)
    late = span(5, None, 11, 12, "sharding.seal_round", pid=2)
    by_id = {s.sid: s for s in adopt_orphans([root, ack, handle, seal, late],
                                             root)}
    assert by_id[3].parent == 2
    assert by_id[4].parent == 1
    assert by_id[5].parent is None


def test_recorder_parents_pool_threads_to_the_round():
    rec = SpanRecorder()
    together = threading.Barrier(4, timeout=10)

    def shard_work():
        together.wait()       # four live threads: four distinct idents

    child = rec.wrap(shard_work, "chain.append_blocks")

    def seal_round():
        threads = [threading.Thread(target=child) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    with rec.span("bench.measure"):
        rec.wrap(seal_round, "sharding.seal_round",
                 publishes_ambient=True)()
    by_name: dict[str, list[Span]] = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (round_span,) = by_name["sharding.seal_round"]
    (root,) = by_name["bench.measure"]
    assert round_span.parent == root.sid
    assert len(by_name["chain.append_blocks"]) == 4
    assert all(s.parent == round_span.sid
               for s in by_name["chain.append_blocks"])
    assert len({s.thread for s in by_name["chain.append_blocks"]}) == 4


# -- seeded inputs -------------------------------------------------------------
def small_inputs(seed: int) -> str:
    subjects = inputs.subject_population(64)
    events = inputs.capture_events(seed, 40, subjects)
    by_subject = {s: [f"r-{s}"] for s in subjects}
    ops = inputs.audit_ops(seed, 200, subjects, by_subject, 0.9,
                           inputs.AuditMix())
    keys = inputs.signer_keys(seed, 2)
    txs = inputs.signed_txs(seed, 10, keys, subjects)
    return inputs.digest(events, ops, txs)


def test_same_seed_same_digest():
    assert small_inputs(7) == small_inputs(7)
    assert small_inputs(7) != small_inputs(8)


# -- failure counting ----------------------------------------------------------
def test_failures_count_against_attempted():
    a, b = Trial(), Trial()
    a.check(True, "fine", n=98)
    a.check(False, "lost tx")
    b.check(False, "unverified answer", n=3)
    for t in (a, b):
        t.ops, t.ops_wall_s, t.latencies = 1, 1.0, [0.001]
    summary = run.summarize([a, b], 50.0)
    assert summary["attempted"] == 102
    assert summary["failed"] == 4
    assert summary["failed_ops_ratio"] == pytest.approx(4 / 102)
    assert a.failures == ["lost tx"]


def test_refuses_to_run_without_the_library(tmp_path):
    lone = tmp_path / "perfbench"
    shutil.copytree(HERE, lone,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(lone / "run.py"), "--workload", "audit_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
