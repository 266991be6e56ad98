"""Retrospective provenance of a run: what actually ran, where.

The sha256 calibration loop is context only — a reader comparing two
result files can see whether the machine itself was slower — and is
never used to normalize a metric.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time

CALIBRATION_ROUNDS = 200_000

#: What the deployments' durable stores do on every seal round (the
#: library's shipped behaviour; the bench sets nothing).
FLUSH_POLICY = ("group commit: one segment-log write + one fsync + one "
                "sqlite transaction per shard per seal round")


def calibrate() -> float:
    """Seconds for a fixed chain of sha256 hashes."""
    digest = b"perfbench"
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - t0


def collect(git_rev: str) -> dict:
    return {
        "git_rev": git_rev,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "flush_policy": FLUSH_POLICY,
        "calibration_sha256_s": calibrate(),
        "calibration_rounds": CALIBRATION_ROUNDS,
    }
