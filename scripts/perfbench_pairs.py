#!/usr/bin/env python3
"""Paired runs of the repository benchmark: a base commit vs the
working tree.

    python3 scripts/perfbench_pairs.py --workload capture_durable \\
        --base HEAD [--pairs 10] [--seed0 101]

(``make perfbench-pairs WORKLOAD=... BASE=... PAIRS=10 SEED0=...``).

The base commit is exported with ``git archive`` into a temporary
directory (``$TMPDIR``), which is removed at the end; the working tree
runs as it stands, uncommitted edits included.  Pair ``i`` runs
``perfbench/run.py --seed SEED0+i`` once on each side, for the
``run_seconds`` that ``BENCHMARK.json`` fixes.  The side that goes
first alternates from pair to pair, so a drift in machine speed does
not favour either side.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the working tree won (by the
metric's ``better`` direction), and whether the two medians differ by
more than the base side's inter-quartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--base", required=True,
                    help="commit to compare the working tree against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=101)
    return ap.parse_args(argv)


def export_tree(rev: str, dest: str) -> None:
    """Extract ``rev`` into ``dest`` (no checkout, no .git changes)."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its JSON result line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"run failed in {tree} (seed {seed}, exit "
                         f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name = metric["name"]
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        work = [r["work"]["metrics"][name]["value"] for r in runs]
        lower = metric["better"] == "lower"
        wins = sum((w < b) if lower else (w > b)
                   for b, w in zip(base, work))
        bq, wq = quartiles(base), quartiles(work)
        out[name] = {
            "base_q1_median_q3": bq,
            "work_q1_median_q3": wq,
            "ratio": wq[1] / bq[1] if bq[1] else None,
            "wins": wins,
            "pairs": len(runs),
            "beyond_base_iqr": abs(wq[1] - bq[1]) > (bq[2] - bq[0]),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    metrics = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    tmp = tempfile.mkdtemp(prefix="perfbench-base-")
    runs = []
    try:
        base_tree = os.path.join(tmp, "base")
        export_tree(args.base, base_tree)
        sides = {"base": base_tree, "work": ROOT}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("base", "work") if i % 2 == 0 else ("work", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], args.workload, seed,
                                      seconds)
            runs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed} "
                  f"({order[0]} first): failed base "
                  f"{pair['base']['failed']} work {pair['work']['failed']}",
                  flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(runs, metrics)
    print(f"\n{args.workload}: {args.base} (base) vs working tree, "
          f"{len(runs)} pairs, seeds {args.seed0}.."
          f"{args.seed0 + len(runs) - 1}, --seconds {seconds:g}")
    print(f"{'metric':>24} {'base q1/med/q3':>28} {'work q1/med/q3':>28}"
          f" {'ratio':>6} {'wins':>6} {'>IQR':>5}")
    for name, s in summary.items():
        fmt = "/".join(f"{v:.4g}" for v in s["base_q1_median_q3"])
        fmt_w = "/".join(f"{v:.4g}" for v in s["work_q1_median_q3"])
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        print(f"{name:>24} {fmt:>28} {fmt_w:>28} {ratio:>6} "
              f"{s['wins']:>3}/{s['pairs']:<2} "
              f"{'yes' if s['beyond_base_iqr'] else 'no':>5}")
    failed = sum(r[side]["failed"] for r in runs for side in ("base", "work"))
    print(f"failed ops over all runs: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
