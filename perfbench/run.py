#!/usr/bin/env python3
"""The repository's benchmark: seeded workloads over the capture and
audit paths, end-to-end metrics by default, per-layer metrics with
``--trace 1``.

Run from the repository root:

    python3 perfbench/run.py --workload capture_durable --seed 1 \
        --seconds 12 --trace 0

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
report every figure by its workload-specific name, with unit and sample
count.  The full result, including the run's provenance, is written to
``perfbench_out/``.  See ``perfbench/README.md`` for the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("capture_durable", "capture_gateway", "audit_mixed",
             "replica_catchup")

#: A run repeats fixed-size trials until their measured regions add up
#: to --seconds, within these counts.  Each trial sets up its own
#: deployment, so set-up time is a median over trials too.
MIN_TRIALS = 3
MAX_TRIALS = 16
#: A traced run alternates untraced and traced trials (U T U T ...) so
#: the tracing overhead is measured in the same run.
MIN_TRACE_TRIALS = 4

#: Metrics printed on the last line, in BENCHMARK.json's order.
END_TO_END = {
    "setup_s": "s", "peak_rss_mib": "MiB", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "restart_s": "s",
    "stored_bytes_per_event": "B",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_library():
    """Put the checkout's ``src`` first on the path; fail if absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no library source at {SRC!r}; run from a "
                 "full checkout of the repository")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def workload_module(name: str):
    from benchlib import audit, capture, gateway, replica
    return {"capture_durable": capture, "capture_gateway": gateway,
            "audit_mixed": audit, "replica_catchup": replica}[name]


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def summarize(trials, tail_p: float) -> dict:
    """The run's figures.  Rates and times of one operation are averaged
    over the run (total ops over total time; the mean of the trials'
    p50s; the mean restart) rather than taken as medians of per-trial
    figures: a shared host switches between speed regimes every few
    seconds, and a median of a few samples jumps between regimes where
    a mean moves with the share of time spent in each.  Tails pool every
    sample of the run, so they rest on enough samples beyond them."""
    from benchlib import stats

    ran = [t for t in trials if t.ops_wall_s > 0] or trials
    lat = [x for t in trials for x in t.latencies]
    trial_p50 = [stats.percentile(t.latencies, 50.0)
                 for t in trials if t.latencies]
    restart = [x for t in trials for x in t.restarts] or [0.0]
    ran_s = sum(t.ops_wall_s for t in ran)
    proof = [x for t in trials for x in t.proof_verify_s]
    attempted = sum(t.attempted for t in trials)
    failed = sum(t.failed for t in trials)
    tail = stats.tail_summary(lat, tail_p) if lat else None
    return {
        "setup_s": median([t.setup_s for t in ran]),
        "peak_rss_mib": peak_rss_mib(),
        "ops_per_s": sum(t.ops for t in ran) / ran_s if ran_s else 0.0,
        "op_p50_ms": fmean(trial_p50) * 1e3 if trial_p50 else 0.0,
        "op_tail_ms": tail["tail"] * 1e3 if tail else 0.0,
        "restart_s": fmean(restart),
        "stored_bytes_per_event": (
            sum(t.stored_bytes for t in trials)
            / max(1, sum(t.stored_events for t in trials))),
        "proof_verify_p50_ms": (stats.percentile(proof, 50.0) * 1e3
                                if proof else 0.0),
        "failed_ops_ratio": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
        "samples": {
            "trials": len(trials),
            "setup_s": len(trials),
            "restart_s": len(restart),
            "op_latency": len(lat),
            "op_tail_p": tail_p,
            "op_tail_beyond": tail["beyond_tail"] if tail else 0,
            "op_tail_supported": tail["tail_supported"] if tail else False,
            "proof_verify": len(proof),
            "ops": sum(t.ops for t in trials),
        },
    }


def enough(trials: list, seconds: float, minimum: int) -> bool:
    if trials and trials[-1].aborted:
        return True
    return len(trials) >= MAX_TRIALS or (
        len(trials) >= minimum
        and sum(t.measured_s for t in trials) >= seconds)


def guarded_trial(mod, ctx, data, **traced):
    """One trial.  A raise from the library counts as one failed op and
    ends the run's trials; the run then reports and exits non-zero."""
    from benchlib.common import Trial

    gc.collect()
    try:
        return mod.trial(ctx, data, **traced)
    except Exception:       # the run's boundary: record, then report
        t = Trial(aborted=True)
        t.check(False, traceback.format_exc(limit=3).strip()
                .splitlines()[-1])
        return t


def run_untraced(mod, ctx, data) -> tuple[list, dict]:
    trials: list = []
    while not enough(trials, ctx.seconds, MIN_TRIALS):
        trials.append(guarded_trial(mod, ctx, data))
    return trials, summarize(trials, mod.TAIL_P)


def run_traced(mod, ctx, data) -> tuple[list, dict, list]:
    from benchlib import layers
    from benchlib.spans import Patcher, SpanRecorder, adopt_orphans

    rec = SpanRecorder()
    roots: list = []
    plain: list = []
    traced: list = []
    while not enough(plain + traced, ctx.seconds, MIN_TRACE_TRIALS):
        if len(plain) <= len(traced):
            plain.append(guarded_trial(mod, ctx, data))
            continue
        with Patcher(rec, layers.PATCHES):
            traced.append(guarded_trial(mod, ctx, data, rec=rec,
                                        roots=roots))

    def rate(ts: list) -> float:
        return median([t.ops / t.ops_wall_s for t in ts
                             if t.ops_wall_s] or [0.0])

    overhead = rate(plain) / rate(traced) if rate(traced) else 0.0
    spans = list(rec.spans) + [s for t in traced for s in t.spans]
    for root in roots:
        spans = adopt_orphans(spans, root)
    counters = dict(rec.counters)
    counters["ingest.backlog_max"] = max(
        [rec.maxima.get("ingest.backlog", 0.0)]
        + [t.counters.pop("ingest.backlog_max", 0.0) for t in traced])
    for t in traced:
        for key, value in t.counters.items():
            counters[key] = counters.get(key, 0.0) + value
    obs = {k: counters.pop(k, 0.0) for k in layers.OBS_SERIES}
    metrics = layers.per_layer_metrics(spans, roots, counters, obs,
                                       overhead)
    return plain + traced, metrics, spans


def git_rev(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    'unknown' in an exported tree."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    from benchlib import runinfo
    from benchlib.common import Ctx

    root = os.getcwd()
    mod = workload_module(args.workload)
    workdir = os.path.join(root, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    outdir = os.path.join(root, "perfbench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    ctx = Ctx(seed=args.seed, seconds=args.seconds, workdir=workdir)
    try:
        t0 = time.perf_counter()
        data = mod.make_inputs(args.seed)
        inputs_s = time.perf_counter() - t0
        if args.trace:
            trials, layer_metrics, spans = run_traced(mod, ctx, data)
            summary = summarize(trials, mod.TAIL_P)
        else:
            trials, summary = run_untraced(mod, ctx, data)
            layer_metrics, spans = None, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    named = mod.named_metrics(trials, summary)
    result = {
        "workload": args.workload,
        "prospective": {
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "config": mod.CONFIG,
        },
        "retrospective": dict(
            runinfo.collect(git_rev(root)),
            input_digest=data["digest"], inputs_s=inputs_s,
            samples=summary["samples"],
            executor_used=sorted({t.executor for t in trials}),
        ),
        "end_to_end": {k: summary[k] for k in END_TO_END},
        "named": {k: {"value": v, "unit": u, "n": n}
                  for k, (v, u, n) in named.items()},
        "proof_verify_p50_ms": summary["proof_verify_p50_ms"],
        "failed_ops_ratio": summary["failed_ops_ratio"],
        "failures": [f for t in trials for f in t.failures][:20],
        "per_layer": layer_metrics,
    }
    with open(os.path.join(outdir, tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, default=str)
    if spans:
        from benchlib.spans import dump_spans
        dump_spans(spans, os.path.join(outdir, tag + ".spans.jsonl"))

    report(args, mod, summary, named, result)
    correct = summary["failed"] == 0
    if args.trace:
        from benchlib.layers import PER_LAYER
        metrics = {k: {"value": layer_metrics[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


def report(args, mod, summary, named, result) -> None:
    s = summary["samples"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"trials={s['trials']} input_digest="
          f"{result['retrospective']['input_digest'][:16]}")
    print(f"# op = {mod.OP}")
    for name, (value, unit, n) in named.items():
        print(f"{name:>28} = {value:.6g} {unit} (n={n})")
    if s["proof_verify"]:
        print(f"{'proof_verify_p50_ms':>28} = "
              f"{summary['proof_verify_p50_ms']:.6g} ms "
              f"(n={s['proof_verify']})")
    for name, unit in END_TO_END.items():
        n = {"setup_s": s["setup_s"], "restart_s": s["restart_s"],
             "op_p50_ms": s["op_latency"], "op_tail_ms": s["op_latency"],
             "ops_per_s": s["trials"],
             "stored_bytes_per_event": s["trials"]}.get(name, 1)
        extra = (f" p{s['op_tail_p']:g}, {s['op_tail_beyond']} beyond"
                 f"{'' if s['op_tail_supported'] else ' (UNSUPPORTED)'}"
                 if name == "op_tail_ms" else "")
        print(f"{name:>28} = {summary[name]:.6g} {unit} (n={n}{extra})")
    print(f"{'failed_ops_ratio':>28} = {summary['failed_ops_ratio']:.6g} "
          f"({summary['failed']}/{summary['attempted']})")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    layer = result["per_layer"]
    if layer:
        print(f"# per-layer: unattributed "
              f"{layer['trace.unattributed_share']:.3f}, parallelism "
              f"{layer['trace.parallelism']:.3f}, trace overhead "
              f"{layer['obs.trace_overhead']:.3f}")


if __name__ == "__main__":
    sys.exit(main())
