"""Benchmark entry point.

    python3 bench/run.py --workload {train_full,relabel_4k,rerank_3k} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each run is one process with BLAS pinned to
one thread before numpy loads.  It builds its inputs from ``--seed``,
repeats the set-up ``setup_reps`` times (``setup_s`` is their median), then
repeats the workload's operation until ``--seconds`` of operation time have
been measured (``op_s`` is the median round).  The first round's output is
checked against independent recomputations; every later round must repeat
it bit for bit.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` rounds alternate between untraced and traced, and the
metrics are the per-layer figures of the traced rounds plus the tracing
overhead against the untraced ones.  Spans go to ``bench/out/`` as JSONL.
Exit codes: 0 checks passed, 1 a check failed, 2 usage or missing package.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import gc
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from spans import COUNTS, SELF_TIMED, TRACED, Tracer, summarize_roots

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("train_full", "relabel_4k", "rerank_3k")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _note(text):
    print(f"[bench] {text}", file=sys.stderr, flush=True)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, traced):
    tracer = Tracer()
    problems = []

    def timed(fn, arg, root):
        """(seconds, result) of one call, inside a root span when ``root`` is set."""
        gc.collect()
        with tracer.span(root) if root else contextlib.nullcontext():
            start = time.perf_counter()
            out = fn(arg)
            return time.perf_counter() - start, out

    if traced:
        tracer.install()
    setup_times, digests = [], set()
    for _ in range(workload.setup_reps):
        elapsed, state = timed(workload.setup, seed, "bench.setup" if traced else None)
        setup_times.append(elapsed)
        digests.add(workload.setup_digest(state))
    tracer.uninstall()
    if len(digests) != 1:
        problems.append("set-up is not deterministic for a fixed seed")
    _note(f"{workload.name} seed {seed}: set-up x{len(setup_times)} median "
          f"{statistics.median(setup_times):.3f}s")

    plain, with_trace = [], []
    first = peak = accuracy = None
    while (sum(plain) + sum(with_trace) < seconds or not plain
           or (traced and not with_trace)):
        trace_round = traced and len(plain) > len(with_trace)
        if trace_round:
            tracer.install()
        elapsed, out = timed(workload.run, state, "bench.op" if trace_round else None)
        tracer.uninstall()
        (with_trace if trace_round else plain).append(elapsed)
        _note(f"round {len(plain) + len(with_trace)}"
              f"{' traced' if trace_round else ''}: {elapsed:.3f}s")
        if first is None:
            # the first round is untraced; read its peak before any check runs
            peak = _peak_rss_mb()
            first = workload.digest(out)
            problems += workload.check(state, out, np.random.default_rng([seed, 7]))
            accuracy = workload.accuracy(state, out)
        elif workload.digest(out) != first:
            problems.append(f"round {len(plain) + len(with_trace)} output differs from round 1")
        del out

    for problem in problems:
        _note(f"CHECK FAILED: {problem}")
    attempted = len(plain) + len(with_trace)
    if traced:
        metrics = layer_metrics(tracer, plain, problems)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "op_s": _metric(statistics.median(plain), "s"),
            "peak_rss_mb": _metric(peak, "MB"),
            "map_rerank": _metric(accuracy["map_rerank"], "fraction"),
            "label_purity": _metric(accuracy["label_purity"], "fraction"),
        }
    return {"correct": not problems, "attempted": attempted, "failed": 0,
            "metrics": metrics}


def layer_metrics(tracer, plain, problems):
    """Per-layer figures: a function that runs inside the timed operation is
    reported per operation round, one that runs only during set-up per
    set-up repetition; each is the median over those rounds."""
    ops = summarize_roots(tracer, "bench.op")
    setups = summarize_roots(tracer, "bench.setup")

    def phase(name, key="calls"):
        return ops if any(s[key].get(name) for s in ops) else setups

    def median_of(rows, key, name):
        return statistics.median(r[key].get(name, 0) for r in rows)

    out = {}
    for home, fname, _ in TRACED:
        name = f"{home}.{fname}"
        rows = phase(name)
        out[f"{name}_s"] = _metric(median_of(rows, "seconds", name), "s")
        out[f"{name}_calls"] = _metric(median_of(rows, "calls", name), "count")
    for name in SELF_TIMED:
        out[f"{name}_self_s"] = _metric(median_of(phase(name), "self", name), "s")
    for name in COUNTS:
        out[name] = _metric(median_of(phase(name, "counts"), "counts", name), "count")
    rows = phase("pseudolabel.membership_entries", "counts")
    nonzeros = sum(r["counts"].get("pseudolabel.membership_nonzeros", 0) for r in rows)
    entries = sum(r["counts"].get("pseudolabel.membership_entries", 0) for r in rows)
    out["pseudolabel.membership_fill"] = _metric(nonzeros / entries if entries else 0.0,
                                                 "share")

    traced_wall = statistics.median(r["wall"] for r in ops)
    untraced = statistics.median(plain)
    gap = max(abs(sum(r["self"].values()) - r["wall"]) for r in ops)
    if gap > 1e-6:
        problems.append(f"span self times miss the traced operation time by {gap:.3e}s")
    out["trace.op_s"] = _metric(traced_wall, "s")
    out["trace.untraced_op_s"] = _metric(untraced, "s")
    out["trace.overhead_pct"] = _metric(100.0 * (traced_wall / untraced - 1.0), "%")
    out["trace.unattributed_s"] = _metric(
        statistics.median(r["self"]["bench.op"] for r in ops), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"bench: the package under test or its oracles are missing: {exc}",
              file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n")
    print(line, flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
