"""Benchmark two checkouts in alternating pairs and write one BENCH_*.json.

For every workload of BENCHMARK.json, in its order, and every seed
1..PAIRS, ``bench/run.py`` runs for the file's ``run_seconds`` once in the
parent checkout and once in the change checkout, each run its own process
started from its checkout's root by this script's own interpreter.  The
parent runs first on odd seeds and the change first on even seeds, so that a
drift of the machine falls on both sides alike.  Every run pins BLAS to one
thread itself.

The output holds, per side and workload, the median of every end-to-end
metric with its quartiles (q1, q3) and the summed ``attempted`` and
``failed`` counts; per workload and metric, in how many of the pairs the
change read lower and in how many higher, and for an end-to-end metric the
paired fields of ``pair_stats``: the per-pair change/parent ratios in seed
order and their median, the pairs the change wins and loses in the
direction BENCHMARK.json gives the metric, and the exact two-sided
sign-test p of those; ``regressions``, every workload's
end-to-end metric whose change median is worse than the parent's by more
than BENCHMARK.json's bound, a share of the parent's median;
``unresolved``, every workload's end-to-end metric whose parent quartile
spread is wider than that bound, so that the runs cannot tell a change of
the bound's size from noise, unless every change run is better than every
parent run; with ``--claim``, the claimed metric's medians, the parent's
quartile spread, the number of pairs in which the change read better, the
gain between the medians, positive when the change is better in the
direction BENCHMARK.json gives the metric, and ``met``: better in at least 9
of 10 pairs, with a gain above the parent's quartile spread; and every run's
metrics, so that each figure can be recomputed.
The file is rewritten after every pair, so a cut run keeps what it measured.
``--claim`` is checked against the workload and end-to-end metric names in
BENCHMARK.json before any run; a name it does not list is a usage error.

Usage: python scripts/bench_pairs.py --parent DIR --change DIR --out FILE
           [--claim relabel_4k:op_s] [--title TEXT]
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

import pair_stats

SIDES = ("parent", "change")
PAIRS = 10  # seeds 1..PAIRS, one pair each
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def order(seed: int) -> tuple:
    """The sides of one pair in run order: the parent first on odd seeds."""
    return SIDES if seed % 2 else SIDES[::-1]


def claim_arg(text: str) -> str:
    """``--claim``'s WORKLOAD:METRIC, if BENCHMARK.json lists the workload and
    the end-to-end metric."""
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    workload, _, metric = text.partition(":")
    if workload not in workloads or metric not in metrics:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not WORKLOAD:METRIC with a workload of {', '.join(workloads)} "
            f"and an end-to-end metric of {', '.join(metrics)}")
    return text


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON line that one ``bench/run.py`` process prints last."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode} without "
                         f"a result:\n{proc.stderr[-2000:]}")


def _quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"value": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list, claim: str | None = None) -> dict:
    """Entries, pair counts, regressions, unresolved metrics and the
    optional claim from the runs, each a dict with ``side``, ``workload``,
    ``seed`` and the run's ``result`` line, in workload order.  A pair counts
    once both of its runs are present."""
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    entries, pairs, values = [], [], {}  # values: (workload, side, metric) -> per-run values
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_side = {side: {r["seed"]: r["result"] for r in runs
                          if r["workload"] == workload and r["side"] == side}
                   for side in SIDES}
        for side in SIDES:
            results = [by_side[side][s] for s in sorted(by_side[side])]
            units = {name: m["unit"] for res in results for name, m in res["metrics"].items()}
            for name in units:
                values[workload, side, name] = [res["metrics"][name]["value"] for res in results]
            entries.append({
                "side": side, "workload": workload, "seeds": sorted(by_side[side]),
                "correct": all(res["correct"] for res in results),
                "attempted": sum(res["attempted"] for res in results),
                "failed": sum(res["failed"] for res in results),
                "metrics": {name: {**_quartiles(values[workload, side, name]), "unit": unit}
                            for name, unit in units.items()},
            })
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        names = sorted({name for res in by_side["parent"].values() for name in res["metrics"]})
        for name in names:
            parent, change = ([by_side[side][s]["metrics"][name]["value"] for s in seeds]
                              for side in SIDES)
            diffs = [c - p for p, c in zip(parent, change)]
            pairs.append({"workload": workload, "metric": name, "pairs": len(seeds),
                          "change_lower": sum(d < 0 for d in diffs),
                          "change_higher": sum(d > 0 for d in diffs),
                          **(pair_stats.paired(parent, change, spec[name]["better"])
                             if name in spec else {})})
    median = {(e["workload"], e["side"], name): m
              for e in entries for name, m in e["metrics"].items()}
    compared = [(workload, name) for workload, side, name in median
                if side == "change" and name in spec and (workload, "parent", name) in median]

    def medians(workload, name):
        return tuple(median[workload, side, name]["value"] for side in SIDES)

    def gain(workload, name):
        """Parent median to change median, positive when the change is better."""
        parent, change = medians(workload, name)
        return parent - change if spec[name]["better"] == "lower" else change - parent

    regressions = []
    for workload, name in compared:
        parent, change = medians(workload, name)
        if -gain(workload, name) > spec[name]["bound"] * abs(parent):
            regressions.append({"workload": workload, "metric": name, "parent_median": parent,
                                "change_median": change, "bound": spec[name]["bound"]})

    def beats_every_parent_run(workload, name):
        change, parent = (values[workload, side, name] for side in ("change", "parent"))
        if spec[name]["better"] == "lower":
            return max(change) < min(parent)
        return min(change) > max(parent)

    unresolved = []
    for workload, name in compared:
        parent = median[workload, "parent", name]
        spread = parent["q3"] - parent["q1"]
        if (spread > spec[name]["bound"] * abs(parent["value"])
                and not beats_every_parent_run(workload, name)):
            unresolved.append({"workload": workload, "metric": name,
                               "parent_median": parent["value"], "parent_iqr": spread,
                               "bound": spec[name]["bound"]})
    out = {"entries": entries, "pairs": pairs, "regressions": regressions,
           "unresolved": unresolved}
    workload, metric = claim.split(":") if claim else (None, None)
    if (workload, metric) in compared:
        better = spec[metric]["better"]
        counts = next(p for p in pairs if p["workload"] == workload and p["metric"] == metric)
        parent, change = medians(workload, metric)
        iqr = median[workload, "parent", metric]["q3"] - median[workload, "parent", metric]["q1"]
        change_better, claimed = counts["wins"], gain(workload, metric)
        out["claim"] = {"workload": workload, "metric": metric, "better": better,
                        "pairs": counts["pairs"], "change_better": change_better,
                        "parent_median": parent, "change_median": change,
                        "parent_iqr": iqr, "gain": claimed,
                        "gain_pct": 100.0 * claimed / parent,
                        "met": 10 * change_better >= 9 * counts["pairs"] > 0 and claimed > iqr}
    return out


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="the parent checkout's root")
    p.add_argument("--change", type=Path, required=True, help="the change checkout's root")
    p.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    p.add_argument("--claim", type=claim_arg,
                   help="WORKLOAD:METRIC whose medians the claim block compares")
    p.add_argument("--title", default="", help="what the change does, in one line")
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = load_spec()
    seconds = spec["run_seconds"]
    header = {
        "change": args.title,
        "parent_commit": commit_of(checkouts["parent"]),
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} "
                   "--trace 0",
        "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}, "
                   f"numpy {np.__version__}; bench/run.py pins BLAS to one thread",
        "protocol": f"{PAIRS} pairs per workload on seeds 1-{PAIRS}, each pair one "
                    "parent run and one change run of the same seed, parent first on odd "
                    "seeds and change first on even seeds; every metric is the median over "
                    "the runs of a side, with its quartiles (q1, q3); attempted and failed "
                    "are summed over the runs; pairs counts the pairs in which the change "
                    "read lower or higher than the parent",
    }
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(1, PAIRS + 1):
            for side in order(seed):
                result = run_once(checkouts[side], workload, seed, seconds)
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "result": result})
                print(f"{workload} seed {seed} {side}: op_s "
                      f"{result['metrics']['op_s']['value']:.4f} correct {result['correct']}",
                      file=sys.stderr, flush=True)
            args.out.write_text(json.dumps({**header, **summarize(runs, args.claim),
                                            "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
