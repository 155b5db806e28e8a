"""Run the ablation grid on the synthetic benchmark and print a summary table.

The arms are those of ``uda_reid.pipeline.ablation_arms``, all at shared
defaults unless overridden.

Usage: python scripts/run_ablation.py [--seeds 0,1,2,3,4] [--fidelity 0.55]
"""
import argparse
import json
import sys
import time

import numpy as np

from uda_reid.pipeline import ablation_arms


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--fidelity", type=float, default=None,
                    help="override the benchmark's translation fidelity")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    overrides = {} if args.fidelity is None else {"translation_fidelity": args.fidelity}
    started = time.time()
    per_seed = {}
    for seed in seeds:
        per_seed[seed] = ablation_arms(seed, **overrides)
        row = " ".join(f"{k}={v:.3f}" for k, v in per_seed[seed].items())
        print(f"seed {seed}: {row}", file=sys.stderr, flush=True)

    arms = list(next(iter(per_seed.values())))
    medians = {arm: float(np.median([per_seed[s][arm] for s in seeds]))
               for arm in arms}
    summary = {
        "seeds": seeds,
        "medians": {k: round(v, 4) for k, v in medians.items()},
        "deltas": {
            "translated_minus_raw": round(medians["translated"] - medians["raw"], 4),
            "baseline_minus_translated": round(
                medians["baseline"] - medians["translated"], 4),
            "full_minus_ablated": round(medians["full"] - medians["ablated"], 4),
        },
        "wall_time_s": round(time.time() - started, 1),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
