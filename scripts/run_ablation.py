"""Run the ablation grid on the synthetic benchmark and print a summary table.

The arms are those of ``uda_reid.pipeline.ablation_arms``, all at shared
defaults unless overridden.  Each seed's row goes to stderr as it finishes;
the JSON on stdout holds the per-arm medians and, under ``per_seed``, every
arm's mAP per seed at full precision.

Run as a script, it pins BLAS and OpenMP to one thread before numpy loads,
the condition under which end-to-end timings such as its ``wall_time_s``
are taken; importing it changes no environment variable.

Usage: python scripts/run_ablation.py [--seeds 0,1,2,3,4] [--fidelity 0.55]
"""
import argparse
import json
import os
import sys
import time

if __name__ == "__main__":
    from uda_reid.cli import THREAD_VARS  # cli loads no numpy at import
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import numpy as np

from uda_reid.datamodel import SynthConfig
from uda_reid.errors import ConfigError
from uda_reid.pipeline import ablation_arms


def seed_list(text: str) -> list[int]:
    """``--seeds``: comma-separated integers >= 0, each named once."""
    seeds = []
    for entry in text.split(","):
        if not entry.strip().isdecimal():
            raise argparse.ArgumentTypeError(f"each seed must be an integer >= 0, got {entry!r}")
        if int(entry) in seeds:
            raise argparse.ArgumentTypeError(f"seed {int(entry)} is named twice")
        seeds.append(int(entry))
    return seeds


def fidelity(text: str) -> float:
    """``--fidelity``: a translation fidelity that ``SynthConfig`` accepts."""
    try:
        return SynthConfig(translation_fidelity=float(text)).validate().translation_fidelity
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=seed_list, default="0,1,2,3,4")
    ap.add_argument("--fidelity", type=fidelity, default=None,
                    help="override the benchmark's translation fidelity")
    args = ap.parse_args(argv)
    seeds = args.seeds

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
        "per_seed": per_seed,
        "wall_time_s": round(time.time() - started, 1),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
