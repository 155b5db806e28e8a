"""Regenerate fixtures/stage_logs.jsonl.

The fixture holds the per-epoch run-log records of the three training stages
on a tiny fixed-seed benchmark, one JSON object per record tagged with its
case name.  ``test_pipeline.py`` reruns every case and compares the records:
floats to 1e-9 relative, integers and flags exactly.  Regenerating is only
right when a change is meant to move training output; say so where the
change is recorded.

The cases cover every stage with and without a validation split, plain
cross-entropy and the margin heads, joint-source batches on and off, the
step learning-rate schedule, and epochs skipped for lack of clusters.

Usage: PYTHONPATH=src python tests/make_stage_logs_fixture.py
"""
import json
import pathlib

import numpy as np

from uda_reid.pipeline import (LossMode, StageConfig, default_benchmark,
                               stage_baseline, stage_mmt_plus, stage_pretrain)

OUT = pathlib.Path(__file__).parent / "fixtures" / "stage_logs.jsonl"

TINY_BENCH = dict(train_per_id=6, val_per_id=4, num_ids_source=8,
                  num_ids_target=8, raw_dim=16)
TINY_CFG = dict(epochs=3, iters_per_epoch=4, p_classes=4, k_per=2,
                encoder_dim=8, queue_capacity=32, k=10)
ARCFACE = dict(loss_mode=LossMode.ARCFACE)
STEP_LR = dict(lr_schedule="step", lr_milestones=(1, 2), lr_gamma=0.5)
NO_CLUSTERS = dict(eps=1e-6)

# name -> (stage, config overrides, evaluate on the validation split)
CASES = {
    "pretrain-plain": ("pretrain", {}, True),
    "pretrain-arcface-step": ("pretrain", {**ARCFACE, **STEP_LR}, False),
    "baseline-plain": ("baseline", {}, True),
    "baseline-arcface": ("baseline", ARCFACE, False),
    "baseline-cosface-step": ("baseline", {"loss_mode": LossMode.COSFACE, **STEP_LR}, False),
    "baseline-skipped": ("baseline", NO_CLUSTERS, True),
    "mmt-joint-plain": ("mmt_plus", {}, True),
    "mmt-solo-plain": ("mmt_plus", {"joint_source": False}, False),
    "mmt-joint-arcface-step": ("mmt_plus", {**ARCFACE, **STEP_LR}, False),
    "mmt-solo-arcface": ("mmt_plus", {**ARCFACE, "joint_source": False}, True),
    "mmt-skipped": ("mmt_plus", NO_CLUSTERS, True),
}


def run_case(name: str) -> list[dict]:
    """The case's run-log records as JSON objects, each tagged with the name."""
    stage, overrides, with_val = CASES[name]
    bench = default_benchmark(seed=0, **TINY_BENCH)
    val = bench.val_split if with_val else None
    cfg = StageConfig(**{**TINY_CFG, **overrides})
    if stage == "pretrain":
        _, log = stage_pretrain(bench.translated, cfg, val_split=val)
    else:
        pretrained, _ = stage_pretrain(bench.translated, StageConfig(**TINY_CFG))
        target = bench.target_train.subset(np.arange(bench.target_train.n))
        if stage == "baseline":
            _, log = stage_baseline(pretrained, target, cfg, val_split=val)
        else:
            _, log = stage_mmt_plus(pretrained, bench.source, target, cfg,
                                    val_split=val)
    return [{"case": name, **json.loads(line)}
            for line in log.to_jsonl().splitlines()]


def main():
    OUT.parent.mkdir(exist_ok=True)
    records = [rec for name in CASES for rec in run_case(name)]
    OUT.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    print(f"wrote {OUT} ({len(records)} records, {len(CASES)} cases)")


if __name__ == "__main__":
    main()
