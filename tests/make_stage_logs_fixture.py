"""Regenerate fixtures/stage_logs.jsonl.

The fixture holds the per-epoch run-log records of the three training stages
on a tiny fixed-seed benchmark, one JSON object per record tagged with its
case name.  ``test_pipeline.py`` reruns every case and compares the records:
floats to 1e-9 relative, integers and flags exactly.  Regenerating is only
right when a change is meant to move training output; say so where the
change is recorded.

The cases cover every stage with and without a validation split, plain
cross-entropy and the margin heads, joint-source batches on and off, a
learning-rate schedule with milestones, and epochs skipped for lack of clusters.

``--check`` regenerates every case in memory and compares the result byte
for byte with the committed fixture instead of writing it.  It exits 1 and
names the first case that differs on a mismatch, so a change meant to keep
training output bitwise identical can show that it did.

Run as a script, it pins BLAS and OpenMP to one thread before numpy loads,
the condition under which the byte-identity claims are made; importing it
changes no environment variable.

Usage: PYTHONPATH=src python tests/make_stage_logs_fixture.py [--check]
"""
import json
import os
import pathlib
import sys

if __name__ == "__main__":
    from uda_reid.cli import THREAD_VARS  # cli loads no numpy at import
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import numpy as np

from uda_reid.pipeline import (LossMode, StageConfig, default_benchmark,
                               stage_baseline, stage_mmt_plus, stage_pretrain)

OUT = pathlib.Path(__file__).parent / "fixtures" / "stage_logs.jsonl"

TINY_BENCH = dict(train_per_id=6, val_per_id=4, num_ids_source=8,
                  num_ids_target=8, raw_dim=16)
TINY_CFG = dict(epochs=3, iters_per_epoch=4, p_classes=4, k_per=2,
                encoder_dim=8, queue_capacity=32, k=10)
ARCFACE = dict(loss_mode=LossMode.ARCFACE)
STEP_LR = dict(lr_milestones=(1, 2), lr_gamma=0.5)
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


def render_case(name: str) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in run_case(name))


def check() -> int:
    """0 if every case regenerates to the committed bytes, else 1."""
    committed = OUT.read_text()
    cases = {name: render_case(name) for name in CASES}
    if "".join(cases.values()) == committed:
        print(f"{OUT} matches ({len(CASES)} cases)")
        return 0
    for name, text in cases.items():
        want = "".join(line for line in committed.splitlines(keepends=True)
                       if json.loads(line)["case"] == name)
        if text != want:
            print(f"case {name!r} differs from {OUT}:\n"
                  f"  committed:   {want!r}\n  regenerated: {text!r}")
            return 1
    print(f"{OUT} differs in case order or holds extra records")
    return 1


def main(argv) -> int:
    if argv == ["--check"]:
        return check()
    if argv:
        print("usage: make_stage_logs_fixture.py [--check]", file=sys.stderr)
        return 2
    OUT.parent.mkdir(exist_ok=True)
    text = "".join(render_case(name) for name in CASES)
    OUT.write_text(text)
    print(f"wrote {OUT} ({text.count(chr(10))} records, {len(CASES)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
