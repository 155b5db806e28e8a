"""Stage orchestration: configs, run logs, the three training stages, and
the bundled benchmark."""
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import make_stage_logs_fixture as stage_logs
from uda_reid import losses, pipeline
from uda_reid.datamodel import PSEUDO_OUTLIER, Dataset
from uda_reid.encoder import EncoderParams, encode_dataset, init_params, unstack_params
from uda_reid.errors import ConfigError, DivergenceError
from uda_reid.losses import LossOut
from uda_reid.datamodel import config_from_kv, parse_kv
from uda_reid.pseudolabel import PseudoLabeling
from uda_reid.retrieval import QueryGallerySplit
from uda_reid.pipeline import (Benchmark, EpochRecord, LossMode, RunLog,
                               StageConfig, default_benchmark,
                               eval_encoder, run_full_pipeline, stage_baseline,
                               stage_mmt_plus, stage_pretrain)

TINY_BENCH = dict(train_per_id=6, val_per_id=4, num_ids_source=8,
                  num_ids_target=8, raw_dim=16)


def tiny_cfg(**overrides):
    base = dict(epochs=2, iters_per_epoch=4, p_classes=4, k_per=2,
                encoder_dim=8, queue_capacity=32, k=10)
    base.update(overrides)
    return StageConfig(**base)


@pytest.fixture(scope="module")
def bench():
    return default_benchmark(seed=0, **TINY_BENCH)


@pytest.fixture(scope="module")
def pretrained(bench):
    params, _ = stage_pretrain(bench.translated, tiny_cfg())
    return params


def fresh_target(bench):
    """Stage runs write pseudo labels in place; hand each test its own copy."""
    return bench.target_train.subset(np.arange(bench.target_train.n))


def all_equal(a: EncoderParams, b: EncoderParams) -> bool:
    return all(np.array_equal(arr, b.all_arrays()[name])
               for name, arr in a.all_arrays().items())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_config_validates():
    StageConfig()


def test_lr_schedule():
    cfg = StageConfig(lr=0.1)  # no milestones by default: lr throughout
    assert cfg.lr_milestones == ()
    assert cfg.lr_at(0) == cfg.lr_at(99) == 0.1
    # milestones alone decay it: lr * lr_gamma ** (milestones passed)
    cfg = StageConfig(lr=0.1, lr_milestones=(2, 4), lr_gamma=0.1)
    assert cfg.lr_at(0) == cfg.lr_at(1) == 0.1  # bitwise before the first
    assert cfg.lr_at(2) == pytest.approx(0.01)
    assert cfg.lr_at(3) == pytest.approx(0.01)
    assert cfg.lr_at(4) == pytest.approx(0.001)


RANGE_CASES = [
    (dict(iters_per_epoch=0), "iters_per_epoch"),
    (dict(epochs=-1), "epochs"),
    (dict(lambda_soft=1.5), "lambda_soft"),
    (dict(lambda_moco=-0.1), "lambda_moco"),
    (dict(alpha=-0.1), "alpha"),
    (dict(weight_decay=-1.0), "weight_decay"),
    (dict(margin=-0.5), "margin"),
    (dict(seed=-1), "seed"),
    (dict(tau=0.0), "tau"),
    (dict(scale=0.0), "scale"),
    (dict(lr=0.0), "lr"),
    (dict(queue_capacity=0), "queue_capacity"),
    (dict(eps=0.0), "eps"),
    (dict(min_pts=0), "min_pts"),
    (dict(lr_milestones=(2, -1)), "lr_milestones"),
]


@pytest.mark.parametrize("kwargs,field", RANGE_CASES)
def test_config_validation_errors(kwargs, field):
    # the one check of each range: the kernels take validated values
    with pytest.raises(ConfigError, match=field):
        StageConfig(**kwargs)


def as_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("build", ["replace", "config_from_kv"])
@pytest.mark.parametrize("kwargs,field", RANGE_CASES,
                         ids=[field for _, field in RANGE_CASES])
def test_config_rule_raises_through_every_builder(build, kwargs, field):
    # a StageConfig is valid once built: a copy with a field replaced and a
    # config parsed from text go through the same constructor
    with pytest.raises(ConfigError, match=f"'{field}': "):
        if build == "replace":
            replace(StageConfig(), **kwargs)
        else:
            config_from_kv(StageConfig, {k: as_text(v) for k, v in kwargs.items()})


@pytest.mark.parametrize("kwargs", [
    dict(alpha=0.0), dict(alpha=1.0), dict(lambda_soft=0.0), dict(lambda_soft=1.0),
    dict(lambda_moco=0.0), dict(margin=0.0), dict(weight_decay=0.0),
    dict(lr_milestones=(0, 3)),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_config_accepts_boundary_values(kwargs):
    StageConfig(**kwargs)


def test_config_from_kv_parses_every_type():
    cfg = config_from_kv(StageConfig, {
        "epochs": "3", "lr": "0.01", "loss_mode": "cosface",
        "joint_source": "false", "lr_milestones": "3,5", "alpha": "0.9",
    })
    assert cfg.epochs == 3
    assert cfg.lr == 0.01
    assert cfg.loss_mode is LossMode.COSFACE
    assert cfg.joint_source is False
    assert cfg.lr_milestones == (3, 5)
    assert cfg.alpha == 0.9
    assert config_from_kv(StageConfig, {"joint_source": "1"}).joint_source is True


def test_config_from_kv_errors():
    with pytest.raises(ConfigError, match="unknown configuration"):
        config_from_kv(StageConfig, {"bogus": "1"})
    with pytest.raises(ConfigError, match="loss mode"):
        config_from_kv(StageConfig, {"loss_mode": "softmax"})
    with pytest.raises(ConfigError, match="boolean"):
        config_from_kv(StageConfig, {"joint_source": "maybe"})
    with pytest.raises(ConfigError, match="epochs"):
        config_from_kv(StageConfig, {"epochs": "abc"})
    # a negative milestone would decay the rate from epoch 0
    with pytest.raises(ConfigError,
                       match=r"'lr_milestones': must be >= 0, got \(-3, 0\)"):
        config_from_kv(StageConfig, {"lr_milestones": "-3,0"})


def test_load_stage_config(tmp_path):
    path = tmp_path / "stage.conf"
    path.write_text("# training\nepochs = 4\nlr = 0.005  # small\nlr_milestones = 2\n")
    cfg = config_from_kv(StageConfig, parse_kv(path.read_text()))
    assert cfg.epochs == 4 and cfg.lr == 0.005 and cfg.lr_milestones == (2,)
    assert cfg.lr_at(1) == 0.005 and cfg.lr_at(2) == 0.005 * cfg.lr_gamma


# ---------------------------------------------------------------------------
# run logging
# ---------------------------------------------------------------------------

def test_epoch_record_drops_unset_fields():
    rec = EpochRecord(epoch=2, cls=0.5)
    assert rec.to_dict() == {"epoch": 2, "cls": 0.5}
    skipped = EpochRecord(epoch=0, skipped=True, num_clusters=0)
    assert skipped.to_dict() == {"epoch": 0, "skipped": True, "num_clusters": 0}


def test_runlog_jsonl_shape():
    log = RunLog(stage="pretrain", seed=7)
    log.records += [EpochRecord(epoch=0, cls=1.0, lr=0.002),
                    EpochRecord(epoch=1, cls=0.5, lr=0.002)]
    text = log.to_jsonl()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert obj["stage"] == "pretrain" and obj["seed"] == 7
        assert json.dumps(obj, sort_keys=True) == line
    assert RunLog(stage="x", seed=0).to_jsonl() == ""


def test_runlog_final_val_map():
    log = RunLog(stage="s", seed=0)
    assert log.final_val_map is None
    log.records += [EpochRecord(epoch=0, val_map=0.4), EpochRecord(epoch=1)]
    assert log.final_val_map == 0.4
    log.records.append(EpochRecord(epoch=2, val_map=0.7))
    assert log.final_val_map == 0.7


# ---------------------------------------------------------------------------
# supervised pretraining
# ---------------------------------------------------------------------------

def test_pretrain_zero_epochs_is_fresh_init(bench):
    cfg = tiny_cfg(epochs=0)
    params, log = stage_pretrain(bench.translated, cfg)
    init = init_params(bench.translated.d, cfg.encoder_dim, 8, cfg.seed)
    assert all_equal(params, init)
    assert log.records == [] and log.to_jsonl() == ""


def test_pretrain_rejects_unlabeled_rows(bench):
    ds = fresh_target(bench)
    ds.identities[0] = -1
    with pytest.raises(ValueError, match="identity labels"):
        stage_pretrain(ds, tiny_cfg())


def test_pretrain_trusts_the_data_its_builder_checked(bench, monkeypatch):
    # generate_synthetic validated the benchmark; pretraining does not scan it again
    def never(self):
        raise AssertionError("stage_pretrain re-validated its data")

    expected, _ = stage_pretrain(bench.translated, tiny_cfg())
    monkeypatch.setattr(Dataset, "validate", never)
    params, log = stage_pretrain(bench.translated, tiny_cfg())
    assert all_equal(params, expected) and log.records


def test_pretrain_is_bitwise_deterministic(bench):
    a, log_a = stage_pretrain(bench.translated, tiny_cfg())
    b, log_b = stage_pretrain(bench.translated, tiny_cfg())
    assert all_equal(a, b)
    assert log_a.to_jsonl() == log_b.to_jsonl()


def test_pretrain_reduces_triplet_loss_on_separable_data():
    rng = np.random.default_rng(0)
    centers = np.array([[8.0] * 8, [-8.0] * 8])
    feats = np.repeat(centers, 6, axis=0) + rng.normal(scale=0.3, size=(12, 8))
    ds = Dataset(features=feats.astype(np.float32),
                 identities=np.repeat(np.arange(2, dtype=np.int32), 6),
                 cameras=np.zeros(12, dtype=np.int32),
                 domains=np.zeros(12, dtype=np.uint8),
                 pseudo=np.full(12, PSEUDO_OUTLIER, dtype=np.int32))
    cfg = StageConfig(epochs=3, iters_per_epoch=8, p_classes=2, k_per=3,
                      encoder_dim=4, queue_capacity=16, k=5)
    _, log = stage_pretrain(ds, cfg)
    # two well-separated identities: hardest negatives sit far away, so the
    # mean -log T statistic must settle below the coin-flip value
    assert log.records[-1].tri < math.log(2.0)
    assert log.records[-1].tri < log.records[0].tri


def test_pretrain_logs_metrics_and_validation(bench):
    cfg = tiny_cfg(epochs=1)
    _, log = stage_pretrain(bench.translated, cfg, val_split=bench.val_split)
    assert len(log.records) == 1
    rec = log.records[0]
    assert rec.lr == cfg.lr
    assert rec.cls > 0 and rec.tri > 0
    assert rec.total == pytest.approx(rec.cls + rec.tri, abs=1e-12)
    assert 0.0 <= rec.val_map <= 1.0
    assert 0.0 <= rec.val_cmc1 <= 1.0


@pytest.mark.parametrize("stage,part", [("baseline", "cross_entropy_batch"),
                                        ("mmt_plus", "soft_ce_batch")])
def test_guard_stops_a_non_finite_total_before_any_update(bench, pretrained, monkeypatch,
                                                         stage, part):
    # a NaN part, in the last network's value, at the seventh step (epoch 1,
    # iteration 2 of 4): every stage reports a divergence at that position,
    # and that step neither steps Adam nor moves the teachers or queues
    real_part = getattr(losses, part)
    calls = {name: 0 for name in (part, "adam_step", "ema_update", "queue_push")}

    def poisoned(*args):
        out = real_part(*args)
        calls[part] += 1
        if calls[part] < 7:
            return out
        value = np.array(out.value, dtype=np.float64)
        value.reshape(-1)[-1] = np.nan
        return LossOut(value=value if value.ndim else float(value), grads=out.grads)

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(losses, part, poisoned)
    for name in ("adam_step", "ema_update", "queue_push"):
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    with pytest.raises(DivergenceError, match="at epoch 1, iteration 2: non-finite loss nan"):
        if stage == "baseline":
            stage_baseline(pretrained, fresh_target(bench), tiny_cfg())
        else:
            stage_mmt_plus(pretrained, bench.source, fresh_target(bench), tiny_cfg())
    teachers = 6 if stage == "mmt_plus" else 0
    assert calls == {part: 7, "adam_step": 6, "ema_update": teachers, "queue_push": teachers}


def test_pretrain_divergence_guard_reports_position(bench, monkeypatch):
    def poisoned(logits, labels):
        return LossOut(value=float("nan"),
                       grads={"logits": np.zeros_like(np.asarray(logits))})

    monkeypatch.setattr("uda_reid.losses.cross_entropy_batch", poisoned)
    with pytest.raises(DivergenceError, match="at epoch 0, iteration 0: non-finite loss"):
        stage_pretrain(bench.translated, tiny_cfg())


# ---------------------------------------------------------------------------
# clustering baseline
# ---------------------------------------------------------------------------

def test_baseline_dimension_mismatch(bench, pretrained):
    narrow = init_params(4, 8, 2, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        stage_baseline(narrow, fresh_target(bench), tiny_cfg())


def test_baseline_skips_epochs_without_clusters(bench, pretrained):
    target = fresh_target(bench)
    cfg = tiny_cfg(eps=1e-6)  # nothing within reach: every epoch skips
    params, log = stage_baseline(pretrained, target, cfg)
    assert log.skipped_epochs == cfg.epochs
    assert all(r.skipped and r.num_clusters == 0 for r in log.records)
    assert all_equal(params, pretrained)  # no training step ever ran
    assert '"skipped": true' in log.to_jsonl()


def test_baseline_trains_on_discovered_clusters(bench, pretrained):
    target = fresh_target(bench)
    params, log = stage_baseline(pretrained, target, tiny_cfg())
    assert log.skipped_epochs == 0
    last = log.records[-1]
    assert last.num_clusters >= 1
    assert last.num_outliers >= 0
    # classifier was rebuilt from the final epoch's cluster centroids
    assert params.classifier.shape == (last.num_clusters, params.d_out)
    assert not all_equal(params, pretrained)
    # the run wrote its final pseudo labels into the dataset
    assert np.any(target.pseudo != PSEUDO_OUTLIER)


def test_baseline_is_bitwise_deterministic(bench, pretrained):
    a, log_a = stage_baseline(pretrained, fresh_target(bench), tiny_cfg())
    b, log_b = stage_baseline(pretrained, fresh_target(bench), tiny_cfg())
    assert all_equal(a, b)
    assert log_a.to_jsonl() == log_b.to_jsonl()


def test_baseline_single_cluster_epoch_is_skipped(bench, pretrained, monkeypatch):
    # one cluster leaves the hard loss and the triplet nothing to learn from,
    # so the epoch is skipped: no step, no weight decay, no running-stat drift
    def never(*args, **kwargs):
        raise AssertionError("a training step ran")

    def one_cluster(target, *args):
        return PseudoLabeling(np.zeros(target.n, dtype=np.int32), num_clusters=1)

    monkeypatch.setattr(pipeline, "relabel_epoch", one_cluster)
    for name in ("pk_sample", "forward_cached", "adam_step"):
        monkeypatch.setattr(pipeline, name, never)
    params, log = stage_baseline(pretrained, fresh_target(bench), tiny_cfg(),
                                 val_split=bench.val_split)
    assert [(r.skipped, r.num_clusters, r.cls) for r in log.records] == [(True, 1, None)] * 2
    assert all(r.val_map is not None for r in log.records)
    assert all_equal(params, pretrained)


# ---------------------------------------------------------------------------
# mutual mean-teacher stage
# ---------------------------------------------------------------------------

def test_mmt_input_errors(bench, pretrained):
    empty = bench.source.subset(np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="non-empty"):
        stage_mmt_plus(pretrained, empty, fresh_target(bench), tiny_cfg())
    narrow = init_params(4, 8, 2, seed=0)
    with pytest.raises(ValueError, match="incompatible"):
        stage_mmt_plus(narrow, bench.source, fresh_target(bench), tiny_cfg())


def test_mmt_width_mismatches_fail_before_any_relabel(bench, pretrained, monkeypatch):
    def no_relabel(*args, **kwargs):
        raise AssertionError("relabelled before the inputs were checked")

    monkeypatch.setattr(pipeline, "relabel_epoch", no_relabel)
    wider = init_params(pretrained.d_in, 2 * pretrained.d_out,
                        pretrained.classifier.shape[0], seed=1)
    fewer_classes = init_params(pretrained.d_in, pretrained.d_out, 3, seed=1)
    for other in (wider, fewer_classes):
        with pytest.raises(ValueError, match="params2"):
            stage_mmt_plus(pretrained, bench.source, fresh_target(bench), tiny_cfg(),
                           pretrained2=other)


def test_mmt_joint_source_checks_p_classes_before_any_relabel(bench, pretrained,
                                                             monkeypatch):
    def no_relabel(*args, **kwargs):
        raise AssertionError("relabelled before p_classes was checked")

    monkeypatch.setattr(pipeline, "relabel_epoch", no_relabel)
    with pytest.raises(ValueError, match="need 9 usable labels, have 8"):
        stage_mmt_plus(pretrained, bench.source, fresh_target(bench), tiny_cfg(p_classes=9))
    # target-only batches take min(p_classes, clusters), so there is nothing to check
    with pytest.raises(AssertionError, match="relabelled"):
        stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                       tiny_cfg(p_classes=9, joint_source=False))


@pytest.mark.parametrize("stage", ["pretrain", "baseline"])
def test_triplet_stages_reject_k_per_one_before_training(bench, pretrained, monkeypatch,
                                                         stage):
    def never(*args, **kwargs):
        raise AssertionError("relabelled or trained before k_per was checked")

    for name in ("relabel_epoch", "pk_sample", "forward_cached"):
        monkeypatch.setattr(pipeline, name, never)
    cfg = tiny_cfg(k_per=1)
    with pytest.raises(ConfigError, match="'k_per': must be > 1 for the triplet term"):
        if stage == "pretrain":
            stage_pretrain(bench.translated, cfg)
        else:
            stage_baseline(pretrained, fresh_target(bench), cfg)


def test_mmt_plus_trains_with_k_per_one(bench, pretrained):
    _, log = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                            tiny_cfg(k_per=1))
    assert [r.skipped for r in log.records] == [False, False]
    assert all(np.isfinite(r.total) for r in log.records)


def test_mmt_skips_epochs_without_clusters(bench, pretrained, monkeypatch,
                                          student_stacks):
    def never(*args, **kwargs):
        raise AssertionError("a training step ran")

    for name in ("pk_sample", "adam_step", "ema_update", "queue_push"):
        monkeypatch.setattr(pipeline, name, never)
    cfg = tiny_cfg(eps=1e-6)  # nothing within reach: every epoch skips
    teachers, log = stage_mmt_plus(pretrained, bench.source, fresh_target(bench), cfg,
                                   val_split=bench.val_split)
    assert log.skipped_epochs == cfg.epochs
    assert all(r.skipped and r.num_clusters == 0 for r in log.records)
    second = pipeline._decorrelated_copy(pretrained, cfg.seed)
    for nets in (unstack_params(student_stacks[0]), teachers):
        assert all_equal(nets[0], pretrained) and all_equal(nets[1], second)


def test_mmt_trains_on_a_single_cluster_epoch(bench, pretrained, monkeypatch, student_stacks):
    # unlike the baseline, stage III still learns from one cluster: its soft
    # and queue terms do not vanish with a single class in the batch
    def one_cluster(target, *args):
        return PseudoLabeling(np.zeros(target.n, dtype=np.int32), num_clusters=1)

    monkeypatch.setattr(pipeline, "relabel_epoch", one_cluster)
    teachers, log = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                                   tiny_cfg(joint_source=False))
    assert [(r.skipped, r.num_clusters) for r in log.records] == [(False, 1)] * 2
    assert all(r.moco > 0 for r in log.records)
    assert not np.array_equal(teachers[0].weight, pretrained.weight)
    assert not np.array_equal(unstack_params(student_stacks[0])[0].weight, pretrained.weight)


@pytest.mark.parametrize("stage", ["baseline", "mmt_plus"])
def test_pk_batches_follow_the_current_labelling(bench, pretrained, monkeypatch, stage):
    # every batch is drawn from an index of the labels the last relabel
    # wrote, and carries each drawn row's label
    target = fresh_target(bench)
    labellings = set()
    real_pk_sample = pipeline.pk_sample

    def checked(index, p, k, rng):
        idx, batch_labels = real_pk_sample(index, p, k, rng)
        labels = target.pseudo.copy()
        classes = np.unique(labels[labels >= 0])
        assert np.array_equal(index.classes, classes)
        assert [rows.tolist() for rows in index.rows] == \
            [np.flatnonzero(labels == c).tolist() for c in classes]
        assert np.all(labels[idx] >= 0)
        assert np.array_equal(batch_labels, labels[idx])
        labellings.add(labels.tobytes())
        return idx, batch_labels

    monkeypatch.setattr(pipeline, "pk_sample", checked)
    cfg = tiny_cfg(epochs=3, joint_source=False)
    if stage == "baseline":
        stage_baseline(pretrained, target, cfg)
    else:
        stage_mmt_plus(pretrained, bench.source, target, cfg)
    assert len(labellings) > 1  # a relabel changed the labels mid-run


@pytest.mark.parametrize("stage", ["baseline", "mmt_plus"])
def test_training_reads_no_pseudo_column(bench, pretrained, monkeypatch, stage):
    # the labels reach the steps through the class index alone: wiping the
    # pseudo column right after each relabel changes neither log nor params
    def run():
        target = fresh_target(bench)
        cfg = tiny_cfg(epochs=3)
        if stage == "baseline":
            params, log = stage_baseline(pretrained, target, cfg)
            return [params], log
        teachers, log = stage_mmt_plus(pretrained, bench.source, target, cfg)
        return list(teachers), log

    want_nets, want_log = run()
    real_relabel = pipeline.relabel_epoch

    def relabel_then_wipe(target, *args):
        labeling = real_relabel(target, *args)
        target.pseudo[:] = PSEUDO_OUTLIER
        return labeling

    monkeypatch.setattr(pipeline, "relabel_epoch", relabel_then_wipe)
    nets, log = run()
    assert log.to_jsonl() == want_log.to_jsonl()
    assert all(all_equal(a, b) for a, b in zip(nets, want_nets))


def test_mmt_joint_label_space_sizes_classifier(bench, pretrained, student_stacks):
    teachers, log = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                                   tiny_cfg())
    p_t = log.records[-1].num_clusters
    assert student_stacks[0].classifier.shape[1] == 8 + p_t  # 8 source ids
    assert teachers[0].classifier.shape[0] == 8 + p_t

    _, solo_log = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                                 tiny_cfg(joint_source=False))
    assert student_stacks[1].classifier.shape[1] == solo_log.records[-1].num_clusters


def longhand_centroids(net, parts):
    """The L2-normalised mean encoding of each class, computed row by row:
    the classes of each (dataset, labels) part in ascending order, negative
    labels skipped, parts in the order given."""
    rows = []
    for ds, labels in parts:
        feats = encode_dataset(net, ds)
        for c in sorted(set(labels.tolist()) - {PSEUDO_OUTLIER}):
            mean = feats[labels == c].mean(axis=0)
            rows.append(mean / math.sqrt(float(mean @ mean)))
    return np.array(rows)


@pytest.mark.parametrize("stage,joint_source", [("baseline", False),
                                                ("mmt_plus", True),
                                                ("mmt_plus", False)])
def test_rebuilt_classifier_is_the_normalised_class_means(
        bench, pretrained, monkeypatch, student_stacks, stage, joint_source):
    # every rebuild seeds each network's classifier with its own centroids,
    # the source identities' first when stage III trains on joint batches;
    # checked at each epoch's first PK draw, after the rebuild, before any step
    target = fresh_target(bench)
    rebuilt, relabelled = [], []
    real_relabel, real_pk_sample = pipeline.relabel_epoch, pipeline.pk_sample

    def relabel(target, net, *args):
        relabelled.append(net)
        return real_relabel(target, net, *args)

    def checked(*args):
        if len(rebuilt) < len(relabelled):  # the epoch's first draw
            nets = (relabelled[-1:] if stage == "baseline"
                    else unstack_params(student_stacks[-1]))
            parts = [(target, target.pseudo)]
            if joint_source:
                parts.insert(0, (bench.source, bench.source.identities))
            for net in nets:
                want = longhand_centroids(net, parts)
                assert net.classifier.shape == want.shape
                assert np.max(np.abs(net.classifier - want)) < 1e-12
            rebuilt.append(len(nets))
        return real_pk_sample(*args)

    monkeypatch.setattr(pipeline, "relabel_epoch", relabel)
    monkeypatch.setattr(pipeline, "pk_sample", checked)
    cfg = tiny_cfg(epochs=3, joint_source=joint_source)
    if stage == "baseline":
        stage_baseline(pretrained, target, cfg)
    else:
        stage_mmt_plus(pretrained, bench.source, target, cfg)
    assert rebuilt == [1 if stage == "baseline" else 2] * cfg.epochs


def test_mmt_alpha_one_freezes_teacher_weights(bench, pretrained, student_stacks):
    teachers, _ = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                                 tiny_cfg(alpha=1.0))
    t1, s1 = teachers[0], unstack_params(student_stacks[0])[0]
    # the EMA fixed point pins every blended array; the classifier is exempt
    # because it is rebuilt from centroids at each epoch start
    assert np.array_equal(t1.weight, pretrained.weight)
    assert np.array_equal(t1.bias, pretrained.bias)
    assert np.array_equal(t1.running_mean, pretrained.running_mean)
    assert np.array_equal(t1.running_var, pretrained.running_var)
    assert not np.array_equal(s1.weight, pretrained.weight)


def test_mmt_symmetric_students_stay_identical(bench, pretrained, student_stacks):
    # seeding both students identically makes the two branches exact mirrors;
    # staged updates keep them in lockstep only if neither branch reads the
    # other's refreshed weights mid-iteration
    teachers, _ = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                                 tiny_cfg(), pretrained2=pretrained.copy())
    s1, s2 = unstack_params(student_stacks[0])
    t1, t2 = teachers
    assert all_equal(s1, s2)
    assert all_equal(t1, t2)


def test_mmt_forwards_each_teacher_once_per_iteration(bench, pretrained,
                                                     monkeypatch):
    # one stacked call per iteration serves both teachers: its parameters
    # are the stack the returned per-teacher views look into
    calls = []
    real_forward = pipeline.forward

    def counting(params, *args, **kwargs):
        out = real_forward(params, *args, **kwargs)
        calls.append((params, out.shape))
        return out

    monkeypatch.setattr(pipeline, "forward", counting)
    cfg = tiny_cfg(epochs=1, iters_per_epoch=3)
    teachers, _ = stage_mmt_plus(pretrained, bench.source, fresh_target(bench), cfg)
    assert len(calls) == 3
    rows = 2 * cfg.p_classes * cfg.k_per  # joint source + target batch
    for params, shape in calls:
        assert shape == (2, rows, cfg.encoder_dim)
        for i, teacher in enumerate(teachers):
            assert np.shares_memory(params.weight[i], teacher.weight)


def test_mmt_records_stage_losses(bench, pretrained):
    teachers, log = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                                   tiny_cfg(epochs=1), val_split=bench.val_split)
    rec = log.records[0]
    for name in ("soft", "hard", "moco", "total"):
        assert np.isfinite(getattr(rec, name))
    assert rec.total == pytest.approx(
        0.5 * rec.soft + 0.5 * rec.hard + 0.1 * rec.moco, abs=1e-9)
    assert rec.num_clusters >= 1 and rec.num_outliers >= 0
    assert 0.0 <= rec.val_map <= 1.0
    assert len(teachers) == 2 and all(isinstance(t, EncoderParams) for t in teachers)


def test_teacher_state_export(bench, pretrained):
    # the CLI's --export names index the teachers in the order stage_mmt_plus
    # returns them; only the teachers export
    from uda_reid.commands import _EXPORTS
    teachers, _ = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                                 tiny_cfg(epochs=1))
    assert _EXPORTS == ("teacher1", "teacher2")
    assert len(teachers) == len(_EXPORTS)
    t1, t2 = (teachers[_EXPORTS.index(name)] for name in ("teacher1", "teacher2"))
    assert t1 is teachers[0] and t2 is teachers[1]
    assert not all_equal(t1, t2)  # two decorrelated networks, not one twice
    assert "student1" not in _EXPORTS


def test_mmt_is_bitwise_deterministic(bench, pretrained, student_stacks):
    a, log_a = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                              tiny_cfg())
    b, log_b = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                              tiny_cfg())
    assert all_equal(a[0], b[0]) and all_equal(a[1], b[1])
    students_a, students_b = (unstack_params(s) for s in student_stacks)
    assert all_equal(students_a[1], students_b[1])
    assert log_a.to_jsonl() == log_b.to_jsonl()


@pytest.mark.parametrize("stage", ["pretrain", "baseline", "mmt_plus"])
def test_val_split_of_another_width_raises_before_any_step(bench, pretrained, monkeypatch,
                                                          stage):
    def fail(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(pipeline, "relabel_epoch", fail)
    monkeypatch.setattr(pipeline, "pk_sample", fail)
    split = bench.val_split
    narrow = QueryGallerySplit(query=replace(split.query, features=split.query.features[:, :12]),
                               gallery=replace(split.gallery,
                                               features=split.gallery.features[:, :12]))
    with pytest.raises(ValueError,
                       match="validation rows are 12 features wide, the training rows 16"):
        if stage == "pretrain":
            stage_pretrain(bench.translated, tiny_cfg(), val_split=narrow)
        elif stage == "baseline":
            stage_baseline(pretrained, fresh_target(bench), tiny_cfg(), val_split=narrow)
        else:
            stage_mmt_plus(pretrained, bench.source, fresh_target(bench), tiny_cfg(),
                           val_split=narrow)


# ---------------------------------------------------------------------------
# the arrays the step's kernels trust
# ---------------------------------------------------------------------------

def finite64(*arrays):
    for arr in arrays:
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert np.all(np.isfinite(arr))


def labels_index(labels, rows, classes):
    assert isinstance(labels, np.ndarray) and labels.dtype == np.int64
    assert labels.shape == (rows,)
    assert labels.min() >= 0 and labels.max() < classes


def triplet_batch(feats, labels):
    finite64(feats)
    assert feats.ndim == 2
    labels_index(labels, len(feats), labels.max() + 1)
    same = labels[:, None] == labels[None, :]
    assert np.all(same.sum(axis=1) >= 2)  # a positive at another position
    assert not np.any(same.all(axis=1))  # and a negative


def same_leading(a, b):
    """Equal network axes, equal feature widths."""
    assert a.shape[:-2] == b.shape[:-2] and a.shape[-1] == b.shape[-1]


def ce_args(logits, labels):
    finite64(logits)
    labels_index(labels, logits.shape[-2], logits.shape[-1])


def soft_ce_args(student_logits, teacher_logits):
    finite64(student_logits, teacher_logits)
    assert student_logits.shape == teacher_logits.shape


def moco_args(queries, keys_pos, queue, tau):
    finite64(queries, keys_pos, queue)
    assert queries.shape == keys_pos.shape
    same_leading(queue, queries)


def margin_args(features, class_weights, labels, mode, margin, scale):
    finite64(features, class_weights)
    same_leading(class_weights, features)
    labels_index(labels, features.shape[-2], class_weights.shape[-2])


def adam_args(params, grads, state):
    for name, grad in grads.items():
        finite64(params[name], grad)
        assert params[name].shape == grad.shape


def ema_args(teacher, student, alpha):
    for name, arr in teacher.all_arrays().items():
        other = student.all_arrays()[name]
        finite64(arr, other)
        assert arr.shape == other.shape


def pk_args(index, p_classes, k_per, rng):
    assert index.classes.size >= p_classes  # check_classes, where the index is built


def queue_args(queue, feats, capacity):
    finite64(queue, feats)
    assert feats.ndim == queue.ndim
    same_leading(feats, queue)


# what each kernel of the step trusts of its arguments, by parameter name
PRECONDITIONS = {
    (losses, "cross_entropy_batch"): ce_args,
    (losses, "softmax_triplet_loss"): triplet_batch,
    (losses, "hardest_triplets"): triplet_batch,
    (losses, "soft_ce_batch"): soft_ce_args,
    (losses, "moco_batch"): moco_args,
    (losses, "margin_classification_batch"): margin_args,
    (pipeline, "adam_step"): adam_args,
    (pipeline, "ema_update"): ema_args,
    (pipeline, "queue_push"): queue_args,
    (pipeline, "pk_sample"): pk_args,
}


@pytest.mark.parametrize("mode", list(LossMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("stage", ["pretrain", "baseline", "mmt_joint", "mmt_solo"])
def test_step_kernels_get_what_they_trust(bench, pretrained, monkeypatch, stage, mode):
    # the kernels no longer check these arguments: each call of a tiny run of
    # every stage, under every hard loss, must meet what they trust
    calls = {}

    def checked(name, real, check):
        signature = inspect.signature(real)

        def wrapped(*args, **kwargs):
            check(**signature.bind(*args, **kwargs).arguments)
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapped

    for (module, name), check in PRECONDITIONS.items():
        monkeypatch.setattr(module, name, checked(name, getattr(module, name), check))
    cfg = tiny_cfg(loss_mode=mode, joint_source=stage == "mmt_joint")
    if stage == "pretrain":
        stage_pretrain(bench.translated, cfg)
    elif stage == "baseline":
        stage_baseline(pretrained, fresh_target(bench), cfg)
    else:
        stage_mmt_plus(pretrained, bench.source, fresh_target(bench), cfg)
    hard = ("cross_entropy_batch" if mode is LossMode.PLAIN_CE
            else "margin_classification_batch")
    parts = ({"softmax_triplet_loss", "hardest_triplets"} if stage in ("pretrain", "baseline")
             else {"soft_ce_batch", "moco_batch", "ema_update", "queue_push"})
    assert set(calls) == {hard, "cross_entropy_batch", "adam_step", "pk_sample"} | parts
    assert calls["adam_step"] == cfg.epochs * cfg.iters_per_epoch


# ---------------------------------------------------------------------------
# benchmark assembly and end-to-end smoke
# ---------------------------------------------------------------------------

def test_default_benchmark_split_structure(bench):
    assert bench.source.n == 80 and bench.translated.n == 80
    assert bench.target_train.n == 48 and bench.target_val.n == 32
    # per-identity carve: six training rows and four validation rows each
    for ident in np.unique(bench.target_train.identities):
        assert np.sum(bench.target_train.identities == ident) == 6
        assert np.sum(bench.target_val.identities == ident) == 4
    assert np.array_equal(bench.translated.identities, bench.source.identities)
    assert bench.val_split.query.n == 16 and bench.val_split.gallery.n == 16


def test_eval_encoder_matches_manual_protocol(bench, pretrained):
    from uda_reid.numerics import cdist, l2_normalize_rows
    from uda_reid.encoder import forward
    from uda_reid.retrieval import evaluate_split

    split = bench.val_split
    report = eval_encoder(pretrained, split)
    q = l2_normalize_rows(forward(pretrained, split.query.features.astype(np.float64),
                                  split.query.domains), "q")
    g = l2_normalize_rows(forward(pretrained, split.gallery.features.astype(np.float64),
                                  split.gallery.domains), "g")
    manual = evaluate_split(split, dist=cdist(q, g))
    assert report.mAP == pytest.approx(manual.mAP, abs=1e-12)
    assert np.allclose(report.cmc, manual.cmc, atol=1e-12)


def test_run_full_pipeline_smoke(bench):
    result = run_full_pipeline(cfg=tiny_cfg(), bench=bench)
    assert set(result) == {"params", "report", "logs"}
    assert isinstance(result["params"], EncoderParams)
    assert 0.0 <= result["report"].mAP <= 1.0
    assert result["logs"]["pretrain"].stage == "pretrain"
    assert result["logs"]["mmt_plus"].stage == "mmt_plus"
    assert 0.0 <= result["logs"]["mmt_plus"].final_val_map <= 1.0


# ---------------------------------------------------------------------------
# training output against records committed with the code
# ---------------------------------------------------------------------------

def _fixture_records(case):
    lines = stage_logs.OUT.read_text().splitlines()
    return [rec for rec in map(json.loads, lines) if rec["case"] == case]


@pytest.mark.parametrize("case", sorted(stage_logs.CASES))
def test_stage_logs_match_fixture(case):
    want = _fixture_records(case)
    got = stage_logs.run_case(case)
    assert want and [sorted(r) for r in got] == [sorted(r) for r in want]
    for got_rec, want_rec in zip(got, want):
        for key, value in want_rec.items():
            if isinstance(value, float):
                assert got_rec[key] == pytest.approx(value, rel=1e-9, abs=0.0), key
            else:
                assert type(got_rec[key]) is type(value), key
                assert got_rec[key] == value, key


def test_fixture_script_check_passes():
    # the byte-for-byte form of the test above, under one BLAS thread
    script = os.path.abspath(stage_logs.__file__)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, script, "--check"], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# imports the script, which must leave the environment alone, then runs it as
# __main__ with a bad argument: it pins the thread variables and exits 2
_PIN_PROBE = """
import os, runpy, sys
before = dict(os.environ)
import make_stage_logs_fixture
assert dict(os.environ) == before, "importing changed the environment"
sys.argv = ["make_stage_logs_fixture.py", "--no-such-flag"]
try:
    runpy.run_path(make_stage_logs_fixture.__file__, run_name="__main__")
except SystemExit as exc:
    assert exc.code == 2, exc.code
print(*(os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")))
"""


def test_fixture_script_pins_one_thread_only_when_run():
    tests_dir = os.path.dirname(os.path.abspath(stage_logs.__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, tests_dir])
    proc = subprocess.run([sys.executable, "-c", _PIN_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "1"]
