"""Stage orchestration: configs, run logs, the three training stages, and
the bundled benchmark."""
import json
import math

import numpy as np
import pytest

import make_stage_logs_fixture as stage_logs
from uda_reid import pipeline
from uda_reid.datamodel import PSEUDO_OUTLIER, Dataset
from uda_reid.encoder import EncoderParams, init_params
from uda_reid.errors import ConfigError, DivergenceError
from uda_reid.losses import LossOut
from uda_reid.datamodel import config_from_kv, load_config
from uda_reid.pipeline import (Benchmark, EpochRecord, LossMode, RunLog,
                               StageConfig, TeacherState, default_benchmark,
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
    StageConfig().validate()


def test_lr_schedule():
    cfg = StageConfig(lr=0.1, lr_schedule="constant")
    assert cfg.lr_at(0) == cfg.lr_at(99) == 0.1
    cfg = StageConfig(lr=0.1, lr_schedule="step", lr_milestones=(2, 4), lr_gamma=0.1)
    assert cfg.lr_at(0) == pytest.approx(0.1)
    assert cfg.lr_at(1) == pytest.approx(0.1)
    assert cfg.lr_at(2) == pytest.approx(0.01)
    assert cfg.lr_at(3) == pytest.approx(0.01)
    assert cfg.lr_at(4) == pytest.approx(0.001)


@pytest.mark.parametrize("kwargs,field", [
    (dict(iters_per_epoch=0), "iters_per_epoch"),
    (dict(epochs=-1), "epochs"),
    (dict(lambda_soft=1.5), "lambda_soft"),
    (dict(lambda_moco=-0.1), "lambda_moco"),
    (dict(alpha=-0.1), "alpha"),
    (dict(weight_decay=-1.0), "weight_decay"),
    (dict(margin=-0.5), "margin"),
    (dict(lr_schedule="linear"), "lr_schedule"),
])
def test_config_validation_errors(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        StageConfig(**kwargs).validate()


def test_config_from_kv_parses_every_type():
    cfg = config_from_kv(StageConfig, {
        "epochs": "3", "lr": "0.01", "loss_mode": "cosface",
        "joint_source": "false", "lr_milestones": "3,5",
        "lr_schedule": "step", "alpha": "0.9",
    })
    assert cfg.epochs == 3
    assert cfg.lr == 0.01
    assert cfg.loss_mode is LossMode.COSFACE
    assert cfg.joint_source is False
    assert cfg.lr_milestones == (3, 5)
    assert cfg.lr_schedule == "step"
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


def test_load_stage_config(tmp_path):
    path = tmp_path / "stage.conf"
    path.write_text("# training\nepochs = 4\nlr = 0.005  # small\n")
    cfg = load_config(StageConfig, path)
    assert cfg.epochs == 4 and cfg.lr == 0.005


# ---------------------------------------------------------------------------
# run logging
# ---------------------------------------------------------------------------

def test_epoch_record_drops_unset_fields():
    rec = EpochRecord(epoch=2, cls=0.5)
    assert rec.to_dict() == {"epoch": 2, "cls": 0.5}
    skipped = EpochRecord(epoch=0, skipped=True, num_clusters=0)
    assert skipped.to_dict() == {"epoch": 0, "skipped": True, "num_clusters": 0}


def test_runlog_requires_increasing_epochs():
    log = RunLog(stage="s", seed=0)
    log.add(EpochRecord(epoch=0))
    log.add(EpochRecord(epoch=2))
    with pytest.raises(ValueError, match="increase"):
        log.add(EpochRecord(epoch=2))
    with pytest.raises(ValueError, match="increase"):
        log.add(EpochRecord(epoch=1))


def test_runlog_jsonl_shape():
    log = RunLog(stage="pretrain", seed=7)
    log.add(EpochRecord(epoch=0, cls=1.0, lr=0.002))
    log.add(EpochRecord(epoch=1, cls=0.5, lr=0.002))
    log.wall_time_s = 123.4
    text = log.to_jsonl()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert obj["stage"] == "pretrain" and obj["seed"] == 7
        assert "wall_time_s" not in obj
        assert json.dumps(obj, sort_keys=True) == line
    assert RunLog(stage="x", seed=0).to_jsonl() == ""


def test_runlog_final_val_map():
    log = RunLog(stage="s", seed=0)
    assert log.final_val_map is None
    log.add(EpochRecord(epoch=0, val_map=0.4))
    log.add(EpochRecord(epoch=1))
    assert log.final_val_map == 0.4
    log.add(EpochRecord(epoch=2, val_map=0.7))
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


def test_pretrain_divergence_guard_reports_position(bench, monkeypatch):
    def poisoned(logits, labels):
        return LossOut(value=float("nan"),
                       grads={"logits": np.zeros_like(np.asarray(logits))})

    monkeypatch.setattr("uda_reid.losses.cross_entropy_batch", poisoned)
    with pytest.raises(DivergenceError) as err:
        stage_pretrain(bench.translated, tiny_cfg())
    assert err.value.epoch == 0
    assert err.value.iteration == 0


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
    assert params.num_classes == last.num_clusters
    assert not all_equal(params, pretrained)
    # the run wrote its final pseudo labels into the dataset
    assert np.any(target.pseudo != PSEUDO_OUTLIER)


def test_baseline_is_bitwise_deterministic(bench, pretrained):
    a, log_a = stage_baseline(pretrained, fresh_target(bench), tiny_cfg())
    b, log_b = stage_baseline(pretrained, fresh_target(bench), tiny_cfg())
    assert all_equal(a, b)
    assert log_a.to_jsonl() == log_b.to_jsonl()


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
    with pytest.raises(ValueError, match="encoder_dim"):
        stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                       tiny_cfg(encoder_dim=32))
    wider = init_params(pretrained.d_in, 2 * pretrained.d_out, pretrained.num_classes, seed=1)
    fewer_classes = init_params(pretrained.d_in, pretrained.d_out, 3, seed=1)
    for other in (wider, fewer_classes):
        with pytest.raises(ValueError, match="params2"):
            stage_mmt_plus(pretrained, bench.source, fresh_target(bench), tiny_cfg(),
                           pretrained2=other)


def test_mmt_skips_epochs_without_clusters(bench, pretrained, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a training step ran")

    for name in ("pk_sample", "adam_step", "ema_update", "queue_push"):
        monkeypatch.setattr(pipeline, name, never)
    cfg = tiny_cfg(eps=1e-6)  # nothing within reach: every epoch skips
    state, log = stage_mmt_plus(pretrained, bench.source, fresh_target(bench), cfg,
                                val_split=bench.val_split)
    assert log.skipped_epochs == cfg.epochs
    assert all(r.skipped and r.num_clusters == 0 for r in log.records)
    second = pipeline._decorrelated_copy(pretrained, cfg.seed)
    for nets in (state.students, state.teachers):
        assert all_equal(nets[0], pretrained) and all_equal(nets[1], second)


@pytest.mark.parametrize("stage", ["baseline", "mmt_plus"])
def test_pk_batches_follow_the_current_labelling(bench, pretrained, monkeypatch, stage):
    # every batch is drawn from an index of the labels the last relabel wrote
    target = fresh_target(bench)
    labellings = set()
    real_pk_sample = pipeline.pk_sample

    def checked(index, p, k, rng):
        idx = real_pk_sample(index, p, k, rng)
        labels = target.pseudo.copy()
        classes = np.unique(labels[labels >= 0])
        assert np.array_equal(index.classes, classes)
        assert [rows.tolist() for rows in index.rows] == \
            [np.flatnonzero(labels == c).tolist() for c in classes]
        assert np.all(labels[idx] >= 0)
        labellings.add(labels.tobytes())
        return idx

    monkeypatch.setattr(pipeline, "pk_sample", checked)
    cfg = tiny_cfg(epochs=3, joint_source=False)
    if stage == "baseline":
        stage_baseline(pretrained, target, cfg)
    else:
        stage_mmt_plus(pretrained, bench.source, target, cfg)
    assert len(labellings) > 1  # a relabel changed the labels mid-run


def test_mmt_joint_label_space_sizes_classifier(bench, pretrained):
    state, log = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                                tiny_cfg())
    p_t = log.records[-1].num_clusters
    assert state.students[0].classifier.shape[0] == 8 + p_t  # 8 source ids
    assert state.teachers[0].classifier.shape[0] == 8 + p_t

    solo_state, solo_log = stage_mmt_plus(pretrained, bench.source,
                                          fresh_target(bench),
                                          tiny_cfg(joint_source=False))
    assert solo_state.students[0].classifier.shape[0] == \
        solo_log.records[-1].num_clusters


def test_mmt_alpha_one_freezes_teacher_weights(bench, pretrained):
    state, _ = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                              tiny_cfg(alpha=1.0))
    t1, s1 = state.teachers[0], state.students[0]
    # the EMA fixed point pins every blended array; the classifier is exempt
    # because it is rebuilt from centroids at each epoch start
    assert np.array_equal(t1.weight, pretrained.weight)
    assert np.array_equal(t1.bias, pretrained.bias)
    assert np.array_equal(t1.running_mean, pretrained.running_mean)
    assert np.array_equal(t1.running_var, pretrained.running_var)
    assert not np.array_equal(s1.weight, pretrained.weight)


def test_mmt_symmetric_students_stay_identical(bench, pretrained):
    # seeding both students identically makes the two branches exact mirrors;
    # staged updates keep them in lockstep only if neither branch reads the
    # other's refreshed weights mid-iteration
    state, _ = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                              tiny_cfg(), pretrained2=pretrained.copy())
    s1, s2 = state.students
    t1, t2 = state.teachers
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
    state, _ = stage_mmt_plus(pretrained, bench.source, fresh_target(bench), cfg)
    assert len(calls) == 3
    rows = 2 * cfg.p_classes * cfg.k_per  # joint source + target batch
    for params, shape in calls:
        assert shape == (2, rows, cfg.encoder_dim)
        for i, teacher in enumerate(state.teachers):
            assert np.shares_memory(params.weight[i], teacher.weight)


def test_mmt_records_stage_losses(bench, pretrained):
    state, log = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                                tiny_cfg(epochs=1), val_split=bench.val_split)
    rec = log.records[0]
    for name in ("soft", "hard", "moco", "total"):
        assert np.isfinite(getattr(rec, name))
    assert rec.total == pytest.approx(
        0.5 * rec.soft + 0.5 * rec.hard + 0.1 * rec.moco, abs=1e-9)
    assert rec.num_clusters >= 1 and rec.num_outliers >= 0
    assert 0.0 <= rec.val_map <= 1.0
    assert isinstance(state, TeacherState)


def test_mmt_is_bitwise_deterministic(bench, pretrained):
    a, log_a = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                              tiny_cfg())
    b, log_b = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                              tiny_cfg())
    assert all_equal(a.export("teacher1"), b.export("teacher1"))
    assert all_equal(a.students[1], b.students[1])
    assert log_a.to_jsonl() == log_b.to_jsonl()


def test_teacher_state_export(bench, pretrained):
    state, _ = stage_mmt_plus(pretrained, bench.source, fresh_target(bench),
                              tiny_cfg(epochs=1))
    assert state.export("teacher1") is state.teachers[0]
    assert state.export("teacher2") is state.teachers[1]
    with pytest.raises(ValueError, match="export"):
        state.export("student1")


# ---------------------------------------------------------------------------
# benchmark assembly and end-to-end smoke
# ---------------------------------------------------------------------------

def test_default_benchmark_split_structure(bench):
    assert bench.source.n == 80 and bench.translated.n == 80
    assert bench.target_train.n == 48 and bench.target_val.n == 32
    assert bench.synth.samples_per_id == 10
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
    result = run_full_pipeline(seed=0, cfg=tiny_cfg(), bench=bench)
    assert set(result) == {"params", "state", "report", "logs"}
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
