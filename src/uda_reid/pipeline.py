"""Three-stage training orchestration on the synthetic benchmark.

Stage I is realized by the generator's translation transform (plus the
relation-consistency diagnostic), stage II pretrains on labeled data, and
stage III runs mutual mean-teacher self-training with joint-domain batches,
a momentum queue per network, and per-epoch pseudo-label refresh.  All
training stages share one epoch driver and differ only in their step.
"""
from __future__ import annotations

import enum
import json
import time
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import losses
from .datamodel import Dataset, SynthConfig, generate_synthetic
from .encoder import (AdamState, EncoderParams, FeatureQueue, adam_step,
                      backward, classifier_backward, classifier_logits,
                      ema_update, encode_dataset, forward, forward_cached,
                      init_params, pk_sample, queue_push)
from .errors import ConfigError, DivergenceError
from .numerics import cdist, l2_normalize_rows
from .pseudolabel import relabel_epoch
from .retrieval import (EvalReport, QueryGallerySplit, evaluate_split,
                        rerank, split_query_gallery)


class LossMode(enum.Enum):
    PLAIN_CE = "plain_ce"
    ARCFACE = "arcface"
    COSFACE = "cosface"

    @property
    def margin_mode(self):
        if self is LossMode.ARCFACE:
            return losses.MarginMode.ARCFACE
        if self is LossMode.COSFACE:
            return losses.MarginMode.COSFACE
        return None


@dataclass
class StageConfig:
    epochs: int = 10
    iters_per_epoch: int = 200
    p_classes: int = 16
    k_per: int = 4
    lr: float = 0.002
    weight_decay: float = 0.0005
    lambda_soft: float = 0.5
    lambda_moco: float = 0.1
    alpha: float = 0.999
    tau: float = 0.7
    queue_capacity: int = 256
    k: int = 20
    eps: float = 0.6
    min_pts: int = 4
    seed: int = 0
    loss_mode: LossMode = LossMode.PLAIN_CE
    margin: float = 0.25
    scale: float = 16.0
    encoder_dim: int = 32
    joint_source: bool = True
    lr_schedule: str = "constant"           # or "step"
    lr_milestones: tuple[int, ...] = (40, 70)
    lr_gamma: float = 0.1

    def validate(self) -> None:
        positives = ["iters_per_epoch", "p_classes", "k_per", "lr", "tau",
                     "queue_capacity", "k", "eps", "min_pts", "encoder_dim",
                     "scale", "lr_gamma"]
        for name in positives:
            if getattr(self, name) <= 0:
                raise ConfigError(name, f"must be > 0, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError("epochs", "must be >= 0")
        if not 0.0 <= self.lambda_soft <= 1.0:
            raise ConfigError("lambda_soft", f"must be in [0, 1], got {self.lambda_soft}")
        if self.lambda_moco < 0:
            raise ConfigError("lambda_moco", "must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha", f"must be in [0, 1], got {self.alpha}")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay", "must be >= 0")
        if self.margin < 0:
            raise ConfigError("margin", "must be >= 0")
        if self.lr_schedule not in ("constant", "step"):
            raise ConfigError("lr_schedule", f"unknown schedule {self.lr_schedule!r}")

    def lr_at(self, epoch: int) -> float:
        if self.lr_schedule == "constant":
            return self.lr
        passed = sum(1 for m in self.lr_milestones if epoch >= m)
        return self.lr * (self.lr_gamma ** passed)


# ---------------------------------------------------------------------------
# Run logging
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    cls: float | None = None
    tri: float | None = None
    soft: float | None = None
    hard: float | None = None
    moco: float | None = None
    total: float | None = None
    num_clusters: int | None = None
    num_outliers: int | None = None
    val_map: float | None = None
    val_cmc1: float | None = None
    lr: float | None = None
    skipped: bool = False

    def to_dict(self) -> dict:
        out = {}
        for f in dc_fields(self):
            val = getattr(self, f.name)
            if val is not None and val is not False:
                out[f.name] = val
        return out


@dataclass
class RunLog:
    stage: str
    seed: int
    records: list = field(default_factory=list)
    skipped_epochs: int = 0
    wall_time_s: float = 0.0  # informational only, never serialized

    def add(self, record: EpochRecord) -> None:
        if self.records and record.epoch <= self.records[-1].epoch:
            raise ValueError("epoch indices must increase")
        self.records.append(record)

    def to_jsonl(self) -> str:
        """One JSON object per epoch; excludes wall time so that fixed-seed
        runs serialize byte-identically."""
        lines = []
        for rec in self.records:
            payload = {"stage": self.stage, "seed": self.seed}
            payload.update(rec.to_dict())
            lines.append(json.dumps(payload, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    @property
    def final_val_map(self) -> float | None:
        for rec in reversed(self.records):
            if rec.val_map is not None:
                return rec.val_map
        return None


# ---------------------------------------------------------------------------
# Shared training helpers
# ---------------------------------------------------------------------------

def _dense_labels(values: np.ndarray) -> tuple[np.ndarray, int]:
    uniq, dense = np.unique(values, return_inverse=True)
    return dense.astype(np.int64), uniq.size


def _hard_loss(params: EncoderParams, feats: np.ndarray, labels: np.ndarray,
               cfg: StageConfig):
    """(value, d_feats, d_classifier) for the configured hard loss."""
    mode = cfg.loss_mode.margin_mode
    if mode is None:
        out = losses.cross_entropy_batch(classifier_logits(params, feats), labels)
        d_cls, d_feats = classifier_backward(params, feats, out.grads["logits"])
        return out.value, d_feats, d_cls
    out = losses.margin_classification_batch(feats, params.classifier, labels,
                                             mode, cfg.margin, cfg.scale)
    return out.value, out.grads["features"], out.grads["class_weights"]


def _centroid_classifier(feats: np.ndarray, labels: np.ndarray,
                         num_classes: int) -> np.ndarray:
    """Row-normalized per-class mean features, classes indexed 0..num-1."""
    d = feats.shape[1]
    cents = np.zeros((num_classes, d))
    for c in range(num_classes):
        members = labels == c
        if not members.any():
            raise ValueError(f"class {c} has no members")
        cents[c] = feats[members].mean(axis=0)
    return l2_normalize_rows(cents, "class centroid")


def _cluster_centroids(params: EncoderParams, target: Dataset,
                       num_clusters: int) -> np.ndarray:
    """Centroid classifier over the target's current pseudo-label clusters."""
    keep = target.pseudo >= 0
    return _centroid_classifier(encode_dataset(params, target)[keep],
                                target.pseudo[keep], num_clusters)


def eval_encoder(params: EncoderParams, split: QueryGallerySplit,
                 use_rerank: bool = False, k1: int = 30, k2: int = 6,
                 lam: float = 0.3, top_limit: int = 100) -> EvalReport:
    """Protocol metrics for a trained encoder on a query/gallery split.

    Retrieval operates on L2-normalized encoder outputs.
    """
    q = l2_normalize_rows(forward(params, split.query.features.astype(np.float64),
                                  split.query.domains, training=False), "query feature")
    g = l2_normalize_rows(forward(params, split.gallery.features.astype(np.float64),
                                  split.gallery.domains, training=False), "gallery feature")
    dist = rerank(q, g, k1, k2, lam) if use_rerank else cdist(q, g)
    return evaluate_split(split, dist=dist, top_limit=top_limit)


def _maybe_eval(params, val_split, rec):
    if val_split is not None:
        report = eval_encoder(params, val_split)
        rec.val_map = report.mAP
        rec.val_cmc1 = float(report.cmc[0])


# ---------------------------------------------------------------------------
# The epoch driver shared by every stage
# ---------------------------------------------------------------------------

def _run_epochs(cfg: StageConfig, log: RunLog, adams: tuple, step,
                eval_params: EncoderParams, val_split: QueryGallerySplit | None,
                relabel=None, rebuild=None) -> None:
    """Train ``cfg.epochs`` epochs of ``cfg.iters_per_epoch`` steps each.

    ``step(labeling)`` draws one batch and returns ``(parts, update)``: one
    dict of loss parts per network it trains, and a callable that applies
    the updates.  A part dict without a ``"total"`` trains on the sum of its
    parts; the guard checks every total for finiteness before ``update``
    runs.  An overflow or invalid operation in ``relabel``, ``rebuild``,
    ``step`` or ``update`` is a divergence at that epoch, like a non-finite total.
    The record averages each part over all part dicts of the epoch; a
    missing total is recorded as the sum of the part sums over that count.

    Self-training stages pass ``relabel(epoch) -> PseudoLabeling``, run at
    each epoch start: an epoch without clusters is recorded as skipped and
    not trained, otherwise ``rebuild(num_clusters)`` re-seeds the
    classifiers and every optimizer drops its classifier moments.
    """
    started = time.perf_counter()
    for epoch in range(cfg.epochs):
        for adam in adams:
            adam.lr = cfg.lr_at(epoch)
        rec = EpochRecord(epoch=epoch)
        sums, count, it = {}, 0, None  # it stays None through relabel and rebuild
        try:
            with np.errstate(over="raise", invalid="raise"):
                labeling = None if relabel is None else relabel(epoch)
                if labeling is not None:
                    rec.num_clusters = labeling.num_clusters
                    rec.num_outliers = labeling.num_outliers
                    rec.skipped = labeling.num_clusters == 0
                    if not rec.skipped:
                        rebuild(labeling.num_clusters)
                        for adam in adams:
                            adam.reset("classifier")
                for it in range(0 if rec.skipped else cfg.iters_per_epoch):
                    parts, update = step(labeling)
                    for part in parts:
                        total = part.get("total", sum(part.values()))
                        if not np.isfinite(total):
                            raise DivergenceError(epoch, it, f"non-finite loss {total}")
                    update()
                    for part in parts:
                        for name, value in part.items():
                            sums[name] = sums.get(name, 0.0) + value
                    count += len(parts)
        except FloatingPointError as exc:
            raise DivergenceError(epoch, it, f"floating-point {exc}") from exc
        if rec.skipped:
            log.skipped_epochs += 1
        else:
            for name, value in sums.items():
                setattr(rec, name, value / count)
            if "total" not in sums:
                rec.total = sum(sums.values()) / count
            rec.lr = adams[0].lr
        _maybe_eval(eval_params, val_split, rec)
        log.add(rec)
    log.wall_time_s = time.perf_counter() - started


def _hard_label_step(params: EncoderParams, adam: AdamState, cfg: StageConfig,
                     raws: np.ndarray, domains: np.ndarray, labels: np.ndarray,
                     rng: np.random.Generator):
    """Step of a single network trained on hard labels: classification plus
    hardest-mined triplet loss on a PK batch.

    Pretraining (no labeling) samples ``cfg.p_classes`` identities.  Self-
    training samples at most one class per cluster and drops the triplet
    term when a single cluster is left.
    """
    def step(labeling):
        p = cfg.p_classes if labeling is None else min(cfg.p_classes, labeling.num_clusters)
        idx = pk_sample(labels, p, cfg.k_per, rng)
        batch_labels = labels[idx].astype(np.int64)
        feats, x_hat = forward_cached(params, raws[idx], domains[idx], training=True)
        cls_val, d_feats, d_cls = _hard_loss(params, feats, batch_labels, cfg)
        tri_val, d_tri = 0.0, 0.0
        if labeling is None or p > 1:
            tri = losses.softmax_triplet_loss(feats, batch_labels)
            tri_val, d_tri = tri.value, tri.grads["batch"]
        grads = backward(params, x_hat, d_feats + d_tri)
        grads["classifier"] = d_cls
        return ([{"cls": cls_val, "tri": tri_val}],
                lambda: adam_step(params.trainable(), grads, adam))
    return step


# ---------------------------------------------------------------------------
# Stage II: supervised pretraining
# ---------------------------------------------------------------------------

def stage_pretrain(train: Dataset, cfg: StageConfig,
                   val_split: QueryGallerySplit | None = None) -> tuple[EncoderParams, RunLog]:
    """Classification + hardest-mined triplet training on labeled data."""
    cfg.validate()
    train.validate()
    if np.any(train.identities < 0):
        raise ValueError("pretraining requires identity labels on every row")
    dense, p_s = _dense_labels(train.identities)
    params = init_params(train.d, cfg.encoder_dim, p_s, cfg.seed)
    adam = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    log = RunLog(stage="pretrain", seed=cfg.seed)
    step = _hard_label_step(params, adam, cfg, train.features.astype(np.float64),
                            train.domains, dense, np.random.default_rng([cfg.seed, 11]))
    _run_epochs(cfg, log, (adam,), step, params, val_split)
    return params, log


# ---------------------------------------------------------------------------
# Intermediate stage: clustering-based self-training baseline
# ---------------------------------------------------------------------------

def stage_baseline(pretrained: EncoderParams, target: Dataset, cfg: StageConfig,
                   val_split: QueryGallerySplit | None = None) -> tuple[EncoderParams, RunLog]:
    """Alternates pseudo-label refresh and supervised training on them."""
    cfg.validate()
    if pretrained.d_in != target.d:
        raise ValueError("pretrained encoder dimension does not match data")
    params = pretrained.copy()
    adam = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    log = RunLog(stage="baseline", seed=cfg.seed)
    step = _hard_label_step(params, adam, cfg, target.features.astype(np.float64),
                            target.domains, target.pseudo,
                            np.random.default_rng([cfg.seed, 13]))

    def rebuild(num_clusters):
        params.classifier = _cluster_centroids(params, target, num_clusters)

    _run_epochs(cfg, log, (adam,), step, params, val_split,
                relabel=lambda epoch: relabel_epoch(target, params, cfg.k, cfg.eps,
                                                    cfg.min_pts, epoch),
                rebuild=rebuild)
    return params, log


# ---------------------------------------------------------------------------
# Stage III: mutual mean-teacher training (joint domains, queues)
# ---------------------------------------------------------------------------

@dataclass
class TeacherState:
    students: tuple
    teachers: tuple

    def export(self, which: str = "teacher1") -> EncoderParams:
        if which == "teacher1":
            return self.teachers[0]
        if which == "teacher2":
            return self.teachers[1]
        raise ValueError(f"unknown export target {which!r}")


def _decorrelated_copy(params: EncoderParams, seed: int) -> EncoderParams:
    """Second student: same pretrained weights plus a small seeded jitter."""
    rng = np.random.default_rng([seed, 23])
    out = params.copy()
    out.weight = out.weight + rng.normal(0.0, 0.05 / np.sqrt(params.d_in),
                                         size=out.weight.shape)
    out.bias = out.bias + rng.normal(0.0, 0.01, size=out.bias.shape)
    return out


def stage_mmt_plus(pretrained: EncoderParams, source: Dataset, target: Dataset,
                   cfg: StageConfig, val_split: QueryGallerySplit | None = None,
                   pretrained2: EncoderParams | None = None) -> tuple[TeacherState, RunLog]:
    """Two students, two mean teachers, two queues, joint label space.

    Per epoch: pseudo-labels refreshed with student 1, classifiers rebuilt
    from class centroids over the joint source+target label space.  Per
    iteration: one PK batch per domain, soft cross-entropy against the peer
    teacher, hard loss on joint labels, momentum-contrast loss against the
    own-teacher queue; Adam on each student, EMA onto each teacher, teacher
    features pushed to the queues.
    """
    cfg.validate()
    if source.n == 0 or target.n == 0:
        raise ValueError("both datasets must be non-empty")
    if pretrained.d_in != source.d or source.d != target.d:
        raise ValueError("encoder/source/target dimensions incompatible")

    s1 = pretrained.copy()
    s2 = pretrained2.copy() if pretrained2 is not None else _decorrelated_copy(pretrained, cfg.seed)
    students, teachers = (s1, s2), (s1.copy(), s2.copy())
    queues = (FeatureQueue(cfg.queue_capacity, cfg.encoder_dim),
              FeatureQueue(cfg.queue_capacity, cfg.encoder_dim))
    adams = (AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay),
             AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay))
    rng = np.random.default_rng([cfg.seed, 17])
    log = RunLog(stage="mmt_plus", seed=cfg.seed)

    dense_src, p_s = _dense_labels(source.identities)
    raws_s = source.features.astype(np.float64)
    raws_t = target.features.astype(np.float64)

    def rebuild(num_clusters):
        for student, teacher in zip(students, teachers):
            cents = _cluster_centroids(student, target, num_clusters)
            if cfg.joint_source:
                cents = np.concatenate([_centroid_classifier(
                    encode_dataset(student, source), dense_src, p_s), cents], axis=0)
            student.classifier = cents
            teacher.classifier = cents.copy()

    def step(labeling):
        p_eff = min(cfg.p_classes, labeling.num_clusters)
        if cfg.joint_source:
            idx_s = pk_sample(dense_src, cfg.p_classes, cfg.k_per, rng)
            idx_t = pk_sample(target.pseudo, p_eff, cfg.k_per, rng)
            rows = np.concatenate([raws_s[idx_s], raws_t[idx_t]], axis=0)
            doms = np.concatenate([source.domains[idx_s], target.domains[idx_t]])
            labels = np.concatenate([dense_src[idx_s],
                                     p_s + target.pseudo[idx_t].astype(np.int64)])
        else:
            idx_t = pk_sample(target.pseudo, p_eff, cfg.k_per, rng)
            rows = raws_t[idx_t]
            doms = target.domains[idx_t]
            labels = target.pseudo[idx_t].astype(np.int64)

        # teachers only move by EMA after both students step, so one forward
        # each serves as student 1's own/peer teacher and student 2's peer/own
        teacher_feats = [forward(t, rows, doms, training=False) for t in teachers]
        parts, grads = [], []
        for i, student in enumerate(students):
            own_feats, peer_feats = teacher_feats[i], teacher_feats[1 - i]
            feats, x_hat = forward_cached(student, rows, doms, training=True)
            soft = losses.soft_ce_batch(classifier_logits(student, feats),
                                        classifier_logits(teachers[1 - i], peer_feats))
            hard_val, d_feats_hard, d_cls_hard = _hard_loss(student, feats, labels, cfg)
            moco = losses.moco_batch(feats, own_feats, queues[i].contents(), cfg.tau)
            total = losses.mmt_plus_total(soft.value, hard_val, moco.value,
                                          cfg.lambda_soft, cfg.lambda_moco)
            d_cls_soft, d_feats_soft = classifier_backward(
                student, feats, cfg.lambda_soft * soft.grads["student_logits"])
            g = backward(student, x_hat, d_feats_soft
                         + (1.0 - cfg.lambda_soft) * d_feats_hard
                         + cfg.lambda_moco * moco.grads["queries"])
            g["classifier"] = d_cls_soft + (1.0 - cfg.lambda_soft) * d_cls_hard
            grads.append(g)
            parts.append({"soft": soft.value, "hard": hard_val, "moco": moco.value,
                          "total": total})

        # neither student sees the other's new weights within an iteration
        def update():
            for student, teacher, queue, adam, g, own_feats in zip(
                    students, teachers, queues, adams, grads, teacher_feats):
                adam_step(student.trainable(), g, adam)
                ema_update(teacher, student, cfg.alpha)
                queue_push(queue, own_feats)
        return parts, update

    # relabel with the current student encoder: at desk-scale step counts
    # the EMA teacher lags too far behind to provide fresh labels
    _run_epochs(cfg, log, adams, step, teachers[0], val_split,
                relabel=lambda epoch: relabel_epoch(target, s1, cfg.k, cfg.eps,
                                                    cfg.min_pts, epoch),
                rebuild=rebuild)
    return TeacherState(students=students, teachers=teachers), log


# ---------------------------------------------------------------------------
# Translation-quality diagnostic
# ---------------------------------------------------------------------------

def relation_consistency_check(source: Dataset, translated: Dataset,
                               enc_s: EncoderParams, enc_t: EncoderParams,
                               batches: int = 10, p_classes: int = 16,
                               k_per: int = 4, seed: int = 0) -> float:
    """Mean soft-BCE between hardest-mined T statistics of translated rows
    (under the target encoder) and source rows (under the source encoder)."""
    if source.n != translated.n or not np.array_equal(source.identities,
                                                      translated.identities):
        raise ValueError("source/translated datasets are not row-aligned")
    dense, p_s = _dense_labels(source.identities)
    rng = np.random.default_rng([seed, 29])
    p_eff = min(p_classes, p_s)
    total = 0.0
    for _ in range(batches):
        idx = pk_sample(dense, p_eff, k_per, rng)
        labels = dense[idx]
        f_s = forward(enc_s, source.features[idx].astype(np.float64),
                      source.domains[idx], training=False)
        f_tr = forward(enc_t, translated.features[idx].astype(np.float64),
                       translated.domains[idx], training=False)
        t_s = losses.triplet_T_values(f_s, labels)
        t_tr = losses.triplet_T_values(f_tr, labels)
        total += losses.relation_consistency(t_tr, t_s).value
    return total / batches


# ---------------------------------------------------------------------------
# Default synthetic benchmark
# ---------------------------------------------------------------------------

@dataclass
class Benchmark:
    source: Dataset
    translated: Dataset
    target_train: Dataset
    target_val: Dataset
    val_split: QueryGallerySplit
    synth: SynthConfig


def default_benchmark(seed: int = 0, train_per_id: int = 20,
                      val_per_id: int = 6, **synth_overrides) -> Benchmark:
    """Generate the benchmark and carve a per-identity validation split off
    the target set (first rows train, remaining rows validate)."""
    synth = SynthConfig(seed=seed,
                        samples_per_id=train_per_id + val_per_id,
                        **synth_overrides)
    synth.validate()
    source, target, translated = generate_synthetic(synth)
    per_id = synth.samples_per_id
    within = np.arange(target.n) % per_id
    train_rows = np.flatnonzero(within < train_per_id)
    val_rows = np.flatnonzero(within >= train_per_id)
    target_train = target.subset(train_rows)
    target_val = target.subset(val_rows)
    return Benchmark(source=source, translated=translated,
                     target_train=target_train, target_val=target_val,
                     val_split=split_query_gallery(target_val, per_id=2),
                     synth=synth)


def run_full_pipeline(seed: int = 0, cfg: StageConfig | None = None,
                      bench: Benchmark | None = None,
                      use_rerank: bool = True) -> dict:
    """Pretrain on translated data, run the full stage-III training, and
    evaluate teacher 1 on the validation split."""
    cfg = cfg or StageConfig(seed=seed)
    bench = bench or default_benchmark(seed=seed)
    pre, pre_log = stage_pretrain(bench.translated, cfg, val_split=bench.val_split)
    state, mmt_log = stage_mmt_plus(pre, bench.source, bench.target_train, cfg,
                                    val_split=bench.val_split)
    final = state.export("teacher1")
    report = eval_encoder(final, bench.val_split, use_rerank=use_rerank)
    return {"params": final, "state": state, "report": report,
            "logs": {"pretrain": pre_log, "mmt_plus": mmt_log}}


def ablation_arms(seed: int, **synth_overrides) -> dict:
    """Validation mAP of each ablation arm on the seed's default benchmark.

    raw: pretrain on the observed (shifted) source; translated: pretrain on
    the translated source; baseline: clustering self-training on top of the
    translated pretrain; ablated: stage III without momentum queue or joint
    batches; full: complete stage III; reranked: the full arm evaluated with
    re-ranked distances.
    """
    bench = default_benchmark(seed=seed, **synth_overrides)
    cfg = StageConfig(seed=seed)
    pre_raw, _ = stage_pretrain(bench.source, cfg)
    pre_tr, _ = stage_pretrain(bench.translated, cfg)
    base, _ = stage_baseline(pre_tr, bench.target_train, cfg)
    full_state, _ = stage_mmt_plus(pre_tr, bench.source, bench.target_train, cfg)
    abl_cfg = StageConfig(seed=seed, lambda_moco=0.0, joint_source=False)
    abl_state, _ = stage_mmt_plus(pre_tr, bench.source, bench.target_train, abl_cfg)
    full = full_state.export("teacher1")
    return {
        "raw": eval_encoder(pre_raw, bench.val_split).mAP,
        "translated": eval_encoder(pre_tr, bench.val_split).mAP,
        "baseline": eval_encoder(base, bench.val_split).mAP,
        "ablated": eval_encoder(abl_state.export("teacher1"), bench.val_split).mAP,
        "full": eval_encoder(full, bench.val_split).mAP,
        "reranked": eval_encoder(full, bench.val_split, use_rerank=True).mAP,
    }
