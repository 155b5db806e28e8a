"""Three-stage training orchestration on the synthetic benchmark.

Stage I is realized by the generator's translation transform, stage II
pretrains on labeled data, and stage III runs mutual mean-teacher
self-training with joint-domain batches, a momentum queue per network, and
per-epoch pseudo-label refresh.  All training stages share one training
loop and one batch function, whose parts each stage picks by what it passes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import losses
from .datamodel import Dataset, SynthConfig, check_finite_floats, generate_synthetic
from .encoder import (AdamState, ClassIndex, EncoderParams, adam_step, backward, check_classes,
                      class_index, classifier_backward, classifier_logits, ema_update,
                      encode_dataset, forward, forward_cached, init_params, pk_sample,
                      queue_push, stack_params, unstack_params)
from .errors import ConfigError, DivergenceError
from .losses import LossMode
from .numerics import cdist, l2_normalize_rows
from .pseudolabel import relabel_epoch
from .retrieval import (EvalReport, QueryGallerySplit, evaluate_split,
                        rerank, split_query_gallery)


@dataclass(frozen=True)
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
    encoder_dim: int = 32  # stage II's width; baseline and stage III keep the pretrained one's
    joint_source: bool = True
    lr_milestones: tuple[int, ...] = ()     # epochs at which lr decays by lr_gamma
    lr_gamma: float = 0.1

    def __post_init__(self) -> None:
        check_finite_floats(self)
        positives = ["iters_per_epoch", "p_classes", "k_per", "lr", "tau",
                     "queue_capacity", "k", "eps", "min_pts", "encoder_dim",
                     "scale", "lr_gamma"]
        for name in positives:
            if getattr(self, name) <= 0:
                raise ConfigError(name, f"must be > 0, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError("epochs", "must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")
        if not 0.0 <= self.lambda_soft <= 1.0:
            raise ConfigError("lambda_soft", f"must be in [0, 1], got {self.lambda_soft}")
        for name in ("lambda_moco", "weight_decay", "margin"):
            if getattr(self, name) < 0:
                raise ConfigError(name, f"must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha", f"must be in [0, 1], got {self.alpha}")
        if min(self.lr_milestones, default=0) < 0:
            raise ConfigError("lr_milestones", f"must be >= 0, got {self.lr_milestones}")

    def lr_at(self, epoch: int) -> float:
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

    @property
    def skipped_epochs(self) -> int:
        return sum(rec.skipped for rec in self.records)

    def to_jsonl(self) -> str:
        """One JSON object per epoch."""
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
    if cfg.loss_mode is LossMode.PLAIN_CE:
        out = losses.cross_entropy_batch(classifier_logits(params, feats), labels)
        d_cls, d_feats = classifier_backward(params, feats, out.grads["logits"])
        return out.value, d_feats, d_cls
    out = losses.margin_classification_batch(feats, params.classifier, labels,
                                             cfg.loss_mode, cfg.margin, cfg.scale)
    return out.value, out.grads["features"], out.grads["class_weights"]


def _centroid_classifier(feats: np.ndarray, index: ClassIndex) -> np.ndarray:
    """Row-normalized mean features of each class of ``index``, in its class
    order; one classifier per network for a stack of features."""
    cents = np.stack([feats[..., rows, :].mean(axis=-2) for rows in index.rows], axis=-2)
    return l2_normalize_rows(cents, "class centroid")


def encode_split(params: EncoderParams,
                 split: QueryGallerySplit) -> tuple[np.ndarray, np.ndarray]:
    """The L2-normalized encodings of the split's query and gallery rows,
    the features retrieval operates on."""
    return (l2_normalize_rows(encode_dataset(params, split.query), "query feature"),
            l2_normalize_rows(encode_dataset(params, split.gallery), "gallery feature"))


def eval_encoder(params: EncoderParams, split: QueryGallerySplit,
                 use_rerank: bool = False, **rerank_args) -> EvalReport:
    """Protocol metrics for a trained encoder on a query/gallery split;
    ``rerank_args`` (``k1``, ``k2``, ``lam``) go to ``rerank``."""
    q, g = encode_split(params, split)
    dist = rerank(q, g, **rerank_args) if use_rerank else cdist(q, g)
    return evaluate_split(split, dist)


# ---------------------------------------------------------------------------
# The training loop shared by every stage
# ---------------------------------------------------------------------------

def _batch_grads(params: EncoderParams, teachers: EncoderParams | None,
                 queues: np.ndarray | None, cfg: StageConfig, rows: np.ndarray,
                 doms: np.ndarray, labels: np.ndarray):
    """``(parts, grads, teacher_feats)`` of one batch for one network or a
    stack: the loss parts, each a float or one value per network; the
    gradient of each network's total for every trainable array; and, with
    ``teachers``, their features of the batch, else None.

    One forward feeds the hard loss.  The rest follows ``teachers``:

    - none: the hardest-mined softmax triplet, if the batch holds more than
      one class; parts ``cls`` and ``tri``, whose sum is the total.
    - one mean teacher per network: soft cross-entropy against the peer
      teacher and momentum contrast against the own teacher's ``queues``,
      weighted as in ``losses.mmt_plus_total``; parts ``soft``, ``hard``,
      ``moco`` and ``total``.
    """
    feats, x_hat = forward_cached(params, rows, doms)
    hard, d_feats, d_cls = _hard_loss(params, feats, labels, cfg)
    own_feats = None
    if teachers is None:
        parts = {"cls": hard, "tri": 0.0}
        if labels.size > cfg.k_per:  # more than one class in the batch
            tri = losses.softmax_triplet_loss(feats, labels)
            parts["tri"] = tri.value
            d_feats = d_feats + tri.grads["feats"]
    else:
        # teachers only move by EMA after the students step, so one forward
        # serves as each student's own teacher and, reversed, as its peer
        own_feats = forward(teachers, rows, doms)
        soft = losses.soft_ce_batch(classifier_logits(params, feats),
                                    classifier_logits(teachers, own_feats)[::-1])
        moco = losses.moco_batch(feats, own_feats, queues, cfg.tau)
        parts = {"soft": soft.value, "hard": hard, "moco": moco.value,
                 "total": losses.mmt_plus_total(soft.value, hard, moco.value,
                                                cfg.lambda_soft, cfg.lambda_moco)}
        d_cls_soft, d_feats_soft = classifier_backward(
            params, feats, cfg.lambda_soft * soft.grads["student_logits"])
        d_feats = ((1.0 - cfg.lambda_soft) * d_feats + d_feats_soft
                   + cfg.lambda_moco * moco.grads["queries"])
        d_cls = (1.0 - cfg.lambda_soft) * d_cls + d_cls_soft
    grads = backward(params, x_hat, d_feats)
    grads["classifier"] = d_cls
    return parts, grads, own_feats


def _train(params: EncoderParams, cfg: StageConfig, data: Dataset, rng: np.random.Generator,
           log: RunLog, val_split: QueryGallerySplit | None, index: ClassIndex | None = None,
           source: Dataset | None = None, teachers: EncoderParams | None = None) -> None:
    """Train ``params``, one network or a stack, in place for ``cfg.epochs``
    epochs of ``cfg.iters_per_epoch`` steps; one record per epoch in ``log``.

    A step draws a PK batch of ``data``, ``cfg.p_classes`` classes (all, if
    fewer) of ``cfg.k_per`` rows, led by a block of ``source`` identities if
    given (the target labels follow its classes).  Every network's total,
    of :func:`_batch_grads`, is checked for finiteness before Adam steps
    and, with ``teachers`` (one per network), before the EMA and the queue
    push.  Any overflow or invalid operation in an epoch is a divergence
    there too.  This guard is the step's only finiteness check: the loss,
    EMA, queue and Adam kernels take the arrays built here unchecked.  The record averages each part over every network and step;
    a missing total is the sum of the part sums over that count.

    Without a fixed class ``index``, each epoch starts with a relabel by the
    first network.  An epoch without clusters, or without teachers with one
    cluster (no loss to learn from), is skipped.  Else the labelling's class
    index is built, the classifiers are rebuilt from class centroids (the
    source identities' first) and copied to the teachers, and Adam drops its
    classifier moments.  Batches take labels from the index alone, and
    never from a dataset's ``pseudo`` column.  Validation scores the first
    teacher, else the first network.  Raises before the first relabel unless
    ``cfg.k_per`` > 1 without teachers (the triplet's positives),
    ``source`` has ``cfg.p_classes`` identities and ``val_split`` has the
    width of ``data``.
    """
    if val_split is not None and val_split.query.d != data.d:
        raise ValueError(f"validation rows are {val_split.query.d} features wide, "
                         f"the training rows {data.d}")
    if teachers is None and cfg.k_per == 1:
        raise ConfigError("k_per", "must be > 1 for the triplet term's in-batch positives")
    if source is not None:
        index_s = class_index(_dense_labels(source.identities)[0])
        check_classes(index_s, cfg.p_classes)
        raws_s = source.features.astype(np.float64)
    raws = data.features.astype(np.float64)
    relabel = index is None
    # views see every in-place update; neither relabel nor evaluation reads
    # the classifier, which the rebuild replaces
    first = unstack_params(params)[0] if params.weight.ndim == 3 else params
    eval_net = first if teachers is None else unstack_params(teachers)[0]
    queues = None if teachers is None else np.zeros((len(teachers.weight), 0, teachers.d_out))
    adam = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    for epoch in range(cfg.epochs):
        adam.lr = cfg.lr_at(epoch)
        rec = EpochRecord(epoch=epoch)
        sums, count, it = {}, 0, None  # it stays None through relabel and rebuild
        try:
            with np.errstate(over="raise", invalid="raise"):
                if relabel:
                    labeling = relabel_epoch(data, first, cfg.k, cfg.eps, cfg.min_pts)
                    rec.num_clusters = labeling.num_clusters
                    rec.num_outliers = labeling.num_outliers
                    rec.skipped = labeling.num_clusters < (2 if teachers is None else 1)
                    if not rec.skipped:
                        index = class_index(labeling.assignment)
                        cents = _centroid_classifier(encode_dataset(params, data), index)
                        if source is not None:
                            cents = np.concatenate([_centroid_classifier(
                                encode_dataset(params, source), index_s), cents], axis=-2)
                        params.classifier = cents
                        if teachers is not None:
                            teachers.classifier = cents.copy()
                        adam.reset("classifier")
                for it in range(0 if rec.skipped else cfg.iters_per_epoch):
                    if source is not None:
                        idx_s, labels_s = pk_sample(index_s, cfg.p_classes, cfg.k_per, rng)
                    idx, labels = pk_sample(index, min(cfg.p_classes, index.classes.size),
                                            cfg.k_per, rng)
                    rows, doms = raws[idx], data.domains[idx]
                    if source is not None:
                        rows = np.concatenate([raws_s[idx_s], rows], axis=0)
                        doms = np.concatenate([source.domains[idx_s], doms])
                        labels = np.concatenate([labels_s, index_s.classes.size + labels])
                    parts, grads, own_feats = _batch_grads(params, teachers, queues, cfg,
                                                           rows, doms, labels)
                    totals = np.atleast_1d(parts.get("total", sum(parts.values())))
                    bad = ~np.isfinite(totals)
                    if bad.any():
                        raise DivergenceError(epoch, it, f"non-finite loss {totals[bad][0]}")
                    adam_step(params.trainable(), grads, adam)
                    if teachers is not None:
                        ema_update(teachers, params, cfg.alpha)
                        queues = queue_push(queues, own_feats, cfg.queue_capacity)
                    # network 0's parts, then network 1's, step by step: a
                    # fixed summation order keeps the epoch means bitwise stable
                    for net in range(totals.size):
                        for name, value in parts.items():
                            sums[name] = sums.get(name, 0.0) + float(np.atleast_1d(value)[net])
                    count += totals.size
        except FloatingPointError as exc:
            raise DivergenceError(epoch, it, f"floating-point {exc}") from exc
        if not rec.skipped:
            for name, value in sums.items():
                setattr(rec, name, value / count)
            if "total" not in sums:
                rec.total = sum(sums.values()) / count
            rec.lr = adam.lr
        if val_split is not None:
            report = eval_encoder(eval_net, val_split)
            rec.val_map, rec.val_cmc1 = report.mAP, float(report.cmc[0])
        log.records.append(rec)


# ---------------------------------------------------------------------------
# Stage II: supervised pretraining
# ---------------------------------------------------------------------------

def stage_pretrain(train: Dataset, cfg: StageConfig,
                   val_split: QueryGallerySplit | None = None) -> tuple[EncoderParams, RunLog]:
    """Classification + hardest-mined triplet training on labeled data; raises
    before training unless 1 < ``cfg.p_classes`` <= the number of identities
    and ``cfg.k_per`` > 1.  ``train`` is trusted to be valid: its loader or
    generator checked it."""
    if np.any(train.identities < 0):
        raise ValueError("pretraining requires identity labels on every row")
    dense, p_s = _dense_labels(train.identities)
    index = class_index(dense)
    check_classes(index, cfg.p_classes)
    if cfg.p_classes == 1:
        raise ConfigError("p_classes", "must be > 1 for pretraining's triplet negatives")
    params = init_params(train.d, cfg.encoder_dim, p_s, cfg.seed)
    log = RunLog(stage="pretrain", seed=cfg.seed)
    _train(params, cfg, train, np.random.default_rng([cfg.seed, 11]), log, val_split,
           index=index)
    return params, log


# ---------------------------------------------------------------------------
# Intermediate stage: clustering-based self-training baseline
# ---------------------------------------------------------------------------

def stage_baseline(pretrained: EncoderParams, target: Dataset, cfg: StageConfig,
                   val_split: QueryGallerySplit | None = None) -> tuple[EncoderParams, RunLog]:
    """Alternates pseudo-label refresh and supervised training on them; an
    epoch whose labelling has fewer than two clusters is skipped.  Raises
    before the first relabel unless ``cfg.k_per`` > 1."""
    if pretrained.d_in != target.d:
        raise ValueError("pretrained encoder dimension does not match data")
    params = pretrained.copy()
    log = RunLog(stage="baseline", seed=cfg.seed)
    _train(params, cfg, target, np.random.default_rng([cfg.seed, 13]), log, val_split)
    return params, log


# ---------------------------------------------------------------------------
# Stage III: mutual mean-teacher training (joint domains, queues)
# ---------------------------------------------------------------------------

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
                   pretrained2: EncoderParams | None = None
                   ) -> tuple[tuple[EncoderParams, EncoderParams], RunLog]:
    """Two students, two mean teachers, two queues, joint label space.
    Returns the two trained teachers and the log.  With ``joint_source``,
    raises before the first relabel unless the source has ``cfg.p_classes``
    identities.

    The two students are one stack of networks (:func:`stack_params`), and
    so are the two teachers and the two queues, so every call serves both
    networks at once.  Per epoch: pseudo-labels refreshed with student 1,
    then the classifiers rebuilt from class centroids over the joint
    source+target label space: the source identities' centroids first, then
    those of each class of the target labelling.  Per iteration: one step
    of :func:`_train` with the teachers, and with the source block only
    under ``joint_source``.
    """
    if source.n == 0 or target.n == 0:
        raise ValueError("both datasets must be non-empty")
    if pretrained.d_in != source.d or source.d != target.d:
        raise ValueError("encoder/source/target dimensions incompatible")
    if pretrained2 is None:
        pretrained2 = _decorrelated_copy(pretrained, cfg.seed)
    for name, arr in pretrained.all_arrays().items():
        other = getattr(pretrained2, name)
        if other.shape != arr.shape:
            raise ValueError(f"params2 {name} has shape {other.shape}, "
                             f"the first encoder's has {arr.shape}")

    students = stack_params((pretrained, pretrained2))
    teachers = students.copy()
    log = RunLog(stage="mmt_plus", seed=cfg.seed)
    # relabel with the current student encoder: at desk-scale step counts
    # the EMA teacher lags too far behind to provide fresh labels
    _train(students, cfg, target, np.random.default_rng([cfg.seed, 17]), log, val_split,
           source=source if cfg.joint_source else None, teachers=teachers)
    return unstack_params(teachers), log


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


def default_benchmark(seed: int, train_per_id: int = 20,
                      val_per_id: int = 6, **synth_overrides) -> Benchmark:
    """Generate the benchmark and carve a per-identity validation split off
    the target set (first rows train, remaining rows validate)."""
    synth = SynthConfig(seed=seed,
                        samples_per_id=train_per_id + val_per_id,
                        **synth_overrides)
    source, target, translated = generate_synthetic(synth)
    per_id = synth.samples_per_id
    within = np.arange(target.n) % per_id
    train_rows = np.flatnonzero(within < train_per_id)
    val_rows = np.flatnonzero(within >= train_per_id)
    target_train = target.subset(train_rows)
    target_val = target.subset(val_rows)
    return Benchmark(source=source, translated=translated,
                     target_train=target_train, target_val=target_val,
                     val_split=split_query_gallery(target_val))


def run_full_pipeline(cfg: StageConfig | None = None, bench: Benchmark | None = None) -> dict:
    """Pretrain on translated data, run the full stage-III training, and
    evaluate teacher 1 on the validation split with re-ranking.  The seed is
    ``cfg``'s (default ``StageConfig()``); so is the default benchmark's."""
    cfg = cfg or StageConfig()
    bench = bench or default_benchmark(seed=cfg.seed)
    pre, pre_log = stage_pretrain(bench.translated, cfg, val_split=bench.val_split)
    teachers, mmt_log = stage_mmt_plus(pre, bench.source, bench.target_train, cfg,
                                       val_split=bench.val_split)
    final = teachers[0]
    report = eval_encoder(final, bench.val_split, use_rerank=True)
    return {"params": final, "report": report,
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
    full = stage_mmt_plus(pre_tr, bench.source, bench.target_train, cfg)[0][0]
    abl_cfg = StageConfig(seed=seed, lambda_moco=0.0, joint_source=False)
    ablated = stage_mmt_plus(pre_tr, bench.source, bench.target_train, abl_cfg)[0][0]
    return {
        "raw": eval_encoder(pre_raw, bench.val_split).mAP,
        "translated": eval_encoder(pre_tr, bench.val_split).mAP,
        "baseline": eval_encoder(base, bench.val_split).mAP,
        "ablated": eval_encoder(ablated, bench.val_split).mAP,
        "full": eval_encoder(full, bench.val_split).mAP,
        "reranked": eval_encoder(full, bench.val_split, use_rerank=True).mAP,
    }
