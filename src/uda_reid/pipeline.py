"""Three-stage training orchestration on the synthetic benchmark.

Stage I is realized by the generator's translation transform, stage II
pretrains on labeled data, and stage III runs mutual mean-teacher
self-training with joint-domain batches, a momentum queue per network, and
per-epoch pseudo-label refresh.  All training stages share one epoch driver
and differ only in their step.
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
    encoder_dim: int = 32  # stage II's width; baseline and stage III keep the pretrained one's
    joint_source: bool = True
    lr_milestones: tuple[int, ...] = ()     # epochs at which lr decays by lr_gamma
    lr_gamma: float = 0.1

    def validate(self) -> None:
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

    def add(self, record: EpochRecord) -> None:
        if self.records and record.epoch <= self.records[-1].epoch:
            raise ValueError("epoch indices must increase")
        self.records.append(record)

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
# The epoch driver shared by every stage
# ---------------------------------------------------------------------------

def _run_epochs(cfg: StageConfig, log: RunLog, adam: AdamState, step,
                eval_params: EncoderParams, val_split: QueryGallerySplit | None,
                index: ClassIndex | None = None, relabel=None, rebuild=None) -> None:
    """Train ``cfg.epochs`` epochs of ``cfg.iters_per_epoch`` steps each.

    ``step(index)`` draws one batch, rows and labels, from the class
    ``index`` of the current labels and returns ``(parts, update)``: a dict
    of loss parts, each a float or, for a stack of networks, an array of one
    value per network, and a callable that applies the updates.  Without a
    ``"total"`` part each network trains on the sum of its parts; the guard
    checks every total for finiteness before ``update`` runs.  An overflow
    or invalid operation in ``relabel``, ``rebuild``, ``step`` or ``update``
    is a divergence at that epoch, like a non-finite total.  The record
    averages each part over every network and step of the epoch; a missing
    total is recorded as the sum of the part sums over that count.

    Supervised training passes the fixed ``index`` of its labels.
    Self-training stages pass ``relabel() -> PseudoLabeling``, run at each
    epoch start: an epoch without clusters is recorded as skipped and not
    trained; otherwise the labelling's class index is built here, once,
    ``rebuild(index)`` re-seeds the classifiers from it and the optimizer
    drops its classifier moments.  The index is the steps' only source of
    labels; a dataset's ``pseudo`` column is an output they never read.
    """
    for epoch in range(cfg.epochs):
        adam.lr = cfg.lr_at(epoch)
        rec = EpochRecord(epoch=epoch)
        sums, count, it = {}, 0, None  # it stays None through relabel and rebuild
        try:
            with np.errstate(over="raise", invalid="raise"):
                labeling = None if relabel is None else relabel()
                if labeling is not None:
                    rec.num_clusters = labeling.num_clusters
                    rec.num_outliers = labeling.num_outliers
                    rec.skipped = labeling.num_clusters == 0
                    if not rec.skipped:
                        index = class_index(labeling.assignment)
                        rebuild(index)
                        adam.reset("classifier")
                for it in range(0 if rec.skipped else cfg.iters_per_epoch):
                    parts, update = step(index)
                    totals = np.atleast_1d(parts.get("total", sum(parts.values())))
                    bad = ~np.isfinite(totals)
                    if bad.any():
                        raise DivergenceError(epoch, it, f"non-finite loss {totals[bad][0]}")
                    update()
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
            report = eval_encoder(eval_params, val_split)
            rec.val_map, rec.val_cmc1 = report.mAP, float(report.cmc[0])
        log.add(rec)


def _hard_label_step(params: EncoderParams, adam: AdamState, cfg: StageConfig,
                     raws: np.ndarray, domains: np.ndarray, rng: np.random.Generator):
    """Step of a single network trained on hard labels: classification plus
    hardest-mined triplet loss on a PK batch drawn from the driver's class
    index.  The batch draws ``cfg.p_classes`` classes, or every class when
    the index has fewer, and drops the triplet term when it holds only one.
    Raises before any step unless ``cfg.k_per`` > 1: a class drawn once has
    no triplet positive.
    """
    if cfg.k_per == 1:
        raise ConfigError("k_per", "must be > 1 for the triplet term's in-batch positives")

    def step(index):
        p = min(cfg.p_classes, index.classes.size)
        idx, batch_labels = pk_sample(index, p, cfg.k_per, rng)
        feats, x_hat = forward_cached(params, raws[idx], domains[idx])
        cls_val, d_feats, d_cls = _hard_loss(params, feats, batch_labels, cfg)
        tri_val, d_tri = 0.0, 0.0
        if p > 1:
            tri = losses.softmax_triplet_loss(feats, batch_labels)
            tri_val, d_tri = tri.value, tri.grads["feats"]
        grads = backward(params, x_hat, d_feats + d_tri)
        grads["classifier"] = d_cls
        return ({"cls": cls_val, "tri": tri_val},
                lambda: adam_step(params.trainable(), grads, adam))
    return step


# ---------------------------------------------------------------------------
# Stage II: supervised pretraining
# ---------------------------------------------------------------------------

def stage_pretrain(train: Dataset, cfg: StageConfig,
                   val_split: QueryGallerySplit | None = None) -> tuple[EncoderParams, RunLog]:
    """Classification + hardest-mined triplet training on labeled data; raises
    before training unless 1 < ``cfg.p_classes`` <= the number of identities
    and ``cfg.k_per`` > 1."""
    cfg.validate()
    train.validate()
    if np.any(train.identities < 0):
        raise ValueError("pretraining requires identity labels on every row")
    dense, p_s = _dense_labels(train.identities)
    index = class_index(dense)
    check_classes(index, cfg.p_classes)
    if cfg.p_classes == 1:
        raise ConfigError("p_classes", "must be > 1 for pretraining's triplet negatives")
    params = init_params(train.d, cfg.encoder_dim, p_s, cfg.seed)
    adam = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    log = RunLog(stage="pretrain", seed=cfg.seed)
    step = _hard_label_step(params, adam, cfg, train.features.astype(np.float64),
                            train.domains, np.random.default_rng([cfg.seed, 11]))
    _run_epochs(cfg, log, adam, step, params, val_split, index=index)
    return params, log


# ---------------------------------------------------------------------------
# Intermediate stage: clustering-based self-training baseline
# ---------------------------------------------------------------------------

def stage_baseline(pretrained: EncoderParams, target: Dataset, cfg: StageConfig,
                   val_split: QueryGallerySplit | None = None) -> tuple[EncoderParams, RunLog]:
    """Alternates pseudo-label refresh and supervised training on them;
    raises before the first relabel unless ``cfg.k_per`` > 1."""
    cfg.validate()
    if pretrained.d_in != target.d:
        raise ValueError("pretrained encoder dimension does not match data")
    params = pretrained.copy()
    adam = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    log = RunLog(stage="baseline", seed=cfg.seed)
    step = _hard_label_step(params, adam, cfg, target.features.astype(np.float64),
                            target.domains, np.random.default_rng([cfg.seed, 13]))

    def rebuild(index):
        params.classifier = _centroid_classifier(encode_dataset(params, target), index)

    _run_epochs(cfg, log, adam, step, params, val_split,
                relabel=lambda: relabel_epoch(target, params, cfg.k, cfg.eps, cfg.min_pts),
                rebuild=rebuild)
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
    so are the two teachers and the two queues, so every call below serves
    both networks at once.  Per epoch: pseudo-labels refreshed with student
    1, then the classifiers rebuilt from class centroids over the joint
    source+target label space: the source identities' centroids first, then
    those of each class of the driver's target index.  Per iteration: one
    PK batch per domain, the target one from that index and the source one
    empty without ``joint_source``, joined into one batch; one teacher
    forward and one student forward on the students' shared training-mode
    ``x_hat``; soft cross-entropy against the peer teacher, hard loss on
    joint labels, momentum-contrast loss against the own-teacher queue;
    then one Adam step on the students, one EMA onto the teachers and one
    push of the teacher features to the queues.
    """
    cfg.validate()
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
    queues = np.zeros((2, 0, pretrained.d_out))
    adam = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng([cfg.seed, 17])
    log = RunLog(stage="mmt_plus", seed=cfg.seed)

    dense_src, p_s = _dense_labels(source.identities)
    index_s = class_index(dense_src)
    if cfg.joint_source:  # before the first relabel, not at the first step
        check_classes(index_s, cfg.p_classes)
    raws_s = source.features.astype(np.float64)
    raws_t = target.features.astype(np.float64)
    offset_t = p_s if cfg.joint_source else 0  # target labels follow the source's

    def rebuild(index_t):
        cents = _centroid_classifier(encode_dataset(students, target), index_t)
        if cfg.joint_source:
            cents = np.concatenate([_centroid_classifier(
                encode_dataset(students, source), index_s), cents], axis=-2)
        students.classifier = cents
        teachers.classifier = cents.copy()

    def step(index_t):
        # a target-only batch is the joint batch with an empty source block
        idx_s, labels_s = (pk_sample(index_s, cfg.p_classes, cfg.k_per, rng)
                           if cfg.joint_source else (np.zeros(0, dtype=np.int64),) * 2)
        idx_t, labels_t = pk_sample(index_t, min(cfg.p_classes, index_t.classes.size),
                                    cfg.k_per, rng)
        rows = np.concatenate([raws_s[idx_s], raws_t[idx_t]], axis=0)
        doms = np.concatenate([source.domains[idx_s], target.domains[idx_t]])
        labels = np.concatenate([labels_s, offset_t + labels_t])

        # teachers only move by EMA after the students step, so one forward
        # serves as each student's own teacher and, reversed, as its peer
        own_feats = forward(teachers, rows, doms)
        peer_logits = classifier_logits(teachers, own_feats)[::-1]
        feats, x_hat = forward_cached(students, rows, doms)
        soft = losses.soft_ce_batch(classifier_logits(students, feats), peer_logits)
        hard, d_feats_hard, d_cls_hard = _hard_loss(students, feats, labels, cfg)
        moco = losses.moco_batch(feats, own_feats, queues, cfg.tau)
        total = losses.mmt_plus_total(soft.value, hard, moco.value,
                                      cfg.lambda_soft, cfg.lambda_moco)
        d_cls_soft, d_feats_soft = classifier_backward(
            students, feats, cfg.lambda_soft * soft.grads["student_logits"])
        grads = backward(students, x_hat, d_feats_soft
                         + (1.0 - cfg.lambda_soft) * d_feats_hard
                         + cfg.lambda_moco * moco.grads["queries"])
        grads["classifier"] = d_cls_soft + (1.0 - cfg.lambda_soft) * d_cls_hard

        def update():
            nonlocal queues
            adam_step(students.trainable(), grads, adam)
            ema_update(teachers, students, cfg.alpha)
            queues = queue_push(queues, own_feats, cfg.queue_capacity)
        return {"soft": soft.value, "hard": hard, "moco": moco.value,
                "total": total}, update

    # relabel with the current student encoder: at desk-scale step counts
    # the EMA teacher lags too far behind to provide fresh labels.  The
    # views see every in-place update; neither relabel nor evaluation reads
    # the classifier, which rebuild replaces.
    student1, teacher1 = unstack_params(students)[0], unstack_params(teachers)[0]
    _run_epochs(cfg, log, adam, step, teacher1, val_split,
                relabel=lambda: relabel_epoch(target, student1, cfg.k, cfg.eps, cfg.min_pts),
                rebuild=rebuild)
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
