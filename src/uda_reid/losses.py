"""Loss kernels with analytic gradients, and :class:`LossMode`, the one
choice of hard loss that the config, the trainer and the margin kernel share.

Every kernel is a pure function returning a :class:`LossOut` whose ``grads``
map keys each differentiated input by its parameter name, with a gradient of
matching shape.  Values and gradients are computed in float64.  Kernels take
whole batches and reduce with the arithmetic mean over anchors/rows; constant
(non-differentiated) inputs carry no gradient entry.  The queue and margin
losses are :func:`cross_entropy_batch` on logits they build from normalized
rows, its logit gradient chained back through ``l2_normalize_rows_backward``.

The batch kernels also take a stack of batches on a leading network axis,
(networks, n, ...) instead of (n, ...), with the per-row labels shared; their
``value`` is then one float64 per network, and each network's slice of the
result is bitwise the unstacked call on that slice.

Precondition, met by ``pipeline._train`` and not checked again here: every
array is finite, the shapes of one call align, every label indexes a class of
its logits or weights, and every anchor of :func:`softmax_triplet_loss` has an
in-batch positive at another position and a negative.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .numerics import (cdist, l2_normalize_rows, l2_normalize_rows_backward,
                       log_softmax, mT, sigmoid, softmax, softplus)

ARC_ANGLE_MARGIN = 1e-4  # target angle clamped to <= pi - this


class LossMode(enum.Enum):
    """Hard loss on identity labels: cross-entropy over the classifier's
    logits, or a margin head of :func:`margin_classification_batch`."""
    PLAIN_CE = "plain_ce"
    ARCFACE = "arcface"
    COSFACE = "cosface"


@dataclass
class LossOut:
    value: float | np.ndarray  # an array of one value per network of a stack
    grads: dict[str, np.ndarray] = field(default_factory=dict)


def _row_mean(terms) -> float | np.ndarray:
    """Mean over the last axis: a float for one batch, an array for a stack.

    Terms picked by fancy indexing from a stack are laid out network-minor;
    the contiguous copy makes each network's sum run in the unstacked order."""
    mean = np.mean(np.ascontiguousarray(terms), axis=-1)
    return float(mean) if mean.ndim == 0 else mean


# ---------------------------------------------------------------------------
# Classification cross-entropy
# ---------------------------------------------------------------------------

def cross_entropy_batch(logits, labels) -> LossOut:
    """Mean cross-entropy over rows; gradient w.r.t. the full logit matrix."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[-2]
    rows = np.arange(n)
    logp = log_softmax(logits)
    value = -_row_mean(logp[..., rows, labels])
    grad = np.exp(logp, out=logp)
    grad[..., rows, labels] -= 1.0
    grad /= n
    return LossOut(value=value, grads={"logits": grad})


# ---------------------------------------------------------------------------
# Softmax-triplet statistic and loss
# ---------------------------------------------------------------------------

def hardest_triplets(feats, labels):
    """Per-anchor hardest positive/negative by Euclidean distance.

    Returns (d_p, d_n, pos_idx, neg_idx).  Hardest positive is the farthest
    same-label row (anchor excluded); hardest negative the closest
    other-label row.  Takes float64 ``feats`` and int64 ``labels`` under
    the module's precondition: every row has both.
    """
    n = feats.shape[0]
    dist = cdist(feats, feats)
    same = labels[:, None] == labels[None, :]
    diff = ~same
    np.fill_diagonal(same, False)

    pos_idx = np.where(same, dist, -np.inf).argmax(axis=1)
    neg_idx = np.where(diff, dist, np.inf).argmin(axis=1)
    rows = np.arange(n)
    return dist[rows, pos_idx], dist[rows, neg_idx], pos_idx, neg_idx


def softmax_triplet_loss(feats, labels) -> LossOut:
    """Mean over anchors of -log T, T = sigmoid(d_n - d_p) in (0, 1), under
    hardest in-batch mining.

    Gradients touch only each anchor and its mined positive/negative rows;
    the mining itself is treated as locally constant.
    """
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = feats.shape[0]
    d_p, d_n, pos_idx, neg_idx = hardest_triplets(feats, labels)
    value = float(np.mean(softplus(d_p - d_n)))

    coeff = sigmoid(d_p - d_n) / n  # d loss_i / d (d_p - d_n), mean-reduced
    grad = np.zeros_like(feats)
    rows = np.arange(n)

    diff_p = feats - feats[pos_idx]
    unit_p = np.divide(diff_p, d_p[:, None], out=np.zeros_like(diff_p), where=d_p[:, None] > 0)
    diff_n = feats - feats[neg_idx]
    unit_n = np.divide(diff_n, d_n[:, None], out=np.zeros_like(diff_n), where=d_n[:, None] > 0)

    grad[rows] += coeff[:, None] * (unit_p - unit_n)
    np.add.at(grad, pos_idx, -coeff[:, None] * unit_p)
    np.add.at(grad, neg_idx, coeff[:, None] * unit_n)
    return LossOut(value=value, grads={"feats": grad})


# ---------------------------------------------------------------------------
# Soft cross-entropy between peer networks (teacher side constant)
# ---------------------------------------------------------------------------

def soft_ce_batch(student_logits, teacher_logits) -> LossOut:
    """Mean over rows of -sum softmax(teacher) * log softmax(student); no
    gradient to the teacher."""
    s = np.asarray(student_logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    n = s.shape[-2]
    t_prob = softmax(t)
    s_logp = log_softmax(s)
    value = -_row_mean(np.sum(t_prob * s_logp, axis=-1))
    grad = np.exp(s_logp, out=s_logp)
    grad -= t_prob
    grad /= n
    return LossOut(value=value, grads={"student_logits": grad})


# ---------------------------------------------------------------------------
# Momentum-contrast loss against a feature queue
# ---------------------------------------------------------------------------

def moco_batch(queries, keys_pos, queue, tau: float) -> LossOut:
    """Mean InfoNCE: :func:`cross_entropy_batch` with class 0 over logits
    [positive key, queue negatives] / tau; all rows re-normalized.

    Gradient flows to the raw (pre-normalization) queries only; the positive
    keys and queue entries are constants.  An empty queue gives zero loss.
    ``tau`` is unchecked: ``StageConfig`` owns its range (> 0).
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys_pos = np.asarray(keys_pos, dtype=np.float64)
    queue = np.asarray(queue, dtype=np.float64)
    n = queries.shape[-2]
    k = queue.shape[-2]

    q_hat = l2_normalize_rows(queries, "query")
    k_hat = l2_normalize_rows(keys_pos, "key_pos")
    neg_hat = l2_normalize_rows(queue, "queue")

    logits = np.empty(queries.shape[:-1] + (1 + k,))
    logits[..., 0] = np.sum(q_hat * k_hat, axis=-1) / tau
    np.matmul(q_hat, mT(neg_hat), out=logits[..., 1:])
    logits[..., 1:] /= tau
    ce = cross_entropy_batch(logits, np.zeros(n, dtype=np.int64))

    dlogits = ce.grads["logits"]
    dq_hat = dlogits[..., :1] * k_hat / tau + (dlogits[..., 1:] @ neg_hat) / tau
    return LossOut(value=ce.value,
                   grads={"queries": l2_normalize_rows_backward(dq_hat, queries, q_hat)})


# ---------------------------------------------------------------------------
# Margin-based classification (cosine logits with additive margins)
# ---------------------------------------------------------------------------

def margin_classification_batch(features, class_weights, labels, mode: LossMode,
                                margin: float, scale: float) -> LossOut:
    """:func:`cross_entropy_batch` over scaled cosine logits with the target
    logit shifted.

    ARCFACE replaces cos(theta_y) by cos(theta_y + m) with the summed angle
    clamped below pi; COSFACE uses cos(theta_y) - m.  Gradients flow to the
    raw features and raw class weights through the normalizations.  ``margin``
    and ``scale`` are unchecked: ``StageConfig`` owns their ranges.
    """
    feats = np.asarray(features, dtype=np.float64)
    weights = np.asarray(class_weights, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = feats.shape[-2]

    f_hat = l2_normalize_rows(feats, "feature")
    w_hat = l2_normalize_rows(weights, "class_weights")
    cos = np.clip(f_hat @ mT(w_hat), -1.0, 1.0)

    rows = np.arange(n)
    cos_y = cos[..., rows, labels]
    if mode is LossMode.COSFACE:
        psi = cos_y - margin
        dpsi = np.ones(n)
    elif mode is LossMode.ARCFACE:
        theta = np.arccos(cos_y)
        theta_m = theta + margin
        clamped = theta_m > np.pi - ARC_ANGLE_MARGIN
        theta_m = np.minimum(theta_m, np.pi - ARC_ANGLE_MARGIN)
        psi = np.cos(theta_m)
        sin_theta = np.sqrt(np.maximum(1.0 - cos_y**2, 1e-12))
        dpsi = np.where(clamped, 0.0, np.sin(theta_m) / sin_theta)
    else:
        raise ValueError(f"unknown margin mode {mode!r}")

    logits = scale * cos
    logits[..., rows, labels] = scale * psi
    ce = cross_entropy_batch(logits, labels)

    dcos = scale * ce.grads["logits"]
    dcos[..., rows, labels] *= dpsi
    df = l2_normalize_rows_backward(dcos @ w_hat, feats, f_hat)
    dw = l2_normalize_rows_backward(mT(dcos) @ f_hat, weights, w_hat)
    return LossOut(value=ce.value, grads={"features": df, "class_weights": dw})


# ---------------------------------------------------------------------------
# Weighted stage-III total
# ---------------------------------------------------------------------------

def mmt_plus_total(soft, hard, moco, lambda_soft: float, lambda_moco: float):
    """lambda_soft*soft + (1-lambda_soft)*hard + lambda_moco*moco, per
    network when the parts are per-network arrays.  The weights are
    unchecked: ``StageConfig`` owns their ranges, and the training
    loop's guard owns the finiteness of the result."""
    return lambda_soft * soft + (1.0 - lambda_soft) * hard + lambda_moco * moco
