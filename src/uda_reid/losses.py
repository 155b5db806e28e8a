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
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import MiningError
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


def _as_float64(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


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
    logits = _as_float64(logits, "logits")
    labels = np.asarray(labels, dtype=np.int64)
    n, p = logits.shape[-2:]
    if np.any(labels < 0) or np.any(labels >= p):
        raise ValueError("label out of range")
    rows = np.arange(n)
    logp = log_softmax(logits, axis=-1)
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
    other-label row.  Raises MiningError naming labels that lack a pair.
    """
    feats = _as_float64(feats, "batch")
    labels = np.asarray(labels, dtype=np.int64)
    n = feats.shape[0]
    dist = cdist(feats, feats)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    diff = ~(labels[:, None] == labels[None, :])

    missing_pos = ~same.any(axis=1)
    if missing_pos.any():
        raise MiningError(labels[missing_pos], "anchors without an in-batch positive")
    missing_neg = ~diff.any(axis=1)
    if missing_neg.any():
        raise MiningError(labels[missing_neg], "anchors without an in-batch negative")

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
    feats = _as_float64(feats, "batch")
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
    s = _as_float64(student_logits, "student_logits")
    t = _as_float64(teacher_logits, "teacher_logits")
    if s.shape != t.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {t.shape}")
    if s.shape[-1] < 1:
        raise ValueError("at least one class required")
    n = s.shape[-2]
    t_prob = softmax(t, axis=-1)
    s_logp = log_softmax(s, axis=-1)
    value = -_row_mean(np.sum(t_prob * s_logp, axis=-1))
    grad = np.exp(s_logp, out=s_logp)
    grad -= t_prob
    grad /= n
    return LossOut(value=value, grads={"student_logits": grad})


# ---------------------------------------------------------------------------
# Momentum-contrast loss against a feature queue
# ---------------------------------------------------------------------------

def moco_batch(queries, keys_pos, queue, tau: float = 0.7) -> LossOut:
    """Mean InfoNCE: :func:`cross_entropy_batch` with class 0 over logits
    [positive key, queue negatives] / tau; all rows re-normalized.

    Gradient flows to the raw (pre-normalization) queries only; the positive
    keys and queue entries are constants.  An empty queue gives zero loss.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    queries = _as_float64(queries, "queries")
    keys_pos = _as_float64(keys_pos, "keys_pos")
    if queries.shape != keys_pos.shape:
        raise ValueError("queries and positive keys must align")
    n = queries.shape[-2]
    queue = _as_float64(queue, "queue")
    k = queue.shape[-2]

    q_hat = l2_normalize_rows(queries, "query")
    k_hat = l2_normalize_rows(keys_pos, "key_pos")
    neg_hat = l2_normalize_rows(queue, "queue") if k else queue

    logits = np.empty(queries.shape[:-1] + (1 + k,))
    logits[..., 0] = np.sum(q_hat * k_hat, axis=-1) / tau
    if k:
        np.matmul(q_hat, mT(neg_hat), out=logits[..., 1:])
        logits[..., 1:] /= tau
    ce = cross_entropy_batch(logits, np.zeros(n, dtype=np.int64))

    dlogits = ce.grads["logits"]
    dq_hat = dlogits[..., :1] * k_hat / tau
    if k:
        dq_hat = dq_hat + (dlogits[..., 1:] @ neg_hat) / tau
    return LossOut(value=ce.value,
                   grads={"queries": l2_normalize_rows_backward(dq_hat, queries, q_hat)})


# ---------------------------------------------------------------------------
# Margin-based classification (cosine logits with additive margins)
# ---------------------------------------------------------------------------

def margin_classification_batch(features, class_weights, labels,
                                mode: LossMode = LossMode.COSFACE,
                                margin: float = 0.25, scale: float = 16.0) -> LossOut:
    """:func:`cross_entropy_batch` over scaled cosine logits with the target
    logit shifted.

    ARCFACE replaces cos(theta_y) by cos(theta_y + m) with the summed angle
    clamped below pi; COSFACE uses cos(theta_y) - m.  Gradients flow to the
    raw features and raw class weights through the normalizations.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    feats = _as_float64(features, "features")
    weights = _as_float64(class_weights, "class_weights")
    labels = np.asarray(labels, dtype=np.int64)
    n, d = feats.shape[-2:]
    p = weights.shape[-2]
    if weights.shape[-1] != d:
        raise ValueError("feature/weight dimension mismatch")
    if np.any(labels < 0) or np.any(labels >= p):
        raise ValueError("label out of range")

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

def mmt_plus_total(soft, hard, moco, lambda_soft: float = 0.5,
                   lambda_moco: float = 0.1):
    """lambda_soft*soft + (1-lambda_soft)*hard + lambda_moco*moco, per
    network when the parts are per-network arrays."""
    parts = {"soft": soft, "hard": hard, "moco": moco}
    for name, val in parts.items():
        if not np.all(np.isfinite(val)):
            raise ValueError(f"non-finite {name} part: {val}")
    if not 0.0 <= lambda_soft <= 1.0:
        raise ValueError(f"lambda_soft must be in [0, 1], got {lambda_soft}")
    if lambda_moco < 0:
        raise ValueError(f"lambda_moco must be >= 0, got {lambda_moco}")
    return lambda_soft * soft + (1.0 - lambda_soft) * hard + lambda_moco * moco
