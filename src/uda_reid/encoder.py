"""Trainable feature encoder: affine projection with per-domain input
standardization, a linear classifier head, PK batch sampling, mean-teacher
EMA updates, FIFO feature queues, and a decoupled-weight-decay Adam step.

:func:`forward` is the eval-mode pass: it standardizes by each network's
running statistics and changes nothing.  :func:`forward_cached` is the
training-mode pass: it standardizes by the batch's own statistics, folds them
into the running statistics, and also returns the ``x_hat`` that
:func:`backward` takes.

Every array of :class:`EncoderParams` may carry a leading network axis
(:func:`stack_params`), and the forward, backward, classifier, EMA, queue and
Adam functions then serve every network of the stack in one call.  Each
network's slice of the result is bitwise what the unstacked call on that
network gives.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DivergenceError, FormatError, MiningError
from .numerics import l2_normalize_rows, mT

EPS_VAR = 1e-5
STATS_MOMENTUM = 0.9  # retained fraction of the running stats per update
NUM_DOMAINS = 2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PARAMS_MAGIC = b"URDP"
PARAMS_VERSION = 1


@dataclass
class EncoderParams:
    """Affine map f = W x_hat + b over standardized inputs, plus classifier.

    ``running_mean``/``running_var`` hold one row of input statistics per
    domain tag; variances never drop below EPS_VAR.  A stack of networks has
    one more leading axis on every array.
    """
    weight: np.ndarray        # (d_out, d_in)
    bias: np.ndarray          # (d_out,)
    classifier: np.ndarray    # (P, d_out)
    running_mean: np.ndarray  # (NUM_DOMAINS, d_in)
    running_var: np.ndarray   # (NUM_DOMAINS, d_in)

    @property
    def d_in(self) -> int:
        return self.weight.shape[-1]

    @property
    def d_out(self) -> int:
        return self.weight.shape[-2]

    def trainable(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias, "classifier": self.classifier}

    def all_arrays(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias, "classifier": self.classifier,
                "running_mean": self.running_mean, "running_var": self.running_var}

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.weight.copy(), self.bias.copy(), self.classifier.copy(),
                             self.running_mean.copy(), self.running_var.copy())

    def validate(self) -> None:
        for name, arr in self.all_arrays().items():
            if arr.ndim != (1 if name == "bias" else 2):
                raise ValueError(f"{name} has {arr.ndim} dimensions")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        if self.bias.shape != (self.d_out,):
            raise ValueError("bias shape mismatch")
        if self.classifier.shape[1] != self.d_out:
            raise ValueError("classifier width must equal d_out")
        if self.running_mean.shape != (NUM_DOMAINS, self.d_in):
            raise ValueError("running_mean shape mismatch")
        if self.running_var.shape != self.running_mean.shape:
            raise ValueError("running_var shape mismatch")
        if np.any(self.running_var < EPS_VAR):
            raise ValueError(f"variance entries must be >= {EPS_VAR}")


_PARAMS_NAMES = tuple(f.name for f in fields(EncoderParams))


def stack_params(nets) -> EncoderParams:
    """A copy of ``nets`` (equal shapes) as one stack on a leading axis."""
    return EncoderParams(*(np.stack([getattr(net, name) for net in nets])
                           for name in _PARAMS_NAMES))


def unstack_params(stack: EncoderParams) -> tuple:
    """Per-network views into a stack; in-place updates of the stack show
    through, a replaced stack array does not."""
    return tuple(EncoderParams(*(getattr(stack, name)[i] for name in _PARAMS_NAMES))
                 for i in range(stack.weight.shape[0]))


def init_params(d_in: int, d_out: int, num_classes: int, seed: int) -> EncoderParams:
    """Gaussian fan-in init; stats start at the standard normal."""
    rng = np.random.default_rng([seed, 97])
    weight = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_out, d_in))
    bias = np.zeros(d_out)
    classifier = rng.normal(0.0, 1.0 / np.sqrt(d_out), size=(num_classes, d_out))
    running_mean = np.zeros((NUM_DOMAINS, d_in))
    running_var = np.ones((NUM_DOMAINS, d_in))
    return EncoderParams(weight, bias, classifier, running_mean, running_var)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _standardize(params: EncoderParams, raws: np.ndarray, domains: np.ndarray,
                 training: bool) -> np.ndarray:
    """Per-domain (x - mean)/sqrt(var + EPS_VAR); training mode uses the
    batch's own per-domain statistics and folds them into the running stats.

    Training mode gives one (n, d_in) x_hat that every network of a stack
    shares; eval mode uses each network's own statistics, one x_hat each."""
    raws = np.asarray(raws, dtype=np.float64)
    domains = np.asarray(domains)
    if raws.ndim != 2 or raws.shape[1] != params.d_in:
        raise ValueError(f"expected (n, {params.d_in}) inputs, got {raws.shape}")
    if domains.shape != (raws.shape[0],):
        raise ValueError("one domain tag per row required")
    bad = (domains < 0) | (domains >= NUM_DOMAINS)
    if bad.any():
        raise ValueError(f"unknown domain tag {int(domains[bad][0])}")

    networks = () if training else params.running_mean.shape[:-2]
    x_hat = np.empty(networks + raws.shape)
    for dom in range(NUM_DOMAINS):
        mask = domains == dom
        if not mask.any():
            continue
        rows = raws[mask]
        if training:
            mean = rows.mean(axis=0)
            var = rows.var(axis=0)
            params.running_mean[..., dom, :] = (STATS_MOMENTUM * params.running_mean[..., dom, :]
                                                + (1.0 - STATS_MOMENTUM) * mean)
            params.running_var[..., dom, :] = np.maximum(
                STATS_MOMENTUM * params.running_var[..., dom, :]
                + (1.0 - STATS_MOMENTUM) * var, EPS_VAR)
        else:
            mean = params.running_mean[..., dom, None, :]
            var = params.running_var[..., dom, None, :]
        x_hat[..., mask, :] = (rows - mean) / np.sqrt(var + EPS_VAR)
    return x_hat


def forward(params: EncoderParams, raws, domains) -> np.ndarray:
    """Eval-mode features (n, d_out), one such matrix per network of a stack;
    pure."""
    return _affine(params, _standardize(params, raws, domains, training=False))


def forward_cached(params: EncoderParams, raws, domains):
    """Training-mode ``(features, x_hat)`` for use with :func:`backward`;
    standardizes by batch statistics and updates the running stats."""
    x_hat = _standardize(params, raws, domains, training=True)
    return _affine(params, x_hat), x_hat


def _affine(params: EncoderParams, x_hat: np.ndarray) -> np.ndarray:
    return x_hat @ mT(params.weight) + params.bias[..., None, :]


def backward(params: EncoderParams, x_hat: np.ndarray, d_feats: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the affine map given d loss / d features.

    Standardization statistics are treated as constants of the batch, so the
    chain stops at the affine layer's inputs.
    """
    return {"weight": mT(d_feats) @ x_hat, "bias": d_feats.sum(axis=-2)}


def classifier_logits(params: EncoderParams, feats: np.ndarray) -> np.ndarray:
    return feats @ mT(params.classifier)


def classifier_backward(params: EncoderParams, feats: np.ndarray,
                        d_logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d classifier, d feats) for logits = feats @ classifier.T."""
    return mT(d_logits) @ feats, d_logits @ params.classifier


# ---------------------------------------------------------------------------
# PK batch sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassIndex:
    """The usable (non-negative) labels of one labelling, ascending, and the
    ascending row indices of each."""
    classes: np.ndarray
    rows: tuple


def class_index(labels) -> ClassIndex:
    """Index ``labels`` for :func:`pk_sample`; build it once per labelling."""
    labels = np.asarray(labels, dtype=np.int64)
    usable = np.flatnonzero(labels >= 0)
    order = usable[np.argsort(labels[usable], kind="stable")]
    classes, starts = np.unique(labels[order], return_index=True)
    return ClassIndex(classes, tuple(np.split(order, starts[1:])))


def pk_sample(index: ClassIndex, p_classes: int, k_per: int,
              rng: np.random.Generator) -> np.ndarray:
    """Indices of p_classes distinct labels with k_per rows each.

    Negative labels (unlabeled / outlier rows) are excluded.  Classes with
    fewer than k_per rows are sampled with replacement.
    """
    usable = index.classes
    if usable.size < p_classes:
        raise MiningError(usable, f"need {p_classes} usable labels, have {usable.size}")
    # drawing positions makes the same draws as drawing the labels themselves
    chosen = rng.choice(usable.size, size=p_classes, replace=False)
    out = np.empty(p_classes * k_per, dtype=np.int64)
    for i, pos in enumerate(chosen):
        rows = index.rows[pos]
        picked = rng.choice(rows, size=k_per, replace=rows.size < k_per)
        out[i * k_per:(i + 1) * k_per] = picked
    return out


# ---------------------------------------------------------------------------
# Mean teacher and feature queue
# ---------------------------------------------------------------------------

def ema_update(teacher: EncoderParams, student: EncoderParams, alpha: float) -> None:
    """In place, teacher <- alpha*teacher + (1-alpha)*student on every array."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    t_arrays = teacher.all_arrays()
    s_arrays = student.all_arrays()
    for name, t_arr in t_arrays.items():
        s_arr = s_arrays[name]
        if t_arr.shape != s_arr.shape:
            raise ValueError(f"shape mismatch on {name}: {t_arr.shape} vs {s_arr.shape}")
        t_arr *= alpha
        t_arr += (1.0 - alpha) * s_arr
    np.maximum(teacher.running_var, EPS_VAR, out=teacher.running_var)


@dataclass
class FeatureQueue:
    """FIFO store of L2-normalized feature rows, oldest first.  Start it with
    an empty buffer of shape (0, dim), or (networks, 0, dim) for one queue per
    network of a stack."""
    capacity: int
    buffer: np.ndarray

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("queue capacity must be >= 1")


def queue_push(queue: FeatureQueue, feats) -> None:
    """In place: normalize rows, enqueue, evict oldest beyond capacity."""
    feats = np.asarray(feats, dtype=np.float64)
    dim = queue.buffer.shape[-1]
    if feats.ndim != queue.buffer.ndim or feats.shape[-1] != dim:
        raise ValueError(f"expected (n, {dim}) rows, got {feats.shape}")
    normed = l2_normalize_rows(feats, "queue feature")
    joined = np.concatenate([queue.buffer, normed], axis=-2)
    queue.buffer = joined[..., -queue.capacity:, :]


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    lr: float = 0.00035
    weight_decay: float = 0.0005
    # per-parameter slots: name -> [m, v, t]; re-initialized parameters can
    # drop their slot to restart the bias correction cleanly
    slots: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")

    def reset(self, name: str) -> None:
        self.slots.pop(name, None)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """In-place decoupled-decay Adam: p -= lr*wd*p, then the bias-corrected
    moment update.  A non-finite gradient rejects the whole step."""
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(message=f"non-finite gradient for parameter '{name}'")
        if params[name].shape != np.shape(grad):
            raise ValueError(f"gradient shape mismatch on {name}")
    for name, grad in grads.items():
        p = params[name]
        if name not in state.slots:
            state.slots[name] = [np.zeros_like(p), np.zeros_like(p), 0]
        m, v, t = state.slots[name]
        t += 1
        if state.weight_decay:
            p -= state.lr * state.weight_decay * p
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(grad)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        state.slots[name][2] = t


# ---------------------------------------------------------------------------
# Whole-dataset encoding and parameter serialization
# ---------------------------------------------------------------------------

def encode_dataset(params: EncoderParams, dataset) -> np.ndarray:
    """Eval-mode features for every row of a Dataset, float64."""
    return forward(params, dataset.features.astype(np.float64), dataset.domains)


_PARAMS_HEADER = struct.Struct("<4sHI")


def save_params(path, params: EncoderParams) -> None:
    """Deterministic little-endian container: magic, version, entry count,
    then (name, shape, float64 payload) per array."""
    params.validate()
    entries = params.all_arrays()
    blob = bytearray()
    blob += _PARAMS_HEADER.pack(PARAMS_MAGIC, PARAMS_VERSION, len(entries))
    for name, arr in entries.items():
        raw = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("ascii")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<B", raw.ndim)
        for dim in raw.shape:
            blob += struct.pack("<I", dim)
        blob += raw.tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_params(path) -> EncoderParams:
    """Inverse of :func:`save_params`.  A malformed file raises FormatError
    at the failing byte offset; the arrays are then validated."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(fmt: str, what: str) -> tuple:
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(blob):
            raise FormatError(offset, f"truncated {what}")
        values = struct.unpack_from(fmt, blob, offset)
        offset += size
        return values

    magic, version, count = take(_PARAMS_HEADER.format, "header")
    if magic != PARAMS_MAGIC:
        raise FormatError(0, "not an encoder parameter file")
    if version != PARAMS_VERSION:
        raise FormatError(4, f"unsupported parameter file version {version}")
    arrays = {}
    for _ in range(count):
        start = offset
        (name_len,) = take("<H", "array name")
        (raw_name,) = take(f"<{name_len}s", "array name")
        name = raw_name.decode("ascii", errors="replace")
        if name not in _PARAMS_NAMES:
            raise FormatError(start, f"unknown array {name!r}")
        if name in arrays:
            raise FormatError(start, f"duplicate array {name!r}")
        (ndim,) = take("<B", "array rank")
        shape = take(f"<{ndim}I", "array shape")
        size = math.prod(shape)
        if offset + 8 * size > len(blob):
            raise FormatError(offset, f"truncated {name} values")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=size,
                                     offset=offset).reshape(shape).astype(np.float64)
        offset += 8 * size
    if offset != len(blob):
        raise FormatError(offset, "trailing data after the last array")
    missing = [name for name in _PARAMS_NAMES if name not in arrays]
    if missing:
        raise FormatError(offset, f"missing array {missing[0]!r}")
    params = EncoderParams(**arrays)
    params.validate()
    return params
