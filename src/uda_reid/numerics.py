"""Small shared numeric helpers (last-axis softmax family, norms, pairwise distances).

Everything computes in float64 regardless of input dtype; callers cast back
where single precision is part of a storage contract.
"""
from __future__ import annotations

import numpy as np

from .errors import NormalizationError

EPS_NORM = 1e-12
ROW_BLOCK = 64  # rows per block of the blocked (n, m) kernels


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def log_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    z -= np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    return z


def softmax(logits):
    logp = log_softmax(logits)
    return np.exp(logp, out=logp)


def mT(a):
    """Transpose of the last two axes: ``a.T`` of a matrix, per matrix of a
    stack (numpy 2's ``ndarray.mT``)."""
    return np.swapaxes(a, -1, -2)


def l2_normalize_rows(x, name="input"):
    """Return rows (last-axis vectors) scaled to unit L2 norm; zero-norm rows
    are an error, reported by their index within their matrix."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1)
    if norms.size and (not np.all(np.isfinite(norms)) or np.min(norms) <= EPS_NORM):
        bad = int(np.unravel_index(np.argmin(norms), norms.shape)[-1])
        raise NormalizationError(f"{name} row {bad} has zero or non-finite norm")
    return x / norms[..., None]


def l2_normalize_rows_backward(d_hat, x, x_hat):
    """Gradient w.r.t. rows ``x`` from ``d_hat``, the gradient w.r.t. ``x_hat =
    l2_normalize_rows(x)``: each row's radial part removed, divided by its norm."""
    radial = np.sum(d_hat * x_hat, axis=-1, keepdims=True)
    return (d_hat - radial * x_hat) / np.linalg.norm(x, axis=-1)[..., None]


def cdist(a, b):
    """Euclidean distances between rows of ``a`` (n x d) and ``b`` (m x d).

    sqrt(max((|a|^2 + |b|^2) - 2 a.b, 0)), finished in place on the one
    (n, m) product by row blocks, so no other (n, m) array is allocated.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    out = a @ b.T
    for start in range(0, out.shape[0], ROW_BLOCK):
        block = out[start:start + ROW_BLOCK]
        block *= 2.0
        np.subtract(aa[start:start + ROW_BLOCK] + bb, block, out=block)
        np.maximum(block, 0.0, out=block)
        np.sqrt(block, out=block)
    return out
