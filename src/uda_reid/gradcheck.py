"""Central-difference verification of the analytic gradients the trainer uses.

Each check draws a small random batch and differentiates the function that
``pipeline`` calls on that batch: the batch loss kernels and the two encoder
backward pieces.  ``run_gradcheck`` draws ``trials`` independent batches per
check and reports the worst relative error between the analytic gradient and
a float64 central difference.
"""
from __future__ import annotations

import numpy as np

from . import encoder, losses


def central_difference(fn, x, step: float = 1e-6):
    """Elementwise (f(x+h) - f(x-h)) / 2h with h scaled by |x|."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        h = step * max(1.0, abs(orig))
        flat[i] = orig + h
        f_plus = fn(x)
        flat[i] = orig - h
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_error(analytic, numeric) -> float:
    """||a - n|| / max(||a||, ||n||, tiny); 0 when both vanish."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-8)
    return float(np.linalg.norm(analytic - numeric) / denom)


def worst_error(value_fn, inputs: dict, grads: dict) -> float:
    """Worst relative error between each analytic ``grads[name]`` and the
    central difference of ``value_fn(**inputs)`` in ``inputs[name]``."""
    worst = 0.0
    for name, grad in grads.items():
        def vary(x, name=name):
            return value_fn(**{**inputs, name: x})
        worst = max(worst, relative_error(grad, central_difference(vary, inputs[name])))
    return worst


def _loss_error(kernel, inputs: dict, wrt: dict) -> float:
    """``worst_error`` of a loss kernel; ``wrt`` maps each differentiated
    input to its key in the kernel's ``grads``."""
    grads = kernel(**inputs).grads
    return worst_error(lambda **kw: kernel(**kw).value, inputs,
                       {name: grads[key] for name, key in wrt.items()})


def _check_cross_entropy(rng):
    n, p = int(rng.integers(1, 6)), int(rng.integers(2, 9))
    return _loss_error(losses.cross_entropy_batch,
                       {"logits": rng.normal(0.0, 2.0, size=(n, p)),
                        "labels": rng.integers(0, p, size=n)},
                       {"logits": "logits"})


def _check_triplet_loss(rng):
    labels = rng.permutation(np.repeat(np.arange(rng.integers(2, 4)), rng.integers(2, 4)))
    feats = rng.normal(0.0, 1.0, size=(labels.size, int(rng.integers(3, 7))))
    return _loss_error(losses.softmax_triplet_loss,
                       {"feats": feats, "labels": labels}, {"feats": "batch"})


def _check_soft_ce(rng):
    shape = (int(rng.integers(1, 6)), int(rng.integers(2, 9)))
    return _loss_error(losses.soft_ce_batch,
                       {"student_logits": rng.normal(0.0, 2.0, size=shape),
                        "teacher_logits": rng.normal(0.0, 2.0, size=shape)},
                       {"student_logits": "student_logits"})


def _check_moco(rng):
    n, d = int(rng.integers(1, 5)), int(rng.integers(3, 7))
    return _loss_error(losses.moco_batch,
                       {"queries": rng.normal(0.0, 1.0, size=(n, d)),
                        "keys_pos": rng.normal(0.0, 1.0, size=(n, d)),
                        "queue": rng.normal(0.0, 1.0, size=(int(rng.integers(0, 7)), d)),
                        "tau": float(rng.uniform(0.4, 1.2))},
                       {"queries": "queries"})


def _check_margin(rng, mode):
    n, d, p = int(rng.integers(2, 5)), int(rng.integers(4, 7)), int(rng.integers(2, 6))
    return _loss_error(losses.margin_classification_batch,
                       {"features": rng.normal(0.0, 1.0, size=(n, d)),
                        "class_weights": rng.normal(0.0, 1.0, size=(p, d)),
                        "labels": rng.integers(0, p, size=n), "mode": mode,
                        "margin": float(rng.uniform(0.1, 0.4)),
                        "scale": float(rng.uniform(4.0, 16.0))},
                       {"features": "features", "class_weights": "class_weights"})


# The encoder pieces map an upstream gradient to parameter gradients; a
# random linear read-out of their output stands in for the loss.

def _check_classifier_backward(rng):
    n, d, p = int(rng.integers(1, 6)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
    params = encoder.init_params(2, d, p, seed=int(rng.integers(2**31)))
    feats = rng.normal(0.0, 1.0, size=(n, d))
    sense = rng.normal(0.0, 1.0, size=(n, p))
    d_cls, d_feats = encoder.classifier_backward(params, feats, sense)

    def value(classifier, feats):
        probe = params.copy()
        probe.classifier = classifier
        return float(np.sum(encoder.classifier_logits(probe, feats) * sense))
    return worst_error(value, {"classifier": params.classifier, "feats": feats},
                       {"classifier": d_cls, "feats": d_feats})


def _check_affine_backward(rng):
    n, d_in, d_out = int(rng.integers(2, 7)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
    params = encoder.init_params(d_in, d_out, 1, seed=int(rng.integers(2**31)))
    raws = rng.normal(0.0, 1.0, size=(n, d_in))
    domains = rng.integers(0, encoder.NUM_DOMAINS, size=n)
    sense = rng.normal(0.0, 1.0, size=(n, d_out))
    # training mode standardizes by batch statistics, as every step does
    _, x_hat = encoder.forward_cached(params.copy(), raws, domains, training=True)

    def value(weight, bias):
        probe = params.copy()
        probe.weight, probe.bias = weight, bias
        return float(np.sum(encoder.forward(probe, raws, domains, training=True) * sense))
    return worst_error(value, {"weight": params.weight, "bias": params.bias},
                       encoder.backward(params, x_hat, sense))


KERNEL_CHECKS = {
    "cross_entropy_batch": _check_cross_entropy,
    "softmax_triplet_loss": _check_triplet_loss,
    "soft_ce_batch": _check_soft_ce,
    "moco_batch": _check_moco,
    "margin_arcface": lambda rng: _check_margin(rng, losses.MarginMode.ARCFACE),
    "margin_cosface": lambda rng: _check_margin(rng, losses.MarginMode.COSFACE),
    "classifier_backward": _check_classifier_backward,
    "affine_backward": _check_affine_backward,
}


def run_gradcheck(trials: int = 100, seed: int = 0) -> dict[str, float]:
    """Worst relative error per kernel over ``trials`` random draws."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results = {}
    for idx, (name, check) in enumerate(KERNEL_CHECKS.items()):
        rng = np.random.default_rng([seed, idx])
        results[name] = max(check(rng) for _ in range(trials))
    return results
