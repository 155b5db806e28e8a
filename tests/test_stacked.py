"""Every kernel called on a stack of two networks equals, bit for bit, the two
unstacked calls on its slices: values, outputs and every gradient."""
import numpy as np
import pytest

from uda_reid.encoder import (AdamState, FeatureQueue, adam_step, backward,
                              classifier_backward, classifier_logits, ema_update,
                              forward, forward_cached, init_params, queue_push,
                              stack_params, unstack_params)
from uda_reid.errors import NormalizationError
from uda_reid.losses import (MarginMode, cross_entropy_batch, margin_classification_batch,
                             moco_batch, soft_ce_batch)
from uda_reid.numerics import l2_normalize_rows, log_softmax

# (rows, width): the first two are shapes where the mean of an uncontiguous
# fancy-indexed (2, n) array differs in its last bit from the per-slice mean
SHAPES = [(128, 104), (16, 12), (7, 3), (1, 2)]


def same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


def same_loss(stacked, slices):
    assert same(stacked.value, [out.value for out in slices])
    assert all(isinstance(out.value, float) for out in slices)
    assert set(stacked.grads) == set(slices[0].grads)
    for name, grad in stacked.grads.items():
        assert same(grad, [out.grads[name] for out in slices]), name


def test_shapes_detect_an_uncontiguous_mean():
    rng = np.random.default_rng(0)
    differs = False
    for n, p in SHAPES:
        logp = log_softmax(rng.normal(0.0, 3.0, size=(2, n, p)), axis=-1)
        rows, labels = np.arange(n), rng.integers(0, p, size=n)
        naive = np.mean(logp[:, rows, labels], axis=-1)
        differs |= not same(naive, [np.mean(logp[i][rows, labels]) for i in range(2)])
    assert differs


@pytest.mark.parametrize("n,p", SHAPES)
def test_cross_entropy_and_soft_ce(n, p):
    rng = np.random.default_rng([n, p])
    logits = rng.normal(0.0, 3.0, size=(2, n, p))
    teacher = rng.normal(0.0, 3.0, size=(2, n, p))
    labels = rng.integers(0, p, size=n)
    same_loss(cross_entropy_batch(logits, labels),
              [cross_entropy_batch(logits[i], labels) for i in range(2)])
    same_loss(soft_ce_batch(logits, teacher[::-1]),
              [soft_ce_batch(logits[i], teacher[1 - i]) for i in range(2)])


@pytest.mark.parametrize("queue_rows", [0, 32])
@pytest.mark.parametrize("n,d", [(128, 32), (16, 8), (1, 3)])
def test_moco(n, d, queue_rows):
    rng = np.random.default_rng([n, d, queue_rows])
    queries, keys = rng.normal(size=(2, 2, n, d))
    queue = rng.normal(size=(2, queue_rows, d))
    same_loss(moco_batch(queries, keys, queue, tau=0.7),
              [moco_batch(queries[i], keys[i], queue[i], tau=0.7) for i in range(2)])


@pytest.mark.parametrize("mode", list(MarginMode))
@pytest.mark.parametrize("n,p", SHAPES)
def test_margin_classification(n, p, mode):
    rng = np.random.default_rng([n, p, len(mode.value)])
    feats = rng.normal(size=(2, n, 8))
    weights = rng.normal(size=(2, p, 8))
    weights[1, 0] = -feats[1, 0]  # a target angle near pi: the arcface clamp
    labels = rng.integers(0, p, size=n)
    labels[0] = 0
    same_loss(margin_classification_batch(feats, weights, labels, mode, 0.3, 16.0),
              [margin_classification_batch(feats[i], weights[i], labels, mode, 0.3, 16.0)
               for i in range(2)])


def two_networks(d_in=16, d_out=8, classes=12):
    nets = [init_params(d_in, d_out, classes, seed) for seed in (1, 2)]
    rng = np.random.default_rng(3)
    for net in nets:
        net.running_mean += rng.normal(size=net.running_mean.shape)
        net.running_var *= rng.uniform(0.5, 2.0, size=net.running_var.shape)
        net.bias += rng.normal(size=net.bias.shape)
    return nets


def batch(n=24, d_in=16, seed=4):
    rng = np.random.default_rng(seed)
    return rng.normal(2.0, 3.0, size=(n, d_in)), rng.integers(0, 2, size=n)


def same_params(stack, nets):
    for name, arr in stack.all_arrays().items():
        assert same(arr, [getattr(net, name) for net in nets]), name


def test_stack_and_views_round_trip():
    nets = two_networks()
    stack = stack_params(nets)
    views = unstack_params(stack)
    same_params(stack, nets)
    views[1].weight[0, 0] += 1.0  # a view writes through to the stack
    assert stack.weight[1, 0, 0] == nets[1].weight[0, 0] + 1.0


def test_forward_eval_mode():
    nets = two_networks()
    raws, domains = batch()
    stack = stack_params(nets)
    feats, x_hat = forward_cached(stack, raws, domains, training=False)
    assert same(feats, [forward(net, raws, domains) for net in nets])
    assert same(forward(stack, raws, domains), feats)
    assert same(x_hat, [forward_cached(net, raws, domains, training=False)[1]
                        for net in nets])


def test_forward_training_mode_shares_x_hat_and_updates_each_network():
    nets = two_networks()
    raws, domains = batch()
    stack = stack_params(nets)
    feats, x_hat = forward_cached(stack, raws, domains, training=True)
    singles = [forward_cached(net, raws, domains, training=True) for net in nets]
    assert same(feats, [f for f, _ in singles])
    assert x_hat.shape == raws.shape
    for _, single_x_hat in singles:
        assert same(x_hat, single_x_hat)
    same_params(stack, nets)  # running statistics folded in per network
    assert same(forward(stack, raws, domains, training=True),
                [forward(net, raws, domains, training=True) for net in nets])


def test_backward_and_classifier_kernels():
    nets = two_networks()
    stack = stack_params(nets)
    rng = np.random.default_rng(5)
    raws, domains = batch()
    x_hat = forward_cached(stack, raws, domains, training=False)[1]
    d_feats = rng.normal(size=(2, raws.shape[0], 8))
    shared = backward(stack, x_hat[0], d_feats)
    own = backward(stack, x_hat, d_feats)
    for i, net in enumerate(nets):
        for name, grad in backward(net, x_hat[0], d_feats[i]).items():
            assert same(shared[name][i], grad), name
        for name, grad in backward(net, x_hat[i], d_feats[i]).items():
            assert same(own[name][i], grad), name
    feats = rng.normal(size=(2, 24, 8))
    d_logits = rng.normal(size=(2, 24, 12))
    assert same(classifier_logits(stack, feats),
                [classifier_logits(net, feats[i]) for i, net in enumerate(nets)])
    d_cls, d_in = classifier_backward(stack, feats, d_logits)
    for i, net in enumerate(nets):
        single_cls, single_in = classifier_backward(net, feats[i], d_logits[i])
        assert same(d_cls[i], single_cls) and same(d_in[i], single_in)


def test_adam_step_and_ema_update():
    nets = two_networks()
    stack = stack_params(nets)
    teachers = [init_params(16, 8, 12, seed) for seed in (7, 8)]
    teacher_stack = stack_params(teachers)
    rng = np.random.default_rng(6)
    adam = AdamState(lr=0.01, weight_decay=0.001)
    singles = [AdamState(lr=0.01, weight_decay=0.001) for _ in nets]
    for _ in range(3):
        grads = {name: rng.normal(size=arr.shape) for name, arr in stack.trainable().items()}
        adam_step(stack.trainable(), grads, adam)
        for i, net in enumerate(nets):
            adam_step(net.trainable(), {name: g[i] for name, g in grads.items()}, singles[i])
        ema_update(teacher_stack, stack, 0.9)
        for teacher, net in zip(teachers, nets):
            ema_update(teacher, net, 0.9)
        same_params(stack, nets)
        same_params(teacher_stack, teachers)


def test_queue_push_keeps_one_fifo_per_network():
    rng = np.random.default_rng(7)
    stacked = FeatureQueue(5, 3, np.zeros((2, 0, 3)))
    singles = [FeatureQueue(5, 3) for _ in range(2)]
    for rows in (2, 2, 3, 1):
        feats = rng.normal(size=(2, rows, 3))
        queue_push(stacked, feats)
        for i, queue in enumerate(singles):
            queue_push(queue, feats[i])
        assert same(stacked.buffer, [queue.buffer for queue in singles])
    with pytest.raises(ValueError, match="rows"):
        queue_push(stacked, rng.normal(size=(2, 3)))


def test_normalize_names_the_row_within_its_network():
    x = np.ones((2, 4, 3))
    x[1, 2] = 0.0
    with pytest.raises(NormalizationError, match="row 2 "):
        l2_normalize_rows(x, "stacked")
