"""Finite-difference verification machinery, per-kernel gradient checks, and
checks of the whole objective each training step hands to Adam."""
import numpy as np
import pytest

from uda_reid import pipeline
from uda_reid.encoder import (class_index, forward, pk_sample, queue_push,
                              stack_params, unstack_params)
from uda_reid.gradcheck import (KERNEL_CHECKS, central_difference,
                                relative_error, run_gradcheck, worst_error)
from uda_reid.numerics import l2_normalize_rows, l2_normalize_rows_backward
from uda_reid.pipeline import (LossMode, StageConfig, default_benchmark,
                               stage_baseline, stage_mmt_plus, stage_pretrain)

TINY_BENCH = dict(train_per_id=6, val_per_id=4, num_ids_source=8,
                  num_ids_target=8, raw_dim=16)
TINY_CFG = dict(epochs=2, iters_per_epoch=4, p_classes=4, k_per=2,
                encoder_dim=8, queue_capacity=32, k=10)


def test_central_difference_on_quadratic():
    # f(x) = sum(a * x^2) has gradient 2 a x; the stencil is exact up to O(h^2)
    a = np.array([1.0, -2.0, 0.5])
    x = np.array([0.3, 1.7, -4.0])
    num = central_difference(lambda v: float(np.sum(a * v * v)), x)
    assert np.allclose(num, 2.0 * a * x, rtol=1e-8)


def test_central_difference_leaves_input_unchanged():
    x = np.array([1.0, 2.0])
    before = x.copy()
    central_difference(lambda v: float(np.sum(v)), x)
    assert np.array_equal(x, before)


def test_relative_error_scales():
    assert relative_error([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert relative_error([0.0], [0.0]) == 0.0
    assert relative_error([2.0], [1.0]) == pytest.approx(0.5)


def test_l2_normalize_rows_backward_matches_numeric_gradient():
    # a stack of two (3, 4) matrices, as the stacked queue and margin losses pass
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4))
    sense = rng.normal(size=x.shape)
    analytic = l2_normalize_rows_backward(sense, x, l2_normalize_rows(x))
    numeric = central_difference(lambda v: float(np.sum(l2_normalize_rows(v) * sense)), x)
    assert relative_error(analytic, numeric) < 1e-8


@pytest.mark.parametrize("name", sorted(KERNEL_CHECKS))
def test_each_kernel_matches_numeric_gradient(name):
    rng = np.random.default_rng([7, sorted(KERNEL_CHECKS).index(name)])
    check = KERNEL_CHECKS[name]
    worst = max(check(rng) for _ in range(10))
    assert worst < 1e-4, f"{name}: worst relative error {worst:.3e}"


def test_run_gradcheck_covers_all_kernels_and_is_deterministic():
    first = run_gradcheck(trials=5, seed=3)
    second = run_gradcheck(trials=5, seed=3)
    assert set(first) == set(KERNEL_CHECKS)
    assert first == second
    other = run_gradcheck(trials=5, seed=4)
    assert other != first  # different draws give different worst errors


# ---------------------------------------------------------------------------
# whole-objective checks of the training steps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench():
    return default_benchmark(seed=0, **TINY_BENCH)


@pytest.fixture(scope="module")
def pretrained(bench):
    return stage_pretrain(bench.translated, StageConfig(**TINY_CFG))[0]


def fixed_batch(stage, cfg, bench, pretrained, student_stacks):
    """A trained stage's networks and a call of ``_batch_grads`` on one fixed
    batch of them.

    The stage runs for real.  Its networks keep the classifiers of their last
    rebuild, so the batch is drawn by ``pk_sample`` on a fixed generator from
    the class index those were built on: the identities for pretraining,
    else the target's last pseudo labels, led by a block of the source
    identities under joint batches, as the training loop forms it.  Stage
    III's queues hold its teachers' features of the first
    ``cfg.queue_capacity`` target rows.  Returns the trained networks and
    the call.
    """
    rng = np.random.default_rng(0)
    target = bench.target_train.subset(np.arange(bench.target_train.n))
    data = bench.translated if stage == "pretrain" else target
    teachers = queues = None
    if stage == "pretrain":
        params = stage_pretrain(data, cfg)[0]
    elif stage == "baseline":
        params = stage_baseline(pretrained, data, cfg)[0]
    else:
        teachers = stack_params(stage_mmt_plus(pretrained, bench.source, data, cfg)[0])
        params = student_stacks[0]
        rows = slice(cfg.queue_capacity)
        queues = queue_push(np.zeros((2, 0, teachers.d_out)),
                            forward(teachers, data.features[rows], data.domains[rows]),
                            cfg.queue_capacity)
    index = class_index(np.unique(data.identities, return_inverse=True)[1]
                        if stage == "pretrain" else data.pseudo)
    idx, labels = pk_sample(index, min(cfg.p_classes, index.classes.size), cfg.k_per, rng)
    rows, doms = data.features[idx], data.domains[idx]
    joint = cfg.joint_source and stage.startswith("mmt")
    if joint:
        index_s = class_index(np.unique(bench.source.identities, return_inverse=True)[1])
        idx_s, labels_s = pk_sample(index_s, cfg.p_classes, cfg.k_per, rng)
        rows = np.concatenate([bench.source.features[idx_s], rows])
        doms = np.concatenate([bench.source.domains[idx_s], doms])
        labels = np.concatenate([labels_s, index_s.classes.size + labels])
    nets = [params] if teachers is None else list(unstack_params(params))
    classes = index.classes.size + (index_s.classes.size if joint else 0)
    assert index.classes.size > 1
    assert all(net.classifier.shape[0] == classes for net in nets)
    return nets, lambda: pipeline._batch_grads(params, teachers, queues, cfg,
                                               rows.astype(np.float64), doms, labels)


def objective_error(nets, batch):
    """Worst relative error between the grads that ``batch()`` returns, the
    ones the training loop hands to ``adam_step``, and central differences
    of each network's training total (``total``, or the sum of its parts, as
    the loop reads it).

    Several networks are views into one stack that one call serves: the
    grad dict is split per network, and arrays are reset and varied in
    place so that the stack sees it.  Every array of every trained network,
    running statistics included, is reset to its starting value before each
    evaluation; the teachers and queues stay put.
    """
    start = [net.copy() for net in nets]
    grads = batch()[1]
    per_net = [grads] if len(nets) == 1 else [
        {name: grad[i] for name, grad in grads.items()} for i in range(len(nets))]
    worst = 0.0
    for i in range(len(nets)):
        def total(i=i, **trained):
            for net, saved in zip(nets, start):
                for name, arr in saved.all_arrays().items():
                    getattr(net, name)[...] = arr
            for name, arr in trained.items():
                getattr(nets[i], name)[...] = arr
            parts = batch()[0]
            return np.atleast_1d(parts.get("total", sum(parts.values())))[i]
        worst = max(worst, worst_error(total, start[i].trainable(), per_net[i]))
    return worst


@pytest.mark.parametrize("stage", ["pretrain", "baseline", "mmt-joint", "mmt-solo"])
@pytest.mark.parametrize("mode", list(LossMode))
def test_training_step_grads_match_objective(student_stacks, bench, pretrained, stage, mode):
    # every stage trains with the one batch function: each of its part sets,
    # with and without teachers and a source block, under each hard loss
    cfg = StageConfig(**TINY_CFG, loss_mode=mode, joint_source=stage != "mmt-solo")
    nets, batch = fixed_batch(stage, cfg, bench, pretrained, student_stacks)
    if stage.startswith("mmt"):
        assert np.all(batch()[0]["moco"] > 0)  # the queues hold rows
    assert objective_error(nets, batch) < 1e-6
