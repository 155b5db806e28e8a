"""Finite-difference verification machinery, per-kernel gradient checks, and
checks of the whole objective each training step hands to Adam."""
import numpy as np
import pytest

from uda_reid import pipeline
from uda_reid.encoder import class_index, pk_sample, unstack_params
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


def frozen_step(monkeypatch, run_stage):
    """The step a stage trains with, frozen for finite differences.

    ``run_stage`` runs with ``_run_epochs`` replaced: the replacement relabels,
    indexes and rebuilds once, as the driver does at an epoch start, and takes
    three real steps, which fills the queues.
    Afterwards every PK draw repeats one batch, ``adam_step`` records the
    grads instead of applying them, and the EMA and queue updates are off, so
    teachers and queues stay put.  Returns the trained networks, the step on
    the fixed class index, and the list the grads are recorded into.
    """
    drive = {}

    def run_epochs(cfg, log, adam, step, eval_params, val_split, index=None,
                   relabel=None, rebuild=None):
        if relabel is not None:
            labeling = relabel()
            assert labeling.num_clusters > 1
            index = class_index(labeling.assignment)
            rebuild(index)
        for _ in range(3):
            step(index)[1]()
        drive["step"] = lambda: step(index)

    monkeypatch.setattr(pipeline, "_run_epochs", run_epochs)
    nets = run_stage()
    recorded = []
    monkeypatch.setattr(pipeline, "pk_sample", lambda index, p, k, rng:
                        pk_sample(index, p, k, np.random.default_rng(0)))
    monkeypatch.setattr(pipeline, "adam_step",
                        lambda params, grads, state: recorded.append(grads))
    monkeypatch.setattr(pipeline, "ema_update", lambda teacher, student, alpha: None)
    monkeypatch.setattr(pipeline, "queue_push", lambda queue, feats, capacity: queue)
    return nets, drive["step"], recorded


def objective_error(nets, step, recorded):
    """Worst relative error between the grads the update hands to
    ``adam_step`` and central differences of each network's training total
    (``total``, or the sum of its parts, as the epoch driver reads it).

    Several networks are views into one stack that trains in one step: the
    single recorded grad dict is split per network, and arrays are reset and
    varied in place so that the stack sees it.  Every array of every trained
    network, running statistics included, is reset to its starting value
    before each evaluation; the teachers and queues stay put under
    ``frozen_step``."""
    start = [net.copy() for net in nets]
    step()[1]()
    grads = recorded[-1]
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
            parts = step()[0]
            return np.atleast_1d(parts.get("total", sum(parts.values())))[i]
        worst = max(worst, worst_error(total, start[i].trainable(), per_net[i]))
    return worst


@pytest.mark.parametrize("stage", ["pretrain", "baseline", "mmt-joint", "mmt-solo"])
@pytest.mark.parametrize("mode", list(LossMode))
def test_training_step_grads_match_objective(monkeypatch, student_stacks, bench, pretrained,
                                             stage, mode):
    # every stage trains with the one step builder: each of its part sets,
    # with and without teachers and a source block, under each hard loss
    cfg = StageConfig(**TINY_CFG, loss_mode=mode, joint_source=stage != "mmt-solo")
    target = bench.target_train.subset(np.arange(bench.target_train.n))

    def run():
        if stage == "pretrain":
            return [stage_pretrain(bench.translated, cfg)[0]]
        if stage == "baseline":
            return [stage_baseline(pretrained, target, cfg)[0]]
        stage_mmt_plus(pretrained, bench.source, target, cfg)
        return list(unstack_params(student_stacks[0]))
    nets, step, recorded = frozen_step(monkeypatch, run)
    if stage.startswith("mmt"):
        assert np.all(step()[0]["moco"] > 0)  # the queues took rows
    assert objective_error(nets, step, recorded) < 1e-6
