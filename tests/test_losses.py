"""Loss kernels: values against independent references, gradient wiring,
reduction identities, and error contracts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from uda_reid.errors import MiningError, NormalizationError
from uda_reid.losses import (MarginMode, cross_entropy_batch,
                             hardest_triplets, margin_classification_batch,
                             mmt_plus_total, moco_batch, soft_ce_batch,
                             softmax_triplet_loss)
from uda_reid.numerics import sigmoid

SIGMOID_1 = 0.7310585786300049

finite_floats = st.floats(-20.0, 20.0, allow_nan=False)


def logit_vectors(min_p=2, max_p=6):
    return hnp.arrays(np.float64, st.integers(min_p, max_p), elements=finite_floats)


# ---------------------------------------------------------------------------
# classification cross-entropy
# ---------------------------------------------------------------------------

def test_ce_uniform_gives_log_p():
    assert cross_entropy_batch(np.zeros((1, 4)), [1]).value == pytest.approx(math.log(4), abs=1e-12)


def test_ce_worked_example():
    out = cross_entropy_batch([[1.0, 2.0, 3.0]], [2])
    assert out.value == pytest.approx(0.40760596444438013, abs=1e-12)
    probs = np.exp([1, 2, 3]) / np.exp([1, 2, 3]).sum()
    expected = probs.copy()
    expected[2] -= 1.0
    assert np.allclose(out.grads["logits"][0], expected, atol=1e-12)


def test_ce_gradient_sums_to_zero():
    out = cross_entropy_batch([[0.3, -1.2, 4.0, 0.0]], [0])
    assert out.grads["logits"].sum() == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40)
@given(logits=logit_vectors(), shift=finite_floats)
def test_ce_shift_invariance(logits, shift):
    a = cross_entropy_batch(logits[None], [0]).value
    b = cross_entropy_batch(logits[None] + shift, [0]).value
    assert abs(a - b) < 1e-9


def test_ce_errors():
    with pytest.raises(ValueError, match="label"):
        cross_entropy_batch([[1.0, 2.0]], [2])
    with pytest.raises(ValueError, match="label"):
        cross_entropy_batch([[1.0, 2.0]], [-1])
    with pytest.raises(ValueError):
        cross_entropy_batch([[]], [0])
    with pytest.raises(ValueError, match="finite"):
        cross_entropy_batch([[np.nan, 1.0]], [0])


def test_ce_batch_is_mean_of_rows():
    logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    labels = [2, 1]
    out = cross_entropy_batch(logits, labels)
    singles = [cross_entropy_batch(logits[i:i + 1], labels[i:i + 1]) for i in range(2)]
    assert out.value == pytest.approx(np.mean([s.value for s in singles]), abs=1e-12)
    stacked = np.concatenate([s.grads["logits"] for s in singles]) / 2
    assert np.allclose(out.grads["logits"], stacked, atol=1e-12)


def test_ce_batch_label_range():
    with pytest.raises(ValueError, match="label"):
        cross_entropy_batch(np.zeros((2, 3)), [0, 3])


# ---------------------------------------------------------------------------
# softmax-triplet statistic
# ---------------------------------------------------------------------------

def triplet_T(feats, labels):
    """T = sigmoid(d_n - d_p) per anchor under hardest mining, the statistic
    whose -log the softmax-triplet loss averages."""
    d_p, d_n, _, _ = hardest_triplets(feats, labels)
    return sigmoid(d_n - d_p)


def anchor_T(d_p, d_n):
    """T of anchor 0 in a 1-d batch whose hardest positive lies at distance
    d_p and hardest negative at distance d_n."""
    feats = np.array([[0.0], [d_p], [-d_n], [-d_n - 10.0]])
    return triplet_T(feats, [0, 0, 1, 1])[0]


def test_t_statistic_midpoint_and_complement():
    assert anchor_T(1.3, 1.3) == pytest.approx(0.5, abs=1e-12)
    assert anchor_T(0.0, 1.0) == pytest.approx(SIGMOID_1, abs=1e-12)
    for a, b in [(0.2, 1.7), (3.0, 0.1)]:
        assert anchor_T(a, b) + anchor_T(b, a) == pytest.approx(1.0, abs=1e-12)


def test_t_statistic_matches_ratio_form():
    d_p, d_n = 1.25, 0.5
    direct = math.exp(d_n) / (math.exp(d_p) + math.exp(d_n))
    assert anchor_T(d_p, d_n) == pytest.approx(direct, abs=1e-12)


def test_t_statistic_errors():
    with pytest.raises(ValueError, match="finite"):
        anchor_T(1.0, np.inf)
    with pytest.raises(ValueError, match="finite"):
        anchor_T(np.nan, 1.0)


# ---------------------------------------------------------------------------
# hardest-triplet mining and loss
# ---------------------------------------------------------------------------

def test_mining_picks_farthest_positive_closest_negative():
    feats = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
    labels = [0, 0, 1, 1]
    d_p, d_n, pos, neg = hardest_triplets(feats, labels)
    # anchor 0: only positive is row 1 (dist 3); nearest negative row 2 (dist 1)
    assert d_p[0] == pytest.approx(3.0) and pos[0] == 1
    assert d_n[0] == pytest.approx(1.0) and neg[0] == 2
    # anchor 2: positive row 3 at sqrt(26); nearest negative row 0 at dist 1
    assert d_p[2] == pytest.approx(math.sqrt(26.0))
    assert neg[2] == 0 and d_n[2] == pytest.approx(1.0)


def test_mining_errors_name_offending_labels():
    feats = np.zeros((3, 2))
    with pytest.raises(MiningError) as err:
        hardest_triplets(feats, [0, 0, 7])  # label 7 has no positive
    assert 7 in err.value.labels
    with pytest.raises(MiningError) as err:
        hardest_triplets(feats, [4, 4, 4])  # nobody has a negative
    assert set(err.value.labels) == {4}


def test_triplet_loss_unit_square_is_log2():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    out = softmax_triplet_loss(feats, [0, 0, 1, 1])
    assert out.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_triplet_loss_separated_clusters_vanish():
    feats = np.array([[0.0, 0.0], [0.0, 0.1], [50.0, 0.0], [50.0, 0.1]])
    out = softmax_triplet_loss(feats, [0, 0, 1, 1])
    assert 0.0 < out.value < 1e-20


def test_triplet_loss_matches_exhaustive_reference():
    rng = np.random.default_rng(3)
    for trial in range(12):
        feats = rng.normal(size=(8, 3))
        labels = rng.permutation(np.repeat([0, 1, 2, 3], 2))
        out = softmax_triplet_loss(feats, labels)
        assert out.value == pytest.approx(
            oracles.triplet_value_ref(feats, labels), abs=1e-10)
        t = triplet_T(feats, labels)
        assert np.all((t > 0) & (t < 1))
        assert out.value == pytest.approx(np.mean(-np.log(t)), abs=1e-12)
        assert out.grads["batch"].shape == feats.shape
        assert np.all(np.isfinite(out.grads["batch"]))


def test_triplet_grad_pushes_anchor_toward_positive():
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    out = softmax_triplet_loss(feats, [0, 0, 1, 1])
    step = feats - 1e-4 * out.grads["batch"]
    stepped = softmax_triplet_loss(step, [0, 0, 1, 1])
    assert stepped.value < out.value


# ---------------------------------------------------------------------------
# soft cross-entropy between peers
# ---------------------------------------------------------------------------

def test_soft_ce_uniform_target():
    out = soft_ce_batch(np.zeros((1, 4)), np.zeros((1, 4)))
    assert out.value == pytest.approx(math.log(4.0), abs=1e-12)


def test_soft_ce_worked_example():
    out = soft_ce_batch([[0.0, 1.0]], [[1.0, 0.0]])
    assert out.value == pytest.approx(1.0443202661482278, abs=1e-12)
    assert out.value == pytest.approx(oracles.soft_ce_ref([0.0, 1.0], [1.0, 0.0]), abs=1e-12)


def test_soft_ce_hard_teacher_limit():
    student = np.array([0.3, -0.7, 1.1])
    teacher = np.array([60.0, 0.0, 0.0])
    soft = soft_ce_batch(student[None], teacher[None]).value
    hard = cross_entropy_batch(student[None], [0]).value
    assert soft == pytest.approx(hard, abs=1e-9)


def test_soft_ce_gradient_is_prob_gap():
    student = np.array([0.2, -0.4, 0.9])
    teacher = np.array([1.0, 1.0, -2.0])
    out = soft_ce_batch(student[None], teacher[None])
    s_prob = np.exp(student) / np.exp(student).sum()
    t_prob = np.exp(teacher) / np.exp(teacher).sum()
    assert np.allclose(out.grads["student_logits"][0], s_prob - t_prob, atol=1e-12)


@settings(max_examples=40)
@given(student=logit_vectors(3, 3), teacher=logit_vectors(3, 3), shift=finite_floats)
def test_soft_ce_bounded_below_by_teacher_entropy(student, teacher, shift):
    value = soft_ce_batch(student[None], teacher[None]).value
    t_prob = np.exp(teacher - teacher.max())
    t_prob /= t_prob.sum()
    entropy = -np.sum(t_prob * np.log(np.maximum(t_prob, 1e-300)))
    assert value >= entropy - 1e-9
    shifted = soft_ce_batch(student[None] + shift, teacher[None] + shift).value
    assert abs(shifted - value) < 1e-9


def test_soft_ce_batch_reduces_with_mean():
    s = np.array([[0.0, 1.0], [2.0, -1.0]])
    t = np.array([[1.0, 0.0], [0.5, 0.5]])
    out = soft_ce_batch(s, t)
    singles = [soft_ce_batch(s[i:i + 1], t[i:i + 1]).value for i in range(2)]
    assert out.value == pytest.approx(np.mean(singles), abs=1e-12)
    with pytest.raises(ValueError, match="mismatch"):
        soft_ce_batch(s, t[:1])


# ---------------------------------------------------------------------------
# momentum-contrast loss
# ---------------------------------------------------------------------------

def test_moco_empty_queue_is_zero():
    out = moco_batch([[1.0, 0.0]], [[1.0, 0.0]], None)
    assert out.value == 0.0
    out = moco_batch([[1.0, 0.0]], [[0.0, 1.0]], np.zeros((0, 2)))
    assert out.value == 0.0


def test_moco_worked_example():
    out = moco_batch([[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]], tau=0.7)
    assert out.value == pytest.approx(0.3915704041748236, abs=1e-12)


def test_moco_scale_invariance_of_value():
    rng = np.random.default_rng(0)
    q = rng.normal(size=5)
    k = rng.normal(size=5)
    queue = rng.normal(size=(4, 5))
    a = moco_batch(q[None], k[None], queue)
    b = moco_batch(10.0 * q[None], k[None], queue)
    assert b.value == pytest.approx(a.value, abs=1e-12)
    # the gradient through normalization is tangent to the query direction
    q_hat = q / np.linalg.norm(q)
    assert np.dot(a.grads["queries"][0], q_hat) == pytest.approx(0.0, abs=1e-12)


def test_moco_batch_mean_and_errors():
    rng = np.random.default_rng(1)
    qs = rng.normal(size=(3, 4))
    ks = rng.normal(size=(3, 4))
    queue = rng.normal(size=(5, 4))
    out = moco_batch(qs, ks, queue)
    singles = [moco_batch(qs[i:i + 1], ks[i:i + 1], queue).value for i in range(3)]
    assert out.value == pytest.approx(np.mean(singles), abs=1e-12)
    assert out.grads["queries"].shape == qs.shape

    with pytest.raises(ValueError, match="tau"):
        moco_batch(qs, ks, queue, tau=0.0)
    with pytest.raises(ValueError, match="align"):
        moco_batch(qs, ks[:2], queue)
    with pytest.raises(NormalizationError):
        moco_batch([[0.0, 0.0]], [[1.0, 0.0]], queue[:, :2])


# ---------------------------------------------------------------------------
# margin classification
# ---------------------------------------------------------------------------

def test_margin_zero_reduces_to_plain_ce():
    rng = np.random.default_rng(2)
    feature = rng.normal(size=6)
    weights = rng.normal(size=(4, 6))
    f_hat = feature / np.linalg.norm(feature)
    w_hat = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    cos_logits = 16.0 * (w_hat @ f_hat)
    for mode in (MarginMode.COSFACE, MarginMode.ARCFACE):
        out = margin_classification_batch(feature[None], weights, [1], mode, margin=0.0)
        assert out.value == pytest.approx(
            cross_entropy_batch(cos_logits[None], [1]).value, abs=1e-9)


def test_cosface_colinear_example():
    feature = np.array([[2.0, 0.0]])
    weights = np.array([[1.0, 0.0], [0.0, 3.0]])
    out = margin_classification_batch(feature, weights, [0], MarginMode.COSFACE,
                                      margin=0.25, scale=16.0)
    assert out.value == pytest.approx(6.144193477732806e-06, rel=1e-9)


def test_arcface_handles_angle_clamp():
    # feature opposite its class weight: theta = pi, margin pushes past it
    feature = np.array([[-1.0, 0.0]])
    weights = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = margin_classification_batch(feature, weights, [0], MarginMode.ARCFACE)
    assert np.isfinite(out.value)
    assert np.all(np.isfinite(out.grads["features"]))
    assert np.all(np.isfinite(out.grads["class_weights"]))


def test_margin_batch_reduces_with_mean():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(3, 5))
    weights = rng.normal(size=(4, 5))
    labels = [0, 2, 3]
    out = margin_classification_batch(feats, weights, labels)
    singles = [margin_classification_batch(feats[i:i + 1], weights, labels[i:i + 1]).value
               for i in range(3)]
    assert out.value == pytest.approx(np.mean(singles), abs=1e-12)
    assert out.grads["features"].shape == feats.shape
    assert out.grads["class_weights"].shape == weights.shape


def test_margin_errors():
    feats = np.ones((2, 3))
    weights = np.ones((2, 3))
    with pytest.raises(ValueError, match="margin"):
        margin_classification_batch(feats, weights, [0, 1], margin=-0.1)
    with pytest.raises(ValueError, match="scale"):
        margin_classification_batch(feats, weights, [0, 1], scale=0.0)
    with pytest.raises(ValueError, match="dimension"):
        margin_classification_batch(feats, np.ones((2, 4)), [0, 1])
    with pytest.raises(ValueError, match="label"):
        margin_classification_batch(feats, weights, [0, 2])
    with pytest.raises(NormalizationError):
        margin_classification_batch(np.zeros((1, 3)), weights, [0])


# ---------------------------------------------------------------------------
# weighted stage total
# ---------------------------------------------------------------------------

def test_total_worked_example_and_selectors():
    assert mmt_plus_total(4.0, 2.0, 1.0) == pytest.approx(3.1, abs=1e-12)
    assert mmt_plus_total(4.0, 2.0, 1.0, lambda_soft=1.0, lambda_moco=0.0) == 4.0
    assert mmt_plus_total(4.0, 2.0, 1.0, lambda_soft=0.0, lambda_moco=0.0) == 2.0
    assert mmt_plus_total(0.0, 0.0, 3.0, lambda_moco=0.2) == pytest.approx(0.6)


def test_total_linear_in_each_part():
    base = mmt_plus_total(1.0, 1.0, 1.0)
    bumped = mmt_plus_total(1.0, 1.0, 2.0)
    assert bumped - base == pytest.approx(0.1, abs=1e-12)


def test_total_errors():
    with pytest.raises(ValueError, match="lambda_soft"):
        mmt_plus_total(1.0, 1.0, 1.0, lambda_soft=1.5)
    with pytest.raises(ValueError, match="lambda_moco"):
        mmt_plus_total(1.0, 1.0, 1.0, lambda_moco=-0.1)
    with pytest.raises(ValueError, match="non-finite"):
        mmt_plus_total(np.nan, 1.0, 1.0)


# ---------------------------------------------------------------------------
# shared value/grad hygiene
# ---------------------------------------------------------------------------

@settings(max_examples=30)
@given(logits=logit_vectors())
def test_losses_nonnegative_with_finite_grads(logits):
    ce = cross_entropy_batch(logits[None], [0])
    assert ce.value >= 0.0
    assert np.all(np.isfinite(ce.grads["logits"]))
    soft = soft_ce_batch(logits[None], logits[None])
    assert soft.value >= 0.0
    assert np.all(np.isfinite(soft.grads["student_logits"]))
