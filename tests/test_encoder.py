"""Encoder parameters, standardization, sampling, EMA/queue state, Adam, and
parameter serialization."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uda_reid.datamodel import Dataset
from uda_reid.encoder import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, EPS_VAR, AdamState,
                              EncoderParams, adam_step, backward, check_classes, class_index,
                              classifier_backward, classifier_logits, ema_update, encode_dataset,
                              forward, forward_cached, init_params,
                              load_params, pk_sample, queue_push, save_params)
from uda_reid.errors import (DivergenceError, FormatError, MiningError,
                             NormalizationError)
from uda_reid.gradcheck import central_difference, relative_error
from uda_reid.numerics import l2_normalize_rows

from oracles import pk_sample_ref


def small_params(seed=0, d_in=4, d_out=3, num_classes=5):
    return init_params(d_in, d_out, num_classes, seed)


# ---------------------------------------------------------------------------
# initialization and validation
# ---------------------------------------------------------------------------

def test_init_is_deterministic_in_seed():
    a = init_params(5, 3, 4, seed=9)
    b = init_params(5, 3, 4, seed=9)
    c = init_params(5, 3, 4, seed=10)
    for name in a.all_arrays():
        assert np.array_equal(a.all_arrays()[name], b.all_arrays()[name])
    assert not np.array_equal(a.weight, c.weight)


def test_init_shapes_and_neutral_stats():
    p = init_params(6, 3, 7, seed=0)
    assert p.weight.shape == (3, 6) and p.bias.shape == (3,)
    assert p.classifier.shape == (7, 3)
    assert np.all(p.running_mean == 0.0) and np.all(p.running_var == 1.0)
    assert (p.d_in, p.d_out) == (6, 3)
    p.validate()


def test_validate_rejects_broken_params():
    p = small_params()
    p.weight[0, 0] = np.inf
    with pytest.raises(ValueError, match="weight"):
        p.validate()

    p = small_params()
    p.bias = np.zeros(p.d_out + 1)
    with pytest.raises(ValueError, match="bias"):
        p.validate()

    p = small_params()
    p.classifier = np.zeros((5, p.d_out + 1))
    with pytest.raises(ValueError, match="classifier"):
        p.validate()

    p = small_params()
    p.running_var[0, 0] = 0.0
    with pytest.raises(ValueError, match="variance"):
        p.validate()


def test_copy_is_deep():
    p = small_params()
    q = p.copy()
    q.weight[0, 0] += 1.0
    assert p.weight[0, 0] != q.weight[0, 0]


# ---------------------------------------------------------------------------
# standardization and forward
# ---------------------------------------------------------------------------

def test_eval_forward_is_pure_and_uses_running_stats():
    p = small_params()
    p.running_mean[:] = [[1.0] * 4, [2.0] * 4]
    p.running_var[:] = [[4.0] * 4, [9.0] * 4]
    before = {k: v.copy() for k, v in p.all_arrays().items()}

    raws = np.array([[3.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
    domains = np.array([0, 1])
    feats = forward(p, raws, domains)

    x0 = (raws[0] - 1.0) / np.sqrt(4.0 + EPS_VAR)
    x1 = (raws[1] - 2.0) / np.sqrt(9.0 + EPS_VAR)
    expected = np.stack([x0, x1]) @ p.weight.T + p.bias
    assert np.allclose(feats, expected, atol=1e-12)
    for name, arr in p.all_arrays().items():
        assert np.array_equal(arr, before[name]), name
    assert np.array_equal(feats, forward(p, raws, domains))


def test_training_forward_folds_batch_stats():
    p = small_params()
    raws = np.array([[1.0, 2.0, 3.0, 4.0],
                     [3.0, 2.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0]])
    domains = np.array([0, 0, 0])
    old_mean = p.running_mean[0].copy()
    old_var = p.running_var[0].copy()

    feats, x_hat = forward_cached(p, raws, domains)

    batch_mean = raws.mean(axis=0)
    batch_var = raws.var(axis=0)
    assert np.allclose(p.running_mean[0], 0.9 * old_mean + 0.1 * batch_mean, atol=1e-12)
    assert np.allclose(p.running_var[0],
                       np.maximum(0.9 * old_var + 0.1 * batch_var, EPS_VAR), atol=1e-12)
    # the batch itself is standardized by its own statistics
    assert np.allclose(x_hat, (raws - batch_mean) / np.sqrt(batch_var + EPS_VAR), atol=1e-12)
    assert np.allclose(feats, x_hat @ p.weight.T + p.bias, atol=1e-12)
    # domain 1 saw no rows, so its statistics stay put
    assert np.all(p.running_mean[1] == 0.0) and np.all(p.running_var[1] == 1.0)


def test_constant_batch_variance_hits_floor():
    p = small_params()
    raws = np.ones((3, 4)) * 5.0
    forward_cached(p, raws, np.zeros(3, dtype=int))
    # 0.9*1.0 + 0.1*0.0 = 0.9 stays above the floor; repeated constant
    # batches decay toward it but never below
    for _ in range(200):
        forward_cached(p, raws, np.zeros(3, dtype=int))
    assert np.all(p.running_var[0] >= EPS_VAR)


def test_forward_input_errors():
    p = small_params()
    for fwd in (forward, forward_cached):
        with pytest.raises(ValueError, match="expected"):
            fwd(p, np.zeros((2, 5)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="domain tag per row"):
            fwd(p, np.zeros((2, 4)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="unknown domain"):
            fwd(p, np.zeros((2, 4)), np.array([0, 2]))


# ---------------------------------------------------------------------------
# backward wiring
# ---------------------------------------------------------------------------

def test_affine_backward_matches_central_difference():
    p = small_params(d_in=3, d_out=2)
    rng = np.random.default_rng(5)
    raws = rng.normal(size=(4, 3))
    domains = np.zeros(4, dtype=int)
    sense = rng.normal(size=(4, 2))

    _, x_hat = forward_cached(p.copy(), raws, domains)
    grads = backward(p, x_hat, sense)

    def loss_of_weight(w):
        q = p.copy()
        q.weight = w
        return float(np.sum(forward_cached(q, raws, domains)[0] * sense))

    num_w = central_difference(loss_of_weight, p.weight)
    assert relative_error(grads["weight"], num_w) < 1e-7

    def loss_of_bias(b):
        q = p.copy()
        q.bias = b
        return float(np.sum(forward_cached(q, raws, domains)[0] * sense))

    num_b = central_difference(loss_of_bias, p.bias)
    assert relative_error(grads["bias"], num_b) < 1e-7


def test_classifier_backward_matches_central_difference():
    p = small_params(d_out=3, num_classes=4)
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(5, 3))
    sense = rng.normal(size=(5, 4))
    d_cls, d_feats = classifier_backward(p, feats, sense)

    def loss_of_cls(c):
        return float(np.sum((feats @ c.T) * sense))

    assert relative_error(d_cls, central_difference(loss_of_cls, p.classifier)) < 1e-7

    def loss_of_feats(f):
        return float(np.sum(classifier_logits(p, f) * sense))

    assert relative_error(d_feats, central_difference(loss_of_feats, feats)) < 1e-7


# ---------------------------------------------------------------------------
# PK sampling
# ---------------------------------------------------------------------------

def test_pk_sample_histogram():
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, -1, -2])
    rng = np.random.default_rng(0)
    idx, picked = pk_sample(class_index(labels), p_classes=2, k_per=3, rng=rng)
    assert idx.shape == (6,)
    assert np.array_equal(picked, labels[idx])  # each row's own class
    assert np.all(picked >= 0)
    values, counts = np.unique(picked, return_counts=True)
    assert len(values) == 2 and np.all(counts == 3)
    # each class block is contiguous and single-label
    assert len(set(picked[:3])) == 1 and len(set(picked[3:])) == 1


def test_pk_sample_replacement_for_thin_classes():
    labels = np.array([0, 0, 0, 1])
    rng = np.random.default_rng(1)
    idx, picked = pk_sample(class_index(labels), p_classes=2, k_per=2, rng=rng)
    assert np.array_equal(picked, labels[idx])
    assert picked.dtype == np.int64
    assert sorted(np.unique(picked)) == [0, 1]
    # label 1 has a single row, so both its slots repeat row 3
    assert list(idx[picked == 1]) == [3, 3]


@settings(max_examples=60)
@given(data=st.data(), p=st.integers(2, 5), k=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_pk_batch_rows_each_have_a_positive_and_a_negative(data, p, k, seed):
    # what the triplet mining trusts: classes of 1 to k+2 rows, outliers too
    sizes = data.draw(st.lists(st.integers(1, k + 2), min_size=p, max_size=p + 3))
    outliers = data.draw(st.integers(0, 3))
    labels = np.concatenate([np.repeat(np.arange(len(sizes)), sizes),
                             np.full(outliers, -1)])
    labels = np.random.default_rng(seed).permutation(labels)
    rows, batch = pk_sample(class_index(labels), p, k, np.random.default_rng(seed))
    assert rows.shape == batch.shape == (p * k,) and batch.dtype == np.int64
    assert np.array_equal(batch, labels[rows]) and np.all(batch >= 0)  # own, usable
    same = batch[:, None] == batch[None, :]
    assert np.all(same.sum(axis=1) == k)  # k - 1 positives at other positions
    assert not np.any(same.all(axis=1))  # and a negative
    assert np.unique(batch).size == p


def test_check_classes_requires_enough_usable_labels():
    # pk_sample trusts this check, which its callers run on the index
    index = class_index(np.array([0, 0, -1]))
    with pytest.raises(MiningError, match=r"need 2 usable labels, have 1 \(labels: \[0\]\)"):
        check_classes(index, 2)
    check_classes(index, 1)


def test_class_index_lists_each_usable_label_with_its_rows():
    labels = np.array([3, -1, 0, 3, -2, 7, 0, 3])
    index = class_index(labels)
    assert index.classes.tolist() == [0, 3, 7]
    assert [rows.tolist() for rows in index.rows] == [[2, 6], [0, 3, 7], [5]]
    assert class_index(np.array([-1, -2])).classes.size == 0


@pytest.mark.parametrize("seed", range(8))
def test_pk_sample_makes_the_draws_of_a_per_call_label_scan(seed):
    # one index serves many batches and draws exactly what scanning the
    # labels on every call draws, thin classes and outliers included
    rng = np.random.default_rng([seed, 5])
    labels = rng.integers(-2, 12, size=int(rng.integers(30, 90)))
    index = class_index(labels)
    p = min(4, index.classes.size)
    k = int(rng.integers(1, 7))
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        rows, batch_labels = pk_sample(index, p, k, ours)
        assert np.array_equal(rows, pk_sample_ref(labels, p, k, ref))
        assert np.array_equal(batch_labels, labels[rows])


# ---------------------------------------------------------------------------
# EMA teacher updates
# ---------------------------------------------------------------------------

def test_ema_endpoints_are_exact():
    teacher = small_params(seed=1)
    student = small_params(seed=2)
    snapshot = teacher.copy()

    assert ema_update(teacher, student, alpha=1.0) is None  # in place
    for name, arr in teacher.all_arrays().items():
        assert np.array_equal(arr, snapshot.all_arrays()[name]), name

    ema_update(teacher, student, alpha=0.0)
    for name, arr in teacher.all_arrays().items():
        assert np.array_equal(arr, student.all_arrays()[name]), name


def test_ema_blend_arithmetic_covers_every_array():
    teacher = small_params(seed=1)
    student = small_params(seed=2)
    student.running_mean[:] = 1.0
    student.running_var[:] = 2.0
    expect = {name: 0.999 * arr + 0.001 * student.all_arrays()[name]
              for name, arr in teacher.all_arrays().items()}
    ema_update(teacher, student, alpha=0.999)
    for name, arr in teacher.all_arrays().items():
        assert np.allclose(arr, expect[name], atol=1e-15), name


def test_ema_converges_geometrically():
    teacher = small_params(seed=1)
    student = small_params(seed=2)
    gap = abs(teacher.weight - student.weight).max()
    for _ in range(10):
        ema_update(teacher, student, alpha=0.5)
        new_gap = abs(teacher.weight - student.weight).max()
        assert new_gap <= 0.5 * gap + 1e-12
        gap = new_gap


def test_ema_keeps_variance_floor():
    teacher = small_params()
    student = small_params(seed=3)
    teacher.running_var[:] = EPS_VAR
    student.running_var[:] = 0.0  # degenerate donor
    ema_update(teacher, student, alpha=0.5)
    assert np.all(teacher.running_var >= EPS_VAR)


# ---------------------------------------------------------------------------
# feature queue
# ---------------------------------------------------------------------------

def test_queue_fifo_eviction():
    # one push larger than the capacity keeps its own last rows
    rows = np.array([[float(i + 1), float(i)] for i in range(6)])
    q = queue_push(np.zeros((0, 2)), rows, 4)
    assert np.array_equal(q, l2_normalize_rows(rows)[2:])
    # a full queue drops its oldest rows first
    q = queue_push(q, [[0.0, 2.0]], 4)
    assert np.array_equal(q[:3], l2_normalize_rows(rows)[3:])
    assert np.array_equal(q[3], [0.0, 1.0])


def test_queue_capacity_one_keeps_the_newest_row():
    q = np.zeros((0, 2))
    for row in ([3.0, 0.0], [0.0, 5.0], [2.0, 2.0]):
        q = queue_push(q, [row], 1)
        assert q.shape == (1, 2)
        assert np.array_equal(q[0], l2_normalize_rows(np.array([row]))[0])
    q = queue_push(q, [[1.0, 0.0], [0.0, 4.0]], 1)
    assert np.array_equal(q, [[0.0, 1.0]])


def test_queue_push_leaves_its_input_unmodified():
    q = queue_push(np.zeros((0, 2)), [[1.0, 0.0], [0.0, 1.0]], 2)
    before = q.copy()
    pushed = queue_push(q, [[3.0, 4.0]], 2)
    assert np.array_equal(q, before)
    assert np.array_equal(pushed, [[0.0, 1.0], [0.6, 0.8]])


def test_queue_ordering_across_batches():
    q = queue_push(np.zeros((0, 2)), [[1.0, 0.0], [0.0, 1.0]], 4)
    q = queue_push(q, [[3.0, 0.0], [0.0, 5.0], [2.0, 2.0]], 4)
    expected = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0],
                         [np.sqrt(0.5), np.sqrt(0.5)]])
    assert np.allclose(q, expected, atol=1e-12)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)


def test_queue_errors():
    q = np.zeros((0, 3))
    with pytest.raises(NormalizationError):
        queue_push(q, np.zeros((1, 3)), 2)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_magnitude():
    params = {"p": np.array([0.0])}
    state = AdamState(lr=0.00035, weight_decay=0.0)
    assert adam_step(params, {"p": np.array([1.0])}, state) is None  # in place
    assert params["p"][0] == pytest.approx(-0.00035, rel=1e-6)


def test_adam_zero_gradient_no_move_without_decay():
    params = {"p": np.array([1.0, -2.0])}
    state = AdamState(lr=0.01, weight_decay=0.0)
    adam_step(params, {"p": np.zeros(2)}, state)
    assert np.array_equal(params["p"], [1.0, -2.0])


def test_adam_decay_shrinks_without_gradient():
    params = {"p": np.array([10.0])}
    state = AdamState(lr=0.001, weight_decay=0.1)
    adam_step(params, {"p": np.zeros(1)}, state)
    assert params["p"][0] == pytest.approx(10.0 * (1.0 - 0.001 * 0.1), rel=1e-12)


def test_adam_matches_reference_two_steps():
    rng = np.random.default_rng(7)
    p0 = rng.normal(size=(2, 3))
    g1 = rng.normal(size=(2, 3))
    g2 = rng.normal(size=(2, 3))
    lr, wd = 0.002, 0.01
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    assert (b1, b2, eps) == (0.9, 0.999, 1e-8)

    params = {"w": p0.copy()}
    state = AdamState(lr=lr, weight_decay=wd)
    adam_step(params, {"w": g1}, state)
    adam_step(params, {"w": g2}, state)

    # independent reference with the same decoupled-decay convention
    p = p0.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in ((1, g1), (2, g2)):
        p -= lr * wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert np.allclose(params["w"], p, atol=1e-14)


def test_adam_rejects_nonfinite_gradient():
    params = {"p": np.array([1.0])}
    state = AdamState(lr=0.01, weight_decay=0.0)
    before = params["p"].copy()
    with pytest.raises(DivergenceError, match="p"):
        adam_step(params, {"p": np.array([np.nan])}, state)
    assert np.array_equal(params["p"], before)  # step rejected wholesale


def test_adam_reset_restarts_bias_correction():
    params = {"p": np.array([0.0])}
    state = AdamState(lr=0.1, weight_decay=0.0)
    for _ in range(3):
        adam_step(params, {"p": np.array([1.0])}, state)
    assert state.slots["p"][2] == 3
    state.reset("p")
    assert "p" not in state.slots
    adam_step(params, {"p": np.array([1.0])}, state)
    assert state.slots["p"][2] == 1


# ---------------------------------------------------------------------------
# dataset encoding and serialization
# ---------------------------------------------------------------------------

def make_dataset(seed=0, n=6, d=4):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.normal(size=(n, d)).astype(np.float32),
        identities=np.arange(n, dtype=np.int32),
        cameras=np.zeros(n, dtype=np.int32),
        domains=rng.integers(0, 2, size=n).astype(np.uint8),
        pseudo=np.full(n, -2, dtype=np.int32),
    )


def test_encode_dataset_is_eval_forward():
    p = small_params()
    ds = make_dataset()
    feats = encode_dataset(p, ds)
    direct = forward(p, ds.features.astype(np.float64), ds.domains)
    assert np.array_equal(feats, direct)


def test_params_round_trip_bit_exact(tmp_path):
    p = small_params(seed=11)
    p.running_mean[0, 1] = -0.25
    path = tmp_path / "enc.bin"
    save_params(path, p)
    q = load_params(path)
    for name, arr in p.all_arrays().items():
        assert arr.tobytes() == q.all_arrays()[name].tobytes(), name


def test_params_load_rejects_garbage(tmp_path):
    p = small_params()
    path = tmp_path / "enc.bin"
    save_params(path, p)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(ValueError, match="parameter file"):
        load_params(bad)

    bad.write_bytes(bytes(blob[:4]) + b"\x07\x00" + bytes(blob[6:]))
    with pytest.raises(ValueError, match="version"):
        load_params(bad)


def test_params_save_rejects_invalid_params(tmp_path):
    p = small_params()
    p.running_var[1, 2] = np.nan
    path = tmp_path / "enc.bin"
    with pytest.raises(ValueError, match="running_var"):
        save_params(path, p)
    assert not path.exists()


def test_params_load_reports_structural_faults(tmp_path):
    p = small_params()
    path = tmp_path / "enc.bin"
    save_params(path, p)
    blob = path.read_bytes()
    header = struct.calcsize("<4sHI")
    last = blob.rindex(b"running_var") - 2  # the entry's name length
    bad = tmp_path / "bad.bin"

    bad.write_bytes(blob[:6] + struct.pack("<I", 6) + blob[header:] + blob[last:])
    with pytest.raises(FormatError, match=f"at byte {len(blob)}: duplicate array 'running_var'"):
        load_params(bad)

    bad.write_bytes(blob[:6] + struct.pack("<I", 4) + blob[header:last])
    with pytest.raises(FormatError, match=f"at byte {last}: missing array 'running_var'"):
        load_params(bad)

    bad.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match=f"at byte {len(blob)}: trailing"):
        load_params(bad)

    bad.write_bytes(blob[:-1])
    start = len(blob) - 8 * p.running_var.size
    with pytest.raises(FormatError, match=f"at byte {start}: truncated running_var"):
        load_params(bad)

    # the weight entry stored flat: well-formed bytes, wrong rank
    shape_end = header + 2 + len("weight") + 1 + 8
    bad.write_bytes(blob[:header] + struct.pack("<H", 6) + b"weight"
                    + struct.pack("<BI", 1, p.weight.size) + blob[shape_end:])
    with pytest.raises(ValueError, match="weight has 1 dimensions"):
        load_params(bad)


def test_params_load_bit_flips_raise_value_errors(tmp_path):
    path = tmp_path / "enc.bin"
    save_params(path, init_params(2, 1, 1, seed=0))
    blob = path.read_bytes()
    bad = tmp_path / "bad.bin"
    for pos in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << bit
            bad.write_bytes(bytes(flipped))
            try:
                load_params(bad)
            except ValueError:
                pass
