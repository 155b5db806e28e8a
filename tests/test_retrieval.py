"""Re-ranking, camera adjustment, ensembling, and the ranking protocol."""
import tracemalloc

import numpy as np
import pytest

import oracles
from uda_reid.datamodel import PSEUDO_OUTLIER, Dataset
from uda_reid.errors import DegenerateStructureError, NormalizationError
from uda_reid.numerics import cdist, l2_normalize_rows
from uda_reid.pseudolabel import (k_reciprocal_neighbors, membership_matrix,
                                  pairwise_euclidean)
from uda_reid.retrieval import (EvalReport, QueryGallerySplit, camera_adjust,
                                ensemble_features, evaluate, evaluate_split,
                                rerank, split_query_gallery)


def labeled_dataset(identities, cameras=None, d=3, seed=0):
    identities = np.asarray(identities, dtype=np.int32)
    n = identities.size
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.normal(size=(n, d)).astype(np.float32),
        identities=identities,
        cameras=np.zeros(n, dtype=np.int32) if cameras is None
        else np.asarray(cameras, dtype=np.int32),
        domains=np.ones(n, dtype=np.uint8),
        pseudo=np.full(n, PSEUDO_OUTLIER, dtype=np.int32),
    )


# ---------------------------------------------------------------------------
# query/gallery splitting
# ---------------------------------------------------------------------------

def test_split_takes_leading_rows_up_to_quota():
    ds = labeled_dataset([0, 0, 0, 1, 1, 2])
    split = split_query_gallery(ds, per_id=2)
    assert np.array_equal(split.query.identities, [0, 0, 1])
    assert np.array_equal(split.gallery.identities, [0, 1, 2])
    assert np.array_equal(split.query.features[0], ds.features[0])
    assert np.array_equal(split.gallery.features[0], ds.features[2])


def test_split_always_leaves_gallery_row_per_identity():
    ds = labeled_dataset([0] * 5)
    split = split_query_gallery(ds, per_id=10)
    assert split.query.n == 4 and split.gallery.n == 1


def test_split_errors():
    with pytest.raises(ValueError, match="empty"):
        split_query_gallery(labeled_dataset([0]).subset(np.array([], dtype=np.int64)))
    # singleton identities produce no queries at all
    with pytest.raises(ValueError, match="non-empty"):
        split_query_gallery(labeled_dataset([0, 1, 2]))


# ---------------------------------------------------------------------------
# re-ranking
# ---------------------------------------------------------------------------

def test_rerank_lambda_one_is_plain_euclidean():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(4, 5))
    g = rng.normal(size=(7, 5))
    out = rerank(q, g, k1=5, k2=2, lam=1.0)
    assert np.array_equal(out, cdist(q, g))


def oracle_points(seed):
    """(query, gallery): 4 x 8 random points for an integer seed, else a
    named case."""
    rng = np.random.default_rng(seed if isinstance(seed, int) else 0)
    if seed == "lattice":  # integer points: many distances tie exactly
        pts = rng.integers(0, 3, size=(12, 2)).astype(np.float64)
    elif seed == "duplicates":  # later copies rank an earlier copy before themselves
        base = rng.integers(-2, 3, size=(5, 3)).astype(np.float64)
        pts = base[[0, 1, 2, 0, 3, 1, 4, 0, 2, 3, 4, 1]]
    elif seed == "clustered":  # 12 identities x 10 rows, 40 queries
        pts = (np.repeat(rng.normal(size=(12, 8)), 10, axis=0)
               + 0.4 * rng.normal(size=(120, 8)))
        return pts[::3], np.delete(pts, np.s_[::3], axis=0)
    else:
        return rng.normal(size=(4, 3)), rng.normal(size=(8, 3))
    return pts[:4], pts[4:]


@pytest.mark.parametrize("k1,k2,seed", [(k1, k2, seed) for k1, k2 in [(5, 3), (4, 1)]
                                        for seed in range(5)]
                         + [(7, 6, seed) for seed in range(5)]
                         + [(k1, k2, seed) for k1, k2 in [(5, 3), (7, 6)]
                            for seed in ("lattice", "duplicates")]
                         + [(20, 6, "clustered")]
                         + [(k, k, seed) for k in (5, 7) for seed in (0, 1, "lattice", "duplicates")]
                         + [(7, 1, seed) for seed in ("lattice", "duplicates")])
def test_rerank_matches_stepwise_reference(seed, k1, k2):
    q, g = oracle_points(seed)
    got = rerank(q, g, k1=k1, k2=k2, lam=0.3)
    ref = oracles.rerank_ref(q, g, k1=k1, k2=k2, lam=0.3)
    assert got.shape == (q.shape[0], g.shape[0])
    assert np.allclose(got, ref, atol=1e-6)


def rerank_full_sort(q, g, k1, k2, lam):
    """rerank with a full stable argsort for the k2 expansion and the dense
    row-loop Jaccard over every pooled row: the same arithmetic, in the same
    order, as the package."""
    n_q = q.shape[0]
    euclid = pairwise_euclidean(np.concatenate([q, g], axis=0))
    v = membership_matrix(euclid, k_reciprocal_neighbors(euclid, k1))
    if k2 > 1:
        local = np.argsort(euclid.values, axis=1, kind="stable")[:, :k2]
        expanded = v[local[:, 0]]
        for rank in range(1, k2):
            expanded += v[local[:, rank]]
        expanded /= k2
        v = expanded
    jac = oracles.jaccard_loop_ref(v)
    return lam * euclid.values[:n_q, n_q:] + (1.0 - lam) * jac[:n_q, n_q:]


@pytest.mark.parametrize("k1,k2,seed", [(k1, k2, seed) for k1, k2 in [(5, 1), (5, 3), (7, 7)]
                                        for seed in (0, "lattice", "duplicates")]
                         + [(20, 1, "clustered"), (20, 6, "clustered"), (20, 20, "clustered")])
def test_rerank_bitwise_equals_full_sort_and_dense_loop(seed, k1, k2):
    q, g = oracle_points(seed)
    assert np.array_equal(rerank(q, g, k1=k1, k2=k2, lam=0.3),
                          rerank_full_sort(q, g, k1, k2, 0.3))


def test_rerank_holds_no_dense_membership():
    rng = np.random.default_rng(5)
    n, n_q = 2000, 250  # 100 identities x 20 rows, pooled
    x = l2_normalize_rows(np.repeat(rng.normal(size=(100, 32)), 20, axis=0)
                          + 0.5 * rng.normal(size=(n, 32)))
    euclid_bytes = n * n * 8
    tracemalloc.start()
    try:
        rerank(x[:n_q], x[n_q:], k1=30, k2=6, lam=0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pooled Euclidean matrix plus sparse entries and row-block
    # temporaries; a dense membership and its k2 average beside it peak at 3.1x
    assert peak < 2.0 * euclid_bytes, f"peak {peak / 1e6:.1f} MB"


def test_rerank_prefers_exact_duplicate():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(1, 4))
    g = np.concatenate([rng.normal(size=(6, 4)) + 4.0, q], axis=0)
    out = rerank(q, g, k1=4, k2=2, lam=0.3)
    assert np.argmin(out[0]) == 6


def test_rerank_parameter_errors():
    q = np.zeros((2, 3))
    g = np.ones((3, 3))
    with pytest.raises(ValueError, match="k1"):
        rerank(q, g, k1=2, k2=3)
    with pytest.raises(ValueError, match="k1"):
        rerank(q, g, k1=5, k2=1)
    with pytest.raises(ValueError, match="lambda"):
        rerank(q, g, k1=3, k2=1, lam=1.2)
    with pytest.raises(ValueError, match="incompatible"):
        rerank(q, np.ones((3, 4)))


# ---------------------------------------------------------------------------
# camera adjustment and ensembling
# ---------------------------------------------------------------------------

def test_camera_adjust_zero_weight_copies():
    dist = np.array([[1.0, 2.0]])
    out = camera_adjust(dist, np.zeros((1, 2)), np.ones((2, 2)), weight=0.0)
    assert np.array_equal(out, dist)
    assert out is not dist


def test_camera_adjust_arithmetic_and_sign():
    dist = np.array([[1.0]])
    cq = np.array([[0.0, 0.0]])
    cg = np.array([[2.0, 0.0]])
    out = camera_adjust(dist, cq, cg, weight=0.1)
    assert out[0, 0] == pytest.approx(1.0 - 0.1 * 2.0, abs=1e-12)
    strong = camera_adjust(dist, cq, cg, weight=1.0)
    assert strong[0, 0] < 0  # adjusted scores may go negative


def test_camera_adjust_errors():
    dist = np.zeros((1, 2))
    for weight in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="weight must be finite and >= 0"):
            camera_adjust(dist, np.zeros((1, 2)), np.zeros((2, 2)), weight=weight)
    with pytest.raises(ValueError, match="dimensions"):
        camera_adjust(dist, np.zeros((1, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape"):
        camera_adjust(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 2)))


def test_ensemble_single_part_is_row_normalization():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(4, 5))
    out = ensemble_features([feats])
    assert np.allclose(out, l2_normalize_rows(feats, "x"), atol=1e-12)


def test_ensemble_concatenates_and_normalizes():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 6))
    out = ensemble_features([a, b])
    assert out.shape == (3, 10)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    # each half is the part's normalized rows scaled by 1/sqrt(2)
    a_hat = l2_normalize_rows(a, "a")
    assert np.allclose(out[:, :4] * np.sqrt(2.0), a_hat, atol=1e-12)


def test_ensemble_of_identical_parts_preserves_cosines():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(4, 3))
    single = ensemble_features([feats])
    double = ensemble_features([feats, feats])
    assert np.allclose(single @ single.T, double @ double.T, atol=1e-12)


def test_ensemble_errors():
    with pytest.raises(ValueError, match="at least one"):
        ensemble_features([])
    with pytest.raises(ValueError, match="row count"):
        ensemble_features([np.ones((2, 3)), np.ones((3, 3))])
    with pytest.raises(NormalizationError):
        ensemble_features([np.zeros((2, 3))])


# ---------------------------------------------------------------------------
# evaluation protocol
# ---------------------------------------------------------------------------

def test_evaluate_perfect_single_query():
    dist = np.array([[0.1, 0.5, 0.9]])
    report = evaluate(dist, [1], [0], [1, 2, 3], [1, 1, 1])
    assert report.mAP == pytest.approx(1.0)
    assert report.cmc[0] == pytest.approx(1.0)
    assert report.num_valid_queries == 1


def test_evaluate_relevant_beyond_window_scores_zero():
    # the only relevant entry sits at rank 3 with top_limit 2: the query is
    # valid (a match exists) but contributes AP 0 and no CMC hit
    dist = np.array([[0.1, 0.2, 0.3]])
    report = evaluate(dist, [7], [0], [1, 2, 7], [1, 1, 1], top_limit=2)
    assert report.num_valid_queries == 1
    assert report.mAP == pytest.approx(0.0)
    assert np.allclose(report.cmc, [0.0, 0.0])


def test_evaluate_same_camera_rows_are_dropped():
    # nearest gallery row shares (id, camera) with the query and must be
    # ignored; next relevant sits behind one distractor -> AP = 1/2
    dist = np.array([[0.05, 0.2, 0.4]])
    ids_g = [5, 3, 5]
    cams_g = [2, 0, 1]
    report = evaluate(dist, [5], [2], ids_g, cams_g)
    assert report.mAP == pytest.approx(0.5)
    assert np.allclose(report.cmc[:2], [0.0, 1.0])


def test_evaluate_invalid_queries_excluded_but_counted():
    dist = np.array([[0.1, 0.2], [0.1, 0.2]])
    ids_q = [1, 9]  # identity 9 never appears in the gallery
    report = evaluate(dist, ids_q, [0, 0], [1, 2], [1, 1])
    assert report.num_valid_queries == 1
    assert np.isnan(report.per_query_ap[1])
    assert report.mAP == pytest.approx(report.per_query_ap[0])


def test_evaluate_map_is_mean_of_valid_aps():
    rng = np.random.default_rng(0)
    dist = rng.uniform(size=(6, 10))
    ids_q = [0, 1, 2, 0, 1, 9]
    ids_g = rng.integers(0, 4, size=10)
    report = evaluate(dist, ids_q, np.zeros(6, int), ids_g, np.ones(10, int))
    valid = [a for a in report.per_query_ap if not np.isnan(a)]
    assert report.num_valid_queries == len(valid)
    assert report.mAP == pytest.approx(np.mean(valid), abs=1e-12)


def test_evaluate_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    dist = rng.uniform(0.1, 1.0, size=(4, 8))
    ids_q = [0, 1, 2, 3]
    ids_g = [0, 1, 2, 3, 0, 1, 2, 3]
    base = evaluate(dist, ids_q, np.zeros(4, int), ids_g, np.ones(8, int))
    for transformed in (3.0 * dist + 1.0, np.exp(dist)):
        other = evaluate(transformed, ids_q, np.zeros(4, int), ids_g, np.ones(8, int))
        assert other.mAP == pytest.approx(base.mAP, abs=1e-12)
        assert np.allclose(other.cmc, base.cmc, atol=1e-12)


def test_evaluate_ties_rank_by_gallery_index():
    # identical distances everywhere: stable ranking keeps gallery order, so
    # the relevant entry at gallery position 1 lands at rank 2
    dist = np.zeros((1, 3))
    report = evaluate(dist, [5], [0], [1, 5, 2], [1, 1, 1])
    assert report.per_query_ap[0] == pytest.approx(0.5)
    assert np.allclose(report.cmc, [0.0, 1.0, 1.0])


def test_evaluate_cmc_is_monotone_and_bounded():
    rng = np.random.default_rng(2)
    dist = rng.uniform(size=(5, 9))
    ids_g = rng.integers(0, 3, size=9)
    report = evaluate(dist, [0, 1, 2, 0, 1], np.zeros(5, int),
                      ids_g, np.ones(9, int))
    assert np.all(np.diff(report.cmc) >= -1e-12)
    assert report.cmc[-1] <= 1.0 + 1e-12


def test_evaluate_truncates_cmc_to_top_limit():
    dist = np.array([[0.5, 0.4, 0.3, 0.2]])
    report = evaluate(dist, [1], [0], [2, 3, 1, 4], [1, 1, 1, 1], top_limit=3)
    assert report.cmc.shape == (3,)


def test_evaluate_errors():
    with pytest.raises(ValueError, match="gallery"):
        evaluate(np.zeros((1, 0)), [0], [0], [], [])
    with pytest.raises(ValueError, match="top_limit"):
        evaluate(np.zeros((1, 2)), [0], [0], [0, 1], [1, 1], top_limit=0)
    with pytest.raises(DegenerateStructureError):
        # the only same-identity row shares the query camera: nothing valid
        evaluate(np.zeros((1, 2)), [1], [0], [1, 2], [0, 1])


def test_evaluate_split_scores_the_split_labels():
    ds = labeled_dataset([0, 0, 1, 1, 2, 2], cameras=[0, 1, 0, 1, 0, 1], d=4)
    split = split_query_gallery(ds, per_id=1)
    dist = cdist(split.query.features.astype(np.float64),
                 split.gallery.features.astype(np.float64))
    auto = evaluate_split(split, dist)
    manual = evaluate(dist, split.query.identities, split.query.cameras,
                      split.gallery.identities, split.gallery.cameras)
    assert auto.mAP == manual.mAP
    assert np.array_equal(auto.cmc, manual.cmc)


def test_report_to_dict_rounds():
    report = EvalReport(mAP=0.12345678, cmc=np.array([0.98765432, 1.0]),
                        per_query_ap=[0.1], num_valid_queries=1)
    d = report.to_dict()
    assert d == {"mAP": 0.123457, "cmc": [0.987654, 1.0], "num_valid_queries": 1}
