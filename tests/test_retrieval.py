"""Re-ranking, camera adjustment, ensembling, and the ranking protocol."""
import tracemalloc

import numpy as np
import pytest

import oracles
from uda_reid import retrieval
from uda_reid.datamodel import PSEUDO_OUTLIER, Dataset
from uda_reid.errors import DegenerateStructureError, NormalizationError
from uda_reid.numerics import ROW_BLOCK, cdist, l2_normalize_rows
from uda_reid.pseudolabel import (k_reciprocal_neighbors, membership_matrix, nearest,
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


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("per_id", [1, 2, 3])
def test_split_matches_the_row_scan_reference(seed, per_id):
    # unsorted ids with gaps, singleton identities among larger ones
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 7, size=12)
    sizes[:3] = 1
    ids = rng.permutation(np.repeat(rng.choice(100, size=12, replace=False), sizes))
    ds = labeled_dataset(ids, cameras=np.arange(ids.size))
    split = split_query_gallery(ds, per_id=per_id)
    query_rows, gallery_rows = oracles.split_query_gallery_ref(ids, per_id)
    assert split.query.cameras.tolist() == query_rows  # a row's camera is its index
    assert split.gallery.cameras.tolist() == gallery_rows


def test_split_errors():
    with pytest.raises(ValueError, match="empty"):
        split_query_gallery(labeled_dataset([0]).subset(np.array([], dtype=np.int64)))
    # singleton identities produce no queries at all
    with pytest.raises(ValueError, match="non-empty"):
        split_query_gallery(labeled_dataset([0, 1, 2]))
    # unlabelled rows would be split as one shared identity
    with pytest.raises(ValueError, match=r"dataset row 2 has no identity \(-1\)"):
        split_query_gallery(labeled_dataset([0, 0, -1, 1, 1, -1]))


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
    elif seed == "blocks":  # four row blocks, the last partial; the query rows end
        # inside the second, and copies of 40 rows put rows in their own R*
        base = rng.integers(-2, 3, size=(40, 4)).astype(np.float64)
        pts = base[rng.integers(0, 40, size=3 * ROW_BLOCK + 20)]
        return pts[:ROW_BLOCK + 10], pts[ROW_BLOCK + 10:]
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
    order, as the package.  It keeps the pooled matrix alive until the final
    blend, which ``rerank`` computes before it frees the matrix."""
    n_q = q.shape[0]
    euclid = pairwise_euclidean(np.concatenate([q, g], axis=0))
    v = membership_matrix(euclid, k_reciprocal_neighbors(nearest(euclid.values, k1 + 1)))
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
                         + [(20, 1, "clustered"), (20, 6, "clustered"), (20, 20, "clustered")]
                         + [(11, 11, "duplicates"), (11, 1, "lattice")]  # k1 = n - 1
                         + [(20, 1, "blocks"), (20, 6, "blocks"), (9, 9, "blocks")])
def test_rerank_bitwise_equals_full_sort_and_dense_loop(seed, k1, k2):
    q, g = oracle_points(seed)
    assert np.array_equal(rerank(q, g, k1=k1, k2=k2, lam=0.3),
                          rerank_full_sort(q, g, k1, k2, 0.3))


@pytest.mark.parametrize("k1", [9, 20])
def test_blocks_case_spans_row_blocks_and_rows_in_their_own_sets(k1):
    # what the "blocks" case puts to the streamed Euclidean rows: several
    # blocks, the query/gallery boundary inside one, and R*(p) holding p,
    # the (p, p) entry that the stream zeroes
    q, g = oracle_points("blocks")
    n_q, n = q.shape[0], q.shape[0] + g.shape[0]
    assert ROW_BLOCK < n_q and n_q % ROW_BLOCK and n > 3 * ROW_BLOCK
    euclid = pairwise_euclidean(np.concatenate([q, g], axis=0))
    sets = k_reciprocal_neighbors(nearest(euclid.values, k1 + 1))
    assert any(p in members for p, members in enumerate(sets))


def test_rerank_holds_no_dense_membership():
    rng = np.random.default_rng(5)
    n = 1500  # 75 identities x 20 rows, pooled
    x = l2_normalize_rows(np.repeat(rng.normal(size=(75, 32)), 20, axis=0)
                          + 0.5 * rng.normal(size=(n, 32)))
    euclid_bytes = n * n * 8
    # the pooled Euclidean matrix is never held, only its row blocks.  1,300
    # queries: the (n_q, n) Jaccard rows (0.87x) beside the blend (0.19x),
    # plus sparse entries and row-block temporaries, peak at 1.63x (numpy
    # 2.4); the pooled matrix kept beside them peaks at 2.45x, and a dense
    # membership and its k2 average would add 2x more.  100 queries: 0.83x;
    # a pooled matrix, even one freed before the Jaccard rows exist, peaks at 1.23x
    for n_q, bound in ((1300, 1.8), (100, 1.0)):
        tracemalloc.start()
        try:
            rerank(x[:n_q], x[n_q:], k1=30, k2=6, lam=0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * euclid_bytes, f"{n_q} queries: peak {peak / 1e6:.1f} MB"


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
    for k2 in (0, 6):  # rerank owns the k2 bounds of jaccard_rows' expansion
        with pytest.raises(ValueError, match=f"need 1 <= k2 <= k1 < n, got k1=4, k2={k2}, n=5"):
            rerank(q, g, k1=4, k2=k2)


@pytest.mark.parametrize("side", ["query", "gallery"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rerank_rejects_non_finite_features(side, bad):
    rng = np.random.default_rng(0)
    feats = {"query": rng.normal(size=(3, 4)), "gallery": rng.normal(size=(5, 4))}
    feats[side][1, 2] = bad
    with pytest.raises(ValueError, match="non-finite feature values"):
        rerank(feats["query"], feats["gallery"], k1=4, k2=2)


# ---------------------------------------------------------------------------
# camera adjustment and ensembling
# ---------------------------------------------------------------------------

def test_camera_adjust_zero_weight_copies():
    dist = np.array([[1.0, -0.0]])
    out = camera_adjust(dist, np.array([0]), np.array([1, 2]), weight=0.0)
    assert out.tobytes() == dist.tobytes()
    assert out is not dist


def test_camera_adjust_arithmetic_and_sign():
    dist = np.array([[1.0, 1.0]])
    cq, cg = np.array([0]), np.array([3, 0])
    out = camera_adjust(dist, cq, cg, weight=0.1)
    # the distance between one-hot camera codes: sqrt(2) apart, 0 alike
    assert out[0, 0] == 1.0 - 0.1 * np.sqrt(2.0)
    assert out[0, 1] == 1.0
    strong = camera_adjust(dist, cq, cg, weight=1.0)
    assert strong[0, 0] < 0  # adjusted scores may go negative


def test_camera_adjust_errors():
    dist = np.zeros((1, 2))
    for weight in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="weight must be finite and >= 0"):
            camera_adjust(dist, np.zeros(1), np.zeros(2), weight=weight)
    with pytest.raises(ValueError, match="shape"):
        camera_adjust(np.zeros((2, 2)), np.zeros(1), np.zeros(2), weight=0.1)


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
    # IDENTITY_NONE rows would all score as one identity
    with pytest.raises(ValueError, match=r"query row 1 has no identity \(-1\)"):
        evaluate(np.zeros((2, 2)), [0, -1], [0, 0], [0, 1], [1, 1])
    with pytest.raises(ValueError, match=r"gallery row 0 has no identity \(-1\)"):
        evaluate(np.zeros((1, 2)), [0], [0], [-1, 0], [1, 1])


LABEL_ARRAYS = ("query ids", "query cameras", "gallery ids", "gallery cameras")


@pytest.mark.parametrize("name", LABEL_ARRAYS)
@pytest.mark.parametrize("fault", [lambda a: a + [1], lambda a: a[:-1], lambda a: [a]],
                         ids=["long", "short", "2d"])
def test_evaluate_label_arrays_must_match_dist(name, fault):
    # against a (2, 3) matrix: extra query ids used to be ignored, extra
    # gallery ids truncated, and short arrays raised a bare IndexError
    argv = [[0, 1], [0, 0], [0, 1, 1], [1, 1, 1]]
    argv[LABEL_ARRAYS.index(name)] = fault(argv[LABEL_ARRAYS.index(name)])
    with pytest.raises(ValueError, match=rf"distance matrix shape \(2, 3\) does not match {name}"):
        evaluate(np.zeros((2, 3)), *argv)


def eval_case(case):
    """(dist, ids_q, cams_q, ids_g, cams_g, top_limit) of a named case."""
    rng = np.random.default_rng(0)
    ids_q, cams_q = rng.integers(0, 4, size=(2, 12))
    ids_g, cams_g = rng.integers(0, 4, size=(2, 40))
    if case == "ties":  # few distinct values: long runs of equal entries
        return rng.integers(0, 3, size=(12, 40)).astype(np.float64), ids_q, cams_q, ids_g, cams_g, 5
    if case == "nan":
        dist = rng.normal(size=(12, 40))
        dist[rng.random(dist.shape) < 0.3] = np.nan
        dist[3] = np.nan  # a row of NaN only
        return dist, ids_q, cams_q, ids_g, cams_g, 8
    if case == "camera_adjust":  # negative distances, signed zeros
        dist = camera_adjust(np.round(rng.uniform(size=(12, 40)), 1), cams_q, cams_g, 1.0)
        dist[dist == 0.0] = -0.0
        return dist, ids_q, cams_q, ids_g, cams_g, 6
    if case == "junk_past_top_limit":  # query 0's 10 junk rows rank first, its match 11th
        ids_g[:10], cams_g[:10] = ids_q[0], cams_q[0]
        ids_g[10:] = np.where(ids_g[10:] == ids_q[0], ids_q[0] + 1, ids_g[10:])
        ids_g[39], cams_g[39] = ids_q[0], cams_q[0] + 1
        dist = rng.uniform(0.1, 1.0, size=(12, 40))
        dist[0, :10], dist[0, 39] = 0.0, 0.05
        return dist, ids_q, cams_q, ids_g, cams_g, 3
    if case == "top_limit_above_n_g":
        return rng.uniform(size=(12, 40)), ids_q, cams_q, ids_g, cams_g, 41
    if case == "top_limit_one":
        return rng.integers(0, 2, size=(12, 40)).astype(np.float64), ids_q, cams_q, ids_g, cams_g, 1
    # "one_gallery_row"
    return rng.uniform(size=(12, 1)), ids_q, np.full(12, 9), ids_q[:1], cams_g[:1], 4


EVAL_CASES = ["ties", "nan", "camera_adjust", "junk_past_top_limit",
              "top_limit_above_n_g", "top_limit_one", "one_gallery_row"]


def assert_evaluate_matches_full_sort(dist, ids_q, cams_q, ids_g, cams_g, top_limit):
    ref = oracles.evaluate_full_sort_ref(dist, ids_q, cams_q, ids_g, cams_g, top_limit)
    if ref is None:
        with pytest.raises(DegenerateStructureError):
            evaluate(dist, ids_q, cams_q, ids_g, cams_g, top_limit=top_limit)
        return
    report = evaluate(dist, ids_q, cams_q, ids_g, cams_g, top_limit=top_limit)
    mean_ap, cmc, per_query_ap, num_valid = ref
    assert report.mAP == mean_ap
    assert report.cmc.tobytes() == cmc.tobytes()
    assert np.array(report.per_query_ap).tobytes() == np.array(per_query_ap).tobytes()
    assert report.num_valid_queries == num_valid


@pytest.mark.parametrize("case", EVAL_CASES)
def test_evaluate_bitwise_equals_full_sort(case):
    args = eval_case(case)
    if case == "junk_past_top_limit":  # query 0's window reaches past its junk rows
        assert oracles.evaluate_full_sort_ref(*args)[2][0] == 1.0
    assert_evaluate_matches_full_sort(*args)


def test_evaluate_bitwise_equals_full_sort_on_random_cases():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n_q, n_g = rng.integers(1, 10), rng.integers(1, 25)
        dist = rng.integers(-2, 3, size=(n_q, n_g)) * rng.choice([1.0, 0.5])
        dist[rng.random(dist.shape) < 0.1] = np.nan
        num_ids, num_cams = rng.integers(1, 4), rng.integers(1, 3)
        assert_evaluate_matches_full_sort(
            dist, rng.integers(0, num_ids, n_q), rng.integers(0, num_cams, n_q),
            rng.integers(0, num_ids, n_g), rng.integers(0, num_cams, n_g),
            int(rng.integers(1, n_g + 3)))


def test_evaluate_ranks_once_without_a_full_sort(monkeypatch):
    ranked, sorted_rows = [], []

    def counted(values, m):
        ranked.append((values.shape, m))
        return nearest(values, m)

    def recorded_argsort(a, *args, **kwargs):
        sorted_rows.append(np.shape(a))
        return argsort(a, *args, **kwargs)

    argsort = np.argsort
    monkeypatch.setattr(retrieval, "nearest", counted)
    monkeypatch.setattr(np, "argsort", recorded_argsort)
    dist, ids_q, cams_q, ids_g, cams_g, _ = eval_case("junk_past_top_limit")
    for top_limit, m in ((3, 13), (30, 40), (100, 40)):  # query 0 holds 10 junk rows
        evaluate(dist, ids_q, cams_q, ids_g, cams_g, top_limit=top_limit)
        assert ranked == [((12, 40), m)]
        ranked.clear()
    assert sorted_rows == []


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
