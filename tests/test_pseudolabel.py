"""Neighborhood expansion, Jaccard distances, density clustering, and the
per-epoch relabeling entry point."""
import tracemalloc

import numpy as np
import pytest

import oracles
from uda_reid import pseudolabel, retrieval
from uda_reid.datamodel import PSEUDO_OUTLIER, Dataset
from uda_reid.encoder import encode_dataset, init_params
from uda_reid.errors import DegenerateStructureError
from uda_reid.numerics import ROW_BLOCK, cdist, l2_normalize_rows
from uda_reid.pseudolabel import (DistanceMatrix, PseudoLabeling, dbscan, jaccard_distance,
                                  jaccard_from_membership, jaccard_rows,
                                  k_reciprocal_neighbors, membership_entries,
                                  membership_matrix, nearest, pairwise_euclidean,
                                  relabel_epoch)


def euclidean_values(euclid):
    """The dense matrix of a ``pairwise_euclidean`` stream: its row blocks,
    concatenated.  The package itself never builds it."""
    return np.concatenate([block for _, block in euclid.blocks()])


def euclidean_matrix(x):
    """The Euclidean matrix of the rows of ``x`` as the ``DistanceMatrix``
    that ``dbscan`` clusters."""
    return DistanceMatrix(euclidean_values(pairwise_euclidean(x)))


def line_distances(positions):
    """Distances of points on a line, handy for hand-checkable cases."""
    return pairwise_euclidean(np.asarray(positions, dtype=np.float64)[:, None])


def line_matrix(positions):
    """``line_distances`` as a ``DistanceMatrix``, for ``dbscan``."""
    return euclidean_matrix(np.asarray(positions, dtype=np.float64)[:, None])


def random_distances(seed, n, d=4):
    rng = np.random.default_rng(seed)
    return pairwise_euclidean(rng.normal(size=(n, d)))


def oracle_distances(seed):
    """Distances of 12 random points for an integer seed, else a named case."""
    rng = np.random.default_rng(0)
    if seed == "lattice":  # integer points: many distances tie exactly
        return pairwise_euclidean(rng.integers(0, 4, size=(14, 2)))
    if seed == "duplicates":  # later copies rank an earlier copy before themselves
        base = rng.integers(-2, 3, size=(5, 3))
        return pairwise_euclidean(base[[0, 1, 2, 0, 3, 1, 4, 0, 2, 3, 4, 1, 0]])
    if seed == "clustered":  # 12 identities x 10 rows
        centres = rng.normal(size=(12, 8))
        return pairwise_euclidean(np.repeat(centres, 10, axis=0)
                                  + 0.4 * rng.normal(size=(120, 8)))
    if seed == "blocks":  # three full row blocks and a ragged fourth, 19 identities
        centres = rng.normal(size=(19, 8))
        return pairwise_euclidean(np.repeat(centres, 11, axis=0)
                                  + 0.4 * rng.normal(size=(3 * ROW_BLOCK + 17, 8)))
    return random_distances(seed, n=12)


def reciprocal_sets(dm, k):
    """R*(p, k) of every row, from the stream's (n, k + 1) rank table."""
    return k_reciprocal_neighbors(dm.ranked(k + 1))


# ---------------------------------------------------------------------------
# distance matrix container
# ---------------------------------------------------------------------------

def test_pairwise_euclidean_triangle():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    dm = pairwise_euclidean(pts)
    assert dm.n == 3
    values = euclidean_values(dm)
    assert values[0, 1] == pytest.approx(3.0, abs=1e-12)
    assert values[1, 2] == pytest.approx(4.0, abs=1e-12)
    assert values[0, 2] == pytest.approx(5.0, abs=1e-12)


def test_pairwise_matches_reference():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(7, 3))
    dm = pairwise_euclidean(feats)
    assert np.allclose(euclidean_values(dm), oracles.pairwise_ref(feats), atol=1e-10)


@pytest.mark.parametrize("shape", [(128, 32), (ROW_BLOCK + 9, 5), (3, 1)])
def test_cdist_is_the_unblocked_formula_bitwise(shape):
    rng = np.random.default_rng(0)
    a = rng.normal(size=shape)
    for b in (rng.normal(size=(shape[0] + 4, shape[1])), a,
              rng.integers(0, 3, size=shape).astype(np.float64)):
        aa = np.sum(a * a, axis=1)[:, None]
        bb = np.sum(b * b, axis=1)[None, :]
        expected = np.sqrt(np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0))
        assert np.array_equal(cdist(a, b), expected)


def test_pairwise_euclidean_errors():
    with pytest.raises(ValueError, match="non-empty"):
        pairwise_euclidean(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="finite"):
        pairwise_euclidean(np.array([[np.inf, 0.0]]))


def stream_features(case):
    """Feature rows spanning several row blocks, the last one partial: distinct
    lattice points, copies of a few rows (off-diagonal zeros), copies of 40
    rows over four blocks, or copies of 40 normal draws, whose (p, p)
    products need not finish to exactly zero."""
    rng = np.random.default_rng(0)
    if case == "lattice":
        grid = np.stack(np.meshgrid(np.arange(16), np.arange(16)), axis=-1).reshape(-1, 2)
        return grid[rng.permutation(len(grid))[:2 * ROW_BLOCK + 45]]
    if case == "duplicates":
        return rng.integers(-2, 3, size=(5, 3))[rng.integers(0, 5, size=2 * ROW_BLOCK + 45)]
    base = rng.normal(size=(40, 4)) if case == "normal" else rng.integers(-2, 3, size=(40, 4))
    return base[rng.integers(0, 40, size=3 * ROW_BLOCK + 20)]


@pytest.mark.parametrize("case", ["lattice", "duplicates", "blocks", "normal"])
def test_stream_entries_are_its_blocks_bitwise(case):
    euclid = pairwise_euclidean(stream_features(case))
    values = euclidean_values(euclid)
    n = euclid.n
    assert values.shape == (n, n) and n > 2 * ROW_BLOCK
    # every entry, (p, p) among them, rows in increasing order
    rows, members = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    assert np.array_equal(euclid.at(rows, members), values.reshape(-1))
    # a few members per row, unsorted, repeated and including the row itself
    rng = np.random.default_rng(1)
    rows = np.sort(rng.integers(0, n, size=3 * n))
    members = np.where(rng.random(rows.size) < 0.2, rows, rng.integers(0, n, size=rows.size))
    assert np.any(rows == members)
    assert np.array_equal(euclid.at(rows, members), values[rows, members])
    assert euclid.at(rows[:0], members[:0]).size == 0


@pytest.mark.parametrize("case", ["lattice", "duplicates", "blocks", "normal"])
def test_stream_ranks_as_nearest_on_its_blocks(case):
    euclid = pairwise_euclidean(stream_features(case))
    values = euclidean_values(euclid)
    if case == "lattice":  # distinct points, many equal distances
        assert np.unique(values).size < values.size // 100
    elif case != "normal":  # copies: zeros off the diagonal
        assert np.count_nonzero(values == 0.0) > euclid.n
    for m in (1, 2, 8, euclid.n):
        assert np.array_equal(euclid.ranked(m), nearest(values, m))


# ---------------------------------------------------------------------------
# k-reciprocal neighbor sets
# ---------------------------------------------------------------------------

def test_reciprocal_k1_requires_mutual_nearest():
    sets = reciprocal_sets(line_distances([0.0, 1.0, 2.5]), k=1)
    # 0 and 1 are each other's nearest; 2's nearest (1) does not reciprocate
    assert sets[0].tolist() == [1]
    assert sets[1].tolist() == [0]
    assert sets[2].tolist() == []


def test_expansion_unions_strongly_overlapping_halves():
    # tight triple: everyone reciprocates at k=2, halves are singletons
    sets = reciprocal_sets(line_distances([0.0, 1.0, 2.0]), k=2)
    # for p=0: R={1,2}? 2's 2-nn are {1,0}, includes 0, so R(0,2)={1,2};
    # half sets R(.,1): R(1,1) is empty (1's nearest is 0, 0's nearest is 1:
    # mutual), so expansion adds {0} via q=1 when 0 in base... spelled out
    # below by comparing against the independent literal implementation.
    ref = oracles.expanded_ref(euclidean_values(line_distances([0.0, 1.0, 2.0])), 2)
    assert [s.tolist() for s in sets] == ref


@pytest.mark.parametrize("k,seed", [(k, seed) for k in (1, 3, 7)
                                    for seed in [*range(8), "lattice", "duplicates"]]
                         + [(20, "clustered")])
def test_expanded_sets_match_reference(seed, k):
    dm = oracle_distances(seed)
    got = [s.tolist() for s in reciprocal_sets(dm, k)]
    assert got == oracles.expanded_ref(euclidean_values(dm), k)


def tie_heavy_values(case):
    """Matrices whose rows hold many exactly equal entries; square but for
    "wide" and "tall"."""
    rng = np.random.default_rng(0)
    if case == "lattice":
        return euclidean_values(pairwise_euclidean(rng.integers(0, 3, size=(40, 2))))
    if case == "duplicates":
        base = rng.integers(-1, 2, size=(6, 2))
        return euclidean_values(pairwise_euclidean(base[rng.integers(0, 6, size=36)]))
    if case == "all-equal":
        return np.full((20, 20), 0.5)
    if case == "blocks":  # several row blocks, the last one partial
        return euclidean_values(pairwise_euclidean(rng.integers(0, 4,
                                                                 size=(ROW_BLOCK + 45, 2))))
    if case == "wide":  # a query block against a larger gallery, as evaluate passes
        return cdist(rng.integers(0, 3, size=(ROW_BLOCK + 45, 2)),
                     rng.integers(0, 3, size=(3 * ROW_BLOCK + 7, 2)))
    if case == "tall":  # more rows than columns
        return cdist(rng.integers(0, 3, size=(2 * ROW_BLOCK + 1, 2)),
                     rng.integers(0, 3, size=(ROW_BLOCK // 2, 2)))
    return rng.integers(0, 3, size=(30, 30)).astype(np.float64)  # "integers", asymmetric


@pytest.mark.parametrize("case", ["lattice", "duplicates", "all-equal", "blocks", "integers",
                                  "wide", "tall"])
def test_nearest_is_the_stable_argsort_prefix(case):
    values = tie_heavy_values(case)
    n = values.shape[1]
    k = 7
    ranking = np.argsort(values, axis=1, kind="stable")
    for m in (1, 2, k + 1, n):
        assert np.array_equal(nearest(values, m), ranking[:, :m])


@pytest.mark.parametrize("k", [1, 2, 7, "n-1"])
@pytest.mark.parametrize("case", ["lattice", "duplicates", "all-equal", "blocks", "integers"])
def test_k_reciprocal_neighbors_match_reference_on_ties(case, k):
    # every case spans several row blocks of the membership table, "blocks"
    # more than one ROW_BLOCK; "integers" is asymmetric, its diagonal nonzero
    values = tie_heavy_values(case)
    k = values.shape[0] - 1 if k == "n-1" else k
    got = [s.tolist() for s in k_reciprocal_neighbors(nearest(values, k + 1))]
    assert got == oracles.expanded_ref(values, k)


def test_nearest_ranks_nan_last():
    values = np.array([[np.nan, 1.0, np.nan, 0.0, 1.0, 1.0],
                       [np.nan, np.nan, np.nan, 2.0, 2.0, np.nan],
                       [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                       [np.inf, 1.0, -np.inf, np.nan, 0.0, -np.inf],
                       [np.inf, np.inf, np.nan, np.inf, np.nan, 2.0],
                       [-np.inf, -np.inf, -np.inf, -np.inf, -np.inf, -np.inf],
                       [np.nan, np.inf, 3.0, -np.inf, np.inf, np.nan]])
    values = np.tile(values, (ROW_BLOCK // 4, 1))  # the last row block is partial
    ranking = np.argsort(values, axis=1, kind="stable")
    for m in range(1, values.shape[1] + 1):
        assert np.array_equal(nearest(values, m), ranking[:, :m])


@pytest.mark.parametrize("rows", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                  2 * ROW_BLOCK + 1])
def test_nearest_at_block_boundaries(rows):
    # 50 columns: the flat index of a block splits by its column count, which
    # differs from the block's row count at every size here
    values = np.random.default_rng(rows).integers(0, 4, size=(rows, 50)).astype(np.float64)
    ranking = np.argsort(values, axis=1, kind="stable")
    for m in (1, 3, 49, 50):
        assert np.array_equal(nearest(values, m), ranking[:, :m])


def test_neighbor_k_bounds():
    dm = random_distances(0, n=5)
    with pytest.raises(ValueError, match="k must"):
        jaccard_distance(dm, 0)
    with pytest.raises(ValueError, match="k must"):
        jaccard_distance(dm, 5)


def test_each_distance_matrix_is_ranked_once(monkeypatch):
    calls = []

    def counted(values, m):
        calls.append(m)
        return nearest(values, m)

    monkeypatch.setattr(pseudolabel, "nearest", counted)
    monkeypatch.setattr(retrieval, "nearest", counted)
    q, g = np.random.default_rng(0).normal(size=(2, 10, 4))
    retrieval.rerank(q, g, k1=5, k2=3)
    assert calls == [6]  # k2's expansion reads the first 3 columns
    jaccard_distance(random_distances(0, n=12), 4)
    assert calls == [6, 5]
    ds = clustered_dataset()
    relabel_epoch(ds, identity_encoder(ds.d), k=10, eps=0.6, min_pts=4)
    assert calls == [6, 5, 11]


# ---------------------------------------------------------------------------
# membership and Jaccard
# ---------------------------------------------------------------------------

def test_membership_weights_are_exp_neg_distance():
    dm = line_distances([0.0, 1.0, 2.5])
    sets = [np.array([1]), np.array([0, 2]), np.array([], dtype=np.int64)]
    v = membership_matrix(dm, sets)
    assert v[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert v[1, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert v[1, 2] == pytest.approx(np.exp(-1.5), abs=1e-12)
    assert v[0, 0] == 0.0 and np.all(v[2] == 0.0)


def test_jaccard_identical_rows_have_zero_distance():
    v = np.array([[0.0, 0.7, 0.3],
                  [0.0, 0.7, 0.3],
                  [0.9, 0.0, 0.0]])
    d = jaccard_from_membership(v)
    assert d[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert d[0, 2] == pytest.approx(1.0, abs=1e-12)  # disjoint supports
    assert np.allclose(d, d.T, atol=0.0)
    assert np.all(np.diag(d) == 0.0)
    assert d.min() >= 0.0 and d.max() <= 1.0


def test_jaccard_rejects_all_empty_membership():
    with pytest.raises(DegenerateStructureError):
        jaccard_from_membership(np.zeros((3, 3)))


@pytest.mark.parametrize("seed", range(6))
def test_jaccard_distance_matches_reference(seed):
    dm = random_distances(seed, n=10)
    got = jaccard_distance(dm, k=3)
    ref = oracles.jaccard_distance_ref(euclidean_values(dm), 3)
    assert np.allclose(got.values, ref, atol=1e-10)


def test_jaccard_exactly_symmetric_across_blocks():
    n = 300  # several row blocks of the Jaccard kernel
    rng = np.random.default_rng(0)
    v = rng.random((n, n)) * (rng.random((n, n)) < 0.05)
    v[:3] = 0.0  # rows with empty support
    d = jaccard_from_membership(v)
    assert np.allclose(d, oracles.jaccard_ref(v), atol=1e-12)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0) and d.min() >= 0.0 and d.max() <= 1.0


@pytest.mark.parametrize("seed,k", [(seed, k) for seed in [*range(4), "lattice", "duplicates"]
                                    for k in (1, 3, 7)] + [("clustered", 20)])
def test_jaccard_equals_the_dense_row_loop_bitwise(seed, k):
    dm = oracle_distances(seed)
    v = membership_matrix(dm, reciprocal_sets(dm, k))
    loop = oracles.jaccard_loop_ref(v)
    assert np.array_equal(jaccard_distance(dm, k).values, loop)
    assert np.array_equal(jaccard_from_membership(v), loop)
    assert np.allclose(loop, oracles.jaccard_ref(v), atol=1e-12)


def test_jaccard_from_entries_across_row_blocks_with_empty_rows():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(ROW_BLOCK + 60, 3))
    x[5] = 50.0  # an isolated row: no reciprocal neighbor, empty membership
    dm = pairwise_euclidean(x)
    sets = reciprocal_sets(dm, 5)
    assert sets[5].size == 0
    v = membership_matrix(dm, sets)
    got = jaccard_distance(dm, 5).values
    assert np.array_equal(got, oracles.jaccard_loop_ref(v))
    assert np.all(got[5, np.arange(dm.n) != 5] == 1.0)


@pytest.mark.parametrize("seed,k,k2", [(seed, k, k2) for seed in (0, "lattice", "duplicates")
                                       for k, k2 in ((3, 2), (5, 5), (7, 3))]
                         + [("duplicates", 3, 13), ("clustered", 20, 6), ("blocks", 20, 6)])
def test_jaccard_rows_expansion_equals_dense_average_bitwise(seed, k, k2):
    dm = oracle_distances(seed)
    sets = reciprocal_sets(dm, k)
    v = membership_matrix(dm, sets)
    local = np.argsort(euclidean_values(dm), axis=1, kind="stable")[:, :k2]
    expanded = v[local[:, 0]]
    for rank in range(1, k2):
        expanded += v[local[:, rank]]
    expanded /= k2
    got = jaccard_rows(membership_entries(dm, sets), dm.n, dm.ranked(k2))
    assert np.array_equal(got, oracles.jaccard_loop_ref(expanded))


def random_sets(rng, n, density, empty=()):
    """Sorted random member sets per row; the rows in ``empty`` hold none."""
    sets = [np.flatnonzero(rng.random(n) < density) for _ in range(n)]
    for p in empty:
        sets[p] = sets[p][:0]
    return sets


def test_jaccard_query_rows_are_the_full_matrix_first_rows():
    rng = np.random.default_rng(2)
    n = ROW_BLOCK + 30
    dm = random_distances(2, n)
    # empty memberships among the query rows and after them
    entries = membership_entries(dm, random_sets(rng, n, 0.04, empty=(0, 7, n - 1)))
    # no expansion, then k2 = 3, which fills the empty rows from their neighbors
    for near in (None, dm.ranked(3)):
        full = jaccard_rows(entries, n, near)
        for rows in (1, 8, ROW_BLOCK, ROW_BLOCK + 1, n):
            part = jaccard_rows(entries, n, near, num_rows=rows)
            assert part.shape == (rows, n)
            assert np.array_equal(part, full[:rows])


@pytest.mark.parametrize("k2", [None, 1, 6])
def test_jaccard_gallery_columns_are_the_full_rows_last_columns_bitwise(k2):
    dm = oracle_distances("blocks")  # four row blocks, the last one ragged
    n, n_q = dm.n, 2 * ROW_BLOCK + 30  # the query rows end inside the third block
    entries = membership_entries(dm, reciprocal_sets(dm, 20))
    near = None if k2 is None else dm.ranked(k2)
    full = jaccard_rows(entries, n, near, num_rows=n_q)
    for first_col in (0, 1, n_q, n - 1):
        part = jaccard_rows(entries, n, near, num_rows=n_q, first_col=first_col)
        assert part.shape == (n_q, n - first_col)
        assert np.array_equal(part, full[:, first_col:])


def test_jaccard_gallery_columns_with_zero_weights_equal_the_dense_form():
    rng = np.random.default_rng(6)
    n, n_q = 3 * ROW_BLOCK + 17, 2 * ROW_BLOCK + 30
    dm = random_distances(6, n)
    rows, members, weights = membership_entries(dm, random_sets(rng, n, 0.05))
    weights[rng.random(weights.size) < 0.2] = 0.0  # as exp(-d) gives where it underflows
    v = np.zeros((n, n))
    v[rows, members] = weights
    dense = jaccard_from_membership(v)  # reads only the nonzero entries
    for first_col in (0, 1, n_q, n - 1):
        assert np.array_equal(jaccard_rows((rows, members, weights), n, num_rows=n_q,
                                           first_col=first_col), dense[:n_q, first_col:])


def test_jaccard_term_budget_splits_blocks_without_changing_bits(monkeypatch):
    rng = np.random.default_rng(4)
    n = 90
    dm = random_distances(4, n)
    sets = random_sets(rng, n, 0.3, empty=(3,))
    for p in range(n):
        if p != 3:  # a member every other row holds
            sets[p] = np.union1d(sets[p], [7])
    v = membership_matrix(dm, sets)
    full = jaccard_from_membership(v)
    # rows whose terms alone exceed the budget, and blocks of several rows
    for budget in (50, 3000):
        monkeypatch.setattr(pseudolabel, "JACCARD_TERMS", budget)
        assert np.array_equal(jaccard_from_membership(v), full)
        assert np.array_equal(jaccard_rows(membership_entries(dm, sets), n, num_rows=11),
                              full[:11])
    assert np.array_equal(full, oracles.jaccard_loop_ref(v))


def test_jaccard_distance_holds_no_dense_membership():
    rng = np.random.default_rng(3)
    n = 1000
    x = np.repeat(rng.normal(size=(50, 32)), 20, axis=0) + 0.5 * rng.normal(size=(n, 32))
    dm = pairwise_euclidean(l2_normalize_rows(x))
    result_bytes = n * n * 8
    tracemalloc.start()
    try:
        jaccard_distance(dm, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result plus O(block x n) temporaries: no (n, n) membership or ranking
    # (a dense membership beside the result peaks at 2.2x)
    assert peak < 2.0 * result_bytes, f"peak {peak / 1e6:.1f} MB"


def test_jaccard_distant_pairs_are_fully_disjoint():
    dm = line_distances([0.0, 0.1, 100.0, 100.1])
    jac = jaccard_distance(dm, k=1)
    assert jac.values[0, 2] == pytest.approx(1.0, abs=1e-12)
    assert jac.values[1, 3] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# density clustering
# ---------------------------------------------------------------------------

def test_dbscan_all_isolated():
    out = dbscan(line_matrix([0.0, 10.0, 20.0]), eps=1.0, min_pts=2)
    assert out.num_clusters == 0
    assert np.all(out.assignment == PSEUDO_OUTLIER)
    assert out.num_outliers == 3


def test_dbscan_identical_points_single_cluster():
    out = dbscan(line_matrix([5.0] * 6), eps=0.5, min_pts=4)
    assert out.num_clusters == 1
    assert np.all(out.assignment == 0)


def test_dbscan_cluster_ids_follow_scan_order():
    out = dbscan(line_matrix([10.0, 10.1, 0.0, 0.1]), eps=0.5, min_pts=2)
    # the cluster containing row 0 gets id 0 even though it sits "later" on
    # the line; ids are assigned by first core encountered
    assert out.assignment.tolist() == [0, 0, 1, 1]


def test_dbscan_border_joins_lowest_index_core():
    a = [0.0, 0.1, 0.2, 0.3]
    b = [9.8, 9.9, 10.0, 10.1]
    border = [5.05]
    positions = a + border + b
    out = dbscan(line_matrix(positions), eps=4.8, min_pts=4)
    # the border point reaches cores 0.3 (index 3) and 9.8 (index 5); the
    # lowest index wins, putting it with the left cluster
    assert out.num_clusters == 2
    assert out.assignment[4] == out.assignment[3]

    flipped = dbscan(line_matrix(positions[::-1]), eps=4.8, min_pts=4)
    # reversing the scan order flips which core has the lowest index
    assert flipped.assignment[4] == flipped.assignment[3]
    assert positions[::-1][3] == 9.8


@pytest.mark.parametrize("seed", range(10))
def test_dbscan_matches_reference_exactly(seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=6.0, size=(3, 2))
    pts = np.concatenate([c + rng.normal(scale=0.4, size=(6, 2)) for c in centers])
    dm = euclidean_matrix(pts)
    out = dbscan(dm, eps=1.2, min_pts=3)
    ref_labels, ref_count = oracles.dbscan_ref(dm.values, 1.2, 3)
    assert out.num_clusters == ref_count
    assert np.array_equal(out.assignment, ref_labels)


def test_dbscan_permutation_invariant_up_to_relabeling():
    rng = np.random.default_rng(42)
    pts = np.concatenate([rng.normal(loc=0.0, scale=0.3, size=(5, 2)),
                          rng.normal(loc=8.0, scale=0.3, size=(5, 2))])
    dm = euclidean_matrix(pts)
    base = dbscan(dm, eps=1.5, min_pts=3)
    perm = rng.permutation(10)
    shuffled = DistanceMatrix(dm.values[np.ix_(perm, perm)])
    permuted = dbscan(shuffled, eps=1.5, min_pts=3)
    assert oracles.same_partition(base.assignment[perm], permuted.assignment)


def assert_dbscan_is_reference(dm, eps, min_pts):
    out = dbscan(dm, eps=eps, min_pts=min_pts)
    ref_labels, ref_count = oracles.dbscan_ref(dm.values, eps, min_pts)
    assert out.num_clusters == ref_count
    assert np.array_equal(out.assignment, ref_labels)
    return out


def shuffled_line(positions, seed=0):
    """``line_matrix`` of the positions in a seeded random row order."""
    positions = np.asarray(positions, dtype=np.float64)
    return line_matrix(positions[np.random.default_rng(seed).permutation(positions.size)])


@pytest.mark.parametrize("seed", range(3))
def test_dbscan_matches_reference_across_row_blocks(seed):
    # 40 blobs of 2 to 12 rows, shuffled: clusters, borders and outliers in
    # every row block, and core neighbors in other blocks
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 13, size=40)
    centres = rng.normal(scale=5.0, size=(40, 3))
    pts = np.repeat(centres, sizes, axis=0) + 0.6 * rng.normal(size=(sizes.sum(), 3))
    dm = euclidean_matrix(pts[rng.permutation(len(pts))])
    assert dm.n > 2 * ROW_BLOCK
    out = assert_dbscan_is_reference(dm, eps=1.0, min_pts=4)
    assert out.num_clusters > 10 and 0 < out.num_outliers < dm.n


def test_dbscan_matches_reference_on_a_shuffled_chain():
    # 2,000 rows at unit spacing in random order: one component whose links
    # join rows far apart in index, so hooking takes many rounds; the two
    # ends are border rows
    dm = shuffled_line(np.arange(2000), seed=1)
    out = assert_dbscan_is_reference(dm, eps=1.0, min_pts=3)
    assert out.num_clusters == 1 and out.num_outliers == 0


def test_dbscan_border_between_two_clusters_matches_reference():
    # 20 tight clusters of 12 rows, 10 apart; a border row midway between
    # each neighboring pair reaches a few cores of both
    clusters = [10.0 * c + 0.05 * np.arange(12) for c in range(20)]
    borders = 10.0 * np.arange(19) + 5.3
    dm = shuffled_line(np.concatenate(clusters + [borders]), seed=2)
    eps, min_pts = 4.8, 10
    out = assert_dbscan_is_reference(dm, eps, min_pts)
    assert out.num_clusters == 20
    within = dm.values <= eps
    core = within.sum(axis=1) >= min_pts
    border_rows = np.flatnonzero(~core)
    assert border_rows.size == 19
    for i in border_rows:
        reached = out.assignment[np.flatnonzero(within[i] & core)]
        assert np.unique(reached).size == 2  # two clusters in reach
        assert out.assignment[i] == reached[0]  # the lowest-index core's


def test_dbscan_distances_equal_to_eps_are_within():
    # integer lattice with holes: neighbor distances are exactly 1.0
    rng = np.random.default_rng(4)
    grid = np.stack(np.meshgrid(np.arange(16), np.arange(16)), axis=-1).reshape(-1, 2)
    dm = euclidean_matrix(grid[rng.permutation(len(grid))[:200]])
    assert np.count_nonzero(dm.values == 1.0) > dm.n
    for min_pts in (2, 4, 5):
        assert_dbscan_is_reference(dm, eps=1.0, min_pts=min_pts)


def test_dbscan_no_core_and_every_row_core():
    dm = DistanceMatrix(euclidean_values(random_distances(5, n=3 * ROW_BLOCK, d=2)))
    none = assert_dbscan_is_reference(dm, eps=0.5, min_pts=dm.n + 1)
    assert none.num_clusters == 0 and none.num_outliers == dm.n
    every = assert_dbscan_is_reference(dm, eps=0.5, min_pts=1)
    assert every.num_outliers == 0
    assert_dbscan_is_reference(dm, eps=10.0, min_pts=dm.n)  # one cluster of all
    # every entry within eps, yet no row core: each row reaches all n rows
    crowded = assert_dbscan_is_reference(dm, eps=dm.values.max(), min_pts=dm.n + 1)
    assert crowded.num_outliers == dm.n


@pytest.mark.parametrize("upper_within", [True, False])
@pytest.mark.parametrize("gap", [0, 2 * ROW_BLOCK])
def test_dbscan_links_core_rows_by_the_upper_triangle(upper_within, gap):
    # two groups of 5 close rows, joined only by D[i, j] (i < j) and D[j, i],
    # which straddle eps by 5e-7; ``gap`` isolated rows between the groups
    # put j in a later row block
    n = 10 + gap
    v = np.full((n, n), 5.0)
    for group in (np.arange(5), np.arange(5 + gap, n)):
        v[np.ix_(group, group)] = 0.1
    np.fill_diagonal(v, 0.0)
    eps, i, j = 1.0, 4, 5 + gap
    v[i, j], v[j, i] = (eps, eps + 5e-7)[::1 if upper_within else -1]
    out = assert_dbscan_is_reference(DistanceMatrix(v), eps, min_pts=5)
    assert out.num_clusters == (1 if upper_within else 2)


@pytest.mark.parametrize("min_pts,want", [(1, [0]), (2, [PSEUDO_OUTLIER])])
def test_dbscan_single_row(min_pts, want):
    out = dbscan(DistanceMatrix(np.zeros((1, 1))), eps=0.5, min_pts=min_pts)
    assert out.assignment.tolist() == want
    assert out.num_clusters == len(set(want) - {PSEUDO_OUTLIER})


def test_dbscan_empty_matrix():
    out = dbscan(DistanceMatrix(np.zeros((0, 0))), eps=0.5, min_pts=2)
    assert out.assignment.size == 0 and out.num_clusters == 0


def test_dbscan_duplicate_rows_match_reference():
    # copies of 30 points: off-diagonal zeros, and ties at every distance
    rng = np.random.default_rng(6)
    base = rng.integers(-4, 5, size=(30, 2))
    dm = euclidean_matrix(base[rng.integers(0, 30, size=3 * ROW_BLOCK + 10)])
    assert np.count_nonzero(dm.values == 0.0) > dm.n
    for eps, min_pts in ((0.5, 4), (1.0, 8), (1.5, 30)):
        assert_dbscan_is_reference(dm, eps, min_pts)


def test_dbscan_holds_no_dense_boolean():
    rng = np.random.default_rng(7)
    n = 2000
    pts = np.repeat(rng.normal(scale=4.0, size=(100, 4)), 20, axis=0)
    dm = euclidean_matrix(pts + 0.3 * rng.normal(size=(n, 4)))
    tracemalloc.start()
    try:
        out = dbscan(dm, eps=1.0, min_pts=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.num_clusters > 50
    # an n x n boolean alone is n^2 bytes; row-block temporaries stay far below
    assert peak < n * n, f"peak {peak / 1e6:.2f} MB"


def test_dbscan_memory_does_not_grow_with_min_pts():
    # all n^2 entries within eps and min_pts above n: no row is core, so
    # every row is a non-core row with n neighbors; keeping their edges
    # would hold 16 bytes per entry
    n = 2000
    dm = DistanceMatrix(euclidean_values(random_distances(8, n=n)))
    eps, min_pts = dm.values.max(), n + 1
    tracemalloc.start()
    try:
        out = dbscan(dm, eps=eps, min_pts=min_pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n, f"peak {peak / 1e6:.2f} MB"
    ref_labels, ref_count = oracles.dbscan_ref(dm.values, eps, min_pts)
    assert out.num_clusters == ref_count == 0
    assert np.array_equal(out.assignment, ref_labels)


def test_pseudolabeling_counts_outliers():
    lab = PseudoLabeling(np.array([0, PSEUDO_OUTLIER, 0], dtype=np.int32), 1)
    assert lab.num_outliers == 1


# ---------------------------------------------------------------------------
# per-epoch relabeling
# ---------------------------------------------------------------------------

def identity_encoder(d):
    """Encoder that passes standardized inputs straight through."""
    params = init_params(d, d, 1, seed=0)
    params.weight = np.eye(d)
    params.bias = np.zeros(d)
    return params


def clustered_dataset(seed=0, ids=4, per_id=8, d=8, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=10.0, size=(ids, d))
    feats = np.repeat(centers, per_id, axis=0) + rng.normal(scale=spread,
                                                            size=(ids * per_id, d))
    n = ids * per_id
    return Dataset(
        features=feats.astype(np.float32),
        identities=np.repeat(np.arange(ids, dtype=np.int32), per_id),
        cameras=np.zeros(n, dtype=np.int32),
        domains=np.ones(n, dtype=np.uint8),
        pseudo=np.full(n, PSEUDO_OUTLIER, dtype=np.int32),
    )


def test_relabel_recovers_separated_identities():
    ds = clustered_dataset()
    params = identity_encoder(ds.d)
    labeling = relabel_epoch(ds, params, k=10, eps=0.6, min_pts=4)
    assert labeling.num_clusters == 4
    assert labeling.num_outliers == 0
    # assignment was written back into the dataset
    assert np.array_equal(ds.pseudo, labeling.assignment)
    # purity: every cluster maps to exactly one ground-truth identity
    for cid in range(labeling.num_clusters):
        ids = np.unique(ds.identities[labeling.assignment == cid])
        assert ids.size == 1
    assert oracles.same_partition(labeling.assignment, ds.identities)


def test_relabel_collapsed_encoder_single_cluster():
    ds = clustered_dataset()
    params = identity_encoder(ds.d)
    params.weight = np.zeros((ds.d, ds.d))
    params.bias = np.ones(ds.d)  # every row encodes to the same vector
    k = 10
    labeling = relabel_epoch(ds, params, k=k, eps=0.6, min_pts=4)
    # all-zero distances rank by index, so only rows 0..k reciprocate each
    # other; they form the single cluster and the rest degrade to outliers
    assert labeling.num_clusters == 1
    assert np.all(labeling.assignment[:k + 1] == 0)
    assert np.all(labeling.assignment[k + 1:] == PSEUDO_OUTLIER)


def test_relabel_is_deterministic():
    a = clustered_dataset(seed=5)
    b = clustered_dataset(seed=5)
    params = identity_encoder(a.d)
    la = relabel_epoch(a, params, k=10, eps=0.6, min_pts=4)
    lb = relabel_epoch(b, params, k=10, eps=0.6, min_pts=4)
    assert np.array_equal(la.assignment, lb.assignment)
    assert la.num_clusters == lb.num_clusters


def test_relabel_errors():
    ds = clustered_dataset()
    params = identity_encoder(ds.d)
    empty = ds.subset(np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        relabel_epoch(empty, params, k=10, eps=0.6, min_pts=4)


def composed_relabel(ds, params, k, eps, min_pts):
    """The relabel composed from its traced entry points,
    ``dbscan(jaccard_distance(pairwise_euclidean(feats), k))``, as
    ``bench/test_bench.py`` checks it."""
    feats = l2_normalize_rows(encode_dataset(params, ds), "encoded feature")
    jac = jaccard_distance(pairwise_euclidean(feats), k)
    return jac, dbscan(jac, eps, min_pts)


@pytest.mark.parametrize("seed,spread,k,eps,min_pts,collapsed", [
    (0, 0.05, 10, 0.6, 4, False),
    (1, 4.0, 6, 0.5, 3, False),   # overlapping identities: outliers and borders
    (2, 8.0, 10, 0.7, 2, False),
    (3, 0.05, 10, 0.6, 4, True),  # every row encodes alike: all distances tie
])
def test_relabel_epoch_equals_composed_jaccard_distance_bitwise(monkeypatch, seed, spread, k,
                                                                eps, min_pts, collapsed):
    ds = clustered_dataset(seed=seed, ids=6, per_id=10, spread=spread)
    params = identity_encoder(ds.d)
    if collapsed:
        params.weight = np.zeros((ds.d, ds.d))
        params.bias = np.ones(ds.d)
    jac, want = composed_relabel(ds, params, k, eps, min_pts)
    seen = []
    clustering = pseudolabel.dbscan

    def keep_input(dist, *args):
        seen.append(dist)
        return clustering(dist, *args)

    monkeypatch.setattr(pseudolabel, "dbscan", keep_input)
    got = relabel_epoch(ds, params, k=k, eps=eps, min_pts=min_pts)
    assert len(seen) == 1
    assert np.array_equal(seen[0].values, jac.values)
    assert np.array_equal(got.assignment, want.assignment)
    assert got.num_clusters == want.num_clusters
    assert np.array_equal(ds.pseudo, want.assignment)


def invariant_dataset(case):
    """657 rows (ten row blocks and a partial eleventh) whose Jaccard kernel
    runs in several term blocks: clustered, duplicated or lattice features."""
    rng = np.random.default_rng(9)
    n = 10 * ROW_BLOCK + 17
    if case == "clustered":
        return clustered_dataset(seed=9, ids=44, per_id=15, spread=4.0).subset(np.arange(n))
    if case == "duplicates":  # 40 distinct rows, each repeated about 16 times
        feats = rng.integers(1, 4, size=(40, 3))[rng.integers(0, 40, size=n)]
    else:  # n distinct points of the 9^3 lattice: many exactly tied distances
        grid = np.stack(np.meshgrid(*[np.arange(1, 10)] * 3), axis=-1).reshape(-1, 3)
        feats = grid[rng.permutation(len(grid))[:n]]
    ds = clustered_dataset(ids=1, per_id=n, d=3)
    ds.features[:] = feats
    return ds


@pytest.mark.parametrize("case", ["clustered", "duplicates", "lattice"])
def test_matrices_dbscan_trusts_hold_its_precondition_where_built(monkeypatch, case):
    # dbscan checks nothing: the Jaccard matrix relabel_epoch hands it
    # (bitwise jaccard_distance's) is square with an exactly zero diagonal,
    # exactly symmetric and within [0, 1]; the Euclidean stream it is built
    # from is square and finite with an exactly zero diagonal too
    ds = invariant_dataset(case)
    params = identity_encoder(ds.d)
    k = 30
    seen = []
    clustering = pseudolabel.dbscan

    def keep_input(dist, *args):
        seen.append(dist.values)
        return clustering(dist, *args)

    monkeypatch.setattr(pseudolabel, "dbscan", keep_input)
    relabel_epoch(ds, params, k=k, eps=0.6, min_pts=4)
    euclid = pairwise_euclidean(l2_normalize_rows(encode_dataset(params, ds)))
    _, members, _ = membership_entries(euclid, reciprocal_sets(euclid, k))
    terms = np.bincount(members, minlength=ds.n)[members]  # a row's member meets its holders
    assert terms.sum() > 5 * pseudolabel.JACCARD_TERMS
    e = euclidean_values(euclid)
    assert e.shape == (ds.n, ds.n) and np.all(np.diag(e) == 0.0) and np.all(np.isfinite(e))
    if case != "clustered":
        assert np.unique(e).size < e.size // 4  # ties beyond the mirrored pairs
    d = seen[0]
    assert np.array_equal(d, jaccard_distance(euclid, k).values)
    assert d.shape == (ds.n, ds.n)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all((d >= 0.0) & (d <= 1.0))


def test_relabel_epoch_holds_one_dense_matrix():
    n, d = 1000, 32
    ds = clustered_dataset(seed=3, ids=50, per_id=20, d=d, spread=5.0)
    params = identity_encoder(d)
    matrix_bytes = n * n * 8
    tracemalloc.start()
    try:
        relabel_epoch(ds, params, k=20, eps=0.6, min_pts=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the Jaccard matrix and the kernels' row-block and entry temporaries
    # peak at 1.48x (numpy 2.4), inside the Jaccard kernel; the Euclidean
    # matrix kept alive beside the Jaccard one would peak at 2.5x
    assert peak < 1.75 * matrix_bytes, f"peak {peak / 1e6:.1f} MB"
