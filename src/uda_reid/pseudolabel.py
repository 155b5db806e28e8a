"""Per-epoch pseudo-label generation.

Pipeline: encode the target split, take pairwise Euclidean distances, expand
k-reciprocal neighbor sets into fuzzy memberships, convert to Jaccard
distances, and cluster with density-based scanning.  Outliers keep the
OUTLIER sentinel and are skipped by batch sampling downstream.

Each distance matrix is ranked once, by the function that owns it, into a
tie-exact rank table (``nearest``: ties break by the lower index) that both
``k_reciprocal_neighbors`` and ``jaccard_rows``' local expansion read.
``jaccard_rows`` serves relabeling and re-ranking alike: it keeps the
memberships as sparse (row, member, weight) entries, read through an
inverted index, and its sums add the same terms in the same order as the
dense forms ``membership_matrix`` and ``jaccard_from_membership`` would.

The Euclidean matrix lives only until its rank table and the membership
entries exist: ``jaccard_rows`` reads the entries alone, so the function
that owns the matrix (``relabel_epoch`` here, ``rerank`` in retrieval)
releases it before the Jaccard output is allocated, and each O(n^2) path
holds at most one n x n float64 array at a time.
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from .datamodel import PSEUDO_OUTLIER, Dataset
from .encoder import EncoderParams, encode_dataset
from .errors import DegenerateStructureError
from .numerics import ROW_BLOCK, cdist, l2_normalize_rows

SYMMETRY_TOL = 1e-6
SYMMETRY_BLOCK = 256  # side of the square tiles of the symmetry check
JACCARD_TERMS = 1 << 16  # min terms per block of the Jaccard kernel


class Metric(enum.Enum):
    EUCLIDEAN = "euclidean"
    JACCARD = "jaccard"


@dataclass
class DistanceMatrix:
    values: np.ndarray
    metric: Metric

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def validate(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"distance matrix must be square, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite distance values")
        if np.any(np.abs(np.diag(v)) > 0):
            raise ValueError("diagonal must be exactly zero")
        # tile (i, j) against tile (j, i) for j >= i: small temporaries, and
        # both tiles are read a row at a time rather than a column at a time
        for i in range(0, v.shape[0], SYMMETRY_BLOCK):
            for j in range(i, v.shape[0], SYMMETRY_BLOCK):
                upper = v[i:i + SYMMETRY_BLOCK, j:j + SYMMETRY_BLOCK]
                lower = v[j:j + SYMMETRY_BLOCK, i:i + SYMMETRY_BLOCK]
                if np.max(np.abs(upper - lower.T)) > SYMMETRY_TOL:
                    raise ValueError(f"asymmetry beyond {SYMMETRY_TOL}")
        if self.metric is Metric.JACCARD and (v.min() < -1e-9 or v.max() > 1 + 1e-9):
            raise ValueError("jaccard distances must lie in [0, 1]")


@dataclass
class PseudoLabeling:
    """Cluster assignment per sample; OUTLIER rows carry the sentinel."""
    assignment: np.ndarray  # int32, cluster id in [0, num_clusters) or PSEUDO_OUTLIER
    num_clusters: int

    @property
    def num_outliers(self) -> int:
        return int(np.sum(self.assignment == PSEUDO_OUTLIER))

    def validate(self) -> None:
        ids = self.assignment[self.assignment != PSEUDO_OUTLIER]
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_clusters):
            raise ValueError("cluster ids must be dense in [0, num_clusters)")
        if ids.size:
            present = np.unique(ids)
            if present.size != self.num_clusters:
                raise ValueError("every cluster id must have at least one member")
        elif self.num_clusters != 0:
            raise ValueError("no members but num_clusters > 0")


def pairwise_euclidean(feats) -> DistanceMatrix:
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("need a non-empty (n, d) feature matrix")
    if not np.all(np.isfinite(feats)):
        raise ValueError("non-finite feature values")
    values = cdist(feats, feats)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values=values, metric=Metric.EUCLIDEAN)


# ---------------------------------------------------------------------------
# k-reciprocal neighbor expansion
# ---------------------------------------------------------------------------

def nearest(values: np.ndarray, m: int) -> np.ndarray:
    """Column indices of each row's m smallest entries, in the order a
    stable sort of the whole row gives them: by value, ties broken by the
    lower index, NaN last.

    Per block of rows, a partition finds each row's m-th smallest value;
    every entry not above it is kept, and only those are sorted by (row,
    value, index).
    """
    out = np.empty((values.shape[0], m), dtype=np.intp)
    for start in range(0, values.shape[0], ROW_BLOCK):
        block = values[start:start + ROW_BLOCK]
        kth = np.partition(block, m - 1, axis=1)[:, m - 1:m]
        rows, cols = np.nonzero(~(block > kth))  # at least m per row, by (row, index)
        ranked = cols[np.lexsort((block[rows, cols], rows))]
        counts = np.bincount(rows, minlength=block.shape[0])
        first = np.cumsum(counts) - counts
        out[start:start + ROW_BLOCK] = ranked[first[:, None] + np.arange(m)]
    return out


def _reciprocal(knn: np.ndarray) -> np.ndarray:
    """R(p, k) from the (n, k) table of k nearest neighbors: knn[p, j] where
    p is among that neighbor's own k nearest, else -1."""
    rows = np.arange(knn.shape[0])[:, None]
    mutual = np.column_stack([(knn[c] == rows).any(axis=1) for c in knn.T])
    return np.where(mutual, knn, -1)


def k_reciprocal_neighbors(top: np.ndarray) -> list[np.ndarray]:
    """Expanded reciprocal neighbor sets R*(p, k), sorted indices per row,
    from the rank table ``top = nearest(values, k + 1)`` of an n x n matrix.

    R(p,k) keeps the k nearest neighbors of p that also list p among their
    own k nearest; R*(p,k) unions in R(q, ceil(k/2)) for every q in R(p,k)
    whose half-set overlaps R(p,k) in at least two thirds of its members.
    """
    n, k = top.shape[0], top.shape[1] - 1
    # k nearest without the row itself: drop it from the first k+1 ranks, or
    # drop rank k+1 when ties at distance zero rank the row lower
    keep = top != np.arange(n)[:, None]
    keep[keep.all(axis=1), k] = False
    knn = top[keep].reshape(n, k)
    r_k, r_half = _reciprocal(knn), _reciprocal(knn[:, :(k + 1) // 2])
    half_sizes = (r_half >= 0).sum(axis=1)
    rows = np.arange(n)[:, None]
    keys = [(rows * n + r_k)[r_k >= 0]]  # row * n + member: sorts by row, then member
    for q in r_k.T:
        halves = r_half[q]  # rows with q = -1 read row n-1 and are masked
        in_base = np.column_stack([(r_k == g[:, None]).any(axis=1) for g in halves.T])
        shared = in_base & (halves >= 0)
        grow = (q >= 0) & (shared.sum(axis=1) >= (2.0 / 3.0) * half_sizes[q])
        keys.append((rows * n + halves)[grow[:, None] & (halves >= 0) & ~in_base])
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]  # np.unique's result
    return np.split(keys % n, np.cumsum(np.bincount(keys // n, minlength=n))[:-1])


# ---------------------------------------------------------------------------
# Jaccard distance over fuzzy neighborhood memberships
# ---------------------------------------------------------------------------

def membership_entries(dist: DistanceMatrix, neighbor_sets: list[np.ndarray]):
    """(row, member, weight) per member of each R*(p), in row-major order,
    with weight exp(-D[p][g]): all that ``jaccard_rows`` reads of the
    distance matrix."""
    rows = np.repeat(np.arange(len(neighbor_sets)), list(map(len, neighbor_sets)))
    members = np.concatenate(neighbor_sets)
    return rows, members, np.exp(-dist.values[rows, members])


def membership_matrix(dist: DistanceMatrix, neighbor_sets: list[np.ndarray]) -> np.ndarray:
    """Row p holds exp(-D[p][g]) on g in R*(p), zero elsewhere.

    The package itself reads the memberships only as entries; this dense
    form stays because ``bench/spans.py`` names it in ``TRACED``."""
    rows, members, weights = membership_entries(dist, neighbor_sets)
    v = np.zeros((dist.n, dist.n))
    v[rows, members] = weights
    return v


def _row_offsets(rows: np.ndarray, n: int) -> np.ndarray:
    """offsets[p]:offsets[p + 1] spans row p's entries in row-major order."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index ranges [starts[i], starts[i] + counts[i]), concatenated."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _local_expansion(near: np.ndarray, rows, members, weights):
    """Entries, in row-major order, of V averaged over the rows that each row
    of the (n, k2) rank table ``near`` lists.  Row p takes, rank by rank, the
    entries of its neighbor of that rank; ``np.bincount`` sums each (p, g) in
    rank order: bitwise the dense sum, which only adds exact zeros beyond."""
    n, k2 = near.shape
    offsets = _row_offsets(rows, n)
    src = near.T.reshape(-1)  # rank-major: every row's rank 0 first
    counts = offsets[src + 1] - offsets[src]
    pick = _runs(offsets[src], counts)
    keys = np.repeat(np.tile(np.arange(n) * n, k2), counts) + members[pick]
    order = np.argsort(keys, kind="stable")  # merges k2 sorted runs; ties keep rank order
    keys = keys[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    sums = np.bincount(np.cumsum(first) - 1, weights=weights[pick[order]])
    cells = keys[first]
    return cells // n, cells % n, sums / k2


def _dense_row_sums(rows, members, weights, n: int) -> np.ndarray:
    """The row sums of the dense V these entries fill, summed as dense rows:
    numpy sums a row pairwise, so where its zeros sit can move the last bit,
    and a sum over the nonzeros alone could differ from ``v.sum(axis=1)``."""
    offsets = _row_offsets(rows, n)
    sums = np.empty(n)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        span = slice(offsets[lo], offsets[hi])
        block = np.zeros((hi - lo, n))
        block[rows[span] - lo, members[span]] = weights[span]
        sums[lo:hi] = block.sum(axis=1)
    return sums


def _term_blocks(row_terms: np.ndarray):
    """[lo, hi) row ranges of at most ROW_BLOCK rows and, unless one row
    alone exceeds it, JACCARD_TERMS min terms: the term arrays of a block
    stay small even where a few members are held by many rows."""
    ends = np.cumsum(row_terms)
    lo = 0
    while lo < row_terms.size:
        hi = int(np.searchsorted(ends, ends[lo] - row_terms[lo] + JACCARD_TERMS, side="right"))
        hi = min(max(hi, lo + 1), lo + ROW_BLOCK)
        yield lo, hi
        lo = hi


def _jaccard(rows, members, weights, row_sums, num_rows: int) -> np.ndarray:
    """Jaccard distances of rows [0, num_rows) of V to all its n rows, from
    V's entries (row, member, weight) in row-major order and its row sums.

    1 - sum(min)/sum(max) per row pair, with sum(max) taken as the two row
    sums minus sum(min).  A pair that shares no member is exactly 1.  For a
    pair (p, q) that does, each member g that p holds meets every row q that
    holds g, through an inverted index; ``np.bincount`` adds the min terms
    in input order, which is increasing g for every pair, so the sums are
    bitwise those of a dense loop over each row's members in order.
    """
    n = row_sums.size
    if not row_sums.any():
        raise DegenerateStructureError("every expanded neighbor set is empty")
    nonzero = weights != 0
    rows, members, weights = rows[nonzero], members[nonzero], weights[nonzero]
    # inverted index: the rows holding member g, in increasing row order
    by_member = np.lexsort((rows, members))
    holders, held = rows[by_member], weights[by_member]
    holder_offsets = _row_offsets(members, n)
    offsets = _row_offsets(rows, n)
    meets_all = holder_offsets[members + 1] - holder_offsets[members]
    out = np.ones((num_rows, n))
    flat = out.reshape(-1)
    for lo, hi in _term_blocks(np.bincount(rows, weights=meets_all, minlength=n)[:num_rows]):
        span = slice(offsets[lo], offsets[hi])
        g, meets = members[span], meets_all[span]
        pos = _runs(holder_offsets[g], meets)  # per entry, the run of g's holders
        terms = np.minimum(np.repeat(weights[span], meets), held[pos])
        keys = np.repeat(rows[span] - lo, meets) * n + holders[pos]
        inter = np.bincount(keys, weights=terms, minlength=(hi - lo) * n)
        hit = np.zeros(inter.size, dtype=bool)  # a bool block scans faster than inter
        hit[keys] = True
        shared = np.flatnonzero(hit)
        p, q = lo + shared // n, shared % n
        union = row_sums[p] + row_sums[q] - inter[shared]
        with np.errstate(invalid="ignore"):
            d = 1.0 - inter[shared] / union
        d[union <= 0] = 1.0  # a union that is not positive counts as disjoint
        flat[lo * n + shared] = np.clip(d, 0.0, 1.0, out=d)
    np.fill_diagonal(out, 0.0)
    return out


def jaccard_rows(entries, n: int, near: np.ndarray | None = None,
                 num_rows: int | None = None) -> np.ndarray:
    """Jaccard distances of rows [0, num_rows) (every row by default) of the
    n-row membership matrix V whose ``membership_entries`` these are, to all
    its rows.  Given the (n, k2) rank table ``near``, each membership row is
    first averaged over the k2 rows that its row of the table lists (local
    query expansion).  Computed from entries: no dense membership matrix is
    built, and no distance matrix is read."""
    if near is not None and not (near.shape[0] == n and 1 <= near.shape[1] <= n):
        raise ValueError(f"k2 must satisfy 1 <= k2 <= n for an (n, k2) table, "
                         f"got shape {near.shape}, n={n}")
    if near is not None:
        entries = _local_expansion(near, *entries)
    return _jaccard(*entries, _dense_row_sums(*entries, n), n if num_rows is None else num_rows)


def _reciprocal_entries(dist: DistanceMatrix, k: int):
    """``membership_entries`` over the R*(p, k) sets of ``dist``."""
    if not 1 <= k < dist.n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={dist.n}")
    return membership_entries(dist, k_reciprocal_neighbors(nearest(dist.values, k + 1)))


def jaccard_distance(dist: DistanceMatrix, k: int) -> DistanceMatrix:
    """Jaccard distances over the R*(p, k) memberships."""
    return DistanceMatrix(values=jaccard_rows(_reciprocal_entries(dist, k), dist.n),
                          metric=Metric.JACCARD)


def jaccard_from_membership(v: np.ndarray) -> np.ndarray:
    """1 - sum(min)/sum(max) per row pair of a dense membership matrix V.
    The matrix is exactly symmetric: (p, q) and (q, p) add the same terms
    in the same order.

    The package itself passes memberships as entries; this dense entry
    point stays because ``bench/spans.py`` names it in ``TRACED``."""
    rows, members = np.nonzero(v)
    return _jaccard(rows, members, v[rows, members], v.sum(axis=1), v.shape[0])


# ---------------------------------------------------------------------------
# Density clustering on a precomputed matrix
# ---------------------------------------------------------------------------

def dbscan(dist: DistanceMatrix, eps: float, min_pts: int) -> PseudoLabeling:
    """Connected components of core points under <= eps; border points join
    their lowest-index reachable core's cluster; the rest are OUTLIER.
    ``eps``/``min_pts`` are unchecked: ``StageConfig.validate`` owns them."""
    dist.validate()
    values = dist.values
    n = dist.n
    within = values <= eps
    core = within.sum(axis=1) >= min_pts  # diagonal zero counts the point itself

    labels = np.full(n, PSEUDO_OUTLIER, dtype=np.int32)
    cluster = 0
    for start in range(n):
        if not core[start] or labels[start] != PSEUDO_OUTLIER:
            continue
        labels[start] = cluster
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for j in np.flatnonzero(within[node] & core):
                if labels[j] == PSEUDO_OUTLIER:
                    labels[j] = cluster
                    frontier.append(int(j))
        cluster += 1

    for i in range(n):
        if core[i] or labels[i] != PSEUDO_OUTLIER:
            continue
        reachable = np.flatnonzero(within[i] & core)
        if reachable.size:
            labels[i] = labels[reachable[0]]  # lowest-index reachable core
    out = PseudoLabeling(assignment=labels, num_clusters=cluster)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# Full per-epoch relabeling
# ---------------------------------------------------------------------------

def relabel_epoch(target: Dataset, params: EncoderParams, k: int, eps: float,
                  min_pts: int) -> PseudoLabeling:
    """Encode, build Jaccard distances, cluster, and write the assignment
    into the dataset's pseudo column: ``jaccard_distance`` on the Euclidean
    matrix, bit for bit, with the matrix released first.

    Encoded rows are L2-normalized first so that the exp(-d) fuzzy weights
    and the eps threshold operate on a fixed [0, 2] distance range.
    """
    if target.n == 0:
        raise ValueError("target dataset is empty")
    feats = l2_normalize_rows(encode_dataset(params, target), "encoded feature")
    euclid = pairwise_euclidean(feats)
    entries = _reciprocal_entries(euclid, k)
    del euclid  # freed before the Jaccard matrix is allocated
    jaccard = DistanceMatrix(values=jaccard_rows(entries, target.n), metric=Metric.JACCARD)
    labeling = dbscan(jaccard, eps, min_pts)
    target.pseudo[:] = labeling.assignment
    return labeling
