"""Per-epoch pseudo-label generation.

Pipeline: encode the target split, take pairwise Euclidean distances, expand
k-reciprocal neighbor sets into fuzzy memberships, convert to Jaccard
distances, and cluster with density-based scanning.  Outliers keep the
OUTLIER sentinel and are skipped by batch sampling downstream.

The Euclidean matrix is read one way, as the ``EuclideanRows`` stream that
``pairwise_euclidean`` returns: it computes the squared distances from the
features one row block at a time, ranks them block by block into the
tie-exact rank table that ``nearest`` gives of the finished matrix (ties
break by the lower index), which both ``k_reciprocal_neighbors`` and
``jaccard_rows``' local expansion read, and recomputes the blocks once more
for the distances at the R* members, the membership entries that
``jaccard_rows`` reads alone.  The ranking takes roots only of the entries
under a per-row bound, the m-th smallest of the row's column-class minima,
about m per row; ``nearest`` is the same routine with one column per class.
No n x n Euclidean array is built.

``jaccard_rows`` serves relabeling and re-ranking alike: it keeps the
memberships as sparse (row, member, weight) entries, read through an
inverted index, and expands them row block by row block.  Every sum it
takes over the memberships, the row sums and each pair's min terms alike,
adds a row's members in increasing order, one after another; the dense
``jaccard_from_membership`` passes a matrix's nonzeros to it.  It returns
the block of leading rows against the columns from a first one on: relabel
asks for the whole n x n matrix, its only dense array, and ``rerank`` in
retrieval for the (n_q, n_g) query x gallery block, so the block and the
sparse entries are all it holds.

``dbscan`` clusters a ``DistanceMatrix``, the Jaccard matrix that
``jaccard_distance`` builds, without an n x n boolean: it scans the matrix
by row blocks for its eps-edges, links the core-core edges of each block by
array union-find, and scans the non-core rows once more for their lowest
core neighbors; no edge outlives its block.  It checks neither its input
nor its output: the matrix is square with an exactly zero diagonal, and
``jaccard_distance``'s tests hold it to that.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import PSEUDO_OUTLIER, Dataset
from .encoder import EncoderParams, encode_dataset
from .errors import DegenerateStructureError
from .numerics import (ROW_BLOCK, finish_distances, l2_normalize_rows, root_distances,
                       squared_distances)

JACCARD_TERMS = 1 << 16  # min terms per block of the Jaccard kernel
RANK_WIDTH = 16  # columns per class of the stream's rank bound


@dataclass
class DistanceMatrix:
    """A square matrix with an exactly zero diagonal, as ``dbscan`` clusters it."""
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class PseudoLabeling:
    """Cluster assignment per sample; OUTLIER rows carry the sentinel."""
    assignment: np.ndarray  # int32, cluster id in [0, num_clusters) or PSEUDO_OUTLIER
    num_clusters: int

    @property
    def num_outliers(self) -> int:
        return int(np.sum(self.assignment == PSEUDO_OUTLIER))


class EuclideanRows:
    """The n x n Euclidean matrix of feature rows, computed from the features
    one ROW_BLOCK-row block at a time: no n x n array is held.

    ``squared_blocks`` yields each block's squared distances with a zero
    diagonal, which ``root_distances`` finishes to the matrix's block.
    ``at`` recomputes the products of the blocks that hold the entries asked
    for and finishes only those: the same products and the same elementwise
    formula, so bitwise what the finished blocks hold.
    """

    def __init__(self, feats):
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("need a non-empty (n, d) feature matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("non-finite feature values")
        self.feats = feats
        self.sq = np.sum(feats * feats, axis=1)

    @property
    def n(self) -> int:
        return self.feats.shape[0]

    def _products(self, lo: int) -> np.ndarray:
        return self.feats[lo:lo + ROW_BLOCK] @ self.feats.T

    def squared_blocks(self):
        """(lo, squared distances of rows [lo, lo + ROW_BLOCK)) per block, in
        order: ``finish_distances``' s before its max and sqrt, with the
        diagonal set to the zero that the finished matrix holds there.  The
        blocks are written into the same two buffers, so a block holds only
        until the next one is asked for."""
        rows = min(ROW_BLOCK, self.n)
        products, norms = np.empty((rows, self.n)), np.empty((rows, self.n))
        diag = np.arange(rows)
        for lo in range(0, self.n, ROW_BLOCK):
            rows = min(ROW_BLOCK, self.n - lo)
            block = np.matmul(self.feats[lo:lo + rows], self.feats.T, out=products[:rows])
            squared_distances(block, np.add(self.sq[lo:lo + rows, None], self.sq,
                                            out=norms[:rows]))
            block[diag[:rows], lo + diag[:rows]] = 0.0
            yield lo, block

    def ranked(self, m: int) -> np.ndarray:
        """``nearest`` of the matrix, ranked on its squared blocks: a row's
        ranks read its row alone, and only its candidates are finished.

        A row's bound t is the m-th smallest of the minima of its column
        classes, c = min(RANK_WIDTH, n // m) columns each (``_class_bound``).
        The minima are m distinct entries at or below t, and the root is
        monotone, so each of the row's first m entries has a root of at most
        fl(sqrt(t)).  ``_root_bound`` widens t to keep every s whose root
        rounds to at most that, so those entries are all candidates; the
        candidates alone are finished, elementwise as the matrix is, and
        sorted by (root, column).
        """
        width = min(RANK_WIDTH, self.n // m)
        return _ranks(self.squared_blocks(), (self.n, self.n), m, width, squared=True)

    def at(self, rows, members) -> np.ndarray:
        """The entries (rows, members), ``rows`` in increasing order."""
        out = np.empty(rows.size)
        for lo in range(0, self.n, ROW_BLOCK):
            span = slice(*np.searchsorted(rows, [lo, lo + ROW_BLOCK]))
            p, g = rows[span], members[span]
            if p.size:
                out[span] = finish_distances(self._products(lo)[p - lo, g], self.sq[p],
                                             self.sq[g])
        out[rows == members] = 0.0
        return out


def pairwise_euclidean(feats) -> EuclideanRows:
    """The Euclidean matrix of the feature rows, as its row-block stream."""
    return EuclideanRows(feats)


# ---------------------------------------------------------------------------
# k-reciprocal neighbor expansion
# ---------------------------------------------------------------------------

def nearest(values: np.ndarray, m: int) -> np.ndarray:
    """Column indices of each row's m smallest entries, in the order a
    stable sort of the whole row gives them: by value, ties broken by the
    lower index, NaN last.

    ``_ranks`` with one column per class: per block of rows, a partition
    finds each row's m-th smallest value; every entry not above it is kept,
    and only those are sorted by (row, value, index).
    """
    blocks = ((lo, values[lo:lo + ROW_BLOCK]) for lo in range(0, values.shape[0], ROW_BLOCK))
    return _ranks(blocks, values.shape, m)


def _class_bound(keys: np.ndarray, m: int, width: int) -> np.ndarray:
    """Per row of ``keys``, the m-th smallest (NaN last) of the minima of its
    column classes: column j is in class j mod C, C = n // width, and the
    n mod width tail columns form one class more.  The minima are m
    distinct entries of the row, so the bound is not below its m-th
    smallest entry; with width 1 it is that entry.  Needs width <= n // m."""
    rows, n = keys.shape
    classes = n // width
    mins = keys  # one column per class: the minima are the entries
    if width > 1:
        mins = keys[:, :classes * width].reshape(rows, width, classes).min(axis=1)
    if classes * width < n:
        mins = np.concatenate([mins, keys[:, classes * width:].min(axis=1, keepdims=True)],
                              axis=1)
    return np.partition(mins, m - 1, axis=1)[:, m - 1:m]


def _root_bound(bound: np.ndarray) -> np.ndarray:
    """A bound on squared distances widened to keep every s whose root
    rounds to at most the root of the bound.

    For t > 0, D = fl(sqrt(t)) is a normal double, ulp u <= 2^-52 D.  If
    sqrt(s) rounds to at most D, then sqrt(s) <= D + u/2 and sqrt(t) >= D -
    u/2, so s / t <= ((1 + 2^-53) / (1 - 2^-53))^2 < 1 + 2^-50: the relative
    margin 2^-40 covers it, and a rounded product is monotone.  For a
    subnormal t the margin rounds away, and the floor, the smallest normal,
    keeps the whole subnormal range instead.  NaN stays NaN, so such a row
    keeps every entry; t <= 0 maps to 0, as only s <= 0 finish to a zero
    root.
    """
    bound = np.maximum(bound, 0.0)
    positive = bound > 0.0
    with np.errstate(over="ignore"):  # a bound past the largest double keeps every entry
        bound[positive] = bound[positive] * (1.0 + 2.0 ** -40) + np.finfo(np.float64).tiny
    return bound


def _ranks(blocks, shape, m: int, width: int = 1, squared: bool = False) -> np.ndarray:
    """The rank table of a matrix of ``shape`` given as (lo, rows [lo, lo +
    len)) blocks of at most ROW_BLOCK rows: each row's first m columns by
    (value, column), NaN last.

    Per block, the entries not above ``_class_bound`` are the candidates, at
    least m per row, and only they are sorted.  With ``squared`` the blocks
    hold squared distances: the bound is ``_root_bound``'s and the
    candidates are ranked on their ``root_distances``, which are elementwise
    and so bitwise the finished block's.
    """
    out = np.empty((shape[0], m), dtype=np.intp)
    mask = np.empty((min(ROW_BLOCK, shape[0]), shape[1]), dtype=bool)
    for lo, keys in blocks:
        bound = _class_bound(keys, m, width)
        if squared:
            bound = _root_bound(bound)
        above = np.greater(keys, bound, out=mask[:keys.shape[0]])
        # at least m per row, in row-major (row, index) order
        rows, cols = np.divmod(np.flatnonzero(np.logical_not(above, out=above)), shape[1])
        values = keys[rows, cols]
        if squared:
            root_distances(values)
        ranked = cols[np.lexsort((values, rows))]
        counts = np.bincount(rows, minlength=keys.shape[0])
        out[lo:lo + keys.shape[0]] = ranked[(np.cumsum(counts) - counts)[:, None] + np.arange(m)]
    return out


def _reciprocal(knn: np.ndarray) -> np.ndarray:
    """R(p, k) from the (n, k) table of k nearest neighbors: knn[p, j] where
    p is among that neighbor's own k nearest, else -1."""
    rows = np.arange(knn.shape[0])[:, None]
    mutual = np.column_stack([(knn[c] == rows).any(axis=1) for c in knn.T])
    return np.where(mutual, knn, -1)


def k_reciprocal_neighbors(top: np.ndarray) -> list[np.ndarray]:
    """Expanded reciprocal neighbor sets R*(p, k), sorted indices per row, of
    the rank table ``top = nearest(values, k + 1)`` of an n x n matrix.

    R(p,k) keeps the k nearest neighbors of p that also list p among their
    own k nearest; R*(p,k) unions in R(q, ceil(k/2)) for every q in R(p,k)
    whose half-set overlaps R(p,k) in at least two thirds of its members.

    Membership in R(p,k) is looked up, not searched: per block of at most
    ROW_BLOCK rows, the members of each row's R(p,k) mark a (rows, n + 1)
    boolean table, whose column n absorbs the -1 slots, and one gather reads
    it at all k x ceil(k/2) half-set slots of the rows.  Each lookup is the
    same boolean as comparing the slot against every member of R(p,k), so
    every row grows by the members a comparison finds.  They are collected
    block by block; the final sort and dedupe make the sets independent of
    that order, and no array larger than a block's is held for it.
    """
    n, k = top.shape[0], top.shape[1] - 1
    # k nearest without the row itself: drop it from the first k+1 ranks, or
    # drop rank k+1 when ties at distance zero rank the row lower
    keep = top != np.arange(n)[:, None]
    keep[keep.all(axis=1), k] = False
    knn = top[keep].reshape(n, k)
    r_k, r_half = _reciprocal(knn), _reciprocal(knn[:, :(k + 1) // 2])
    half_sizes = np.count_nonzero(r_half >= 0, axis=1)
    rows = np.arange(n)[:, None]
    keys = [(rows * n + r_k)[r_k >= 0]]  # row * n + member
    # about n / k rows per block: the (rows, k, h) temporaries stay near n * h
    block = min(ROW_BLOCK, -(-n // k))
    for lo in range(0, n, block):
        q = r_k[lo:lo + block]
        table = np.arange(q.shape[0])[:, None] * (n + 1)  # row offsets in the flat table
        in_r_k = np.zeros(q.shape[0] * (n + 1), dtype=bool)
        in_r_k[table + np.where(q >= 0, q, n)] = True
        halves = r_half[q]  # (rows, k, h); q = -1 reads row n-1 and is masked
        real = halves >= 0
        in_base = in_r_k[table[:, :, None] + np.where(real, halves, n)]
        shared = (in_base & real).sum(axis=2)
        grow = (q >= 0) & (shared >= (2.0 / 3.0) * half_sizes[q])
        new = grow[:, :, None] & real & ~in_base
        keys.append((rows[lo:lo + block, :, None] * n + halves)[new])
    keys = np.sort(np.concatenate(keys))  # by row, then member
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]  # np.unique's result
    return np.split(keys % n, np.cumsum(np.bincount(keys // n, minlength=n))[:-1])


# ---------------------------------------------------------------------------
# Jaccard distance over fuzzy neighborhood memberships
# ---------------------------------------------------------------------------

def membership_entries(dist: EuclideanRows, neighbor_sets: list[np.ndarray]):
    """(row, member, weight) per member of each R*(p), in row-major order,
    with weight exp(-D[p][g]): all that ``jaccard_rows`` reads of the
    Euclidean matrix."""
    rows = np.repeat(np.arange(len(neighbor_sets)), list(map(len, neighbor_sets)))
    members = np.concatenate(neighbor_sets)
    return rows, members, np.exp(-dist.at(rows, members))


def membership_matrix(dist: EuclideanRows, neighbor_sets: list[np.ndarray]) -> np.ndarray:
    """Row p holds exp(-D[p][g]) on g in R*(p), zero elsewhere: the dense
    form of ``membership_entries``, whose nonzeros ``jaccard_from_membership``
    reads back as entries.

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
    rank order: bitwise the dense sum, which only adds exact zeros beyond.
    Rows are expanded ROW_BLOCK at a time, so the gathered terms of a block
    are the only ones held."""
    n, k2 = near.shape
    offsets = _row_offsets(rows, n)
    cells, sums = [], []
    for lo in range(0, n, ROW_BLOCK):
        block = near[lo:lo + ROW_BLOCK]
        src = block.T.reshape(-1)  # rank-major: every row's rank 0 first
        counts = offsets[src + 1] - offsets[src]
        pick = _runs(offsets[src], counts)
        keys = np.repeat(np.tile(np.arange(lo, lo + len(block)) * n, k2), counts) + members[pick]
        order = np.argsort(keys, kind="stable")  # merges k2 sorted runs; ties keep rank order
        keys = keys[order]
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        cells.append(keys[first])
        sums.append(np.bincount(np.cumsum(first) - 1, weights=weights[pick[order]]) / k2)
    cells = np.concatenate(cells)
    return cells // n, cells % n, np.concatenate(sums)


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


def jaccard_rows(entries, n: int, near: np.ndarray | None = None,
                 num_rows: int | None = None, first_col: int = 0) -> np.ndarray:
    """Jaccard distances of rows [0, num_rows) (every row by default) of the
    n-row membership matrix V whose ``membership_entries`` these are, to its
    rows [first_col, n): the (num_rows, n - first_col) block, every column by
    default.  Given the (n, k2) rank table ``near``, each membership row is
    first averaged over the k2 rows that its row of the table lists (local
    query expansion); ``rerank`` builds that table after checking k2, so it
    is not checked again here.  Computed from entries: no dense membership
    matrix is built, no distance matrix is read, and the block is the only
    dense array returned or held.

    1 - sum(min)/sum(max) per row pair, with sum(max) taken as the two row
    sums minus sum(min).  Every sum over V's entries follows one rule: a
    row's members in increasing order, added one after another.
    ``np.bincount`` adds in input order, which is row-major, so it gives the
    row sums; the min terms of a pair (p, q) meet as each member g that p
    holds meets every row q >= first_col that holds g, through an inverted
    index, so they too arrive in increasing g.  A zero weight, where exp(-d)
    underflows, adds only exact zeros, so the sums are those of the nonzero
    entries alone.  A pair that shares no member is exactly 1.
    """
    if near is not None:
        entries = _local_expansion(near, *entries)
    rows, members, weights = entries
    num_rows = n if num_rows is None else num_rows
    row_sums = np.bincount(rows, weights=weights, minlength=n)
    if not row_sums.any():
        raise DegenerateStructureError("every expanded neighbor set is empty")
    offsets = _row_offsets(rows, n)
    # inverted index: the rows >= first_col holding member g, in increasing
    # row order, which a stable sort by member keeps from the row-major entries
    tail = slice(offsets[first_col], None)
    by_member = np.argsort(members[tail], kind="stable")
    holders, held = rows[tail][by_member], weights[tail][by_member]
    holder_offsets = _row_offsets(members[tail], n)
    cols = n - first_col
    head = slice(0, offsets[num_rows])
    rows, members, weights = rows[head], members[head], weights[head]
    meets_all = holder_offsets[members + 1] - holder_offsets[members]
    out = np.ones((num_rows, cols))
    flat = out.reshape(-1)
    for lo, hi in _term_blocks(np.bincount(rows, weights=meets_all, minlength=num_rows)):
        span = slice(offsets[lo], offsets[hi])
        g, meets = members[span], meets_all[span]
        pos = _runs(holder_offsets[g], meets)  # per entry, the run of g's holders
        terms = np.minimum(np.repeat(weights[span], meets), held[pos])
        keys = np.repeat(rows[span] - lo, meets) * cols + (holders[pos] - first_col)
        inter = np.bincount(keys, weights=terms, minlength=(hi - lo) * cols)
        hit = np.zeros(inter.size, dtype=bool)  # a bool block scans faster than inter
        hit[keys] = True
        shared = np.flatnonzero(hit)
        p, q = lo + shared // cols, first_col + shared % cols
        union = row_sums[p] + row_sums[q] - inter[shared]
        with np.errstate(invalid="ignore"):
            d = 1.0 - inter[shared] / union
        d[union <= 0] = 1.0  # a union that is not positive counts as disjoint
        flat[lo * cols + shared] = np.clip(d, 0.0, 1.0, out=d)
    diag = np.arange(first_col, num_rows)
    out[diag, diag - first_col] = 0.0
    return out


def jaccard_distance(dist: EuclideanRows, k: int) -> DistanceMatrix:
    """Jaccard distances over the R*(p, k) memberships of the Euclidean
    matrix ``dist``: ranked once, then read at the membership entries."""
    if not 1 <= k < dist.n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={dist.n}")
    entries = membership_entries(dist, k_reciprocal_neighbors(dist.ranked(k + 1)))
    return DistanceMatrix(values=jaccard_rows(entries, dist.n))


def jaccard_from_membership(v: np.ndarray) -> np.ndarray:
    """1 - sum(min)/sum(max) per row pair of a dense membership matrix V:
    ``jaccard_rows`` of V's nonzero entries, so its sums follow the same
    member-order rule.  The matrix is exactly symmetric: (p, q) and (q, p)
    add the same terms in the same order.

    The package itself passes memberships as entries; this dense entry
    point stays because ``bench/spans.py`` names it in ``TRACED``."""
    rows, members = np.nonzero(v)
    return jaccard_rows((rows, members, v[rows, members]), v.shape[0])


# ---------------------------------------------------------------------------
# Density clustering on a precomputed matrix
# ---------------------------------------------------------------------------

def _link(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge, in place, the components of the root array ``parent`` (every
    row points at its root) across the edges (a, b).

    Per round, each root that an edge crosses hooks to the smallest root it
    meets, then pointers jump until every row points at its root again, and
    only the edges still crossing go on.  A root never rises, so a
    component's root is its lowest row; jumping makes a long chain take a
    few rounds, not one per link."""
    while a.size:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent[:] = up


def dbscan(dist: DistanceMatrix, eps: float, min_pts: int) -> PseudoLabeling:
    """Connected components of core points under <= eps; border points join
    their lowest-index core neighbor's cluster; the rest are OUTLIER.
    ``eps``/``min_pts`` are unchecked: ``StageConfig`` owns them.
    ``dist`` is unchecked too: it must be square with an exactly zero
    diagonal, as ``jaccard_distance``, its only builder, makes it.

    A row is core when at least ``min_pts`` entries of its row are <= eps
    (the zero diagonal counts the row itself).  Two core rows i < j are
    linked when ``D[i, j] <= eps``, the upper triangle.  Clusters are
    numbered by their lowest core row, the order in which a scan of the rows
    meets them.  A non-core row takes the cluster of its lowest-index core
    neighbor, if it has one.

    The matrix is scanned by row blocks, last block first, so that every
    edge to a later row meets a row whose core status is known; each
    block's core-core edges of the upper triangle are linked at once.  A
    second scan, of the non-core rows with a neighbor, finds each one's
    first core neighbor.  Whatever ``eps`` and ``min_pts`` are, no edge
    outlives its block and no n x n array is allocated.
    """
    values = dist.values
    n = dist.n
    core = np.zeros(n, dtype=bool)
    border = np.zeros(n, dtype=bool)
    parent = np.arange(n)
    for start in reversed(range(0, n, ROW_BLOCK)):
        hits = np.flatnonzero(values[start:start + ROW_BLOCK] <= eps)  # row-major
        row = hits // n
        count = np.bincount(row, minlength=min(ROW_BLOCK, n - start))
        is_core = count >= min_pts
        core[start:start + count.size] = is_core
        border[start:start + count.size] = ~is_core & (count > 1)  # a neighbor besides itself
        keep = is_core[row]  # only core rows' edges go on
        src, dst = row[keep] + start, hits[keep] % n
        link = (dst > src) & core[dst]  # core[dst] is known for dst > src
        _link(parent, src[link], dst[link])

    labels = np.full(n, PSEUDO_OUTLIER, dtype=np.int32)
    roots, labels[core] = np.unique(parent[core], return_inverse=True)
    border = np.flatnonzero(border)
    for start in range(0, border.size, ROW_BLOCK):
        rows = border[start:start + ROW_BLOCK]
        near = (values[rows] <= eps) & core
        first = near.argmax(axis=1)  # its lowest core neighbor, if it has one
        reach = near[np.arange(rows.size), first]
        labels[rows[reach]] = labels[first[reach]]
    return PseudoLabeling(assignment=labels, num_clusters=roots.size)


# ---------------------------------------------------------------------------
# Full per-epoch relabeling
# ---------------------------------------------------------------------------

def relabel_epoch(target: Dataset, params: EncoderParams, k: int, eps: float,
                  min_pts: int) -> PseudoLabeling:
    """Encode, build Jaccard distances, cluster, and write the assignment
    into the dataset's pseudo column.  ``jaccard_distance`` runs on the
    Euclidean row stream, so only the Jaccard matrix is n x n.

    Encoded rows are L2-normalized first so that the exp(-d) fuzzy weights
    and the eps threshold operate on a fixed [0, 2] distance range.
    """
    if target.n == 0:
        raise ValueError("target dataset is empty")
    feats = l2_normalize_rows(encode_dataset(params, target), "encoded feature")
    labeling = dbscan(jaccard_distance(EuclideanRows(feats), k), eps, min_pts)
    target.pseudo[:] = labeling.assignment
    return labeling
