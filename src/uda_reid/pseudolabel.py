"""Per-epoch pseudo-label generation.

Pipeline: encode the target split, take pairwise Euclidean distances, expand
k-reciprocal neighbor sets into fuzzy memberships, convert to Jaccard
distances, and cluster with density-based scanning.  Outliers keep the
OUTLIER sentinel and are skipped by batch sampling downstream.
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from .datamodel import PSEUDO_OUTLIER, Dataset
from .encoder import EncoderParams, encode_dataset
from .errors import DegenerateStructureError
from .numerics import cdist, l2_normalize_rows

SYMMETRY_TOL = 1e-6
SYMMETRY_BLOCK = 256  # rows per block of the symmetry check


class Metric(enum.Enum):
    EUCLIDEAN = "euclidean"
    JACCARD = "jaccard"
    RERANKED = "reranked"


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
        # row blocks keep the temporaries at SYMMETRY_BLOCK x n, not n x n
        for start in range(0, v.shape[0], SYMMETRY_BLOCK):
            stop = start + SYMMETRY_BLOCK
            if np.max(np.abs(v[start:stop] - v[:, start:stop].T)) > SYMMETRY_TOL:
                raise ValueError(f"asymmetry beyond {SYMMETRY_TOL}")
        if self.metric is Metric.JACCARD and (v.min() < -1e-9 or v.max() > 1 + 1e-9):
            raise ValueError("jaccard distances must lie in [0, 1]")


@dataclass
class PseudoLabeling:
    """Cluster assignment per sample; OUTLIER rows carry the sentinel."""
    assignment: np.ndarray  # int32, cluster id in [0, num_clusters) or PSEUDO_OUTLIER
    num_clusters: int
    epoch: int = 0

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

def _knn(order: np.ndarray, row: int, k: int) -> np.ndarray:
    """First k neighbors of ``row`` excluding itself, by distance rank."""
    ranked = order[row]
    return ranked[ranked != row][:k]


def _reciprocal(order: np.ndarray, row: int, k: int,
                cache: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    key = (row, k)
    hit = cache.get(key)
    if hit is not None:
        return hit
    cand = _knn(order, row, k)
    mask = np.fromiter((row in set(_knn(order, c, k)) for c in cand),
                       dtype=bool, count=cand.size)
    result = cand[mask]
    cache[key] = result
    return result


def k_reciprocal_neighbors(dist: DistanceMatrix, k: int) -> list[np.ndarray]:
    """Expanded reciprocal neighbor sets R*(p, k), sorted indices per row.

    R(p,k) keeps the k nearest neighbors of p that also list p among their
    own k nearest; R*(p,k) unions in R(q, ceil(k/2)) for every q in R(p,k)
    whose half-set overlaps R(p,k) in at least two thirds of its members.
    """
    n = dist.n
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    # argsort with index tiebreak gives a fixed, reproducible ranking
    order = np.argsort(dist.values, axis=1, kind="stable")
    cache: dict[tuple[int, int], np.ndarray] = {}
    half_k = int(np.ceil(k / 2))
    expanded = []
    for p in range(n):
        r_p = _reciprocal(order, p, k, cache)
        members = set(r_p.tolist())
        base = set(r_p.tolist())
        for q in r_p:
            r_q_half = _reciprocal(order, int(q), half_k, cache)
            if r_q_half.size == 0:
                continue
            overlap = sum(1 for g in r_q_half if g in base)
            if overlap >= (2.0 / 3.0) * r_q_half.size:
                members.update(int(g) for g in r_q_half)
        expanded.append(np.array(sorted(members), dtype=np.int64))
    return expanded


# ---------------------------------------------------------------------------
# Jaccard distance over fuzzy neighborhood memberships
# ---------------------------------------------------------------------------

def membership_matrix(dist: DistanceMatrix, neighbor_sets: list[np.ndarray]) -> np.ndarray:
    """Row p holds exp(-D[p][g]) on g in R*(p), zero elsewhere."""
    n = dist.n
    v = np.zeros((n, n))
    for p, members in enumerate(neighbor_sets):
        if members.size:
            v[p, members] = np.exp(-dist.values[p, members])
    return v


def jaccard_from_membership(v: np.ndarray) -> np.ndarray:
    """1 - sum(min)/sum(max) per row pair, via the inverted-index idiom."""
    n = v.shape[0]
    row_sums = v.sum(axis=1)
    if not row_sums.any():
        raise DegenerateStructureError("every expanded neighbor set is empty")
    inv_index = [np.flatnonzero(v[:, g]) for g in range(n)]
    out = np.empty((n, n))
    for p in range(n):
        min_acc = np.zeros(n)
        for g in np.flatnonzero(v[p]):
            rows = inv_index[g]
            min_acc[rows] += np.minimum(v[p, g], v[rows, g])
        union = row_sums[p] + row_sums - min_acc
        with np.errstate(invalid="ignore"):
            d = 1.0 - min_acc / union
        d[union <= 0] = 1.0  # both memberships empty: treat as disjoint
        out[p] = d
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 0.0)
    return np.clip(out, 0.0, 1.0)


def jaccard_distance(dist: DistanceMatrix, k: int) -> DistanceMatrix:
    sets = k_reciprocal_neighbors(dist, k)
    v = membership_matrix(dist, sets)
    return DistanceMatrix(values=jaccard_from_membership(v), metric=Metric.JACCARD)


# ---------------------------------------------------------------------------
# Density clustering on a precomputed matrix
# ---------------------------------------------------------------------------

def dbscan(dist: DistanceMatrix, eps: float, min_pts: int, epoch: int = 0) -> PseudoLabeling:
    """Connected components of core points under <= eps; border points join
    their lowest-index reachable core's cluster; the rest are OUTLIER."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
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
    out = PseudoLabeling(assignment=labels, num_clusters=cluster, epoch=epoch)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# Full per-epoch relabeling
# ---------------------------------------------------------------------------

def relabel_epoch(target: Dataset, params: EncoderParams, k: int = 20,
                  eps: float = 0.6, min_pts: int = 4, epoch: int = 0,
                  blend: float | None = None) -> PseudoLabeling:
    """Encode, build Jaccard distances, cluster, and write the assignment
    into the dataset's pseudo column.

    Encoded rows are L2-normalized first so that the exp(-d) fuzzy weights
    and the eps threshold operate on a fixed [0, 2] distance range.
    ``blend`` switches the clustering input to
    blend*euclidean + (1-blend)*jaccard (off by default).
    """
    if target.n == 0:
        raise ValueError("target dataset is empty")
    feats = l2_normalize_rows(encode_dataset(params, target), "encoded feature")
    euclid = pairwise_euclidean(feats)
    jac = jaccard_distance(euclid, k)
    if blend is None:
        cluster_input = jac
    else:
        if not 0.0 <= blend <= 1.0:
            raise ValueError(f"blend must be in [0, 1], got {blend}")
        mixed = blend * euclid.values + (1.0 - blend) * jac.values
        cluster_input = DistanceMatrix(values=mixed, metric=Metric.RERANKED)
    labeling = dbscan(cluster_input, eps, min_pts, epoch=epoch)
    target.pseudo[:] = labeling.assignment
    return labeling
