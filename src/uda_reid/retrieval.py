"""Query-gallery scoring: re-ranking with reciprocal-neighbor Jaccard
distances, camera-aware score adjustment, feature ensembling, and the
mAP/CMC evaluation protocol with top-limit truncation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import Dataset
from .errors import DegenerateStructureError
from .numerics import cdist, l2_normalize_rows
from .pseudolabel import jaccard_rows, k_reciprocal_neighbors, pairwise_euclidean


@dataclass
class QueryGallerySplit:
    query: Dataset
    gallery: Dataset

    def validate(self) -> None:
        if self.query.d != self.gallery.d:
            raise ValueError("query/gallery feature dimensions differ")
        if self.query.n == 0 or self.gallery.n == 0:
            raise ValueError("query and gallery must be non-empty")


@dataclass
class EvalReport:
    mAP: float
    cmc: np.ndarray                       # cmc[r-1] = fraction matched by rank r
    per_query_ap: list = field(default_factory=list)  # nan marks invalid queries
    num_valid_queries: int = 0

    def to_dict(self) -> dict:
        return {"mAP": round(self.mAP, 6),
                "cmc": [round(float(c), 6) for c in self.cmc],
                "num_valid_queries": self.num_valid_queries}


def split_query_gallery(ds: Dataset, per_id: int = 2) -> QueryGallerySplit:
    """First rows of each identity become queries, the rest gallery.

    At least one row per identity always stays in the gallery so every
    query has a potential match.
    """
    if ds.n == 0:
        raise ValueError("dataset is empty")
    query_rows = []
    gallery_rows = []
    seen: dict[int, int] = {}
    counts = {int(i): int(c) for i, c in zip(*np.unique(ds.identities, return_counts=True))}
    for row in range(ds.n):
        ident = int(ds.identities[row])
        taken = seen.get(ident, 0)
        quota = min(per_id, counts[ident] - 1)
        if taken < quota:
            query_rows.append(row)
            seen[ident] = taken + 1
        else:
            gallery_rows.append(row)
    split = QueryGallerySplit(query=ds.subset(np.array(query_rows, dtype=np.int64)),
                              gallery=ds.subset(np.array(gallery_rows, dtype=np.int64)))
    split.validate()
    return split


# ---------------------------------------------------------------------------
# Re-ranking
# ---------------------------------------------------------------------------

def rerank(query_feats, gallery_feats, k1: int = 30, k2: int = 6,
           lam: float = 0.3) -> np.ndarray:
    """Blend of Euclidean and joint-set reciprocal-neighbor Jaccard distance.

    Both sets are pooled; expanded reciprocal sets use k1, local query
    expansion averages each membership row over its top-k2 ranked neighbors
    (self included).  Returns lam*euclidean + (1-lam)*jaccard restricted to
    the query x gallery block.
    """
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise ValueError("query/gallery feature shapes incompatible")
    n_q = q.shape[0]
    n_total = n_q + g.shape[0]
    if not 1 <= k2 <= k1 < n_total:
        raise ValueError(f"need 1 <= k2 <= k1 < n, got k1={k1}, k2={k2}, n={n_total}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")

    euclid = pairwise_euclidean(np.concatenate([q, g], axis=0))
    cross = euclid.values[:n_q, n_q:]
    if lam == 1.0:
        return cross.copy()

    # only the query rows of the Jaccard matrix are read
    jac = jaccard_rows(euclid, k_reciprocal_neighbors(euclid, k1), k2, num_rows=n_q)
    return lam * cross + (1.0 - lam) * jac[:, n_q:]


# ---------------------------------------------------------------------------
# Camera-aware adjustment and ensembling
# ---------------------------------------------------------------------------

def camera_adjust(dist, cam_feats_q, cam_feats_g, weight: float = 0.1) -> np.ndarray:
    """D'[q][g] = D[q][g] - weight * ||c_q - c_g||; may go negative."""
    if not 0.0 <= weight < np.inf:
        raise ValueError(f"weight must be finite and >= 0, got {weight}")
    dist = np.asarray(dist, dtype=np.float64)
    cq = np.asarray(cam_feats_q, dtype=np.float64)
    cg = np.asarray(cam_feats_g, dtype=np.float64)
    if cq.shape[1] != cg.shape[1]:
        raise ValueError("camera feature dimensions differ")
    if dist.shape != (cq.shape[0], cg.shape[0]):
        raise ValueError("distance matrix shape does not match camera features")
    if weight == 0.0:
        return dist.copy()
    return dist - weight * cdist(cq, cg)


def ensemble_features(parts: list) -> np.ndarray:
    """Row-normalize each part, concatenate, then normalize whole rows."""
    if not parts:
        raise ValueError("need at least one feature matrix")
    arrays = [np.asarray(p, dtype=np.float64) for p in parts]
    n = arrays[0].shape[0]
    for idx, arr in enumerate(arrays):
        if arr.ndim != 2 or arr.shape[0] != n:
            raise ValueError(f"part {idx} row count mismatch")
    normed = [l2_normalize_rows(arr, f"ensemble part {idx}")
              for idx, arr in enumerate(arrays)]
    return l2_normalize_rows(np.concatenate(normed, axis=1), "ensemble row")


# ---------------------------------------------------------------------------
# Evaluation protocol
# ---------------------------------------------------------------------------

def evaluate(dist, ids_q, cams_q, ids_g, cams_g, top_limit: int = 100) -> EvalReport:
    """mAP and CMC under the standard protocol.

    Per query: rank the gallery ascending, drop entries sharing the query's
    (identity, camera) pair, truncate to top_limit.  AP sums precision at
    each hit inside the window and divides by min(top_limit, number of
    relevant retained entries).  Queries with no relevant retained entry are
    excluded from the means but counted.
    """
    dist = np.asarray(dist, dtype=np.float64)
    ids_q = np.asarray(ids_q, dtype=np.int64)
    cams_q = np.asarray(cams_q, dtype=np.int64)
    ids_g = np.asarray(ids_g, dtype=np.int64)
    cams_g = np.asarray(cams_g, dtype=np.int64)
    n_q, n_g = dist.shape
    if n_g == 0:
        raise ValueError("gallery is empty")
    if top_limit < 1:
        raise ValueError("top_limit must be >= 1")

    max_rank = min(top_limit, n_g)
    cmc_counts = np.zeros(max_rank)
    per_query_ap: list[float] = []
    aps = []
    for qi in range(n_q):
        order = np.argsort(dist[qi], kind="stable")
        junk = (ids_g[order] == ids_q[qi]) & (cams_g[order] == cams_q[qi])
        kept = order[~junk]
        relevant = ids_g[kept] == ids_q[qi]
        num_relevant = int(relevant.sum())
        if num_relevant == 0:
            per_query_ap.append(float("nan"))
            continue
        window = relevant[:top_limit]
        hit_ranks = np.flatnonzero(window) + 1  # 1-based
        precision = np.arange(1, hit_ranks.size + 1) / hit_ranks
        ap = float(precision.sum() / min(top_limit, num_relevant))
        per_query_ap.append(ap)
        aps.append(ap)
        if hit_ranks.size and hit_ranks[0] <= max_rank:
            cmc_counts[hit_ranks[0] - 1:] += 1
    if not aps:
        raise DegenerateStructureError("no query has a relevant gallery entry")
    return EvalReport(mAP=float(np.mean(aps)),
                      cmc=cmc_counts / len(aps),
                      per_query_ap=per_query_ap,
                      num_valid_queries=len(aps))


def evaluate_split(split: QueryGallerySplit, dist) -> EvalReport:
    """Protocol evaluation of the split's query x gallery distances."""
    split.validate()
    return evaluate(dist, split.query.identities, split.query.cameras,
                    split.gallery.identities, split.gallery.cameras)

