"""Query-gallery scoring: re-ranking with reciprocal-neighbor Jaccard
distances, camera-aware score adjustment, feature ensembling, and the
mAP/CMC evaluation protocol with top-limit truncation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import IDENTITY_NONE, Dataset
from .errors import DegenerateStructureError
from .numerics import l2_normalize_rows
from .pseudolabel import (EuclideanRows, jaccard_rows, k_reciprocal_neighbors,
                          membership_entries, nearest)


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


def require_identities(identities, side: str) -> None:
    """The protocol scores identities: an IDENTITY_NONE row cannot be scored."""
    unlabelled = np.flatnonzero(identities == IDENTITY_NONE)
    if unlabelled.size:
        raise ValueError(f"{side} row {unlabelled[0]} has no identity ({IDENTITY_NONE})")


def split_query_gallery(ds: Dataset, per_id: int = 2) -> QueryGallerySplit:
    """First rows of each identity become queries, the rest gallery.

    At least one row per identity always stays in the gallery so every
    query has a potential match.
    """
    if ds.n == 0:
        raise ValueError("dataset is empty")
    require_identities(ds.identities, "dataset")
    _, ident, counts = np.unique(ds.identities, return_inverse=True, return_counts=True)
    order = np.argsort(ident, kind="stable")  # by identity, then row
    rank = np.empty(ds.n, dtype=np.int64)  # a row's place among its identity's rows
    rank[order] = np.arange(ds.n) - (np.cumsum(counts) - counts)[ident[order]]
    query = rank < np.minimum(per_id, counts[ident] - 1)
    split = QueryGallerySplit(query=ds.subset(np.flatnonzero(query)),
                              gallery=ds.subset(np.flatnonzero(~query)))
    split.validate()
    return split


# ---------------------------------------------------------------------------
# Re-ranking
# ---------------------------------------------------------------------------

def check_rerank_args(k1: int, k2: int, lam: float, n: int | None = None) -> None:
    """``rerank``'s checks on ``n`` pooled rows; with ``n`` unknown, all but k1 < n."""
    if not 1 <= k2 <= k1 or n is not None and k1 >= n:
        got = f"k1={k1}, k2={k2}" + ("" if n is None else f", n={n}")
        raise ValueError(f"need 1 <= k2 <= k1 < n, got {got}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")


def rerank(query_feats, gallery_feats, k1: int = 30, k2: int = 6,
           lam: float = 0.3) -> np.ndarray:
    """Blend of Euclidean and joint-set reciprocal-neighbor Jaccard distance.

    Both sets are pooled; expanded reciprocal sets use k1, local query
    expansion averages each membership row over its top-k2 ranked neighbors
    (self included).  Returns lam*euclidean + (1-lam)*jaccard restricted to
    the query x gallery block.

    The pooled Euclidean matrix is a stream of row blocks (``EuclideanRows``),
    read twice: each block is ranked, and its query rows' gallery columns
    scaled into the blend, before it is dropped; then the R* memberships
    are read at their entries.  No n x n array is held.
    """
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise ValueError("query/gallery feature shapes incompatible")
    n_q, n = q.shape[0], q.shape[0] + g.shape[0]
    check_rerank_args(k1, k2, lam, n)

    euclid = EuclideanRows(np.concatenate([q, g], axis=0))
    top = np.empty((n, k1 + 1), dtype=np.intp)  # its first k2 columns are nearest(values, k2)
    blend = np.empty((n_q, n - n_q))
    for lo, block in euclid.blocks():
        top[lo:lo + block.shape[0]] = nearest(block, k1 + 1)
        if lo < n_q:
            blend[lo:lo + block.shape[0]] = lam * block[:n_q - lo, n_q:]
    entries = membership_entries(euclid, k_reciprocal_neighbors(top))
    near = top[:, :k2] if k2 > 1 else None
    jac = jaccard_rows(entries, n, near, num_rows=n_q)  # query rows only
    blend += (1.0 - lam) * jac[:, n_q:]
    return blend


# ---------------------------------------------------------------------------
# Camera-aware adjustment and ensembling
# ---------------------------------------------------------------------------

def check_cam_weight(weight: float) -> None:
    if not 0.0 <= weight < np.inf:
        raise ValueError(f"weight must be finite and >= 0, got {weight}")


def camera_adjust(dist, cams_q, cams_g, weight: float) -> np.ndarray:
    """D'[q][g] = D[q][g] - weight * ||c_q - c_g|| for one-hot camera codes
    c: sqrt(2) where the camera ids differ, 0 where they match.  May go
    negative."""
    check_cam_weight(weight)
    dist = np.asarray(dist, dtype=np.float64)
    cams_q, cams_g = np.asarray(cams_q), np.asarray(cams_g)
    if dist.shape != (cams_q.shape[0], cams_g.shape[0]):
        raise ValueError("distance matrix shape does not match camera ids")
    return dist - weight * np.where(cams_q[:, None] != cams_g[None, :], np.sqrt(2.0), 0.0)


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

def check_top_limit(top_limit: int) -> None:
    if top_limit < 1:
        raise ValueError("top_limit must be >= 1")


def evaluate(dist, ids_q, cams_q, ids_g, cams_g, top_limit: int = 100) -> EvalReport:
    """mAP and CMC under the standard protocol.

    Per query: rank the gallery ascending, drop entries sharing the query's
    (identity, camera) pair, truncate to top_limit.  AP sums precision at
    each hit inside the window and divides by min(top_limit, number of
    relevant retained entries).  Queries with no relevant retained entry are
    excluded from the means but counted.

    The protocol reads only the first top_limit retained entries of each
    ranking, and at most J of a query's entries are dropped, J the largest
    count of (identity, camera) matches of any query.  So each row is ranked
    by ``nearest`` to its m = min(n_g, top_limit + J) smallest entries: the
    first m entries of a stable sort of the whole row (ties by the lower
    index, NaN last), which hold every entry the window reads.  The count of
    relevant entries comes from the identity and junk masks, with no sort.
    """
    dist = np.asarray(dist, dtype=np.float64)
    ids_q = np.asarray(ids_q, dtype=np.int64)
    cams_q = np.asarray(cams_q, dtype=np.int64)
    ids_g = np.asarray(ids_g, dtype=np.int64)
    cams_g = np.asarray(cams_g, dtype=np.int64)
    n_q, n_g = dist.shape
    if n_g == 0:
        raise ValueError("gallery is empty")
    check_top_limit(top_limit)
    for name, labels, n in (("query ids", ids_q, n_q), ("query cameras", cams_q, n_q),
                            ("gallery ids", ids_g, n_g), ("gallery cameras", cams_g, n_g)):
        if labels.shape != (n,):
            raise ValueError(f"distance matrix shape {dist.shape} does not match "
                             f"{name} of shape {labels.shape}")
    require_identities(ids_q, "query")
    require_identities(ids_g, "gallery")

    same = ids_q[:, None] == ids_g[None, :]
    junk = same & (cams_q[:, None] == cams_g[None, :])
    num_junk = junk.sum(axis=1)
    num_relevant = same.sum(axis=1) - num_junk
    ranked = nearest(dist, min(n_g, top_limit + int(num_junk.max(initial=0))))
    max_rank = min(top_limit, n_g)
    cmc_counts = np.zeros(max_rank)
    per_query_ap: list[float] = []
    aps = []
    for qi in range(n_q):
        if num_relevant[qi] == 0:
            per_query_ap.append(float("nan"))
            continue
        order = ranked[qi]
        kept = order[~junk[qi, order]]
        window = same[qi, kept[:top_limit]]
        hit_ranks = np.flatnonzero(window) + 1  # 1-based
        precision = np.arange(1, hit_ranks.size + 1) / hit_ranks
        ap = float(precision.sum() / min(top_limit, int(num_relevant[qi])))
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

