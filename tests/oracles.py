"""Independent brute-force references used to cross-check the library.

Everything here favors obviousness over speed: python loops, set algebra,
and textbook formulas.  The point is that agreement with the vectorized
implementations is evidence, not shared structure, so nothing in this file
may import from the package under test.
"""
import math

import numpy as np

OUTLIER = -2  # sentinel shared with the on-disk format


# ---------------------------------------------------------------------------
# PK sampling
# ---------------------------------------------------------------------------

def pk_sample_ref(labels, p_classes, k_per, rng):
    """PK batch drawn by scanning the labels on every call: p distinct
    non-negative labels, then k rows of each (with replacement below k)."""
    labels = np.asarray(labels)
    usable = np.unique(labels[labels >= 0])
    chosen = rng.choice(usable, size=p_classes, replace=False)
    out = []
    for lab in chosen:
        rows = np.flatnonzero(labels == lab)
        out.extend(rng.choice(rows, size=k_per, replace=rows.size < k_per))
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax_ref(z):
    z = [float(v) for v in z]
    m = max(z)
    exps = [math.exp(v - m) for v in z]
    total = sum(exps)
    return [e / total for e in exps]


def cross_entropy_ref(logits, label):
    return -math.log(softmax_ref(logits)[label])


def soft_ce_ref(student, teacher):
    t = softmax_ref(teacher)
    s = softmax_ref(student)
    return -sum(ti * math.log(si) for ti, si in zip(t, s))


def triplet_value_ref(feats, labels):
    """Mean -log T with exhaustive hardest mining over all (pos, neg) pairs."""
    feats = np.asarray(feats, dtype=np.float64)
    labels = [int(l) for l in labels]
    n = len(labels)
    total = 0.0
    for a in range(n):
        d_p = max(math.dist(feats[a], feats[j])
                  for j in range(n) if j != a and labels[j] == labels[a])
        d_n = min(math.dist(feats[a], feats[j])
                  for j in range(n) if labels[j] != labels[a])
        t = math.exp(d_n) / (math.exp(d_p) + math.exp(d_n))
        total += -math.log(t)
    return total / n


# ---------------------------------------------------------------------------
# pairwise distances
# ---------------------------------------------------------------------------

def pairwise_ref(feats):
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = math.sqrt(float(((feats[i] - feats[j]) ** 2).sum()))
    return out


# ---------------------------------------------------------------------------
# reciprocal neighbor structure (definition transcribed literally)
# ---------------------------------------------------------------------------

def _ranked(dist, i):
    n = dist.shape[0]
    return sorted(range(n), key=lambda j: (dist[i, j], j))


def knn_ref(dist, i, k):
    """Top-k of i by (distance, index), self excluded."""
    return [j for j in _ranked(dist, i) if j != i][:k]


def reciprocal_ref(dist, i, k):
    return {j for j in knn_ref(dist, i, k) if i in knn_ref(dist, j, k)}


def expanded_ref(dist, k):
    """R*(p,k): R(p,k) unioned with every half-k set overlapping two thirds."""
    n = dist.shape[0]
    half = math.ceil(k / 2)
    base = [reciprocal_ref(dist, p, k) for p in range(n)]
    halves = [reciprocal_ref(dist, p, half) for p in range(n)]
    out = []
    for p in range(n):
        members = set(base[p])
        for q in base[p]:
            if halves[q] and len(halves[q] & base[p]) >= (2.0 / 3.0) * len(halves[q]):
                members |= halves[q]
        out.append(sorted(members))
    return out


def membership_ref(dist, sets):
    n = dist.shape[0]
    v = np.zeros((n, n))
    for p, members in enumerate(sets):
        for g in members:
            v[p, g] = math.exp(-dist[p, g])
    return v


def jaccard_ref(v):
    """Direct 1 - sum(min)/sum(max) per row pair."""
    n = v.shape[0]
    out = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            inter = float(np.minimum(v[p], v[q]).sum())
            union = float(np.maximum(v[p], v[q]).sum())
            out[p, q] = 1.0 - inter / union if union > 0 else 1.0
    return np.clip(out, 0.0, 1.0)


def jaccard_loop_ref(v):
    """1 - sum(min)/sum(max), one row at a time over its nonzero members in
    increasing order, with numpy's dense row sums: the summation order the
    package reproduces bit for bit."""
    n = v.shape[0]
    row_sums = v.sum(axis=1)
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
        d[union <= 0] = 1.0
        out[p] = d
    np.fill_diagonal(out, 0.0)
    return np.clip(out, 0.0, 1.0)


def jaccard_distance_ref(dist, k):
    return jaccard_ref(membership_ref(dist, expanded_ref(dist, k)))


# ---------------------------------------------------------------------------
# density clustering by reachability closure
# ---------------------------------------------------------------------------

def dbscan_ref(values, eps, min_pts):
    """(labels, num_clusters) via union-find over core points.

    Cluster ids follow the first-core-encountered scan order and border
    points join the lowest-index reachable core, mirroring the documented
    tie rules so the comparison can be exact rather than up-to-relabeling.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    within = values <= eps
    core = [int(within[i].sum()) >= min_pts for i in range(n)]

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if core[i] and core[j] and within[i, j]:
                parent[find(i)] = find(j)

    labels = [OUTLIER] * n
    root_to_id = {}
    for i in range(n):
        if core[i]:
            root = find(i)
            if root not in root_to_id:
                root_to_id[root] = len(root_to_id)
            labels[i] = root_to_id[root]
    for i in range(n):
        if not core[i]:
            for j in range(n):
                if core[j] and within[i, j]:
                    labels[i] = labels[j]
                    break
    return np.array(labels, dtype=np.int32), len(root_to_id)


def same_partition(a, b):
    """True when two labelings agree up to cluster-id renaming."""
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        return False
    fwd, bwd = {}, {}
    for x, y in zip(a, b):
        if (x == OUTLIER) != (y == OUTLIER):
            return False
        if x == OUTLIER:
            continue
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


# ---------------------------------------------------------------------------
# re-ranking, step by step over the pooled point set
# ---------------------------------------------------------------------------

def rerank_ref(query, gallery, k1, k2, lam):
    q = np.asarray(query, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    pts = np.concatenate([q, g], axis=0)
    n = pts.shape[0]
    n_q = q.shape[0]
    dist = pairwise_ref(pts)
    cross = dist[:n_q, n_q:]
    if lam == 1.0:
        return cross

    v = membership_ref(dist, expanded_ref(dist, k1))
    if k2 > 1:
        averaged = np.zeros_like(v)
        for i in range(n):
            neighborhood = _ranked(dist, i)[:k2]  # self included at rank 0
            averaged[i] = v[neighborhood].mean(axis=0)
        v = averaged
    jac = jaccard_ref(v)
    return lam * cross + (1.0 - lam) * jac[:n_q, n_q:]


# ---------------------------------------------------------------------------
# evaluation protocol
# ---------------------------------------------------------------------------

def split_query_gallery_ref(identities, per_id):
    """(query rows, gallery rows): scanning the rows in order, each
    identity's first min(per_id, count - 1) rows are queries."""
    identities = [int(i) for i in identities]
    counts = {i: identities.count(i) for i in set(identities)}
    query_rows, gallery_rows = [], []
    seen: dict[int, int] = {}
    for row, ident in enumerate(identities):
        taken = seen.get(ident, 0)
        if taken < min(per_id, counts[ident] - 1):
            query_rows.append(row)
            seen[ident] = taken + 1
        else:
            gallery_rows.append(row)
    return query_rows, gallery_rows


def ap_ref(dist_row, qid, qcam, gids, gcams, top_limit):
    """(average precision, first-hit rank); (None, None) for invalid queries."""
    order = sorted(range(len(dist_row)), key=lambda j: (dist_row[j], j))
    kept = [j for j in order if not (gids[j] == qid and gcams[j] == qcam)]
    num_relevant = sum(1 for j in kept if gids[j] == qid)
    if num_relevant == 0:
        return None, None
    hits = 0
    precision_sum = 0.0
    first = None
    for rank, j in enumerate(kept[:top_limit], start=1):
        if gids[j] == qid:
            hits += 1
            precision_sum += hits / rank
            if first is None:
                first = rank
    return precision_sum / min(top_limit, num_relevant), first


def evaluate_ref(dist, ids_q, cams_q, ids_g, cams_g, top_limit=100):
    dist = np.asarray(dist, dtype=np.float64)
    n_q, n_g = dist.shape
    max_rank = min(top_limit, n_g)
    cmc_counts = np.zeros(max_rank)
    aps = []
    for qi in range(n_q):
        ap, first = ap_ref(dist[qi], int(ids_q[qi]), int(cams_q[qi]),
                           [int(x) for x in ids_g], [int(x) for x in cams_g],
                           top_limit)
        if ap is None:
            continue
        aps.append(ap)
        if first is not None and first <= max_rank:
            cmc_counts[first - 1:] += 1
    if not aps:
        return None, None, 0
    return sum(aps) / len(aps), cmc_counts / len(aps), len(aps)


def evaluate_full_sort_ref(dist, ids_q, cams_q, ids_g, cams_g, top_limit=100):
    """(mAP, cmc, per-query AP, valid queries) from a full stable argsort of
    every gallery row, then the junk filter and the window: the protocol
    loop the package ran before it ranked only the prefix the window reads.
    Same arithmetic in the same order, so results compare with ``==``;
    None when no query is valid."""
    dist = np.asarray(dist, dtype=np.float64)
    ids_q, cams_q, ids_g, cams_g = (np.asarray(a, dtype=np.int64)
                                    for a in (ids_q, cams_q, ids_g, cams_g))
    n_q, n_g = dist.shape
    max_rank = min(top_limit, n_g)
    cmc_counts = np.zeros(max_rank)
    per_query_ap = []
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
        return None
    return float(np.mean(aps)), cmc_counts / len(aps), per_query_ap, len(aps)
