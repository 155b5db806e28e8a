"""Output checks made apart from the program under test.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.  The recomputations here share no code with the package
beyond reading its parameter arrays: distances are taken from direct
coordinate differences, neighbours are ranked with ``np.lexsort`` on
(distance, index), reciprocal sets and DBSCAN components follow their
definitions, and the retrieval protocol comes from ``tests/oracles.py``.
"""
from __future__ import annotations

import math

import numpy as np

import oracles

EPS_VAR = 1e-5         # variance floor of the encoder's standardisation
DIST_TOL = 1e-9        # recomputed distance entries
METRIC_TOL = 1e-9      # mAP/CMC of the full pipeline against the oracles
EVAL_TOL = 1e-12       # evaluate() against oracles.evaluate_ref
# Lowest label_purity accepted on relabel_4k; seeds 1-10 gave 0.71-0.75.
PURITY_FLOOR = 0.60


def encode_rows(params, ds) -> np.ndarray:
    """Eval-mode encoding of every row, L2-normalised, written out longhand."""
    raws = ds.features.astype(np.float64)
    doms = ds.domains.astype(np.int64)
    x_hat = (raws - params.running_mean[doms]) / np.sqrt(params.running_var[doms] + EPS_VAR)
    feats = x_hat @ params.weight.T + params.bias
    return feats / np.linalg.norm(feats, axis=1, keepdims=True)


def label_purity(assignment, identities) -> float:
    """Share of clustered rows whose cluster's majority identity is their own."""
    assignment = np.asarray(assignment)
    identities = np.asarray(identities)
    clustered = assignment >= 0
    if not clustered.any():
        return 0.0
    majority = 0
    for cluster in np.unique(assignment[clustered]):
        _, counts = np.unique(identities[assignment == cluster], return_counts=True)
        majority += int(counts.max())
    return majority / int(clustered.sum())


class Neighbors:
    """k-reciprocal neighbour sets of a point cloud, rows ranked on demand."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=np.float64)
        self.n = self.points.shape[0]
        self._dist: dict = {}
        self._order: dict = {}
        self._knn_sets: dict = {}

    def dist(self, i: int) -> np.ndarray:
        if i not in self._dist:
            diff = self.points - self.points[i]
            self._dist[i] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return self._dist[i]

    def ranked(self, i: int) -> np.ndarray:
        """All rows by (distance, index), the row itself included."""
        if i not in self._order:
            self._order[i] = np.lexsort((np.arange(self.n), self.dist(i)))
        return self._order[i]

    def knn(self, i: int, k: int) -> set:
        key = (i, k)
        if key not in self._knn_sets:
            ranked = self.ranked(i)
            self._knn_sets[key] = set(ranked[ranked != i][:k].tolist())
        return self._knn_sets[key]

    def reciprocal(self, i: int, k: int) -> set:
        return {j for j in self.knn(i, k) if i in self.knn(j, k)}

    def expanded(self, i: int, k: int) -> set:
        """R*(i,k): R(i,k) plus every R(q, ceil(k/2)), q in R(i,k), that
        shares at least two thirds of its members with R(i,k)."""
        base = self.reciprocal(i, k)
        members = set(base)
        half = math.ceil(k / 2)
        for q in base:
            r_half = self.reciprocal(q, half)
            if r_half and len(r_half & base) >= (2.0 / 3.0) * len(r_half):
                members |= r_half
        return members

    def membership(self, i: int, k: int) -> dict:
        d = self.dist(i)
        return {g: math.exp(-d[g]) for g in self.expanded(i, k)}


def jaccard_pair(v_p: dict, v_q: dict) -> float:
    inter = sum(min(w, v_q[g]) for g, w in v_p.items() if g in v_q)
    union = sum(v_p.values()) + sum(v_q.values()) - inter
    return 1.0 - inter / union if union > 0 else 1.0


def dbscan_components(jac: np.ndarray, eps: float, min_pts: int):
    """(labels, count): union-find over core points joined by <= eps, ids in
    order of each component's lowest core row; a border row joins its
    lowest-index core within eps; all other rows are outliers."""
    within = jac <= eps
    core = within.sum(axis=1) >= min_pts
    core_rows = np.flatnonzero(core)
    parent = {int(i): int(i) for i in core_rows}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    sub = within[np.ix_(core_rows, core_rows)]
    for a, b in zip(*np.nonzero(np.triu(sub, 1))):
        ra, rb = find(int(core_rows[a])), find(int(core_rows[b]))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    labels = np.full(jac.shape[0], oracles.OUTLIER, dtype=np.int64)
    ids: dict = {}
    for i in core_rows:
        labels[i] = ids.setdefault(find(int(i)), len(ids))
    for i in np.flatnonzero(~core):
        reach = np.flatnonzero(within[i] & core)
        if reach.size:
            labels[i] = labels[reach[0]]
    return labels, len(ids)


def _matrix_shape_problems(jac: np.ndarray, block: int = 512) -> list:
    problems = []
    if np.any(np.diagonal(jac) != 0.0):
        problems.append("jaccard diagonal is not exactly zero")
    if not (np.isfinite(jac.min()) and jac.min() >= 0.0 and jac.max() <= 1.0):
        problems.append(f"jaccard values outside [0, 1]: {jac.min()}..{jac.max()}")
    for lo in range(0, jac.shape[0], block):
        if not np.array_equal(jac[lo:lo + block], jac[:, lo:lo + block].T):
            problems.append(f"jaccard matrix asymmetric in rows {lo}..{lo + block}")
            break
    return problems


# ---------------------------------------------------------------------------
# relabel_4k
# ---------------------------------------------------------------------------

def sample_pairs(jac: np.ndarray, rng, count: int = 24) -> list:
    """Seeded row pairs: half share neighbours (Jaccard < 1), half are arbitrary."""
    n = jac.shape[0]
    pairs = []
    for i, p in enumerate(rng.choice(n, size=min(count, n), replace=False)):
        p = int(p)
        close = np.flatnonzero(jac[p] < 1.0)
        close = close[close != p]
        q = int(rng.choice(close)) if i % 2 == 0 and close.size else int(rng.integers(n))
        if q != p:
            pairs.append((p, q))
    return pairs


def check_relabel(feats, jac, labeling, identities, pairs, *, k, eps, min_pts,
                  purity_floor: float = PURITY_FLOOR) -> list:
    """``feats`` are the independently encoded rows, ``jac`` the matrix the
    clustering ran on, ``labeling`` the PseudoLabeling it returned and
    ``pairs`` the (p, q) entries of ``jac`` to recompute."""
    problems = _matrix_shape_problems(jac)

    labels, count = dbscan_components(jac, eps, min_pts)
    if count != labeling.num_clusters or not np.array_equal(labels, labeling.assignment):
        bad = np.flatnonzero(labels != labeling.assignment)
        problems.append(f"assignment is not the core-point components: {count} vs "
                        f"{labeling.num_clusters} clusters, rows differ at {bad[:5].tolist()}")

    nb = Neighbors(feats)
    worst = max((abs(jaccard_pair(nb.membership(p, k), nb.membership(q, k)) - jac[p, q])
                 for p, q in pairs), default=0.0)
    if worst > DIST_TOL:
        problems.append(f"sampled jaccard entries off by {worst:.3e}")

    purity = label_purity(labeling.assignment, identities)
    if not purity >= purity_floor:
        problems.append(f"label purity {purity:.4f} below floor {purity_floor}")
    return problems


# ---------------------------------------------------------------------------
# rerank_3k
# ---------------------------------------------------------------------------

def rerank_rows(q, g, rows, k1: int, k2: int, lam: float) -> np.ndarray:
    """Re-ranked distances of the query ``rows`` against the whole gallery."""
    pts = np.concatenate([q, g], axis=0)
    n, n_q = pts.shape[0], q.shape[0]
    nb = Neighbors(pts)
    v = np.zeros((n, n))
    for i in range(n):
        for g_idx, w in nb.membership(i, k1).items():
            v[i, g_idx] = w
    averaged = np.stack([v[nb.ranked(i)[:k2]].mean(axis=0) for i in range(n)])
    out = np.empty((len(rows), g.shape[0]))
    for r, i in enumerate(rows):
        inter = np.minimum(averaged[i], averaged[n_q:]).sum(axis=1)
        union = np.maximum(averaged[i], averaged[n_q:]).sum(axis=1)
        jac = np.ones_like(union)
        np.divide(inter, union, out=jac, where=union > 0)
        jac = np.clip(np.where(union > 0, 1.0 - jac, 1.0), 0.0, 1.0)
        out[r] = lam * nb.dist(i)[n_q:] + (1.0 - lam) * jac
    return out


def check_rerank(q, g, dist, report, split, *, k1, k2, lam, rng,
                 rerank_fn, cdist_fn, sampled: int = 8) -> list:
    """``dist`` and ``report`` are the operation's outputs on inputs q, g;
    ``rerank_fn`` and ``cdist_fn`` are the package functions whose lam=1
    identity is checked."""
    problems = []
    if not np.array_equal(rerank_fn(q, g, k1, k2, 1.0), cdist_fn(q, g)):
        problems.append("rerank at lam=1 is not bitwise equal to plain euclidean")

    rows = np.sort(rng.choice(q.shape[0], size=min(sampled, q.shape[0]), replace=False))
    worst = float(np.max(np.abs(rerank_rows(q, g, rows, k1, k2, lam) - dist[rows])))
    if worst > DIST_TOL:
        problems.append(f"sampled re-ranked rows off by {worst:.3e}")

    ref_map, ref_cmc, ref_n = oracles.evaluate_ref(
        dist, split.query.identities, split.query.cameras,
        split.gallery.identities, split.gallery.cameras)
    if ref_n != report.num_valid_queries or ref_map is None:
        problems.append(f"valid queries {report.num_valid_queries} vs oracle {ref_n}")
    else:
        dev = max(abs(report.mAP - ref_map), float(np.max(np.abs(report.cmc - ref_cmc))))
        if dev > EVAL_TOL:
            problems.append(f"evaluate differs from oracle by {dev:.3e}")
    return problems


# ---------------------------------------------------------------------------
# train_full
# ---------------------------------------------------------------------------

LOSS_FIELDS = ("cls", "tri", "soft", "hard", "moco", "total")


def check_pipeline(result, val_split, epochs: int, *, k1=30, k2=6, lam=0.3) -> list:
    """Loss logs are finite with no skipped epoch, and the reported re-ranked
    mAP/CMC equal the oracles' on independently encoded validation rows."""
    problems = []
    for stage, log in result["logs"].items():
        if log.skipped_epochs or any(rec.skipped for rec in log.records):
            problems.append(f"{stage}: skipped epochs")
        if len(log.records) != epochs:
            problems.append(f"{stage}: {len(log.records)} epochs logged, expected {epochs}")
        for rec in log.records:
            for name in LOSS_FIELDS:
                value = getattr(rec, name)
                if value is not None and not math.isfinite(value):
                    problems.append(f"{stage} epoch {rec.epoch}: {name} = {value}")

    params = result["params"]
    q = encode_rows(params, val_split.query)
    g = encode_rows(params, val_split.gallery)
    ref = oracles.rerank_ref(q, g, k1, k2, lam)
    ref_map, ref_cmc, ref_n = oracles.evaluate_ref(
        ref, val_split.query.identities, val_split.query.cameras,
        val_split.gallery.identities, val_split.gallery.cameras)
    report = result["report"]
    if ref_map is None or ref_n != report.num_valid_queries:
        problems.append(f"valid queries {report.num_valid_queries} vs oracle {ref_n}")
    else:
        dev = max(abs(report.mAP - ref_map), float(np.max(np.abs(report.cmc - ref_cmc))))
        if dev > METRIC_TOL:
            problems.append(f"re-ranked mAP/CMC differ from the oracles by {dev:.3e}")
    return problems
