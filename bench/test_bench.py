"""Fast tests of the benchmark's own checks and tracer, at small sizes.

Each check must pass on the program's real output and fail on a copy with
one deliberate corruption.  Run with ``python3 -m pytest bench -q``.
"""
import copy
import math

import numpy as np
import pytest

import checks
import oracles
import spans
from uda_reid import pipeline, pseudolabel, retrieval
from uda_reid.datamodel import Dataset
from uda_reid.numerics import cdist
from uda_reid.pipeline import StageConfig, default_benchmark, run_full_pipeline


def _clustered(seed, n_ids, per_id, dim=8, spread=0.15):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_ids, dim))
    feats = np.repeat(centers, per_id, axis=0) + spread * rng.normal(size=(n_ids * per_id, dim))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return feats, np.repeat(np.arange(n_ids), per_id)


# ---------------------------------------------------------------------------
# relabel checks
# ---------------------------------------------------------------------------

K, EPS, MIN_PTS = 6, 0.6, 3


@pytest.fixture(scope="module")
def relabelled():
    feats, ids = _clustered(0, 12, 10)
    jac = pseudolabel.jaccard_distance(pseudolabel.pairwise_euclidean(feats), K)
    labeling = pseudolabel.dbscan(jac, EPS, MIN_PTS)
    pairs = checks.sample_pairs(jac.values, np.random.default_rng(1), count=40)
    return feats, jac.values, labeling, ids, pairs


def _relabel_problems(feats, jac, labeling, ids, pairs, floor=0.5):
    return checks.check_relabel(feats, jac, labeling, ids, pairs, k=K, eps=EPS,
                                min_pts=MIN_PTS, purity_floor=floor)


def test_relabel_checks_pass_on_program_output(relabelled):
    feats, jac, labeling, ids, pairs = relabelled
    assert labeling.num_clusters > 1
    assert any(jac[p, q] < 1.0 for p, q in pairs)
    assert _relabel_problems(*relabelled) == []


def test_union_find_matches_oracle_dbscan(relabelled):
    _, jac, labeling, _, _ = relabelled
    labels, count = checks.dbscan_components(jac, EPS, MIN_PTS)
    ref_labels, ref_count = oracles.dbscan_ref(jac, EPS, MIN_PTS)
    assert count == ref_count == labeling.num_clusters
    assert np.array_equal(labels, ref_labels)


def test_one_relabelled_point_fails(relabelled):
    feats, jac, labeling, ids, pairs = relabelled
    bad = copy.deepcopy(labeling)
    row = int(np.flatnonzero(bad.assignment >= 0)[0])
    bad.assignment[row] = (bad.assignment[row] + 1) % bad.num_clusters
    assert any("core-point components" in p
               for p in _relabel_problems(feats, jac, bad, ids, pairs))


def test_one_perturbed_jaccard_entry_fails(relabelled):
    feats, jac, labeling, ids, pairs = relabelled
    p, q = next((p, q) for p, q in pairs if jac[p, q] < 1.0)
    bad = jac.copy()
    bad[p, q] = bad[q, p] = jac[p, q] * 0.999
    assert any("sampled jaccard" in msg
               for msg in _relabel_problems(feats, bad, labeling, ids, pairs))
    lopsided = jac.copy()
    lopsided[p, q] = jac[p, q] * 0.999
    assert any("asymmetric" in msg
               for msg in _relabel_problems(feats, lopsided, labeling, ids, pairs))


def test_matrix_properties_fail(relabelled):
    feats, jac, labeling, ids, pairs = relabelled
    diag = jac.copy()
    diag[3, 3] = 1e-3
    assert any("diagonal" in m for m in _relabel_problems(feats, diag, labeling, ids, pairs))
    high = jac.copy()
    high[0, 1] = high[1, 0] = 1.0 + 1e-9
    assert any("outside [0, 1]" in m for m in _relabel_problems(feats, high, labeling, ids, pairs))


def test_purity_floor_fails(relabelled):
    feats, jac, labeling, _, pairs = relabelled
    shuffled = np.random.default_rng(2).permutation(relabelled[3])
    assert any("purity" in m for m in _relabel_problems(feats, jac, labeling, shuffled, pairs))


def test_label_purity_by_hand():
    assert checks.label_purity([0, 0, 0, 1, 1, -2], [5, 5, 6, 7, 7, 9]) == pytest.approx(4 / 5)
    assert checks.label_purity([-2, -2], [1, 2]) == 0.0


def test_expanded_sets_match_oracle():
    feats, _ = _clustered(3, 6, 8)
    dist = oracles.pairwise_ref(feats)
    nb = checks.Neighbors(feats)
    for k in (4, 7):
        assert [sorted(nb.expanded(i, k)) for i in range(len(feats))] == \
            oracles.expanded_ref(dist, k)


# ---------------------------------------------------------------------------
# rerank checks
# ---------------------------------------------------------------------------

RR = {"k1": 8, "k2": 3, "lam": 0.3}


@pytest.fixture(scope="module")
def reranked():
    feats, ids = _clustered(4, 10, 8)
    cams = np.arange(len(ids)) % 3
    q_rows = np.flatnonzero(np.arange(len(ids)) % 8 < 2)
    g_rows = np.setdiff1d(np.arange(len(ids)), q_rows)

    def part(rows):
        return Dataset(features=feats[rows], identities=ids[rows], cameras=cams[rows],
                       domains=np.ones(len(rows)), pseudo=np.full(len(rows), -2))

    query, gallery = part(q_rows), part(g_rows)
    split = retrieval.QueryGallerySplit(query=query, gallery=gallery)
    q, g = feats[q_rows], feats[g_rows]
    dist = retrieval.rerank(q, g, **RR)
    return q, g, dist, retrieval.evaluate_split(split, dist=dist), split


def _rerank_problems(q, g, dist, report, split, rerank_fn=retrieval.rerank):
    return checks.check_rerank(q, g, dist, report, split, rng=np.random.default_rng(0),
                               rerank_fn=rerank_fn, cdist_fn=cdist, sampled=len(q), **RR)


def test_rerank_checks_pass_on_program_output(reranked):
    assert _rerank_problems(*reranked) == []


def test_rerank_rows_match_oracle(reranked):
    q, g = reranked[:2]
    ref = oracles.rerank_ref(q, g, RR["k1"], RR["k2"], RR["lam"])
    got = checks.rerank_rows(q, g, np.arange(len(q)), **RR)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_one_perturbed_distance_fails(reranked):
    q, g, dist, report, split = reranked
    bad = dist.copy()
    bad[1, 4] += 1e-6
    assert any("sampled re-ranked" in m for m in _rerank_problems(q, g, bad, report, split))


def test_one_swapped_rank_fails(reranked):
    q, g, dist, report, split = reranked
    order = np.argsort(dist[0])
    hit = next(j for j in order if split.gallery.identities[j] == split.query.identities[0])
    miss = next(j for j in order if split.gallery.identities[j] != split.query.identities[0])
    swapped = dist.copy()
    swapped[0, [hit, miss]] = swapped[0, [miss, hit]]
    bad_report = retrieval.evaluate_split(split, dist=swapped)
    assert any("evaluate differs" in m for m in _rerank_problems(q, g, dist, bad_report, split))


def test_lambda_one_identity_fails_when_broken(reranked):
    def off_by_ulp(q, g, k1, k2, lam):
        return np.nextafter(retrieval.rerank(q, g, k1, k2, lam), np.inf)
    assert any("lam=1" in m for m in _rerank_problems(*reranked, rerank_fn=off_by_ulp))


# ---------------------------------------------------------------------------
# pipeline checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained():
    cfg = StageConfig(epochs=2, iters_per_epoch=15)
    bench = default_benchmark(seed=0)
    return run_full_pipeline(cfg=cfg, bench=bench), bench, cfg


def test_pipeline_checks_pass_on_program_output(trained):
    result, bench, cfg = trained
    assert checks.check_pipeline(result, bench.val_split, cfg.epochs) == []


def test_pipeline_corrupted_map_fails(trained):
    result, bench, cfg = trained
    bad = dict(result, report=copy.deepcopy(result["report"]))
    bad["report"].mAP += 1e-6
    assert any("oracles" in m for m in checks.check_pipeline(bad, bench.val_split, cfg.epochs))


def test_pipeline_non_finite_loss_and_skipped_epoch_fail(trained):
    result, bench, cfg = trained
    logs = copy.deepcopy(result["logs"])
    logs["mmt_plus"].records[1].moco = math.nan
    logs["pretrain"].records[0].skipped = True
    found = checks.check_pipeline(dict(result, logs=logs), bench.val_split, cfg.epochs)
    assert any("moco = nan" in m for m in found)
    assert any("skipped" in m for m in found)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_wraps_every_namespace_and_restores():
    original = pseudolabel.relabel_epoch
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pipeline.relabel_epoch is pseudolabel.relabel_epoch is not original
        assert retrieval.k_reciprocal_neighbors is pseudolabel.k_reciprocal_neighbors
        feats, _ = _clustered(5, 6, 6)
        with tracer.span("bench.op"):
            retrieval.rerank(feats[:10], feats[10:], k1=5, k2=2, lam=0.3)
    finally:
        tracer.uninstall()
    assert pipeline.relabel_epoch is original
    (summary,) = spans.summarize_roots(tracer, "bench.op")
    assert summary["calls"]["pseudolabel.k_reciprocal_neighbors"] == 1
    assert summary["calls"]["retrieval.rerank"] == 1
    assert summary["counts"]["pseudolabel.neighbor_pairs"] > 0
    children = sum(summary["seconds"][n] for n in summary["seconds"]
                   if n.startswith("pseudolabel."))
    assert summary["self"]["retrieval.rerank"] == pytest.approx(
        summary["seconds"]["retrieval.rerank"] - children, abs=1e-9)
    assert sum(summary["self"].values()) == pytest.approx(summary["wall"], abs=1e-9)
