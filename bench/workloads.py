"""The three benchmark workloads: set-up, timed operation, checks, accuracy.

A workload's ``setup(seed)`` builds every input from the seed alone, and
``setup_digest(state)`` fingerprints it so that repeated set-ups can be
required to agree; ``run(state)`` is the timed operation;
``check(state, out, rng)`` returns the problems found by the independent
checks in ``checks.py``, sampling with ``rng``;
``accuracy(state, out)`` gives ``map_rerank`` and ``label_purity``;
``digest(out)`` fingerprints an output so that later rounds can be
required to repeat the first one bit for bit.

Why these three: ``train_full`` is the path users run and is dominated by
the training step; ``relabel_4k`` runs the O(n^2) pseudo-label kernels at
the size the roadmap targets with no training step; ``rerank_3k`` drives
the same neighbour and Jaccard kernels through re-ranking (asymmetric
block, larger k1, k2 expansion, no DBSCAN) plus the evaluation loop, so a
kernel change that helps relabel but costs re-ranking shows there.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

import checks
# Traced functions are called through their modules so that the tracer's
# wrappers, installed on the module namespaces, see the calls.
from uda_reid import encoder, pipeline, pseudolabel, retrieval
from uda_reid.datamodel import PSEUDO_OUTLIER, concat_datasets
from uda_reid.numerics import cdist, l2_normalize_rows
from uda_reid.pipeline import StageConfig, default_benchmark
from uda_reid.retrieval import split_query_gallery

RERANK = {"k1": 30, "k2": 6, "lam": 0.3}
# Every workload draws from the package's default synthetic world (seed 0):
# one domain shift, one set of identity centres and camera offsets.  The
# workload seed shuffles each identity's rows before they are split into
# training and held-out rows; the program runs at its default configuration
# (seed 0 included) and never sees the workload seed.  A per-seed world would
# redraw the domain shift itself, which moves the pipeline's re-ranked mAP
# between 0.45 and 0.99 from seed to seed (see README.md).
WORLD_SEED = 0
# train_full: the default benchmark, 32 target identities x (20 + 6) rows.
DEFAULT_SIZE = {"num_ids_target": 32, "train_per_id": 20, "val_per_id": 6}
# relabel_4k / rerank_3k: 200 target identities x (20 + 15) rows: the 4,000
# relabelled rows, and 400 queries + 2,600 gallery rows re-ranked together.
LARGE_SIZE = {"num_ids_target": 200, "train_per_id": 20, "val_per_id": 15}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def sample_benchmark(seed, num_ids_target, train_per_id, val_per_id):
    """The world's benchmark at the given size, with each identity's rows
    shuffled by the workload seed before the training/held-out split."""
    pool = default_benchmark(seed=WORLD_SEED, num_ids_target=num_ids_target,
                             train_per_id=train_per_id, val_per_id=val_per_id)
    target = concat_datasets(pool.target_train, pool.target_val)
    rng = np.random.default_rng([seed, 41])
    rows = [rng.permutation(np.flatnonzero(target.identities == ident))
            for ident in np.unique(target.identities)]
    target_train = target.subset(np.concatenate([r[:train_per_id] for r in rows]))
    target_val = target.subset(np.concatenate([r[train_per_id:] for r in rows]))
    return replace(pool, target_train=target_train, target_val=target_val,
                   val_split=split_query_gallery(target_val, per_id=2))


class TrainFull:
    """``run_full_pipeline`` with its default configuration on a benchmark of
    the default size."""

    name = "train_full"
    setup_reps = 50

    def setup(self, seed):
        return {"bench": sample_benchmark(seed, **DEFAULT_SIZE)}

    def setup_digest(self, state):
        b = state["bench"]
        return _digest(b.source.features, b.translated.features,
                       b.target_train.features, b.target_val.features)

    def run(self, state):
        bench = state["bench"]
        bench.target_train.pseudo[:] = PSEUDO_OUTLIER
        return pipeline.run_full_pipeline(bench=bench)

    def check(self, state, out, rng):
        return checks.check_pipeline(out, state["bench"].val_split, StageConfig().epochs,
                                     **RERANK)

    def accuracy(self, state, out):
        target = state["bench"].target_train
        return {"map_rerank": out["report"].mAP,
                "label_purity": checks.label_purity(target.pseudo, target.identities)}

    def digest(self, out):
        p = out["params"]
        return _digest(np.array([out["report"].mAP]), out["report"].cmc,
                       p.weight, p.bias, p.running_mean, p.running_var)


class _Pretrained:
    """Set-up shared by relabel_4k and rerank_3k: the large benchmark plus an
    encoder that stage_pretrain trains on its translated source rows.  The
    source rows belong to the world, so the encoder is the same for every
    seed; the seed changes which target rows are trained on or held out."""

    setup_reps = 3

    def setup(self, seed):
        cfg = StageConfig()
        bench = sample_benchmark(seed, **LARGE_SIZE)
        params, _ = pipeline.stage_pretrain(bench.translated, cfg)
        return {"cfg": cfg, "bench": bench, "params": params}

    def setup_digest(self, state):
        p = state["params"]
        return _digest(state["bench"].target_train.features, p.weight, p.bias,
                       p.running_mean, p.running_var)

    def reference_map(self, state):
        """Re-ranked mAP of the pretrained encoder on the default benchmark's
        192-row validation split, the split run_full_pipeline scores."""
        split = default_benchmark(seed=WORLD_SEED).val_split
        return pipeline.eval_encoder(state["params"], split, use_rerank=True, **RERANK).mAP

    def reference_purity(self, state):
        """Purity of one relabel of the default benchmark's 640 target
        training rows with the pretrained encoder."""
        cfg = state["cfg"]
        target = default_benchmark(seed=WORLD_SEED).target_train
        labeling = pseudolabel.relabel_epoch(target, state["params"], cfg.k, cfg.eps,
                                             cfg.min_pts)
        return checks.label_purity(labeling.assignment, target.identities)


class Relabel4k(_Pretrained):
    """One ``relabel_epoch`` on 4,000 target rows (200 ids x 20 rows)."""

    name = "relabel_4k"

    def run(self, state):
        cfg = state["cfg"]
        seen = []
        clustering = pseudolabel.dbscan

        def keep_input(dist, *args, **kwargs):
            seen.append(dist)
            return clustering(dist, *args, **kwargs)

        pseudolabel.dbscan = keep_input
        try:
            labeling = pseudolabel.relabel_epoch(state["bench"].target_train, state["params"],
                                                 cfg.k, cfg.eps, cfg.min_pts)
        finally:
            pseudolabel.dbscan = clustering
        return {"labeling": labeling, "jaccard": seen[0].values}

    def check(self, state, out, rng):
        cfg = state["cfg"]
        target = state["bench"].target_train
        feats = checks.encode_rows(state["params"], target)
        pairs = checks.sample_pairs(out["jaccard"], rng)
        return checks.check_relabel(feats, out["jaccard"], out["labeling"], target.identities,
                                    pairs, k=cfg.k, eps=cfg.eps, min_pts=cfg.min_pts)

    def accuracy(self, state, out):
        target = state["bench"].target_train
        return {"map_rerank": self.reference_map(state),
                "label_purity": checks.label_purity(out["labeling"].assignment,
                                                    target.identities)}

    def digest(self, out):
        return _digest(out["labeling"].assignment)


class Rerank3k(_Pretrained):
    """``rerank`` then ``evaluate`` on a 400-query / 2,600-gallery split."""

    name = "rerank_3k"

    def setup(self, seed):
        state = super().setup(seed)
        split = state["bench"].val_split
        for name, part in (("q", split.query), ("g", split.gallery)):
            state[name] = l2_normalize_rows(encoder.encode_dataset(state["params"], part),
                                            "feature")
        return state

    def run(self, state):
        dist = retrieval.rerank(state["q"], state["g"], **RERANK)
        return {"dist": dist,
                "report": retrieval.evaluate_split(state["bench"].val_split, dist=dist)}

    def check(self, state, out, rng):
        split = state["bench"].val_split
        problems = []
        for name, part in (("q", split.query), ("g", split.gallery)):
            dev = float(np.max(np.abs(checks.encode_rows(state["params"], part) - state[name])))
            if dev > checks.DIST_TOL:
                problems.append(f"encoded {name} rows off by {dev:.3e}")
        return problems + checks.check_rerank(
            state["q"], state["g"], out["dist"], out["report"], split, rng=rng,
            rerank_fn=retrieval.rerank, cdist_fn=cdist, **RERANK)

    def accuracy(self, state, out):
        return {"map_rerank": out["report"].mAP, "label_purity": self.reference_purity(state)}

    def digest(self, out):
        return _digest(out["dist"], np.array([out["report"].mAP]), out["report"].cmc)


WORKLOADS = {w.name: w for w in (TrainFull(), Relabel4k(), Rerank3k())}
