"""Acceptance gate: six criteria, one printed verdict line each.

Each test prints ``[acceptance] criterion N (<name>): PASS/FAIL (<detail>)``
directly to the terminal, then asserts.  Criterion five trains the full
pipeline over five seeds and dominates the wall time (a minute or two).
"""
import importlib.util
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import oracles
from test_retrieval import oracle_points
from uda_reid.cli import run
from uda_reid.encoder import init_params, ema_update
from uda_reid.gradcheck import run_gradcheck
from uda_reid.losses import mmt_plus_total
from uda_reid.numerics import cdist
from uda_reid.pipeline import StageConfig, ablation_arms
from uda_reid.pseudolabel import (dbscan, jaccard_distance,
                                  k_reciprocal_neighbors, nearest, pairwise_euclidean)
from uda_reid.retrieval import camera_adjust, evaluate, rerank

FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(capsys, idx, name, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[acceptance] criterion {idx} ({name}): {status} ({detail})")
    assert passed, f"criterion {idx} ({name}): {detail}"


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient check
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_check(capsys):
    started = time.time()
    results = run_gradcheck(trials=100, seed=0)
    elapsed = time.time() - started
    worst = max(results.values())
    passed = worst < 1e-4 and elapsed < 60.0
    _verdict(capsys, 1, "gradient check", passed,
             f"{len(results)} kernels x 100 trials, worst rel err "
             f"{worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: structure kernels match independent references
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence(capsys):
    seeds = range(24)
    worst_jac = worst_rr = worst_eval = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)

        # neighborhood expansion and jaccard distances on random clouds
        n = 10 + seed % 41
        k = 3 + seed % 5
        dm = pairwise_euclidean(rng.normal(size=(n, 4)))
        got = [s.tolist() for s in k_reciprocal_neighbors(nearest(dm.values, k + 1))]
        assert got == oracles.expanded_ref(dm.values, k)
        jac = jaccard_distance(dm, k).values
        worst_jac = max(worst_jac, float(np.max(np.abs(
            jac - oracles.jaccard_distance_ref(dm.values, k)))))

        # density clustering on three separated blobs
        m = 4 + seed % 12
        centers = rng.normal(scale=8.0, size=(3, 2))
        pts = np.concatenate(
            [c + rng.normal(scale=0.5, size=(m, 2)) for c in centers])
        dmc = pairwise_euclidean(pts)
        out = dbscan(dmc, eps=1.5, min_pts=3)
        ref_labels, ref_count = oracles.dbscan_ref(dmc.values, 1.5, 3)
        assert out.num_clusters == ref_count
        assert np.array_equal(out.assignment, ref_labels)

        # reciprocal re-ranking against the stepwise reference
        q, g = rng.normal(size=(5, 4)), rng.normal(size=(9, 4))
        k1, k2 = 3 + seed % 4, 1 + seed % 3
        worst_rr = max(worst_rr, float(np.max(np.abs(
            rerank(q, g, k1=k1, k2=k2, lam=0.3)
            - oracles.rerank_ref(q, g, k1=k1, k2=k2, lam=0.3)))))

        # protocol metrics on a shared random distance matrix; the first six
        # gallery rows mirror the query identities at a shifted camera so
        # every query stays valid
        dist = rng.uniform(size=(6, 12))
        ids_q = rng.integers(0, 4, size=6)
        cams_q = rng.integers(0, 3, size=6)
        ids_g = np.concatenate([ids_q, rng.integers(0, 4, size=6)])
        cams_g = np.concatenate([(cams_q + 1) % 3, rng.integers(0, 3, size=6)])
        rep = evaluate(dist, ids_q, cams_q, ids_g, cams_g)
        ref_map, ref_cmc, ref_n = oracles.evaluate_ref(
            dist, ids_q, cams_q, ids_g, cams_g)
        assert rep.num_valid_queries == ref_n
        worst_eval = max(worst_eval, abs(rep.mAP - ref_map),
                         float(np.max(np.abs(rep.cmc - ref_cmc))))

    passed = worst_jac < 1e-6 and worst_rr < 1e-6 and worst_eval < 1e-9
    _verdict(capsys, 2, "oracle equivalence", passed,
             f"{len(seeds)} seeds, n <= 50; max devs: jaccard {worst_jac:.1e}, "
             f"rerank {worst_rr:.1e}, evaluate {worst_eval:.1e}; "
             "neighbor sets and clusterings exact")


# ---------------------------------------------------------------------------
# criterion 3: endpoint parameter values collapse to exact identities
# ---------------------------------------------------------------------------

def test_criterion_3_endpoint_identities(capsys):
    rng = np.random.default_rng(0)
    q, g = rng.normal(size=(6, 4)), rng.normal(size=(10, 4))

    q_blocks, g_blocks = oracle_points("blocks")  # the query rows end inside a row block
    rerank_exact = (np.array_equal(rerank(q, g, k1=5, k2=2, lam=1.0), cdist(q, g))
                    and np.array_equal(rerank(q_blocks, g_blocks, k1=20, k2=6, lam=1.0),
                                       cdist(q_blocks, g_blocks)))

    dist = cdist(q, g)
    cam_q = rng.integers(0, 3, size=6)
    cam_g = rng.integers(0, 3, size=10)
    adjusted = camera_adjust(dist, cam_q, cam_g, weight=0.0)
    cam_exact = np.array_equal(adjusted, dist) and not np.shares_memory(adjusted, dist)

    teacher = init_params(6, 4, 3, seed=1)
    student = init_params(6, 4, 3, seed=2)
    frozen = teacher.copy()
    ema_update(teacher, student, alpha=1.0)
    hold = all(np.array_equal(arr, frozen.all_arrays()[name])
               for name, arr in teacher.all_arrays().items())
    ema_update(teacher, student, alpha=0.0)
    adopt = all(np.array_equal(arr, student.all_arrays()[name])
                for name, arr in teacher.all_arrays().items())

    cfg = StageConfig()
    combined = (mmt_plus_total(soft=4.0, hard=2.0, moco=1.0, lambda_soft=cfg.lambda_soft,
                               lambda_moco=cfg.lambda_moco) == 3.1
                and mmt_plus_total(4.0, 2.0, 9.0, lambda_soft=1.0,
                                   lambda_moco=0.0) == 4.0
                and mmt_plus_total(4.0, 2.0, 9.0, lambda_soft=0.0,
                                   lambda_moco=0.0) == 2.0)

    passed = rerank_exact and cam_exact and hold and adopt and combined
    _verdict(capsys, 3, "endpoint identities", passed,
             f"rerank lam=1 bitwise {rerank_exact}, camera weight=0 copy "
             f"{cam_exact}, ema alpha=1 holds {hold} / alpha=0 adopts {adopt}, "
             f"loss selectors {combined}")


# ---------------------------------------------------------------------------
# criterion 4: hand-computed retrieval protocol fixtures
# ---------------------------------------------------------------------------

def test_criterion_4_protocol_fixtures(capsys):
    cases = json.loads((FIXTURES / "eval_protocol_cases.json").read_text())["cases"]
    worst = 0.0
    for case in cases:
        rep = evaluate(np.array(case["dist"], dtype=np.float64),
                       np.array(case["ids_q"]), np.array(case["cams_q"]),
                       np.array(case["ids_g"]), np.array(case["cams_g"]),
                       top_limit=case["top_limit"])
        exp = case["expected"]
        worst = max(worst, abs(rep.mAP - exp["mAP"]),
                    float(np.max(np.abs(rep.cmc - np.array(exp["cmc"])))))
        assert rep.num_valid_queries == exp["num_valid_queries"], case["name"]
        for got_ap, want_ap in zip(rep.per_query_ap, exp["per_query_ap"]):
            if want_ap is None:
                assert np.isnan(got_ap), case["name"]
            else:
                worst = max(worst, abs(got_ap - want_ap))
    passed = worst < 1e-12
    _verdict(capsys, 4, "protocol fixtures", passed,
             f"{len(cases)} hand-computed cases, max dev {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 5: directional ablations over five seeds
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ablation():
    """Median validation mAP per arm, the grid of scripts/run_ablation.py."""
    started = time.time()
    per_seed = [ablation_arms(seed) for seed in range(5)]
    medians = {arm: float(np.median([row[arm] for row in per_seed]))
               for arm in per_seed[0]}
    return medians, time.time() - started


def test_criterion_5_directional_ablations(ablation, capsys):
    med, elapsed = ablation
    checks = (med["translated"] - med["raw"] >= 0.05,
              med["baseline"] - med["translated"] >= 0.05,
              med["full"] >= med["ablated"],
              med["reranked"] >= 0.80,
              elapsed < 600.0)
    passed = all(checks)
    _verdict(capsys, 5, "directional ablations", passed,
             "median mAP raw {raw:.4f} < translated {translated:.4f} < "
             "baseline {baseline:.4f}; ablated {ablated:.4f} <= full "
             "{full:.4f}; reranked {reranked:.4f} >= 0.80; {t:.0f}s"
             .format(t=elapsed, **med))


ABLATION_ARMS = ("raw", "translated", "baseline", "ablated", "full", "reranked")


def fake_arms(seed):  # values that 3 decimals would round together
    return {arm: seed / 7 + i / 3 for i, arm in enumerate(ABLATION_ARMS)}


@pytest.fixture
def ablation_script(monkeypatch):
    """scripts/run_ablation.py on fake arms, and the seeds they ran, in order."""
    spec = importlib.util.spec_from_file_location(
        "run_ablation", Path(__file__).parent.parent / "scripts" / "run_ablation.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    ran = []

    def arms(seed):
        ran.append(seed)
        return fake_arms(seed)

    monkeypatch.setattr(script, "ablation_arms", arms)
    return script, ran


def test_run_ablation_reports_every_arm_per_seed(ablation_script, capsys):
    script, ran = ablation_script
    assert script.main(["--seeds", "3,0,11"]) == 0
    assert ran == [3, 0, 11]
    report = json.loads(capsys.readouterr().out)
    assert report["per_seed"] == {str(s): fake_arms(s) for s in (3, 0, 11)}
    assert report["medians"]["full"] == round(3 / 7 + 4 / 3, 4)


@pytest.mark.parametrize("seeds,why", [
    ("1,,2", "got ''"), ("1,", "got ''"), ("-1", "got '-1'"), ("2, -1", "got ' -1'"),
    ("x", "got 'x'"), ("0,0,1", "seed 0 is named twice"), ("1,01", "seed 1 is named twice"),
])
def test_run_ablation_rejects_bad_seed_lists_before_any_arm(ablation_script, capsys,
                                                            seeds, why):
    script, ran = ablation_script
    with pytest.raises(SystemExit) as exc:
        script.main([f"--seeds={seeds}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage:")
    assert "argument --seeds: " in err and why in err
    assert ran == []


@pytest.mark.parametrize("value,why", [
    ("nan", "must be finite, got nan"), ("inf", "must be finite, got inf"),
    ("-0.1", "must be in [0, 1], got -0.1"), ("1.5", "must be in [0, 1], got 1.5"),
])
def test_run_ablation_rejects_bad_fidelity_before_any_arm(ablation_script, capsys, value, why):
    script, ran = ablation_script
    with pytest.raises(SystemExit) as exc:
        script.main(["--seeds", "0", f"--fidelity={value}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage:")
    assert "argument --fidelity: config field 'translation_fidelity': " in err and why in err
    assert ran == []


# ---------------------------------------------------------------------------
# criterion 6: repeated CLI invocations are byte-identical
# ---------------------------------------------------------------------------

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([str(a) for a in argv])
    assert code == 0, f"exit {code}: {err.getvalue()}"
    return out.getvalue()


def test_criterion_6_cli_determinism(capsys, tmp_path):
    d = tmp_path
    synth_flags = ["--num-ids-source", "8", "--num-ids-target", "8",
                   "--samples-per-id", "6", "--raw-dim", "16", "--seed", "0"]
    train_flags = ["--epochs", "2", "--iters-per-epoch", "4", "--p-classes",
                   "4", "--k-per", "2", "--queue-capacity", "32", "--k", "10"]
    src, tgt, tr = (d / "data" / f"{n}.bin"
                    for n in ("source", "target", "translated"))
    commands = [
        ("synth", ["synth", "--out", d / "data"] + synth_flags,
         [src, tgt, tr]),
        ("pretrain", ["pretrain", "--data", tr, "--out", d / "pre.params",
                      "--log", d / "pre.jsonl", "--encoder-dim", "8"] + train_flags,
         [d / "pre.params", d / "pre.jsonl"]),
        ("baseline", ["baseline", "--params", d / "pre.params", "--data", tgt,
                      "--out", d / "base.params"] + train_flags,
         [d / "base.params"]),
        ("mmtplus", ["mmtplus", "--params", d / "pre.params", "--source", src,
                     "--target", tgt, "--out", d / "teacher.params"]
         + train_flags, [d / "teacher.params"]),
        ("cluster", ["cluster", "--params", d / "pre.params", "--data", tgt,
                     "--out", d / "relab.bin", "--k", "10"], [d / "relab.bin"]),
        ("rerank", ["rerank", "--query", tgt, "--gallery", tgt, "--params",
                    d / "pre.params", "--out", d / "dist.npy"],
         [d / "dist.npy"]),
        ("evaluate", ["evaluate", "--query", tgt, "--gallery", tgt,
                      "--params", d / "teacher.params"], []),
        ("ensemble", ["ensemble", "--data", tgt, "--params", d / "pre.params",
                      "--params", d / "teacher.params", "--out", d / "ens.bin"],
         [d / "ens.bin"]),
        ("gradcheck", ["gradcheck", "--trials", "3"], []),
    ]
    stable = []
    for name, argv, outputs in commands:
        first_stdout = _run_cli(argv)
        first_bytes = [p.read_bytes() for p in outputs]
        second_stdout = _run_cli(argv)
        second_bytes = [p.read_bytes() for p in outputs]
        stable.append(first_stdout == second_stdout
                      and first_bytes == second_bytes)
        assert stable[-1], f"{name} output changed between identical runs"
    passed = all(stable) and len(commands) == 9
    _verdict(capsys, 6, "command determinism", passed,
             "9 subcommands run twice, stdout and artifacts byte-identical")
