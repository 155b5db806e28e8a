"""End-to-end coverage of the command-line interface.

Commands run in process through ``run(argv)``.  Success means exit code 0
and exactly one JSON object on stdout; human-readable notes go to stderr.
"""
import functools
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

import uda_reid
from uda_reid import commands, pipeline
from uda_reid.cli import run
from uda_reid.datamodel import SYNTH_NAMES, load_features, save_features
from uda_reid.encoder import init_params, load_params, save_params

TINY_SYNTH = ["--num-ids-source", "8", "--num-ids-target", "8",
              "--samples-per-id", "6", "--raw-dim", "16", "--seed", "0"]
TINY_TRAIN = ["--epochs", "2", "--iters-per-epoch", "4", "--p-classes", "4",
              "--k-per", "2", "--queue-capacity", "32", "--k", "10"]
TINY_PRETRAIN = TINY_TRAIN + ["--encoder-dim", "8"]  # the later stages keep this width


def go(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def ok(argv):
    """Run a command expected to succeed and parse its JSON payload."""
    code, out, err = go(argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    assert out.endswith("\n") and out.count("\n") == 1
    return json.loads(out)


@pytest.fixture(scope="module")
def arts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ok(["synth", "--out", root / "data"] + TINY_SYNTH)
    paths = {name: root / "data" / f"{name}.bin"
             for name in ("source", "target", "translated")}
    paths["root"] = root
    paths["pre"] = root / "pre.params"
    ok(["pretrain", "--data", paths["translated"], "--out", paths["pre"]]
       + TINY_PRETRAIN)
    return paths


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_synth_payload_and_files(arts):
    payload = ok(["synth", "--out", arts["root"] / "again"] + TINY_SYNTH)
    assert payload["command"] == "synth" and payload["seed"] == 0
    assert set(payload["datasets"]) == {"source", "target", "translated"}
    for name, entry in payload["datasets"].items():
        assert entry["rows"] == 48 and entry["dim"] == 16
        assert (arts["root"] / "again" / f"{name}.bin").exists()


def test_synth_is_byte_deterministic(arts):
    ok(["synth", "--out", arts["root"] / "rep1"] + TINY_SYNTH)
    ok(["synth", "--out", arts["root"] / "rep2"] + TINY_SYNTH)
    for name in ("source", "target", "translated"):
        a = (arts["root"] / "rep1" / f"{name}.bin").read_bytes()
        b = (arts["root"] / "rep2" / f"{name}.bin").read_bytes()
        assert a == b


def test_synth_config_file_with_flag_override(arts, tmp_path):
    conf = tmp_path / "synth.conf"
    conf.write_text("num_ids_source = 4\nsamples_per_id = 6\nraw_dim = 16\n")
    payload = ok(["synth", "--out", tmp_path / "d", "--config", conf,
                  "--samples-per-id", "3"])
    assert payload["datasets"]["source"]["rows"] == 12  # 4 ids x 3, flag wins


# ---------------------------------------------------------------------------
# training stages
# ---------------------------------------------------------------------------

def test_pretrain_with_log_and_validation(arts, tmp_path):
    log_path = tmp_path / "train.jsonl"
    payload = ok(["pretrain", "--data", arts["translated"],
                  "--out", tmp_path / "p.params", "--log", log_path,
                  "--val", arts["target"]] + TINY_PRETRAIN)
    assert payload["stage"] == "pretrain"
    assert payload["epochs"] == 2 and payload["skipped_epochs"] == 0
    assert 0.0 <= payload["final_val_map"] <= 1.0
    lines = log_path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert rec["stage"] == "pretrain" and "cls" in rec


def test_pretrain_is_byte_deterministic(arts, tmp_path):
    for rep in ("a", "b"):
        ok(["pretrain", "--data", arts["translated"],
            "--out", tmp_path / f"{rep}.params",
            "--log", tmp_path / f"{rep}.jsonl"] + TINY_PRETRAIN)
    assert (tmp_path / "a.params").read_bytes() == (tmp_path / "b.params").read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_config_file_then_flag_override(arts, tmp_path):
    conf = tmp_path / "stage.conf"
    conf.write_text("epochs = 1\niters_per_epoch = 4\np_classes = 4\n"
                    "k_per = 2\nencoder_dim = 8\n")
    payload = ok(["pretrain", "--data", arts["translated"],
                  "--out", tmp_path / "p.params", "--config", conf,
                  "--epochs", "2"])
    assert payload["epochs"] == 2


def test_baseline_runs_from_pretrained(arts, tmp_path):
    payload = ok(["baseline", "--params", arts["pre"], "--data", arts["target"],
                  "--out", tmp_path / "b.params"] + TINY_TRAIN)
    assert payload["stage"] == "baseline"
    assert payload["skipped_epochs"] == 0
    assert (tmp_path / "b.params").exists()


def test_mmtplus_exports_either_teacher(arts, tmp_path):
    common = ["mmtplus", "--params", arts["pre"], "--source", arts["source"],
              "--target", arts["target"]] + TINY_TRAIN
    p1 = ok(common + ["--out", tmp_path / "t1.params"])
    assert p1["stage"] == "mmt_plus" and p1["export"] == "teacher1"
    p2 = ok(common + ["--out", tmp_path / "t2.params", "--export", "teacher2"])
    assert p2["export"] == "teacher2"
    # student 2 starts from a decorrelated copy, so the teachers differ
    assert (tmp_path / "t1.params").read_bytes() != \
        (tmp_path / "t2.params").read_bytes()


def test_mmtplus_with_explicit_second_init(arts, tmp_path):
    # both students seeded from the same file: the branches stay mirrored,
    # so the two teachers serialize identically
    common = ["mmtplus", "--params", arts["pre"], "--params2", arts["pre"],
              "--source", arts["source"], "--target", arts["target"]] + TINY_TRAIN
    ok(common + ["--out", tmp_path / "t1.params"])
    ok(common + ["--out", tmp_path / "t2.params", "--export", "teacher2"])
    assert (tmp_path / "t1.params").read_bytes() == \
        (tmp_path / "t2.params").read_bytes()


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def test_cluster_out_flag_leaves_input_untouched(arts, tmp_path):
    before = arts["target"].read_bytes()
    payload = ok(["cluster", "--params", arts["pre"], "--data", arts["target"],
                  "--out", tmp_path / "relabeled.bin", "--k", "10"])
    assert arts["target"].read_bytes() == before
    assert payload["num_clusters"] >= 1
    relabeled = load_features(tmp_path / "relabeled.bin")
    assert np.unique(relabeled.pseudo[relabeled.pseudo >= 0]).size == \
        payload["num_clusters"]


def test_cluster_config_error_exits_2_leaving_data_untouched(arts):
    before = arts["target"].read_bytes()
    code, out, err = go(["cluster", "--params", arts["pre"], "--data", arts["target"],
                         "--k", "10", "--eps", "-1"])
    assert code == 2 and out == "", err
    assert "config field 'eps': must be > 0" in err and "Traceback" not in err
    assert arts["target"].read_bytes() == before


def test_cluster_blend_is_an_unknown_flag(arts, tmp_path):
    code, out, err = go(["cluster", "--params", arts["pre"], "--data", arts["target"],
                         "--out", tmp_path / "blended.bin", "--blend", "0.5"])
    assert code == 1 and out == "", err
    assert "unrecognized arguments: --blend 0.5" in err
    assert not (tmp_path / "blended.bin").exists()


def test_lr_schedule_is_an_unknown_flag_and_key(arts, tmp_path):
    out_path = tmp_path / "p.params"
    code, out, err = go(["pretrain", "--data", arts["translated"], "--out", out_path,
                         "--lr-schedule", "step"] + TINY_TRAIN)
    assert code == 1 and out == "", err
    assert "unrecognized arguments: --lr-schedule step" in err
    conf = tmp_path / "step.cfg"
    conf.write_text("lr_schedule = step\nlr_milestones = 1\n")
    code, out, err = go(["pretrain", "--data", arts["translated"], "--out", out_path,
                         "--config", conf] + TINY_TRAIN)
    assert code == 2 and out == "", err
    assert "config field 'lr_schedule': unknown configuration key" in err
    assert not out_path.exists()


def test_cluster_in_place_rewrites_data(arts, tmp_path):
    work = tmp_path / "work.bin"
    shutil.copyfile(arts["target"], work)
    before = work.read_bytes()
    payload = ok(["cluster", "--params", arts["pre"], "--data", work,
                  "--k", "10"])
    assert payload["data"] == str(work)
    assert work.read_bytes() != before  # pseudo column rewritten in place


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def test_rerank_writes_distance_matrix(arts, tmp_path):
    out = tmp_path / "dist.npy"
    payload = ok(["rerank", "--query", arts["target"], "--gallery",
                  arts["target"], "--params", arts["pre"], "--out", out])
    assert payload["shape"] == [48, 48]
    dist = np.load(out)
    assert dist.shape == (48, 48) and np.all(np.isfinite(dist))


def test_rerank_writes_exactly_the_out_path(arts, tmp_path):
    base = ["rerank", "--query", arts["target"], "--gallery", arts["target"],
            "--params", arts["pre"], "--out"]
    ok(base + [tmp_path / "dist.npy"])
    code, out, err = go(base + [tmp_path / "d"])
    assert code == 0 and json.loads(out)["out"] == str(tmp_path / "d")
    assert err.rstrip().endswith(f"to {tmp_path / 'd'}")
    assert not (tmp_path / "d.npy").exists()
    assert (tmp_path / "d").read_bytes() == (tmp_path / "dist.npy").read_bytes()
    assert np.array_equal(np.load(tmp_path / "d"), np.load(tmp_path / "dist.npy"))


def test_evaluate_payload_shape(arts):
    payload = ok(["evaluate", "--query", arts["target"], "--gallery",
                  arts["target"], "--params", arts["pre"]])
    assert payload["rerank"] is False
    assert 0.0 <= payload["mAP"] <= 1.0
    assert payload["num_valid_queries"] == 48
    cmc = payload["cmc"]
    assert all(a <= b for a, b in zip(cmc, cmc[1:]))  # monotone


def test_evaluate_rerank_lambda_one_matches_plain(arts):
    base = ["--query", arts["target"], "--gallery", arts["target"],
            "--params", arts["pre"]]
    plain = ok(["evaluate"] + base)
    mixed = ok(["evaluate"] + base + ["--rerank", "--lam", "1.0"])
    assert mixed.pop("rerank") is True and plain.pop("rerank") is False
    assert mixed == plain  # lambda 1 degenerates to plain euclidean ranking


def test_evaluate_cam_weight_zero_is_identity(arts):
    base = ["evaluate", "--query", arts["target"], "--gallery", arts["target"],
            "--params", arts["pre"]]
    plain = ok(base)
    zero = ok(base + ["--cam-weight", "0.0"])
    assert zero == plain
    bare = ok(base + ["--cam-weight"])  # bare flag means weight 0.1
    assert 0.0 <= bare["mAP"] <= 1.0


@pytest.mark.parametrize("weight", ["nan", "inf", "-1"])
def test_evaluate_cam_weight_out_of_range_exits_2(arts, weight):
    code, out, err = go(["evaluate", "--query", arts["target"], "--gallery", arts["target"],
                         "--params", arts["pre"], "--cam-weight", weight])
    assert code == 2 and out == "", err
    assert "weight must be finite and >= 0" in err and "Traceback" not in err


def test_evaluate_top_truncates_cmc(arts):
    payload = ok(["evaluate", "--query", arts["target"], "--gallery",
                  arts["target"], "--params", arts["pre"], "--top", "10"])
    assert len(payload["cmc"]) == 10


def test_single_camera_evaluation_exits_2(arts, tmp_path):
    # with one camera every relevant gallery row shares the query's
    # (identity, camera) pair and is dropped, so no query can be scored
    ds = load_features(arts["target"])
    ds.cameras[:] = 0
    one_cam = tmp_path / "one_cam.bin"
    save_features(one_cam, ds)
    base = ["evaluate", "--query", one_cam, "--gallery", one_cam, "--params", arts["pre"]]
    for extra in ([], ["--rerank"], ["--rerank", "--cam-weight"]):
        code, out, err = go(base + extra)
        assert code == 2 and out == "", (extra, err)
        assert "no query has a relevant gallery entry" in err, (extra, err)
        assert "Traceback" not in err, (extra, err)


def test_evaluate_cam_weight_takes_any_camera_id(arts, tmp_path):
    # the adjustment compares camera ids; it builds no array sized by them
    ds = load_features(arts["target"])
    ds.cameras[0] = 2 ** 24
    far = tmp_path / "far_camera.bin"
    save_features(far, ds)
    payload = ok(["evaluate", "--query", far, "--gallery", far, "--params", arts["pre"],
                  "--cam-weight"])
    assert 0.0 <= payload["mAP"] <= 1.0


def cli_subprocess(argv):
    """Run the CLI in a fresh interpreter, so ``--threads`` takes effect
    before numpy loads; returns (exit code, stdout)."""
    src = os.path.dirname(os.path.dirname(uda_reid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "uda_reid.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=600)
    return proc.returncode, proc.stdout


def test_outputs_do_not_depend_on_thread_count(tmp_path):
    ok(["synth", "--out", tmp_path / "data", "--num-ids-source", "2",
        "--num-ids-target", "100", "--samples-per-id", "10", "--raw-dim", "16"])
    target = load_features(tmp_path / "data" / "target.bin")
    assert target.n >= 1000
    rows = np.arange(target.n)
    save_features(tmp_path / "query.bin", target.subset(rows[::5]))
    save_features(tmp_path / "gallery.bin", target.subset(rows[rows % 5 != 0]))
    # relabel at 4,000 rows as well: 200 target identities x 20 rows
    ok(["synth", "--out", tmp_path / "large", "--num-ids-source", "2",
        "--num-ids-target", "200", "--samples-per-id", "20", "--raw-dim", "16"])
    large = tmp_path / "large" / "target.bin"
    assert load_features(large).n == 4000
    save_params(tmp_path / "enc.params", init_params(16, 8, 1, seed=0))
    retrieval = ["--query", tmp_path / "query.bin", "--gallery", tmp_path / "gallery.bin",
                 "--params", tmp_path / "enc.params"]
    results = {}
    for threads in (1, 2):
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        code, _ = cli_subprocess(["--threads", threads, "rerank", *retrieval,
                                  "--out", run_dir / "rerank.npy"])
        assert code == 0
        code, evaluated = cli_subprocess(["--threads", threads, "evaluate", *retrieval,
                                          "--rerank"])
        assert code == 0
        code, _ = cli_subprocess(["--threads", threads, "cluster", "--params",
                                  tmp_path / "enc.params", "--data", tmp_path / "data" / "target.bin",
                                  "--out", run_dir / "relabeled.bin"])
        assert code == 0
        code, _ = cli_subprocess(["--threads", threads, "cluster", "--params",
                                  tmp_path / "enc.params", "--data", large,
                                  "--out", run_dir / "relabeled_4k.bin"])
        assert code == 0
        results[threads] = ((run_dir / "rerank.npy").read_bytes(), evaluated,
                            (run_dir / "relabeled.bin").read_bytes(),
                            (run_dir / "relabeled_4k.bin").read_bytes())
    assert results[1] == results[2]


def test_training_does_not_depend_on_thread_count(tmp_path):
    # batches of up to 128 rows into a 32-wide encoder: stacked matrix
    # products large enough for a BLAS library to split across threads
    ok(["synth", "--out", tmp_path / "data", "--num-ids-source", "16",
        "--num-ids-target", "16", "--samples-per-id", "10", "--raw-dim", "64"])
    data = tmp_path / "data"
    train = ["--epochs", "2", "--iters-per-epoch", "3", "--k", "10",
             "--queue-capacity", "128"]
    results = {}
    for threads in (1, 2):
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        commands = [
            ["pretrain", "--data", data / "translated.bin", "--out", run_dir / "pre.params"],
            ["baseline", "--params", run_dir / "pre.params", "--data", data / "target.bin",
             "--out", run_dir / "base.params"],
            ["mmtplus", "--params", run_dir / "pre.params", "--source", data / "source.bin",
             "--target", data / "target.bin", "--out", run_dir / "mmt.params"],
        ]
        outputs = []
        for argv in commands:
            log = run_dir / f"{argv[0]}.jsonl"
            code, stdout = cli_subprocess(["--threads", threads, *argv, "--log", log,
                                           "--val", data / "target.bin", *train])
            assert code == 0, argv[0]
            outputs += [stdout.replace(str(run_dir), "RUN"), log.read_bytes(),
                        argv[argv.index("--out") + 1].read_bytes()]
        results[threads] = outputs
    assert results[1] == results[2]


def test_mmtplus_width_comes_from_params(arts, tmp_path):
    # the pretrained encoder is 8 wide; StageConfig's encoder_dim defaults to 32
    out = tmp_path / "t.params"
    ok(["mmtplus", "--params", arts["pre"], "--source", arts["source"],
        "--target", arts["target"], "--out", out] + TINY_TRAIN)
    assert load_params(out).weight.shape[0] == load_params(arts["pre"]).weight.shape[0] == 8


@pytest.mark.parametrize("command", ["baseline", "mmtplus"])
def test_encoder_dim_is_pretrain_only(command, arts, tmp_path, no_training):
    out = tmp_path / "o.params"
    code, stdout, err = go([command] + train_inputs(command, arts) + ["--out", out]
                           + TINY_TRAIN + ["--encoder-dim", "32"])
    assert code == 1 and stdout == "", err
    assert "unrecognized arguments: --encoder-dim 32" in err
    conf = tmp_path / "stage.cfg"
    conf.write_text("epochs = 1\nencoder_dim = 32\n")
    code, stdout, err = go([command] + train_inputs(command, arts) + ["--out", out,
                                                                      "--config", conf])
    assert code == 2 and stdout == "", err
    assert "config field 'encoder_dim': unknown configuration key" in err
    assert not out.exists()


def test_mmtplus_width_mismatches_exit_2(arts, tmp_path):
    mmt = ["mmtplus", "--params", arts["pre"], "--source", arts["source"],
           "--target", arts["target"], "--out", tmp_path / "t.params"]
    narrow = tmp_path / "narrow.params"
    save_params(narrow, init_params(16, 4, 8, seed=1))
    fewer_classes = tmp_path / "fewer.params"
    save_params(fewer_classes, init_params(16, 8, 3, seed=1))
    for second in (narrow, fewer_classes):
        code, out, err = go(mmt + ["--params2", second] + TINY_TRAIN)
        assert code == 2 and out == "" and "params2" in err, err
        assert not (tmp_path / "t.params").exists()


def test_ensemble_concatenates_encodings(arts, tmp_path):
    out = tmp_path / "ens.bin"
    payload = ok(["ensemble", "--data", arts["target"], "--params", arts["pre"],
                  "--params", arts["pre"], "--out", out])
    assert payload["encoders"] == 2 and payload["dim"] == 16
    ds = load_features(out)
    assert ds.features.shape == (48, 16)
    norms = np.linalg.norm(ds.features.astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-5)  # normalized parts, rescaled


# ---------------------------------------------------------------------------
# gradient checker
# ---------------------------------------------------------------------------

def test_gradcheck_payload(arts):
    payload = ok(["gradcheck", "--trials", "2"])
    assert payload["passed"] is True
    assert payload["worst"] < 1e-4
    assert set(payload["kernels"]) == {
        "cross_entropy_batch", "softmax_triplet_loss", "soft_ce_batch", "moco_batch",
        "margin_arcface", "margin_cosface", "classifier_backward", "affine_backward"}
    assert all(v >= 0 for v in payload["kernels"].values())


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_without_trials_exits_2(trials):
    code, out, err = go(["gradcheck", "--trials", trials])
    assert code == 2 and out == "", err
    assert f"trials must be >= 1, got {trials}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "never", "--seed", "-1"],
    ["synth", "--out", "never", "--config", "seed.cfg"],
    ["pretrain", "--data", "TRANSLATED", "--out", "never", "--seed", "-2"],
    ["pretrain", "--data", "TRANSLATED", "--out", "never", "--config", "seed.cfg"],
    ["gradcheck", "--seed", "-1"],
])
def test_negative_seed_exits_2_naming_the_field(argv, arts, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.cfg").write_text("seed = -3\n")
    code, out, err = go([arts["translated"] if a == "TRANSLATED" else a for a in argv])
    assert code == 2 and out == "", err
    assert "seed" in err and "must be >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("extra", [["--config", "milestones.cfg"], ["--lr-milestones=-1"]])
def test_negative_lr_milestone_exits_2_naming_the_field(extra, arts, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "milestones.cfg").write_text("lr_milestones = -3,0\n")
    code, out, err = go(["pretrain", "--data", arts["translated"], "--out", "never"]
                        + TINY_TRAIN + extra)
    assert code == 2 and out == "", err
    assert "config field 'lr_milestones': must be >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_gradcheck_tolerance_out_of_range_exits_2_before_any_check(tol, monkeypatch):
    def no_checks(**kwargs):
        raise AssertionError("checks ran")
    monkeypatch.setattr("uda_reid.commands.run_gradcheck", no_checks)
    code, out, err = go(["gradcheck", "--trials", "1", "--tol", tol])
    assert code == 2 and out == "", err
    assert "--tol must be finite and > 0, got" in err and "Traceback" not in err


@pytest.mark.parametrize("field,argv", [
    ("shift_strength", ["synth", "--out", "never", "--shift-strength", "nan"]),
    ("shift_strength", ["synth", "--out", "never", "--config", "nan.cfg"]),
    ("eps", ["baseline", "--params", "PRE", "--data", "TARGET", "--out", "never",
             "--eps", "nan"]),
    ("lr", ["pretrain", "--data", "TRANSLATED", "--out", "never", "--lr", "inf"]),
    ("lr", ["pretrain", "--data", "TRANSLATED", "--out", "never", "--config", "nan.cfg"]),
])
def test_non_finite_config_float_exits_2_naming_the_field(field, argv, arts, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.cfg").write_text(f"{field} = nan\n")
    subs = {"PRE": arts["pre"], "TARGET": arts["target"], "TRANSLATED": arts["translated"]}
    code, out, err = go([subs.get(a, a) for a in argv])
    assert code == 2 and out == "", err
    assert f"'{field}': must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "never").exists()


def test_gradcheck_tolerance_breach_exits_3():
    code, out, _ = go(["gradcheck", "--trials", "2", "--tol", "1e-15"])
    assert code == 3
    payload = json.loads(out)  # payload still emitted for scripting
    assert payload["passed"] is False


# ---------------------------------------------------------------------------
# exit codes and global flags
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(arts):
    assert go([])[0] == 1
    assert go(["bogus"])[0] == 1
    assert go(["pretrain", "--data", arts["translated"]])[0] == 1  # no --out
    assert go(["pretrain", "--data", arts["translated"], "--out", "o",
               "--epochs", "abc"])[0] == 1
    assert go(["mmtplus", "--params", arts["pre"], "--source", arts["source"],
               "--target", arts["target"], "--out", "o",
               "--export", "student1"])[0] == 1  # only the teachers export


def test_data_errors_exit_2(arts, tmp_path):
    code, _, err = go(["evaluate", "--query", tmp_path / "nope.bin",
                       "--gallery", tmp_path / "nope.bin"])
    assert code == 2 and "nope.bin" in err

    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(b"XXXX" + b"\x00" * 32)
    code, _, err = go(["evaluate", "--query", corrupt, "--gallery", corrupt])
    assert code == 2 and "magic" in err

    code, _, err = go(["synth", "--out", tmp_path / "d",
                       "--translation-fidelity", "1.5"])
    assert code == 2 and "translation_fidelity" in err

    code, _, err = go(["pretrain", "--data", arts["translated"],
                       "--out", tmp_path / "p.params", "--epochs", "1",
                       "--iters-per-epoch", "2", "--encoder-dim", "8",
                       "--p-classes", "64"])
    assert code == 2 and "usable" in err


@pytest.mark.parametrize("p_classes,message", [
    ("64", "need 64 usable labels, have 8"),
    ("1", "config field 'p_classes': must be > 1 for pretraining"),
], ids=["more_than_identities", "one"])
def test_pretrain_unusable_batch_size_exits_2_leaving_no_out(arts, tmp_path,
                                                             p_classes, message):
    out = tmp_path / "p.params"
    code, stdout, err = go(["pretrain", "--data", arts["translated"], "--out", out,
                            "--epochs", "1", "--iters-per-epoch", "2",
                            "--encoder-dim", "8", "--p-classes", p_classes])
    assert code == 2 and message in err and stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command,flags,message", [
    ("mmtplus", ["--p-classes", "64"], "need 64 usable labels, have 8"),
    ("pretrain", ["--p-classes", "2", "--k-per", "1"],
     "config field 'k_per': must be > 1 for the triplet term's in-batch positives"),
    ("baseline", ["--p-classes", "4", "--k-per", "1"],
     "config field 'k_per': must be > 1 for the triplet term's in-batch positives"),
], ids=["mmtplus_p_classes", "pretrain_k_per", "baseline_k_per"])
def test_unusable_batch_shape_exits_2_before_any_relabel_or_step(command, flags, message,
                                                                 arts, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("relabelled or trained before the batch shape was checked")

    for name in ("relabel_epoch", "forward_cached"):
        monkeypatch.setattr(pipeline, name, never)
    out = tmp_path / "p.params"
    code, stdout, err = go([command] + train_inputs(command, arts)
                           + ["--out", out] + TINY_TRAIN + flags)
    assert code == 2 and message in err and stdout == "", err
    assert not out.exists()


def test_mmtplus_trains_with_k_per_one(arts, tmp_path):
    # stage III has no triplet term, so a batch without positives is fine
    ok(["mmtplus"] + train_inputs("mmtplus", arts)
       + ["--out", tmp_path / "o.params"] + TINY_TRAIN + ["--k-per", "1"])


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if any training stage starts."""
    def fail(*args, **kwargs):
        raise AssertionError("a training stage ran")

    for stage in ("stage_pretrain", "stage_baseline", "stage_mmt_plus"):
        monkeypatch.setattr(f"uda_reid.commands.{stage}", fail)


def train_inputs(command, arts):
    """The input flags of a training command, on the module's artifacts."""
    return {"pretrain": ["--data", arts["translated"]],
            "baseline": ["--params", arts["pre"], "--data", arts["target"]],
            "mmtplus": ["--params", arts["pre"], "--source", arts["source"],
                        "--target", arts["target"]]}[command]


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "FILE"],
    ["synth", "--out", "FILE/sub"],
    ["cluster", "--params", "FILE/x", "--data", "TARGET", "--out", "relab.bin"],
    ["pretrain", "--data", "TRANSLATED", "--out", "FILE/x.params"] + TINY_TRAIN,
    ["pretrain", "--data", "TRANSLATED", "--out", "p.params", "--log", "FILE/log"]
    + TINY_TRAIN,
    ["baseline", "--params", "PRE", "--data", "TARGET", "--out", "FILE/x.params"]
    + TINY_TRAIN,
    ["baseline", "--params", "PRE", "--data", "TARGET", "--out", "p.params",
     "--log", "FILE/log"] + TINY_TRAIN,
    ["mmtplus", "--params", "PRE", "--source", "SOURCE", "--target", "TARGET",
     "--out", "FILE/x.params"] + TINY_TRAIN,
    ["mmtplus", "--params", "PRE", "--source", "SOURCE", "--target", "TARGET",
     "--out", "p.params", "--log", "FILE/log"] + TINY_TRAIN,
])
def test_path_os_errors_exit_2(argv, arts, tmp_path, monkeypatch, no_training):
    # a path that names a file where a directory is needed, or one below a
    # file; a training command fails on its outputs before it trains
    monkeypatch.chdir(tmp_path)
    (tmp_path / "FILE").write_bytes(b"")
    subs = {"TARGET": arts["target"], "TRANSLATED": arts["translated"],
            "SOURCE": arts["source"], "PRE": arts["pre"]}
    code, out, err = go([subs.get(a, a) for a in argv])
    assert code == 2 and out == "", err
    assert "error: [Errno" in err and "Traceback" not in err
    assert not (tmp_path / "p.params").exists()  # the usable --out is not left


@pytest.mark.parametrize("command", ["pretrain", "baseline", "mmtplus"])
@pytest.mark.parametrize("out,log,existing", [("x", "x", False), ("./x", "x", False),
                                              ("x", "./x", True)])
def test_log_and_out_naming_one_file_exits_2_before_training(command, out, log, existing,
                                                            arts, tmp_path, monkeypatch,
                                                            no_training):
    # the log would overwrite the params written to the same file
    monkeypatch.chdir(tmp_path)
    if existing:
        (tmp_path / "x").write_bytes(b"kept")
    code, out_text, err = go([command] + train_inputs(command, arts)
                             + ["--out", out, "--log", log] + TINY_TRAIN)
    assert code == 2 and out_text == "", err
    assert "--log and --out name the same file" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == (["x"] if existing else [])
    if existing:
        assert (tmp_path / "x").read_bytes() == b"kept"


TRAIN_IN = ["--data", "t.bin"]
BASE_IN = ["--params", "p.params", "--data", "g.bin"]
MMT_IN = ["--params", "p.params", "--source", "s.bin", "--target", "g.bin"]
RETRIEVE_IN = ["--query", "g.bin", "--gallery", "s.bin", "--params", "p.params"]


@pytest.mark.parametrize("argv,flags", [
    (["pretrain", "--data", "t.bin", "--out", "t.bin"], "--out and --data"),
    (["pretrain", "--data", "t.bin", "--out", "link.bin"], "--out and --data"),
    (["pretrain", *TRAIN_IN, "--val", "g.bin", "--out", "o.params", "--log", "g.bin"],
     "--log and --val"),
    (["pretrain", *TRAIN_IN, "--config", "c.cfg", "--out", "./c.cfg"], "--out and --config"),
    (["baseline", *BASE_IN, "--out", "p.params"], "--out and --params"),
    (["baseline", *BASE_IN, "--out", "o.params", "--log", "g.bin"], "--log and --data"),
    (["mmtplus", *MMT_IN, "--out", "s.bin"], "--out and --source"),
    (["mmtplus", *MMT_IN, "--params2", "q.params", "--out", "q.params"],
     "--out and --params2"),
    (["mmtplus", *MMT_IN, "--out", "o.params", "--log", "g.bin"], "--log and --target"),
    (["cluster", "--params", "p.params", "--data", "g.bin", "--out", "p.params"],
     "--out and --params"),
    (["rerank", *RETRIEVE_IN, "--out", "g.bin"], "--out and --query"),
    (["rerank", *RETRIEVE_IN, "--out", "s.bin"], "--out and --gallery"),
    (["rerank", *RETRIEVE_IN, "--out", "p.params"], "--out and --params"),
    (["ensemble", "--data", "g.bin", "--params", "p.params", "--out", "g.bin"],
     "--out and --data"),
    (["ensemble", "--data", "g.bin", "--params", "p.params", "--params", "q.params",
      "--out", "q.params"], "--out and --params"),
])
def test_output_naming_an_input_exits_2_before_any_work(argv, flags, arts, tmp_path,
                                                       monkeypatch, no_training):
    # no input is read, every input keeps its bytes and no file is created
    monkeypatch.chdir(tmp_path)
    for name, key in (("t.bin", "translated"), ("s.bin", "source"), ("g.bin", "target"),
                      ("p.params", "pre"), ("q.params", "pre")):
        shutil.copyfile(arts[key], name)
    (tmp_path / "c.cfg").write_text("epochs = 1\n")
    os.symlink("t.bin", "link.bin")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def no_read(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr("uda_reid.commands.load_features", no_read)
    monkeypatch.setattr("uda_reid.commands.load_params", no_read)
    code, out, err = go(argv)
    assert code == 2 and out == "", err
    path = argv[argv.index(flags.split()[0]) + 1]
    assert f"error: {flags} name the same file: {path}" in err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("name", SYNTH_NAMES)
def test_synth_config_among_its_outputs_exits_2_before_any_write(name, tmp_path, monkeypatch):
    # synth writes one file per dataset inside --out: a --config among them
    # would be overwritten by the dataset of that name
    monkeypatch.chdir(tmp_path)
    os.mkdir("d")
    config = tmp_path / "d" / f"{name}.bin"
    config.write_text("seed = 3\n")

    def no_synth(*args):
        raise AssertionError("data was generated")

    monkeypatch.setattr("uda_reid.commands.generate_synthetic", no_synth)
    code, out, err = go(["synth", "--out", "d", "--config", f"d/{name}.bin"])
    assert code == 2 and out == "", err
    assert f"error: --out and --config name the same file: d/{name}.bin" in err
    assert os.listdir("d") == [f"{name}.bin"]
    assert config.read_text() == "seed = 3\n"


def test_cluster_out_may_name_its_data(arts, tmp_path, monkeypatch):
    # the documented in-place rewrite, spelled through --out
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(arts["target"], "g.bin")
    before = (tmp_path / "g.bin").read_bytes()
    payload = ok(["cluster", "--params", arts["pre"], "--data", "g.bin", "--out", "./g.bin",
                  "--k", "10"])
    assert payload["data"] == "./g.bin"
    assert (tmp_path / "g.bin").read_bytes() != before
    assert os.listdir(tmp_path) == ["g.bin"]


@pytest.mark.parametrize("command,argv", [
    ("pretrain", ["--data", "missing.bin", "--lr", "-1"]),
    ("baseline", ["--params", "missing.params", "--data", "missing.bin", "--lr", "-1"]),
    ("mmtplus", ["--params", "missing.params", "--source", "missing.bin",
                 "--target", "missing.bin", "--lr", "-1"]),
    ("cluster", ["--params", "missing.params", "--data", "missing.bin", "--k", "0"]),
    ("cluster", ["--params", "missing.params", "--data", "missing.bin", "--eps", "-1"]),
    ("cluster", ["--params", "missing.params", "--data", "missing.bin",
                 "--min-pts", "0"]),
])
def test_config_error_reported_before_any_input_is_read(command, argv, tmp_path,
                                                        monkeypatch):
    # the last flag of ``argv`` sets a config field out of range
    monkeypatch.chdir(tmp_path)
    field = argv[-2][2:].replace("-", "_")
    code, out, err = go([command] + argv + ["--out", "o.params"])
    assert code == 2 and out == "", err
    assert f"config field '{field}': must be > 0" in err and "missing" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command,flags,message", [
    ("evaluate", ["--cam-weight", "-1"], "weight must be finite and >= 0, got -1.0"),
    ("evaluate", ["--top", "0"], "top_limit must be >= 1"),
    ("evaluate", ["--rerank", "--k1", "0"], "need 1 <= k2 <= k1 < n, got k1=0, k2=6"),
    ("evaluate", ["--rerank", "--lam", "-0.5"], "lambda must be in [0, 1], got -0.5"),
    ("rerank", ["--k1", "0"], "need 1 <= k2 <= k1 < n, got k1=0, k2=6"),
    ("rerank", ["--k2", "40"], "need 1 <= k2 <= k1 < n, got k1=30, k2=40"),
    ("rerank", ["--lam", "1.5"], "lambda must be in [0, 1], got 1.5"),
])
def test_flag_error_reported_before_any_input_is_read(command, flags, message, tmp_path,
                                                      monkeypatch):
    # flags that need no input are checked by the kernel's own check first
    monkeypatch.chdir(tmp_path)
    out_flag = ["--out", "d.npy"] if command == "rerank" else []
    code, out, err = go([command, "--query", "missing.bin", "--gallery", "missing.bin",
                         "--params", "missing.params"] + out_flag + flags)
    assert code == 2 and out == "", err
    assert f"error: {message}" in err and "missing" not in err
    assert os.listdir(tmp_path) == []


# per command: its argv, a config field, a value out of the field's range,
# one in it, the range error, and the files a successful run writes
MERGE_CASES = {
    "synth": (["synth", "--out", "d"] + TINY_SYNTH[:-2], "seed", "-1", "1",
              "must be >= 0", ["d/source.bin", "d/target.bin", "d/translated.bin"]),
    "pretrain": (["pretrain", "--data", "TRANSLATED", "--out", "p.params"] + TINY_PRETRAIN,
                 "lr", "-1", "0.002", "must be > 0", ["p.params"]),
}


def merge_run(command, file_value, flag_value, arts, tmp_path, monkeypatch):
    """Run ``command`` with its MERGE_CASES field set to ``file_value`` in a
    --config file and, unless ``flag_value`` is None, by its flag too."""
    argv, field = MERGE_CASES[command][:2]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.cfg").write_text(f"{field} = {file_value}\n")
    argv = [arts["translated"] if a == "TRANSLATED" else a for a in argv]
    flag = [] if flag_value is None else ["--" + field, flag_value]
    return go(argv + ["--config", "f.cfg"] + flag)


@pytest.mark.parametrize("command", sorted(MERGE_CASES))
def test_flag_overrides_an_out_of_range_config_value(command, arts, tmp_path, monkeypatch):
    # only the merged config is validated: the file's value never takes effect
    _, _, bad, good, _, outputs = MERGE_CASES[command]
    code, out, err = merge_run(command, bad, good, arts, tmp_path, monkeypatch)
    assert code == 0, err
    assert json.loads(out)["command"] == command
    assert all((tmp_path / path).is_file() for path in outputs)


@pytest.mark.parametrize("command", sorted(MERGE_CASES))
@pytest.mark.parametrize("where", ["file", "flag"])
def test_out_of_range_merged_value_exits_2_naming_the_field(command, where, arts,
                                                           tmp_path, monkeypatch):
    # out of range in the file with no flag, or in a flag over a valid file
    _, field, bad, good, message, _ = MERGE_CASES[command]
    values = (bad, None) if where == "file" else (good, bad)
    code, out, err = merge_run(command, *values, arts, tmp_path, monkeypatch)
    assert code == 2 and out == "", err
    assert f"config field '{field}': {message}" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["f.cfg"]


def test_unparsable_config_value_exits_2_even_under_its_flag(arts, tmp_path, monkeypatch):
    code, out, err = merge_run("pretrain", "fast", "0.002", arts, tmp_path, monkeypatch)
    assert code == 2 and out == "", err
    assert "config field 'lr': cannot parse 'fast'" in err and "Traceback" not in err


def unlabelled_copy(path, rows, dest):
    """A copy of the dataset at ``path`` whose ``rows`` carry no identity."""
    ds = load_features(path)
    ds.identities[rows] = -1  # IDENTITY_NONE, allowed on target rows
    save_features(dest, ds)
    return dest


@pytest.mark.parametrize("extra", [["--params", "PRE"], ["--params", "PRE", "--rerank"],
                                   ["--params", "PRE", "--rerank", "--cam-weight"], []])
def test_evaluate_unlabelled_row_exits_2_naming_side_and_row(extra, arts, tmp_path,
                                                             monkeypatch):
    # an unlabelled row would be scored as one identity shared by every
    # other unlabelled row; it is rejected before anything is encoded
    for name in ("rerank", "encode_split"):
        @functools.wraps(getattr(commands, name))  # keeps the signature the flags read
        def fail(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran")
        monkeypatch.setattr(commands, name, fail)
    unlabelled = unlabelled_copy(arts["target"], 5, tmp_path / "unl.bin")
    extra = [arts["pre"] if a == "PRE" else a for a in extra]
    for side, query, gallery in (("query", unlabelled, arts["target"]),
                                 ("gallery", arts["target"], unlabelled)):
        code, out, err = go(["evaluate", "--query", query, "--gallery", gallery] + extra)
        assert code == 2 and out == "", (side, err)
        assert f"error: {side} row 5 has no identity (-1)" in err, (side, err)
        assert "Traceback" not in err


def test_rerank_accepts_unlabelled_rows(arts, tmp_path):
    # re-ranking reads no identities
    path = unlabelled_copy(arts["target"], slice(None), tmp_path / "unl.bin")
    payload = ok(["rerank", "--query", path, "--gallery", path, "--params", arts["pre"],
                  "--out", tmp_path / "dist.npy"])
    assert payload["shape"] == [48, 48]


@pytest.mark.parametrize("command", ["pretrain", "baseline", "mmtplus"])
def test_val_unlabelled_row_exits_2_before_training(command, arts, tmp_path, no_training):
    val = unlabelled_copy(arts["target"], 7, tmp_path / "val.bin")
    code, out, err = go([command] + train_inputs(command, arts)
                        + ["--out", tmp_path / "o.params", "--val", val,
                           "--log", tmp_path / "o.log"] + TINY_TRAIN)
    assert code == 2 and out == "", err
    assert "dataset row 7 has no identity (-1)" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["val.bin"]


@pytest.mark.parametrize("command", ["pretrain", "baseline", "mmtplus"])
def test_val_of_another_width_exits_2_before_training(command, arts, tmp_path, monkeypatch):
    # the width is checked before the first epoch, not by the first evaluation
    def fail(*args, **kwargs):
        raise AssertionError("training started")

    for name in ("relabel_epoch", "adam_step"):
        monkeypatch.setattr(pipeline, name, fail)
    target = load_features(arts["target"])
    val = tmp_path / "val.bin"
    save_features(val, replace(target, features=target.features[:, :12]))
    code, out, err = go([command] + train_inputs(command, arts)
                        + ["--out", tmp_path / "o.params", "--val", val,
                           "--log", tmp_path / "o.log"] + TINY_TRAIN)
    assert code == 2 and out == "", err
    assert "validation rows are 12 features wide, the training rows 16" in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["val.bin"]


SMALL_SYNTH = ["--num-ids-source", "8", "--num-ids-target", "3",
               "--samples-per-id", "4", "--raw-dim", "8", "--seed", "0"]
SMALL_TRAIN = ["--p-classes", "2", "--k-per", "2", "--k", "4", "--min-pts", "2"]
SMALL_PRETRAIN = SMALL_TRAIN + ["--encoder-dim", "4"]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A benchmark with a 12-row target set and an encoder pretrained on it."""
    root = tmp_path_factory.mktemp("small")
    ok(["synth", "--out", root / "data"] + SMALL_SYNTH)
    ok(["pretrain", "--data", root / "data" / "translated.bin",
        "--out", root / "pre.params", "--epochs", "1"] + SMALL_PRETRAIN)
    return root


def test_pretrain_divergence_exits_3(small, tmp_path):
    # a failed run removes the output it created and leaves an existing one
    (tmp_path / "old.jsonl").write_bytes(b"earlier run\n")
    code, out, err = go(["pretrain", "--data", small / "data" / "translated.bin",
                         "--out", tmp_path / "p.params", "--log", tmp_path / "old.jsonl",
                         "--lr", "1e10"] + SMALL_PRETRAIN)
    assert code == 3 and out == "", err
    assert "divergence at epoch 0, iteration" in err and "Warning" not in err
    assert not (tmp_path / "p.params").exists()
    assert (tmp_path / "old.jsonl").read_bytes() == b"earlier run\n"


def test_mmtplus_divergence_exits_3(small, tmp_path):
    code, out, err = go(["mmtplus", "--params", small / "pre.params",
                         "--source", small / "data" / "source.bin",
                         "--target", small / "data" / "target.bin",
                         "--out", tmp_path / "t.params", "--lr", "1e30"] + SMALL_TRAIN)
    assert code == 3 and out == "", err
    assert "divergence at epoch 0, iteration" in err and "Warning" not in err
    assert not (tmp_path / "t.params").exists()


def test_mmtplus_divergence_in_relabel_exits_3(small, tmp_path):
    # the steps stay finite but leave weights near 1e163; encoding the target
    # for epoch 2's relabel overflows before any iteration of that epoch
    code, out, err = go(["mmtplus", "--params", small / "pre.params",
                         "--source", small / "data" / "source.bin",
                         "--target", small / "data" / "target.bin",
                         "--out", tmp_path / "t.params", "--lr", "1e30",
                         "--iters-per-epoch", "3", "--epochs", "3"] + SMALL_TRAIN)
    assert code == 3 and out == "", err
    assert "divergence at epoch 2: floating-point" in err and "Warning" not in err
    assert not (tmp_path / "t.params").exists()


def test_cluster_k_not_below_row_count_exits_2(small, tmp_path):
    code, out, err = go(["cluster", "--params", small / "pre.params",
                         "--data", small / "data" / "target.bin",
                         "--out", tmp_path / "relab.bin"])  # default k=20, 12 rows
    assert code == 2 and out == "", err
    assert "k must satisfy 1 <= k < n" in err
    assert not (tmp_path / "relab.bin").exists()


def test_params_file_faults_exit_2(arts, tmp_path):
    path = tmp_path / "enc.params"
    save_params(path, init_params(2, 1, 1, seed=0))
    blob = path.read_bytes()
    bad = tmp_path / "bad.params"
    faults = [blob[:size] for size in range(len(blob))]
    faults.append(struct.pack("<4sHI", b"URDP", 1, 0))  # no entries at all
    for content in faults:
        bad.write_bytes(content)
        code, out, err = go(["cluster", "--params", bad, "--data", arts["target"],
                             "--out", tmp_path / "relab.bin"])
        assert code == 2 and out == "", (len(content), err)
        assert "format error at byte" in err, (len(content), err)


TRAIN_FLAGS = {"--config", "--log", "--val", "--epochs", "--iters-per-epoch",
               "--p-classes", "--k-per", "--lr", "--weight-decay",
               "--lambda-soft", "--lambda-moco", "--alpha", "--tau",
               "--queue-capacity", "--k", "--eps", "--min-pts", "--seed",
               "--loss-mode", "--margin", "--scale",
               "--joint-source", "--lr-milestones", "--lr-gamma"}


def test_help_states_the_output_rule_without_private_names():
    code, _, err = go(["--help"])
    assert code == 0
    text = " ".join(err.split())
    assert "naming an input or the other output exits 2 before any work" in text
    assert "``cluster --out`` may name its ``--data``" in text
    assert re.findall(r"(?<![\w-])_\w+", err) == []  # no private name of the package


@pytest.mark.parametrize("command,flags", [
    ("synth", {"--out", "--config", "--num-ids-source", "--num-ids-target",
               "--samples-per-id", "--raw-dim", "--cluster-spread",
               "--translation-fidelity", "--cameras", "--seed",
               "--shift-strength", "--shift-offset"}),
    ("pretrain", {"--data", "--out", "--encoder-dim"} | TRAIN_FLAGS),
    ("baseline", {"--params", "--data", "--out"} | TRAIN_FLAGS),
    ("mmtplus", {"--params", "--params2", "--source", "--target", "--out",
                 "--export"} | TRAIN_FLAGS),
    ("cluster", {"--params", "--data", "--out", "--k", "--eps", "--min-pts"}),
])
def test_subcommand_flags(command, flags):
    code, _, err = go([command, "--help"])
    assert code == 0
    assert set(re.findall(r"--[a-z0-9-]+", err)) == flags | {"--help", "--threads"}


def test_config_flag_values_parse_by_field_type(arts, tmp_path):
    payload = ok(["mmtplus", "--params", arts["pre"], "--source", arts["source"],
                  "--target", arts["target"], "--out", tmp_path / "t.params",
                  "--joint-source", "false", "--loss-mode", "cosface",
                  "--lr-milestones", "1,2"]
                 + TINY_TRAIN)
    assert payload["epochs"] == 2
    for flag, value in (("--joint-source", "maybe"), ("--loss-mode", "softmax"),
                        ("--lr-milestones", "1;2"), ("--lr", "fast")):
        code, _, err = go(["pretrain", "--data", arts["translated"], "--out",
                           tmp_path / "p.params", flag, value])
        assert code == 1 and flag in err, (flag, err)


def test_version_flag():
    code, out, _ = go(["--version"])
    assert code == 0
    assert out.startswith("uda-reid ")


def test_threads_flag_accepted_anywhere():
    assert go(["--threads", "2", "gradcheck", "--trials", "1"])[0] == 0
    assert go(["gradcheck", "--trials", "1", "--threads", "2"])[0] == 0


@pytest.mark.parametrize("argv", [["--threads", "0", "gradcheck"],
                                  ["gradcheck", "--threads=-4"],
                                  ["synth", "--out", "never", "--threads", "0"]])
def test_threads_below_one_exits_2_before_any_work(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = go(argv)
    assert code == 2 and out == "", err
    assert "--threads must be >= 1" in err
    assert not (tmp_path / "never").exists()
