"""End-to-end coverage of the command-line interface.

Commands run in process through ``run(argv)``.  Success means exit code 0
and exactly one JSON object on stdout; human-readable notes go to stderr.
"""
import io
import json
import re
import shutil
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from uda_reid.cli import run
from uda_reid.datamodel import load_features
from uda_reid.encoder import init_params, save_params

TINY_SYNTH = ["--num-ids-source", "8", "--num-ids-target", "8",
              "--samples-per-id", "6", "--raw-dim", "16", "--seed", "0"]
TINY_TRAIN = ["--epochs", "2", "--iters-per-epoch", "4", "--p-classes", "4",
              "--k-per", "2", "--encoder-dim", "8", "--queue-capacity", "32",
              "--k", "10"]


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
       + TINY_TRAIN)
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
                  "--val", arts["target"]] + TINY_TRAIN)
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
            "--log", tmp_path / f"{rep}.jsonl"] + TINY_TRAIN)
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


def test_evaluate_top_truncates_cmc(arts):
    payload = ok(["evaluate", "--query", arts["target"], "--gallery",
                  arts["target"], "--params", arts["pre"], "--top", "10"])
    assert len(payload["cmc"]) == 10


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
    assert len(payload["kernels"]) >= 8
    assert all(v >= 0 for v in payload["kernels"].values())


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


SMALL_SYNTH = ["--num-ids-source", "8", "--num-ids-target", "3",
               "--samples-per-id", "4", "--raw-dim", "8", "--seed", "0"]
SMALL_TRAIN = ["--p-classes", "2", "--k-per", "2", "--encoder-dim", "4",
               "--k", "4", "--min-pts", "2"]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A benchmark with a 12-row target set and an encoder pretrained on it."""
    root = tmp_path_factory.mktemp("small")
    ok(["synth", "--out", root / "data"] + SMALL_SYNTH)
    ok(["pretrain", "--data", root / "data" / "translated.bin",
        "--out", root / "pre.params", "--epochs", "1"] + SMALL_TRAIN)
    return root


def test_pretrain_divergence_exits_3(small, tmp_path):
    code, out, err = go(["pretrain", "--data", small / "data" / "translated.bin",
                         "--out", tmp_path / "p.params", "--lr", "1e10"] + SMALL_TRAIN)
    assert code == 3 and out == "", err
    assert "divergence at epoch 0, iteration" in err and "Warning" not in err
    assert not (tmp_path / "p.params").exists()


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
               "--loss-mode", "--margin", "--scale", "--encoder-dim",
               "--joint-source", "--lr-schedule", "--lr-milestones",
               "--lr-gamma"}


@pytest.mark.parametrize("command,flags", [
    ("synth", {"--out", "--config", "--num-ids-source", "--num-ids-target",
               "--samples-per-id", "--raw-dim", "--cluster-spread",
               "--translation-fidelity", "--cameras", "--seed",
               "--shift-strength", "--shift-offset"}),
    ("pretrain", {"--data", "--out"} | TRAIN_FLAGS),
    ("baseline", {"--params", "--data", "--out"} | TRAIN_FLAGS),
    ("mmtplus", {"--params", "--params2", "--source", "--target", "--out",
                 "--export"} | TRAIN_FLAGS),
    ("cluster", {"--params", "--data", "--out", "--k", "--eps", "--min-pts",
                 "--blend"}),
])
def test_subcommand_flags(command, flags):
    code, _, err = go([command, "--help"])
    assert code == 0
    assert set(re.findall(r"--[a-z0-9-]+", err)) == flags | {"--help", "--threads"}


def test_config_flag_values_parse_by_field_type(arts, tmp_path):
    payload = ok(["mmtplus", "--params", arts["pre"], "--source", arts["source"],
                  "--target", arts["target"], "--out", tmp_path / "t.params",
                  "--joint-source", "false", "--loss-mode", "cosface",
                  "--lr-schedule", "step", "--lr-milestones", "1,2"]
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
