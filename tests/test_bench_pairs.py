"""scripts/bench_pairs.py: the alternating run order and the summary it
writes, on fake per-run result lines; no benchmark process is started."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(op_s, rss, correct=True, attempted=3):
    """One ``bench/run.py`` result line, as parsed JSON."""
    return {"correct": correct, "attempted": attempted, "failed": 0,
            "metrics": {"op_s": {"value": op_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def runs_of(workload, parent, change):
    """Runs of one workload from per-seed (op_s, peak_rss_mb) of each side."""
    return [{"side": side, "workload": workload, "seed": seed, "result": result(*values)}
            for side, per_seed in (("parent", parent), ("change", change))
            for seed, values in enumerate(per_seed, 1)]


def test_parent_runs_first_on_odd_seeds(script):
    assert [script.order(seed) for seed in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_medians_quartiles_and_pair_counts(script):
    parent = [(1.0, 100.0), (2.0, 100.0), (3.0, 100.0), (4.0, 100.0), (5.0, 100.0)]
    change = [(0.5, 90.0), (2.5, 100.0), (1.0, 110.0), (3.0, 80.0), (0.8, 95.0)]
    runs = runs_of("relabel_4k", parent, change) + runs_of("rerank_3k", parent, parent)
    runs[0]["result"]["correct"] = False
    out = script.summarize(runs, claim="relabel_4k:op_s")
    by = {(e["workload"], e["side"]): e for e in out["entries"]}
    relabel_parent = by["relabel_4k", "parent"]
    assert relabel_parent["seeds"] == [1, 2, 3, 4, 5]
    assert relabel_parent["correct"] is False and by["relabel_4k", "change"]["correct"]
    assert relabel_parent["attempted"] == 15 and relabel_parent["failed"] == 0
    assert relabel_parent["metrics"]["op_s"] == {"value": 3.0, "q1": 2.0, "q3": 4.0,
                                                 "unit": "s"}
    assert by["relabel_4k", "change"]["metrics"]["op_s"]["value"] == 1.0
    counts = {(p["workload"], p["metric"]): (p["pairs"], p["change_lower"], p["change_higher"])
              for p in out["pairs"]}
    assert counts["relabel_4k", "op_s"] == (5, 4, 1)
    assert counts["relabel_4k", "peak_rss_mb"] == (5, 3, 1)  # seed 2 ties
    assert counts["rerank_3k", "op_s"] == (5, 0, 0)
    assert out["claim"] == {"workload": "relabel_4k", "metric": "op_s", "pairs": 5,
                            "change_lower": 4, "parent_median": 3.0, "change_median": 1.0,
                            "parent_iqr": 2.0, "median_drop": 2.0,
                            "median_drop_pct": pytest.approx(200.0 / 3.0)}


def test_summary_without_the_claimed_workload_has_no_claim(script):
    out = script.summarize(runs_of("train_full", [(4.0, 48.0)], [(4.1, 48.5)]),
                           claim="relabel_4k:op_s")
    assert "claim" not in out
    assert out["pairs"][0]["change_higher"] == 1


def test_main_alternates_and_rewrites_after_every_pair(script, monkeypatch, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        return result(seed + (0.5 if checkout.name == "new" else 1.0), 50.0)

    monkeypatch.setattr(script, "run_once", fake_run)
    monkeypatch.setattr(script, "commit_of", lambda checkout: None)
    monkeypatch.setattr(script, "PAIRS", 3)
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    out = tmp_path / "BENCH_0.json"
    assert script.main(["--parent", str(tmp_path / "old"), "--change", str(tmp_path / "new"),
                        "--out", str(out), "--claim", "rerank_3k:op_s"]) == 0
    pairs = [("old", 1), ("new", 1), ("new", 2), ("old", 2), ("old", 3), ("new", 3)]
    assert [(name, seed) for name, _, seed in calls] == pairs * len(script.WORKLOADS)
    assert [workload for _, workload, _ in calls[::len(pairs)]] == list(script.WORKLOADS)
    written = json.loads(out.read_text())
    assert written["claim"]["change_lower"] == 3
    assert written["claim"]["median_drop"] == 0.5
    assert len(written["runs"]) == 6 * len(script.WORKLOADS)
    assert "--seconds 20 " in written["command"]
    assert written["protocol"].startswith("3 pairs per workload on seeds 1-3,")
