"""scripts/bench_pairs.py and the paired statistics of scripts/pair_stats.py:
the alternating run order and the summary it writes, on fake per-run result
lines and on a committed BENCH_*.json; no benchmark process is started."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
sys.path.insert(0, str(SCRIPT.parent))  # as running a script puts its own directory first

import pair_stats  # noqa: E402


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(op_s, rss, correct=True, attempted=3, **fractions):
    """One ``bench/run.py`` result line, as parsed JSON."""
    return {"correct": correct, "attempted": attempted, "failed": 0,
            "metrics": {"op_s": {"value": op_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"},
                        **{name: {"value": value, "unit": "fraction"}
                           for name, value in fractions.items()}}}


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
    assert out["claim"] == {"workload": "relabel_4k", "metric": "op_s", "better": "lower",
                            "pairs": 5, "change_better": 4, "parent_median": 3.0,
                            "change_median": 1.0, "parent_iqr": 2.0, "gain": 2.0,
                            "gain_pct": pytest.approx(200.0 / 3.0), "met": False}


def test_claim_on_a_higher_is_better_metric_counts_higher_pairs_as_better(script):
    # map_rerank improves in 4 of 5 pairs: 4 better pairs and a positive gain
    parent = [0.60, 0.70, 0.80, 0.90, 0.75]
    change = [0.65, 0.72, 0.79, 0.95, 0.80]
    runs = [{"side": side, "workload": "rerank_3k", "seed": seed,
             "result": result(1.0, 100.0, map_rerank=value)}
            for side, values in (("parent", parent), ("change", change))
            for seed, value in enumerate(values, 1)]
    claim = script.summarize(runs, claim="rerank_3k:map_rerank")["claim"]
    assert claim["better"] == "higher"
    assert claim["pairs"] == 5 and claim["change_better"] == 4
    assert claim["parent_median"] == 0.75 and claim["change_median"] == 0.79
    assert claim["gain"] == pytest.approx(0.04) and claim["gain"] > 0
    assert claim["gain_pct"] == pytest.approx(100.0 * 0.04 / 0.75)


@pytest.mark.parametrize("better_pairs,drop,met", [
    (9, 0.5, True),    # 9 of 10 pairs better, the medians 0.5 apart
    (10, 0.5, True),
    (8, 0.5, False),   # one pair short
    (10, 0.2, False),  # every pair better, but the gain is inside the spread
])
def test_claim_is_met_by_nine_of_ten_better_pairs_and_a_gain_above_the_spread(
        script, better_pairs, drop, met):
    parent = [1.0 + 0.1 * seed for seed in range(10)]  # quartile spread 0.45
    change = [p - drop if seed < better_pairs else p + 0.01 for seed, p in enumerate(parent)]
    runs = runs_of("rerank_3k", [(1.0, p) for p in parent], [(1.0, c) for c in change])
    claim = script.summarize(runs, claim="rerank_3k:peak_rss_mb")["claim"]
    assert claim["change_better"] == better_pairs
    assert claim["parent_iqr"] == pytest.approx(0.45)
    assert claim["met"] is met


def test_regressions_list_the_medians_worse_than_their_bound(script):
    bound = {m["name"]: m["bound"] for m in json.loads(script.BENCHMARK.read_text())["end_to_end"]}
    parent = result(2.0, 100.0, map_rerank=0.8, label_purity=0.8)
    change = result(2.0 * (1 + 1.01 * bound["op_s"]),  # lower is better: worse by more
                    100.0 * (1 + 0.99 * bound["peak_rss_mb"]),  # worse, inside the bound
                    map_rerank=0.8 * (1 - 1.01 * bound["map_rerank"]),  # higher is better
                    label_purity=0.8 * (1 + 2 * bound["label_purity"]))  # better
    runs = [{"side": side, "workload": workload, "seed": 1, "result": res}
            for workload, change_result in (("relabel_4k", parent), ("rerank_3k", change))
            for side, res in (("parent", parent), ("change", change_result))]
    regressions = script.summarize(runs)["regressions"]
    assert [(r["workload"], r["metric"]) for r in regressions] == [
        ("rerank_3k", "op_s"), ("rerank_3k", "map_rerank")]
    assert regressions[0] == {"workload": "rerank_3k", "metric": "op_s", "parent_median": 2.0,
                              "change_median": change["metrics"]["op_s"]["value"],
                              "bound": bound["op_s"]}


@pytest.mark.parametrize("change_op_s,unresolved", [
    ([1.0, 2.0, 3.0, 4.0, 5.0], True),   # the parent's own runs: inside its spread
    ([0.5, 0.6, 0.7, 0.8, 0.9], False),  # every change run below every parent run
    ([0.5, 0.6, 0.7, 0.8, 1.0], True),   # one change run ties the best parent run
    ([1.5, 1.6, 1.7, 1.8, 1.9], True),   # better in every pair, not below every run
])
def test_unresolved_lists_parent_spreads_wider_than_the_bound(script, change_op_s, unresolved):
    bound = {m["name"]: m["bound"] for m in json.loads(script.BENCHMARK.read_text())["end_to_end"]}
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # quartile spread 2.0, median 3.0
    assert 2.0 > bound["op_s"] * 3.0
    narrow = [2.9, 3.0, 3.0, 3.0, 3.1]  # quartile spread 0: resolved whatever the change
    runs = (runs_of("relabel_4k", [(op, 100.0) for op in parent],
                    [(op, 100.0) for op in change_op_s])
            + runs_of("rerank_3k", [(op, 100.0) for op in narrow], [(op, 100.0) for op in parent]))
    out = script.summarize(runs)
    assert out["unresolved"] == ([{"workload": "relabel_4k", "metric": "op_s",
                                   "parent_median": 3.0, "parent_iqr": 2.0,
                                   "bound": bound["op_s"]}] if unresolved else [])


def test_unresolved_on_a_higher_is_better_metric_needs_every_change_run_above(script):
    parent = [0.2, 0.4, 0.6, 0.8, 0.9]  # quartile spread 0.4 around a median of 0.6
    for change, unresolved in (([0.95] * 5, False), ([0.95] * 4 + [0.9], True)):
        runs = [{"side": side, "workload": "rerank_3k", "seed": seed,
                 "result": result(1.0, 100.0, map_rerank=value)}
                for side, values in (("parent", parent), ("change", change))
                for seed, value in enumerate(values, 1)]
        listed = [(u["workload"], u["metric"]) for u in script.summarize(runs)["unresolved"]]
        assert listed == ([("rerank_3k", "map_rerank")] if unresolved else [])


def test_summary_without_the_claimed_workload_has_no_claim(script):
    out = script.summarize(runs_of("train_full", [(4.0, 48.0)], [(4.1, 48.5)]),
                           claim="relabel_4k:op_s")
    assert "claim" not in out
    assert out["pairs"][0]["change_higher"] == 1


def test_main_alternates_and_rewrites_after_every_pair(script, monkeypatch, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        assert seconds == 20
        return result(seed + (0.5 if checkout.name == "new" else 1.0), 50.0)

    monkeypatch.setattr(script, "run_once", fake_run)
    monkeypatch.setattr(script, "commit_of", lambda checkout: None)
    monkeypatch.setattr(script, "PAIRS", 3)
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    out = tmp_path / "BENCH_0.json"
    assert script.main(["--parent", str(tmp_path / "old"), "--change", str(tmp_path / "new"),
                        "--out", str(out), "--claim", "rerank_3k:op_s"]) == 0
    workloads = [w["name"] for w in json.loads(script.BENCHMARK.read_text())["workloads"]]
    pairs = [("old", 1), ("new", 1), ("new", 2), ("old", 2), ("old", 3), ("new", 3)]
    assert [(name, seed) for name, _, seed in calls] == pairs * len(workloads)
    assert [workload for _, workload, _ in calls[::len(pairs)]] == workloads
    written = json.loads(out.read_text())
    assert written["claim"]["change_better"] == 3
    assert written["claim"]["gain"] == 0.5
    assert len(written["runs"]) == 6 * len(workloads)
    assert "--seconds 20 " in written["command"]
    assert written["protocol"].startswith("3 pairs per workload on seeds 1-3,")


def test_main_runs_exactly_the_files_workloads_in_its_order(script, monkeypatch, tmp_path):
    # a spec with the workloads reordered and one dropped, and another run time
    spec = json.loads(script.BENCHMARK.read_text())
    spec["workloads"] = spec["workloads"][::-1][:2]
    spec["run_seconds"] = 7
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((workload, seconds))
        return result(1.0, 50.0)

    monkeypatch.setattr(script, "BENCHMARK", bench)
    monkeypatch.setattr(script, "run_once", fake_run)
    monkeypatch.setattr(script, "commit_of", lambda checkout: None)
    monkeypatch.setattr(script, "PAIRS", 1)
    out = tmp_path / "BENCH_0.json"
    assert script.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                        "--out", str(out)]) == 0
    names = [w["name"] for w in spec["workloads"]]
    assert calls == [(name, 7) for name in names for _ in range(2)]
    written = json.loads(out.read_text())
    assert [e["workload"] for e in written["entries"]] == [n for n in names for _ in range(2)]
    assert "--seconds 7 " in written["command"]


@pytest.mark.parametrize("claim", ["op_s", "relabel_4k:op_sec", "relabel4k:op_s", ":op_s",
                                   "relabel_4k:", "relabel_4k:op_s:x", "relabel_4k:trace.op_s"])
def test_bad_claim_is_a_usage_error_before_any_run(script, monkeypatch, tmp_path, capsys,
                                                   claim):
    def never(*args):
        raise AssertionError("a process was started")

    monkeypatch.setattr(script, "run_once", never)
    monkeypatch.setattr(script, "commit_of", never)
    out = tmp_path / "BENCH_0.json"
    with pytest.raises(SystemExit) as exc:
        script.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                     "--out", str(out), "--claim", claim])
    assert exc.value.code == 2
    assert f"--claim: {claim!r} is not WORKLOAD:METRIC" in capsys.readouterr().err
    assert not out.exists()


def test_every_benchmark_workload_and_end_to_end_metric_is_a_claim(script):
    spec = json.loads(script.BENCHMARK.read_text())
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            claim = f"{workload['name']}:{metric['name']}"
            assert script.claim_arg(claim) == claim


def test_a_drift_shared_by_both_sides_gives_ratios_of_exactly_one(script):
    drift = [1.0 + 0.37 * seed for seed in range(10)]  # the machine slows run by run
    runs = runs_of("rerank_3k", [(d, 80.0 * d) for d in drift], [(d, 80.0 * d) for d in drift])
    for pair in script.summarize(runs)["pairs"]:
        assert pair["ratios"] == [1.0] * 10 and pair["ratio_median"] == 1.0
        assert (pair["wins"], pair["losses"], pair["sign_p"]) == (0, 0, 1.0)


def test_paired_fields_are_signed_by_the_metric_direction(script):
    parent = [0.60, 0.70, 0.80, 0.90, 0.75]
    change = [0.65, 0.72, 0.80, 0.85, 0.80]  # higher in 3 pairs, a tie, lower in 1
    runs = [{"side": side, "workload": "rerank_3k", "seed": seed,
             "result": result(2 * value, 100.0, map_rerank=value)}
            for side, values in (("parent", parent), ("change", change))
            for seed, value in enumerate(values, 1)]
    by_metric = {p["metric"]: p for p in script.summarize(runs)["pairs"]}
    assert (by_metric["map_rerank"]["wins"], by_metric["map_rerank"]["losses"]) == (3, 1)
    assert (by_metric["op_s"]["wins"], by_metric["op_s"]["losses"]) == (1, 3)
    assert by_metric["op_s"]["ratios"] == [c / p for p, c in zip(parent, change)]
    assert by_metric["op_s"]["ratio_median"] == 0.72 / 0.70
    assert by_metric["op_s"]["sign_p"] == 2 * 5 / 16  # two-sided tail at 1 of 4


def test_a_per_layer_metric_has_pair_counts_only(script):
    runs = runs_of("rerank_3k", [(1.0, 80.0)], [(1.1, 70.0)])
    for run in runs:
        run["result"]["metrics"]["retrieval.rerank_s"] = {"value": 0.2, "unit": "s"}
    by_metric = {p["metric"]: p for p in script.summarize(runs)["pairs"]}
    assert set(by_metric["retrieval.rerank_s"]) == {"workload", "metric", "pairs",
                                                    "change_lower", "change_higher"}
    assert by_metric["peak_rss_mb"]["wins"] == 1


@pytest.mark.parametrize("wins,losses,p", [
    (0, 10, 2 / 1024), (5, 0, 2 / 32), (14, 0, 2 / 16384),
    (9, 1, 2 * 11 / 1024), (5, 5, 1.0), (0, 0, 1.0)])
def test_sign_test_is_the_exact_two_sided_binomial_tail(wins, losses, p):
    assert pair_stats.sign_test_p(wins, losses) == p


def test_ten_better_pairs_of_ten_give_p_two_in_1024():
    parent = [80.0 + seed for seed in range(10)]
    fields = pair_stats.paired(parent, [v - 10.0 for v in parent], "lower")
    assert (fields["wins"], fields["losses"], fields["sign_p"]) == (10, 0, 2 / 1024)


def test_bench_30_op_s_ratio_medians(script):
    runs = json.loads((ROOT / "BENCH_30.json").read_text())["runs"]
    medians = {p["workload"]: p["ratio_median"] for p in script.summarize(runs)["pairs"]
               if p["metric"] == "op_s"}
    assert {w: round(m, 3) for w, m in medians.items()} == {
        "train_full": 0.987, "relabel_4k": 0.995, "rerank_3k": 1.017}
