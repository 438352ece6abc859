"""tools/benchpairs.py: the paired summary on fixed numbers (no perfbench run)."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

PARENT = [600.0, 610.0, 620.0, 630.0, 640.0, 650.0, 660.0, 670.0, 680.0, 690.0]


def record(side, seed, **metrics):
    return {"workload": "sr_block_resnet", "seed": seed, "side": side, "exit": 0,
            "correct": True, "failed": 0, "metrics": metrics}


def test_side_stats_inclusive_quartiles():
    assert benchpairs.side_stats(PARENT) == {
        "median": 645.0, "q1": 622.5, "q3": 667.5, "values": PARENT}
    assert benchpairs.side_stats([2.0])["q1"] == 2.0


@pytest.mark.parametrize("change, wins, holds", [
    ([v + 50 for v in PARENT], 10, True),              # gap 50 > spread 45
    ([v + 40 for v in PARENT], 10, False),             # gap 40 < spread 45
    ([v + 60 for v in PARENT[:9]] + [680.0], 9, True),  # 9 of 10, gap 50: holds
    ([v + 80 for v in PARENT[:8]] + [680.0, 680.0], 8, False),  # a tie is no win
])
def test_compare_higher_is_better(change, wins, holds):
    got = benchpairs.compare(PARENT, change, "higher")
    assert got["change_better_in_pairs"] == f"{wins}/10"
    assert got["parent_quartile_spread"] == 45.0
    assert got["claim_holds"] is holds


def test_compare_lower_is_better_and_ties_do_not_win():
    got = benchpairs.compare([1.0, 1.0, 2.0, 2.0], [0.5, 1.0, 1.0, 3.0], "lower")
    assert got["change_better_in_pairs"] == "2/4"
    assert got["median_gap"] == 0.5 and got["ratio_of_medians"] == 0.6667
    assert got["claim_holds"] is False
    assert benchpairs.compare([0.0, 0.0], [0.0, 0.0], "lower")["ratio_of_medians"] is None
    assert benchpairs.compare(PARENT[:9], [v + 60 for v in PARENT[:9]], "higher",
                              pairs=10)["change_better_in_pairs"] == "9/10"


def test_summarize_pairs_by_seed_and_counts_failures():
    runs = [record("parent", 1, samples_per_s=10.0), record("change", 1, samples_per_s=12.0),
            record("change", 2, samples_per_s=13.0), record("parent", 2, samples_per_s=11.0),
            {**record("change", 3), "exit": 1, "correct": False}, record("parent", 3,
                                                                         samples_per_s=9.0)]
    got = benchpairs.summarize(runs, {"samples_per_s": "higher", "pass_s": "lower"})
    s = got["sr_block_resnet"]
    assert s["seeds"] == [1, 2, 3] and s["runs"] == 6 and s["runs_correct"] == 5
    assert s["exit_codes"] == {"parent": [0, 0, 0], "change": [0, 0, 1]}
    assert list(s["metrics"]) == ["samples_per_s"]  # no run reported pass_s
    assert s["metrics"]["samples_per_s"]["change_better_in_pairs"] == "2/3"  # a failure loses


def test_bench_doc_splits_plain_and_traced_runs():
    runs = [{**record(side, seed, samples_per_s=v), "trace": 0, "env": {"nproc": 2}}
            for side, seed, v in (("parent", 1, 10.0), ("change", 1, 12.0))]
    runs += [{**record(side, 4, **{"ops.conv3x3_ms": 0.0}), "trace": 1, "env": None}
             for side in ("parent", "change")]  # a layer the workload never runs
    doc = benchpairs.bench_doc(runs, 20.0, {"samples_per_s": "higher",
                                            "ops.conv3x3_ms": "lower"}, parent_commit="abc")
    assert doc["seeds"] == [1] and doc["per_layer"]["seeds"] == [4]
    assert doc["env"] == {"nproc": 2} and doc["parent_commit"] == "abc"
    assert doc["workloads"]["sr_block_resnet"]["metrics"]["samples_per_s"]["median_gap"] == 2.0
    assert doc["per_layer"]["workloads"]["sr_block_resnet"] == {
        "ops.conv3x3_ms": {"parent": 0.0, "change": 0.0}}
    assert len(doc["runs"]) == 4 and all("env" not in r for r in doc["runs"])


def test_seed_list():
    assert benchpairs.seed_list("41-44") == [41, 42, 43, 44]
    assert benchpairs.seed_list("7,9") == [7, 9]
    with pytest.raises(argparse.ArgumentTypeError, match="empty"):
        benchpairs.seed_list("50-41")


def test_out_in_missing_directory_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(benchpairs, "run_once", lambda *a: pytest.fail("a run started"))
    out = str(tmp_path / "missing" / "BENCH_1.json")
    with pytest.raises(SystemExit) as exc:
        benchpairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                         "--seeds", "1", "--out", out])
    assert exc.value.code == 2 and "missing" in capsys.readouterr().err
    assert benchpairs.out_path(str(tmp_path / "BENCH_1.json")).endswith("BENCH_1.json")


def test_run_once_records_faults_and_cpu_of_a_stub_checkout(tmp_path):
    stub = tmp_path / "perfbench" / "run.py"
    stub.parent.mkdir()
    stub.write_text(
        "import json\n"
        "sum(range(10 ** 6))\n"
        "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 0,\n"
        "                  'metrics': {'samples_per_s': {'value': 12.5}}}))\n")
    rec = benchpairs.run_once(str(tmp_path), "change", "inspect_eval", 7, 2.0, 0)
    assert rec["exit"] == 0 and rec["correct"] is True and rec["failed"] == 0
    assert rec["metrics"] == {"samples_per_s": 12.5}
    assert isinstance(rec["minor_faults"], int) and rec["minor_faults"] > 0
    assert rec["cpu_s"] > 0


def test_summarize_reports_median_faults_and_cpu_per_side():
    runs = [{**record(side, seed, samples_per_s=1.0), "minor_faults": faults, "cpu_s": cpu}
            for side, seed, faults, cpu in (
                ("parent", 1, 9000, 2.0), ("parent", 2, 9500, 2.5), ("parent", 3, 8000, 4.0),
                ("change", 1, 13, 1.5), ("change", 2, 20, 1.0), ("change", 3, None, None))]
    s = benchpairs.summarize(runs, {"samples_per_s": "higher"})["sr_block_resnet"]
    assert s["minor_faults"] == {"parent": 9000, "change": 16.5}
    assert s["cpu_s"] == {"parent": 2.5, "change": 1.25}
    legacy = benchpairs.summarize([record("parent", 1)], {})["sr_block_resnet"]
    assert legacy["minor_faults"] == {"parent": None, "change": None}
