"""A run prints every metric BENCHMARK.json names, with the same unit, and
exits without a result where the program's sources are missing. Each case
runs the benchmark once; the train_default cases train for 7 epochs, so
this file takes about four minutes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run(workload, trace, seconds=1, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    # traced runs take the full run length: coverage compares two passes,
    # and one-round passes differ by the machine's round-to-round noise
    p = run(workload, trace, SPEC["run_seconds"] if trace else 1)
    assert p.returncode == 0, p.stderr + p.stdout
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer" if trace else "end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in named}
    for m in named:
        assert f"metric {m['name']} " in p.stdout
    if trace:
        assert 90.0 <= result["metrics"]["trace.coverage_pct"]["value"] <= 110.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = run("sr_block_resnet", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert "{" not in p.stdout
