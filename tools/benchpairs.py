"""Paired perfbench runs: a parent checkout against a change checkout.

    python3 tools/benchpairs.py --parent DIR --change DIR --seeds 41-50 \\
        [--workloads sr_block_resnet train_default] [--seconds 20] \\
        [--trace-seeds 51-53] --out BENCH_<n>.json

For every seed and workload it runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in each checkout, one run at a time;
the parent goes first in even-numbered pairs and the change in odd ones, so
a drift of the machine's speed hits both sides alike. ``--trace-seeds`` adds
``--trace 1`` runs, whose per-layer medians go under ``per_layer``.

The JSON written holds every run (exit code, ``correct``, failed operations,
metrics, and the minor page faults and CPU seconds of its process tree, from
``getrusage(RUSAGE_CHILDREN)``); per workload, each side's median faults and
CPU seconds; and per workload and metric, each side's median and quartiles,
the pairs the change won, and ``claim_holds``: the change is better in at
least nine of ten pairs and its median beats the parent's by more than the
parent's quartile spread. Directions come from the change's BENCHMARK.json.
Standard library only; it reads the checkouts and writes only ``--out`` (and
perfbench's own ``perfbench/out/`` reports inside each checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys


def side_stats(values: list[float]) -> dict:
    """Median and inclusive quartiles of one side's runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "values": [round(v, 4) for v in values]}


def compare(parent: list[float], change: list[float], better: str, pairs: int = 0) -> dict:
    """One metric over pairs (parent[i], change[i]); better is "higher" or "lower".

    pairs is the number of pairs run, if more: a pair where a side reported
    nothing (a failed run) is not a win."""
    sign, pairs = (1.0 if better == "higher" else -1.0), max(pairs, len(parent))
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ps, cs = side_stats(parent), side_stats(change)
    pm, cm = statistics.median(parent), statistics.median(change)
    gap, spread = sign * (cm - pm), ps["q3"] - ps["q1"]
    return {
        "parent": ps, "change": cs, "better": better,
        "change_better_in_pairs": f"{wins}/{pairs}",
        "ratio_of_medians": round(cm / pm, 4) if pm else None,  # e.g. a layer that never ran
        "median_gap": round(gap, 4),
        "parent_quartile_spread": round(spread, 4),
        "claim_holds": wins >= math.ceil(0.9 * pairs) and gap > spread,
    }


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per workload: run counts and compare() of every metric that has a direction.

    runs are the records of run_once(), both sides of each pair, in any order.
    """
    out = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == wl]
        seeds = sorted({r["seed"] for r in mine})
        by = {(r["side"], r["seed"]): r for r in mine}
        paired = [s for s in seeds if ("parent", s) in by and ("change", s) in by]
        metrics = {}
        for name, better in directions.items():  # pairs where both runs report the metric
            both = [(by["parent", s]["metrics"][name], by["change", s]["metrics"][name])
                    for s in paired if name in by["parent", s]["metrics"]
                    and name in by["change", s]["metrics"]]
            if both:
                metrics[name] = compare(*map(list, zip(*both)), better, len(paired))
        out[wl] = {
            "seeds": seeds, "runs": len(mine),
            "runs_correct": sum(bool(r["correct"]) for r in mine),
            "exit_codes": {side: [by[side, s]["exit"] for s in seeds if (side, s) in by]
                           for side in ("parent", "change")},
            "failed_ops": sum(r["failed"] or 0 for r in mine),
            **{key: {side: _median(r.get(key) for r in mine if r["side"] == side)
                     for side in ("parent", "change")} for key in ("minor_faults", "cpu_s")},
            "metrics": metrics,
        }
    return out


def _median(values):
    """Median of the values that are not None, or None if there are none."""
    values = [v for v in values if v is not None]
    return round(statistics.median(values), 4) if values else None


def run_once(checkout: str, side: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run in checkout: its exit code, the JSON of its last line,
    the last line of its standard error if it failed, and the minor page faults
    and CPU seconds (user + system) of the run's process tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=max(300.0, 20 * seconds))
        code, lines = proc.returncode, proc.stdout.strip().splitlines()
        error = proc.stderr.strip().splitlines()[-1:] if code else []
    except subprocess.TimeoutExpired:
        code, lines, error = "timeout", [], []
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return {
        "workload": workload, "seed": seed, "side": side, "trace": trace, "exit": code,
        "correct": result.get("correct", False), "attempted": result.get("attempted"),
        "failed": result.get("failed"), "error": error[0] if error else None, "env": env,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "cpu_s": round(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime, 4),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
    }


def run_pairs(parent: str, change: str, workloads, seeds, seconds, trace):
    """Yield run_once() records: per seed and workload, both sides in turn."""
    for i, seed in enumerate(seeds):
        for wl in workloads:
            order = [("parent", parent), ("change", change)]
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                yield run_once(checkout, side, wl, seed, seconds, trace)


def seed_list(text: str) -> list[int]:
    """"41-50" or "41,43,45" into a list of seeds; an empty range is an error."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"seed range {text} is empty")
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def out_path(text: str) -> str:
    """--out: a file whose directory exists, checked before any run starts."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(text))):
        raise argparse.ArgumentTypeError(f"no directory for {text}")
    return text


def directions(checkout: str) -> dict[str, str]:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def commit(checkout: str):
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                              capture_output=True, text=True).stdout.strip() or None
    except OSError:
        return None


def bench_doc(runs: list[dict], seconds: float, dirs: dict[str, str], **commits) -> dict:
    """The BENCH_<n>.json document of the run_once() records so far."""
    plain = [r for r in runs if r["trace"] == 0]
    traced = [r for r in runs if r["trace"] == 1]
    command = f"python3 perfbench/run.py --workload <name> --seed <seed> --seconds {seconds:g}"
    doc = {
        "what": "perfbench end-to-end metrics, parent commit against the change, "
                "alternating pairs per workload",
        "command": command + " --trace 0",
        "seeds": sorted({r["seed"] for r in plain}),
        "order": "the parent ran first in even-numbered pairs (from 0), the change in "
                 "odd ones; one run at a time",
        **commits,
        "env": next((r["env"] for r in runs if r["env"]), None),
        "workloads": summarize(plain, dirs),
    }
    if traced:
        doc["per_layer"] = {
            "command": command + " --trace 1",
            "seeds": sorted({r["seed"] for r in traced}),
            "statistic": "median of the runs per side; times are per unit",
            "workloads": {wl: {name: {"parent": m["parent"]["median"],
                                      "change": m["change"]["median"]}
                               for name, m in s["metrics"].items()}
                          for wl, s in summarize(traced, dirs).items()},
        }
    doc["runs"] = [{k: v for k, v in r.items() if k != "env"} for r in runs]
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workloads", nargs="+",
                   default=["sr_block_resnet", "train_default", "inspect_eval"])
    p.add_argument("--seeds", type=seed_list, required=True, help='"41-50" or "41,42"')
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace-seeds", type=seed_list, default=[],
                   help="seeds for --trace 1 pairs (per-layer medians)")
    p.add_argument("--out", type=out_path, required=True, help="the BENCH_<n>.json to write")
    args = p.parse_args(argv)
    log = lambda msg: print(msg, file=sys.stderr, flush=True)

    dirs, runs = directions(args.change), []
    commits = {"parent_commit": commit(args.parent), "change_commit": commit(args.change)}
    for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
        for rec in run_pairs(args.parent, args.change, args.workloads, seeds,
                             args.seconds, trace):
            runs.append(rec)
            log(f"{rec['workload']} seed {rec['seed']} {rec['side']}: exit {rec['exit']} "
                f"correct {rec['correct']} " + " ".join(
                    f"{k}={rec['metrics'][k]:.4g}" for k in ("samples_per_s", "pass_s")
                    if k in rec["metrics"]))
            doc = bench_doc(runs, args.seconds, dirs, **commits)
            with open(args.out, "w", encoding="utf-8") as f:  # after every run
                json.dump(doc, f, indent=1)
                f.write("\n")
    for wl, s in doc["workloads"].items():
        m = s["metrics"].get("samples_per_s")
        if m:
            log(f"{wl}: samples_per_s {m['parent']['median']} -> {m['change']['median']} "
                f"(x{m['ratio_of_medians']}), change better in {m['change_better_in_pairs']}, "
                f"claim holds: {m['claim_holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
