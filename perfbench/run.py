"""srkit benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. srkit is imported from ``src/``; BLAS is
pinned to one thread before numpy loads. The run sets up the workload
SETUPS times (``setup_s`` is the import time plus the median set-up),
then runs whole rounds until ``--seconds`` have passed, then checks the
outputs against the float64 reference. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics.
The last line of standard output is the JSON result; a report with the
environment block goes to ``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train_default", "sr_block_resnet", "inspect_eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "srkit", "__init__.py")):
        print(f"error: srkit sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import workloads
    import_s = time.perf_counter() - t0
    from layers import coverage_pct, layer_metrics
    from spans import Tracer, span_cost

    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer()

    setup_times = []
    for _ in range(SETUPS):
        s0 = time.perf_counter()
        with tracer.active() if args.trace else contextlib.nullcontext():
            wl.setup()
        setup_times.append(time.perf_counter() - s0)
    setup_spans = range(len(tracer.spans))

    if args.trace:
        first = len(tracer.spans)
        plain, measured = workloads.timed_passes(wl, args.seconds, tracer)
        values = layer_metrics(tracer, setup_spans, range(first, len(tracer.spans)),
                               SETUPS, measured.units, wl.stages)
        values["trace.coverage_pct"] = coverage_pct(tracer, measured, span_cost())
        values["trace.overhead_pct"] = 100.0 * (1 - measured.samples_per_s()
                                                / plain.samples_per_s())
        values["checkpoint.bytes"] = (os.path.getsize(wl.checkpoint_path)
                                      if wl.checkpoint_path else 0)
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        passes = (plain, measured)
    else:
        (measured,) = passes = workloads.timed_passes(wl, args.seconds)
        metrics = {
            "samples_per_s": (measured.samples_per_s(), "1/s"),
            "pass_s": (statistics.median(d for d, _, _, _ in measured.rounds), "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    try:
        failures = wl.check()
    except workloads.SrkitError as e:
        failures = [f"check stopped by {type(e).__name__}: {e}"]
    env = environment()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "failures": failures,
        "errors": [e for p in passes for e in p.errors],
        "attempted": attempted, "failed": failed,
        "rounds": [len(p.rounds) for p in passes], "units": [len(p.units) for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    if args.trace:
        with open(os.path.join(workdir, "spans.jsonl"), "w", encoding="utf-8") as f:
            for name, start, end, parent, _ in tracer.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")

    print("env " + json.dumps(env))
    for k, (v, u) in metrics.items():
        print(f"metric {k} {v!r} {u}")
    print(f"operations attempted {attempted} failed {failed}")
    for msg in failures:
        print(f"check FAILED: {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_gflop_s"):
        return "GFLOP/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
