"""Command-line surface: train, eval, params, gradcheck, inspect.

Exit codes: 0 success, 1 failed gradient check, 2 configuration problem
(the message names the offending key or value, or, for a config too large
to allocate, numpy's message with the shape) or malformed checkpoint
(the message names the file or tensor), 3 I/O failure (``train`` checks its
output paths name two files in existing directories before loading data),
4 training diverged to non-finite values (the message names epoch and batch).

The SRKIT_THREADS environment variable sets how many threads, the calling
thread among them, the 3x3 convolutions, the host's ReLU passes and the SR
block's large passes spread their blocks over (default: the CPUs this
process may use; anything but a positive integer ends in exit 2). Results
do not depend on it. BLAS itself runs one thread per call: main() sets
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to 1 unless they
are already set, which must happen before numpy loads, so this module
imports the numeric stack lazily inside main().
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _pin_blas_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srkit",
        description="Squeeze-and-Remember block toolkit: deterministic "
        "desk-scale training, parameter accounting, gradient checks, and "
        "memory-usage analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a host on synthetic data")
    p.add_argument("config", help="JSON run config ({} for all defaults)")
    p.add_argument("checkpoint", help="output checkpoint path")
    p.add_argument("history", help="output history CSV path")

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("checkpoint")
    p.add_argument("--dataset-seed", type=int, default=None,
                   help="override the data seed stored in the checkpoint")
    p.add_argument("--ablate", action="store_true",
                   help="zero the SR memory bank before evaluating")

    p = sub.add_parser("params", help="parameter counts and overhead")
    p.add_argument("config")
    p.add_argument("--baseline", type=int, default=None,
                   help="baseline parameter count for the overhead percentage "
                   "(default: the host without SR)")

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--size", choices=("micro", "small"), default="micro")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("inspect", help="write analysis CSVs and PGM heat maps")
    p.add_argument("checkpoint")
    p.add_argument("outdir")
    p.add_argument("--dataset-seed", type=int, default=None)
    return parser


def _history_csv_bytes(history) -> bytes:
    lines = ["epoch,lr,train_loss,val_acc"]
    for row in history:
        lines.append(f"{row.epoch},{row.lr!r},{row.train_loss!r},{row.val_acc!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def cmd_train(args) -> int:
    from . import train as training
    from .checkpoint import atomic_write_bytes, save_checkpoint
    from .config import load_config
    from .data import synth_generate

    run = load_config(args.config)
    for path in (args.checkpoint, args.history):  # fail before training, not after it
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise OSError(f"output must be a file in an existing directory: {path!r}")
    if os.path.realpath(args.checkpoint) == os.path.realpath(args.history):
        raise OSError(f"checkpoint and history are the same file: {args.history!r}")
    splits = synth_generate(run.data)
    result = training.train(run.host, run.train, run.data, splits)
    test_acc = training.evaluate(result.best_params, splits[2])
    meta = {
        "config": run.to_dict(),
        "best_epoch": result.best_epoch,
        "val_acc": result.best_val_acc,
        "test_acc": test_acc,
    }
    save_checkpoint(args.checkpoint, meta, dict(result.best_params.items()))
    atomic_write_bytes(args.history, _history_csv_bytes(result.history))
    print(f"epochs_run {len(result.history)}")
    print(f"best_epoch {result.best_epoch}")
    print(f"val_acc {result.best_val_acc:.6f}")
    print(f"test_acc {test_acc:.6f}")
    return EXIT_OK


def _load_trained(path, dataset_seed):
    from dataclasses import replace

    from .checkpoint import load_checkpoint
    from .config import parse_config
    from .errors import CheckpointError, ConfigError
    from .host import params_from_tensors
    from .train import check_fit

    if dataset_seed is not None and not 0 <= dataset_seed < 2**64:
        raise ConfigError(f"--dataset-seed must be in [0, 2**64), got {dataset_seed}")
    meta, tensors = load_checkpoint(path)
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"{path}: metadata has no 'config' object")
    run = parse_config(meta["config"])
    if dataset_seed is not None:
        run = replace(run, data=replace(run.data, seed=dataset_seed))
    check_fit(run.host, run.data)
    params = params_from_tensors(run.host, tensors)
    return meta, run, params


def cmd_eval(args) -> int:
    from .data import synth_generate
    from .sr_block import sr_ablate
    from .train import evaluate

    meta, run, params = _load_trained(args.checkpoint, args.dataset_seed)
    if args.ablate:
        if params.sr is None:
            print("warning: checkpoint has no SR block; evaluating as-is",
                  file=sys.stderr)
        else:
            params.sr = sr_ablate(params.sr)
    _, _, test_set = synth_generate(run.data)
    acc = evaluate(params, test_set)
    print(f"ablate {'true' if args.ablate else 'false'}")
    print(f"accuracy {acc:.6f}")
    return EXIT_OK


def _print_count(name: str, count: int) -> None:
    """Print ``name count``; a count past Python's int-to-str digit limit is
    a ConfigError naming it, not a ValueError traceback."""
    from .errors import ConfigError

    try:
        text = str(count)
    except ValueError:
        raise ConfigError(f"{name} has more than {sys.get_int_max_str_digits()} digits, "
                          f"too many to print") from None
    print(f"{name} {text}")


def cmd_params(args) -> int:
    from .config import load_config
    from .errors import ConfigError
    from .host import host_param_count
    from .sr_block import sr_overhead, sr_param_count

    if args.baseline is not None and args.baseline <= 0:
        raise ConfigError(f"--baseline must be > 0, got {args.baseline}")
    run = load_config(args.config)
    host_cfg = run.host
    sr_cfg = host_cfg.sr
    without = host_param_count(host_cfg)
    _print_count("host_params_no_sr", without)
    if sr_cfg is None:
        _print_count("sr_params", 0)
        print("note: no SR block configured")
        return EXIT_OK
    count = sr_param_count(sr_cfg)
    _print_count("sr_params", count)
    if host_cfg.sr_insert is not None:  # HostConfig matched sr to the stage
        _print_count("host_params_with_sr", without + count)
    baseline = args.baseline if args.baseline is not None else without
    pct = sr_overhead(sr_cfg, baseline)
    _print_count("baseline", baseline)
    print(f"overhead_pct {pct:.2f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .errors import ConfigError
    from .gradcheck import TOLERANCE, run_suite

    if not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must be in [0, 2**64), got {args.seed}")
    results = run_suite(args.size, args.seed)
    ok = True
    for r in results:
        verdict = "pass" if r.passed else "FAIL"
        print(f"{r.name:16s} max_rel_err {r.max_rel_err:.3e}  {verdict}")
        ok = ok and r.passed
    print(f"gradcheck {'pass' if ok else 'FAIL'} (tolerance {TOLERANCE:g})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_inspect(args) -> int:
    from .analysis import (
        ablation_report,
        activation_stats,
        collect_activations,
        feature_delta,
        memory_channel_means,
        write_ablation_csv,
        write_activations_csv,
        write_delta_csv,
        write_pgm,
    )
    from .data import synth_generate
    from .errors import ConfigError
    from .train import check_fit

    meta, run, params = _load_trained(args.checkpoint, args.dataset_seed)
    if params.sr is None:
        raise ConfigError("checkpoint has no SR block; nothing to inspect")
    _, val_set, test_set = synth_generate(run.data)
    check_fit(run.host, run.data, val_set)
    os.makedirs(args.outdir, exist_ok=True)

    stats = activation_stats(collect_activations(params, val_set))
    write_activations_csv(os.path.join(args.outdir, "activations.csv"), stats)

    deltas = feature_delta(params, val_set)
    write_delta_csv(os.path.join(args.outdir, "delta.csv"), deltas)

    acc_full, acc_ablated, delta = ablation_report(params, test_set)
    write_ablation_csv(
        os.path.join(args.outdir, "ablation.csv"), acc_full, acc_ablated, delta
    )

    maps = memory_channel_means(params.sr)
    for i in range(maps.shape[0]):
        write_pgm(os.path.join(args.outdir, f"memory_block_{i}.pgm"), maps[i])
    print(f"wrote analysis outputs to {args.outdir}")
    print(f"acc_full {acc_full:.6f}")
    print(f"acc_ablated {acc_ablated:.6f}")
    return EXIT_OK


def main(argv=None) -> int:
    _pin_blas_threads()
    args = build_parser().parse_args(argv)
    from .errors import (CheckpointError, ConfigError, DimensionError, NumericError,
                         UsageError)
    from .ops import worker_count

    handler = {
        "train": cmd_train,
        "eval": cmd_eval,
        "params": cmd_params,
        "gradcheck": cmd_gradcheck,
        "inspect": cmd_inspect,
    }[args.command]
    try:
        worker_count()  # reject a bad SRKIT_THREADS before any work starts
        return handler(args)
    except (ConfigError, CheckpointError, DimensionError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:  # numpy's message names the shape
        print(f"error: not enough memory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
