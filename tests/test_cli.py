"""CLI surface: commands, exit codes, file outputs."""

import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srkit import cli, ops
from srkit.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint

TINY = {
    "data": {"per_class": 20, "per_class_test": 10, "classes": 4, "h": 16, "w": 16, "seed": 5},
    "host": {
        "stage_channels": [4, 4, 8, 8],
        "in_h": 16,
        "in_w": 16,
        "classes": 4,
        "sr_insert": 3,
        "sr": {"p": 4},
    },
    "train": {"epochs": 2, "batch": 32, "seed": 9},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp, TINY)
    ck = str(tmp / "model.srck")
    hist = str(tmp / "history.csv")
    assert run_cli(["train", cfg, ck, hist]) == 0
    return tmp, cfg, ck, hist


class TestTrain:
    def test_checkpoint_contains_sr_tensors(self, tiny_artifacts):
        _, _, ck, _ = tiny_artifacts
        meta, tensors = load_checkpoint(ck)
        assert {"sr.squeeze_w", "sr.fc1_w", "sr.fc2_w", "sr.memory"} <= set(tensors)
        assert meta["config"]["host"]["sr_insert"] == 3

    def test_history_schema(self, tiny_artifacts):
        _, _, _, hist = tiny_artifacts
        with open(hist, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "lr", "train_loss", "val_acc"]
        assert len(rows) == 1 + TINY["train"]["epochs"]
        float(rows[1][1]), float(rows[1][2]), float(rows[1][3])

    def test_prints_final_accuracy(self, tiny_artifacts, capsys, tmp_path):
        _, cfg, _, _ = tiny_artifacts
        ck = str(tmp_path / "m.srck")
        hist = str(tmp_path / "h.csv")
        assert run_cli(["train", cfg, ck, hist]) == 0
        out = capsys.readouterr().out
        assert "val_acc " in out and "test_acc " in out

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train": {"learning_rate": 0.1}})
        assert run_cli(["train", cfg, str(tmp_path / "x"), str(tmp_path / "y")]) == 2
        assert "train.learning_rate" in capsys.readouterr().err

    def test_non_numeric_value_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train": {"lr0": "abc"}})
        assert run_cli(["train", cfg, str(tmp_path / "x"), str(tmp_path / "y")]) == 2
        assert "train.lr0" in capsys.readouterr().err

    def test_string_boolean_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train": {"flip_augment": "false"}})
        assert run_cli(["train", cfg, str(tmp_path / "x"), str(tmp_path / "y")]) == 2
        assert "train.flip_augment" in capsys.readouterr().err

    def test_sr_insert_out_of_range_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"host": {"sr_insert": 5}})
        assert run_cli(["train", cfg, str(tmp_path / "x"), str(tmp_path / "y")]) == 2
        assert "host.sr_insert" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ({"data": {"channels": 1}}, "host.in_channels=3 != data.channels=1"),
        ({"data": {"h": 8, "w": 8}, "host": {"sr_insert": None}, "train": {"epochs": 1}},
         "host.in_h=32 != data.h=8"),
        ({"data": {"w": 16}}, "host.in_w=32 != data.w=16"),
    ])
    def test_host_and_data_image_shapes_disagree_exit_2(self, tmp_path, capsys, doc, named):
        cfg = write_config(tmp_path, doc)
        ck = tmp_path / "x"
        assert run_cli(["train", cfg, str(ck), str(tmp_path / "y")]) == 2
        assert named in capsys.readouterr().err
        assert not ck.exists()

    def test_divergence_exit_4_names_epoch(self, tmp_path):
        doc = {**TINY, "train": {**TINY["train"], "lr0": 1000.0}}
        ck, hist = tmp_path / "x.srck", tmp_path / "y.csv"
        proc = subprocess.run(  # a child process, so numpy warnings reach stderr
            [sys.executable, "-m", "srkit.cli", "train", write_config(tmp_path, doc),
             str(ck), str(hist)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 4
        err = proc.stderr
        assert "epoch " in err and "batch " in err and "non-finite" in err
        assert "RuntimeWarning" not in err
        assert not ck.exists() and not hist.exists()

    def test_checkpoint_bytes_do_not_depend_on_threads(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        written = []
        for threads in ("1", "2"):
            ck, hist = tmp_path / f"m{threads}.srck", tmp_path / f"h{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "srkit.cli", "train", cfg, str(ck), str(hist)],
                capture_output=True, text=True,
                env={**os.environ, "SRKIT_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            written.append((ck.read_bytes(), hist.read_bytes()))
        assert written[0] == written[1]

    @pytest.mark.parametrize("threads, argv, named", [
        *[(raw, "train {cfg} {out} {out}.csv", "SRKIT_THREADS")
          for raw in ["0", "-1", "abc", ""]],
        ("1", "train {bad_seed_cfg} {out} {out}.csv", "train.seed"),
        ("1", "gradcheck --seed -1", "--seed"),
        ("1", "eval {ck} --dataset-seed -1", "data.seed"),
        ("1", "inspect {ck} {out} --dataset-seed -1", "data.seed"),
    ], ids=["0", "-1", "abc", "", "train_seed", "gradcheck_seed", "eval_seed",
            "inspect_seed"])
    def test_bad_srkit_threads_exit_2(self, tmp_path, capsys, monkeypatch,
                                      tiny_artifacts, threads, argv, named):
        """A bad SRKIT_THREADS, or a seed outside [0, 2**64) given to any
        command, ends in exit 2 naming it before anything is written."""
        monkeypatch.setenv("SRKIT_THREADS", threads)
        bad_seed = write_config(tmp_path, {"train": {"seed": -1}}, "bad_seed.json")
        paths = {"cfg": write_config(tmp_path, TINY), "bad_seed_cfg": bad_seed,
                 "ck": tiny_artifacts[2], "out": str(tmp_path / "x")}
        assert run_cli(argv.format(**paths).split()) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_config_exit_3(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert run_cli(["train", missing, str(tmp_path / "x"), str(tmp_path / "y")]) == 3


class TestEval:
    def test_matches_train_reported_test_acc(self, tiny_artifacts, capsys):
        _, _, ck, _ = tiny_artifacts
        meta, _ = load_checkpoint(ck)
        assert run_cli(["eval", ck]) == 0
        out = capsys.readouterr().out
        acc_line = [l for l in out.splitlines() if l.startswith("accuracy ")][0]
        assert acc_line == f"accuracy {meta['test_acc']:.6f}"

    def test_untrained_ablate_identical(self, tmp_path, capsys):
        doc = dict(TINY)
        doc["train"] = {"epochs": 0, "seed": 1}
        cfg = write_config(tmp_path, doc)
        ck = str(tmp_path / "fresh.srck")
        assert run_cli(["train", cfg, ck, str(tmp_path / "h.csv")]) == 0
        capsys.readouterr()
        assert run_cli(["eval", ck]) == 0
        plain = capsys.readouterr().out
        assert run_cli(["eval", ck, "--ablate"]) == 0
        ablated = capsys.readouterr().out
        acc = lambda s: [l for l in s.splitlines() if l.startswith("accuracy")][0]
        assert acc(plain) == acc(ablated)

    def test_ablate_without_sr_warns(self, tmp_path, capsys):
        doc = {
            "data": TINY["data"],
            "host": {**TINY["host"], "sr_insert": None, "sr": {}},
            "train": {"epochs": 0},
        }
        doc["host"].pop("sr")
        cfg = write_config(tmp_path, doc)
        ck = str(tmp_path / "nosr.srck")
        assert run_cli(["train", cfg, ck, str(tmp_path / "h.csv")]) == 0
        assert run_cli(["eval", ck, "--ablate"]) == 0
        assert "no SR block" in capsys.readouterr().err


def tensor_record(name, t):
    """One checkpoint tensor record, as save_checkpoint writes it."""
    raw = name.encode()
    return (struct.pack("<I", len(raw)) + raw + struct.pack("<I", t.ndim)
            + struct.pack(f"<{t.ndim}I", *t.shape) + t.astype("<f4").tobytes())


def corrupt_metadata(meta_bytes):
    def write(path, _good):
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(meta_bytes)) + meta_bytes)
    return write


def extra_tensor(path, good):
    meta, tensors = load_checkpoint(good)
    save_checkpoint(str(path), meta, {**tensors, "bogus": np.zeros(3, np.float32)})


def duplicate_tensor(path, good):
    _, tensors = load_checkpoint(good)
    zeros = np.zeros_like(tensors["cls.w"])
    path.write_bytes(Path(good).read_bytes() + tensor_record("cls.w", zeros))


def overflowing_shape(path, good):
    shape = struct.pack("<I", 3) + struct.pack("<3I", 2**31, 2**31, 4)  # 2**64 floats
    path.write_bytes(Path(good).read_bytes() + struct.pack("<I", 1) + b"a" + shape)


def bad_tensor_name(path, good):
    path.write_bytes(Path(good).read_bytes() + struct.pack("<I", 1) + b"\xff")


class TestCorruptCheckpoint:
    """A bad checkpoint ends in exit 2 with a message naming what is wrong."""

    @pytest.mark.parametrize("write, named", [
        (corrupt_metadata(b"{}"), "config"),
        (corrupt_metadata(b"\xff\xfe"), "metadata"),
        (corrupt_metadata(b"{not json"), "metadata"),
        (corrupt_metadata(b"[1,2]"), "metadata"),
        (extra_tensor, "'bogus'"),
        (duplicate_tensor, "'cls.w'"),
        (bad_tensor_name, "tensor name"),
        (overflowing_shape, "truncated"),
    ], ids=["no_config", "bad_utf8", "bad_json", "not_an_object", "unknown_tensor",
            "duplicate_tensor", "bad_tensor_name", "overflowing_shape"])
    def test_eval_exit_2(self, write, named, tiny_artifacts, tmp_path, capsys):
        _, _, good, _ = tiny_artifacts
        bad = tmp_path / "bad.srck"
        write(bad, good)
        assert run_cli(["eval", str(bad)]) == 2
        err = capsys.readouterr().err
        assert named in err
        if named != "'bogus'":  # params_from_tensors sees tensors, not the file
            assert str(bad) in err


class TestParams:
    def test_overhead_against_host_baseline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"host": {"sr_insert": 3}})
        assert run_cli(["params", cfg]) == 0
        out = capsys.readouterr().out
        lines = dict(l.split(" ", 1) for l in out.splitlines() if " " in l)
        no_sr = int(lines["host_params_no_sr"])
        sr = int(lines["sr_params"])
        assert int(lines["host_params_with_sr"]) == no_sr + sr
        assert float(lines["overhead_pct"]) == pytest.approx(100.0 * sr / no_sr, abs=0.01)

    def test_table_shapes_with_baseline(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"host": {"sr_insert": None,
                      "sr": {"c": 1024, "h": 14, "w": 14, "u": 16, "p": 2}}},
        )
        assert run_cli(["params", cfg, "--baseline", "25557032"]) == 0
        out = capsys.readouterr().out
        assert "sr_params 405600" in out
        assert "overhead_pct 1.59" in out

    @pytest.mark.parametrize("baseline", ["0", "-3"])
    def test_non_positive_baseline_exit_2_before_output(self, tmp_path, capsys, baseline):
        cfg = write_config(tmp_path, {"host": {"sr_insert": 3}})
        assert run_cli(["params", cfg, "--baseline", baseline]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--baseline" in err

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run_cli(["params", str(path)]) == 2
        assert "cfg.json" in capsys.readouterr().err


# the gradcheck rows besides micro_host that a sign flip in each ops backward rule fails
FAILED_ROWS = {
    "conv1x1_bwd": {"conv1x1", "sr_block"},
    "linear_bwd": {"linear", "sr_block"},
    "softmax_bwd": {"softmax", "sr_block"},
    "conv3x3_bwd": {"conv3x3_s1", "conv3x3_s2"},
    "conv3x3_bwd_weight": {"conv3x3_s1", "conv3x3_s2"},
    "relu_bwd": {"relu"},
    "global_avgpool_bwd": {"global_avgpool"},
    "cross_entropy_bwd": {"cross_entropy"},
    "dropout_bwd": {"dropout_element", "dropout_channel"},
}


class TestGradcheck:
    def test_passes_and_exit_zero(self, capsys):
        assert run_cli(["gradcheck", "--size", "micro"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck pass" in out

    def test_two_seeds_same_verdict(self):
        assert run_cli(["gradcheck", "--seed", "0"]) == 0
        assert run_cli(["gradcheck", "--seed", "12345"]) == 0

    @pytest.mark.parametrize("rule", list(FAILED_ROWS))
    def test_injected_sign_error_detected(self, monkeypatch, capsys, rule):
        """A sign-flipped backward rule fails its own rows, the SR block's if
        the block uses it, and the micro host's, at either seed."""
        real = getattr(ops, rule)

        def flipped(*args):
            out = real(*args)
            return tuple(-g for g in out) if isinstance(out, tuple) else -out

        monkeypatch.setattr(ops, rule, flipped)
        for seed in ("0", "12345"):
            assert run_cli(["gradcheck", "--size", "micro", "--seed", seed]) == 1
            rows = [l.split() for l in capsys.readouterr().out.splitlines()]
            failed = {r[0] for r in rows if r[1] == "max_rel_err" and r[-1] == "FAIL"}
            assert failed == FAILED_ROWS[rule] | {"micro_host"}, seed


class TestInspect:
    def test_untrained_outputs(self, tmp_path, capsys):
        doc = dict(TINY)
        doc["train"] = {"epochs": 0, "seed": 2}
        doc["host"] = {**TINY["host"], "sr": {"p": 10}}
        cfg = write_config(tmp_path, doc)
        ck = str(tmp_path / "fresh.srck")
        assert run_cli(["train", cfg, ck, str(tmp_path / "h.csv")]) == 0
        outdir = tmp_path / "report"
        assert run_cli(["inspect", ck, str(outdir)]) == 0

        pgms = sorted(outdir.glob("memory_block_*.pgm"))
        assert len(pgms) == 10
        for p in pgms:
            pixels = np.frombuffer(p.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
            assert not pixels.any()  # zero memory -> all-zero maps

        with open(outdir / "activations.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "class"
        alphas = np.array([float(v) for v in rows[1][1:]])
        assert np.allclose(alphas, 0.1, atol=0.02)  # near-uniform at init

        with open(outdir / "ablation.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert float(rows[1][2]) == 0.0

    def test_csvs_parse_strictly(self, tiny_artifacts, tmp_path):
        _, _, ck, _ = tiny_artifacts
        outdir = tmp_path / "r2"
        assert run_cli(["inspect", ck, str(outdir)]) == 0
        for name, header in [
            ("activations.csv", ["class", "block_0", "block_1", "block_2", "block_3"]),
            ("delta.csv", ["class", "channel", "pre_mean", "post_mean", "abs_delta", "shift_pct"]),
            ("ablation.csv", ["acc_full", "acc_ablated", "delta"]),
        ]:
            with open(outdir / name, newline="") as f:
                rows = list(csv.reader(f))
            assert rows[0] == header
            width = len(header)
            assert all(len(r) == width for r in rows)


def test_console_script_entry_point(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps(
        {"host": {"sr_insert": None,
                  "sr": {"c": 512, "h": 4, "w": 4, "u": 8, "p": 12}}}))
    proc = subprocess.run(
        [sys.executable, "-m", "srkit.cli", "params", str(cfg), "--baseline", "11220132"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "sr_params 99040" in proc.stdout
    assert "overhead_pct 0.88" in proc.stdout
