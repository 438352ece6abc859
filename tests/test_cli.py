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
from srkit import train as training
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
        ("1", "eval {ck} --dataset-seed -1", "--dataset-seed"),
        ("1", "inspect {ck} {out} --dataset-seed -1", "--dataset-seed"),
        ("1", f"eval {{ck}} --dataset-seed {2**64}", "--dataset-seed"),
        ("1", f"inspect {{ck}} {{out}} --dataset-seed {2**64}", "--dataset-seed"),
    ], ids=["0", "-1", "abc", "", "train_seed", "gradcheck_seed", "eval_seed",
            "inspect_seed", "eval_seed_2_64", "inspect_seed_2_64"])
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

    def test_too_few_samples_for_validation_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"data": {"per_class": 4}})  # every 10th validates
        assert run_cli(["train", cfg, str(tmp_path / "x"), str(tmp_path / "y")]) == 2
        assert "data.per_class=4 must be >= 10" in capsys.readouterr().err

    def test_config_too_large_to_allocate_exit_2(self, tmp_path):
        """A 1.09 PiB training pool: past the 128 TiB user address space, so the
        allocation fails at once under any overcommit setting."""
        cfg = write_config(tmp_path, {"data": {"per_class": 100_000_000_000}})
        proc = subprocess.run(  # a child process, so a traceback would reach stderr
            [sys.executable, "-m", "srkit.cli", "train", cfg, str(tmp_path / "x"),
             str(tmp_path / "y")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: not enough memory: ")
        assert "(100000000000, 3, 32, 32)" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bad, is_dir", [(0, False), (1, False), (0, True), (1, True)],
                             ids=["checkpoint", "history", "checkpoint_is_a_directory",
                                  "history_is_a_directory"])
    def test_missing_output_directory_exit_3_before_training(
            self, tmp_path, capsys, monkeypatch, bad, is_dir):
        """An output path in no directory, or naming one, ends in exit 3
        naming it before the data is made: nothing is trained or written."""
        def no_training(*args, **kwargs):
            raise AssertionError("train() ran")

        monkeypatch.setattr(training, "train", no_training)
        outs = [tmp_path / "x.srck", tmp_path / "h.csv"]
        if is_dir:
            outs[bad].mkdir()
        else:
            outs[bad] = tmp_path / "nodir" / outs[bad].name
        assert run_cli(["train", write_config(tmp_path, TINY), *map(str, outs)]) == 3
        assert repr(str(outs[bad])) in capsys.readouterr().err
        left = {p.name for p in tmp_path.rglob("*")}
        assert left == {"cfg.json", *([outs[bad].name] if is_dir else [])}

    @pytest.mark.parametrize("via_link", [False, True], ids=["same_path", "via_symlink"])
    def test_same_output_file_twice_exit_3_before_training(
            self, tmp_path, capsys, monkeypatch, via_link):
        """A history path that names the checkpoint's file, directly or through
        a symlinked directory, ends in exit 3 naming it before the data is made."""
        def no_training(*args, **kwargs):
            raise AssertionError("train() ran")

        monkeypatch.setattr(training, "train", no_training)
        (tmp_path / "link").symlink_to(tmp_path)
        hist = tmp_path / "link" / "same.out" if via_link else tmp_path / "same.out"
        argv = ["train", write_config(tmp_path, TINY), str(tmp_path / "same.out"), str(hist)]
        assert run_cli(argv) == 3
        assert repr(str(hist)) in capsys.readouterr().err
        assert {p.name for p in tmp_path.iterdir()} == {"cfg.json", "link"}

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


def non_finite(name, fill):
    """The good checkpoint with tensor name's entries set by fill(tensor)."""
    def write(path, good):
        meta, tensors = load_checkpoint(good)
        fill(tensors[name])
        save_checkpoint(str(path), meta, tensors)
    return write


def bad_tensor_name(path, good):
    path.write_bytes(Path(good).read_bytes() + struct.pack("<I", 1) + b"\xff")


def repeated_config_key(path, good):
    """The good checkpoint with a second "config" key, the same config with
    data.seed 7, appended to its metadata object."""
    raw = Path(good).read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    config = json.loads(raw[12 : 12 + n])["config"]
    config["data"]["seed"] = 7
    meta = raw[12 : 11 + n] + b',"config":' + json.dumps(config).encode() + b"}"
    path.write_bytes(raw[:8] + struct.pack("<I", len(meta)) + meta + raw[12 + n :])


class TestCorruptCheckpoint:
    """A bad checkpoint ends in exit 2 with a message naming what is wrong."""

    @pytest.mark.parametrize("write, named", [
        (corrupt_metadata(b"{}"), "config"),
        (corrupt_metadata(b"\xff\xfe"), "metadata"),
        (corrupt_metadata(b"{not json"), "metadata"),
        (corrupt_metadata(b"[1,2]"), "metadata"),
        (corrupt_metadata(b"[" * 100_000 + b"]" * 100_000), "metadata"),
        (extra_tensor, "'bogus'"),
        (duplicate_tensor, "'cls.w'"),
        (bad_tensor_name, "tensor name"),
        (overflowing_shape, "truncated"),
        (non_finite("cls.w", lambda t: t.fill(np.inf)), "'cls.w'"),
        (non_finite("stage1.w", lambda t: np.put(t, 5, np.nan)), "'stage1.w'"),
        (repeated_config_key, "repeated key 'config'"),
    ], ids=["no_config", "bad_utf8", "bad_json", "not_an_object", "too_deep", "unknown_tensor",
            "duplicate_tensor", "bad_tensor_name", "overflowing_shape", "inf_weights",
            "one_nan_weight", "repeated_key"])
    def test_eval_exit_2(self, write, named, tiny_artifacts, tmp_path, capsys):
        _, _, good, _ = tiny_artifacts
        bad = tmp_path / "bad.srck"
        write(bad, good)
        assert run_cli(["eval", str(bad)]) == 2
        err = capsys.readouterr().err
        assert named in err
        if named != "'bogus'":  # params_from_tensors sees tensors, not the file
            assert str(bad) in err


def with_data(good, path, **data):
    """A copy of checkpoint ``good`` whose metadata config has ``data`` keys
    replaced; the tensors stay as they are."""
    meta, tensors = load_checkpoint(good)
    meta["config"]["data"].update(data)
    save_checkpoint(str(path), meta, tensors)
    return str(path)


class TestCheckpointDataFit:
    """eval and inspect check the checkpoint's host against its data section
    as train does, through the same check."""

    @pytest.fixture(scope="class")
    def ten_class(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fit")
        doc = {"data": {**TINY["data"], "classes": 10, "per_class": 10, "per_class_test": 2},
               "host": {**TINY["host"], "classes": 10}, "train": {"epochs": 0}}
        ck = str(tmp / "ten.srck")
        assert run_cli(["train", write_config(tmp, doc), ck, str(tmp / "h.csv")]) == 0
        return ck

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_class_count_disagrees_exit_2(self, ten_class, tmp_path, capsys, command):
        bad = with_data(ten_class, tmp_path / "bad.srck", classes=12)
        outdir = tmp_path / "report"
        argv = [command, bad] + ([str(outdir)] if command == "inspect" else [])
        assert run_cli(argv) == 2
        assert "host.classes=10 != data.classes=12" in capsys.readouterr().err
        assert not outdir.exists()

    def test_inspect_empty_validation_split_exit_2(self, ten_class, tmp_path, capsys):
        bad = with_data(ten_class, tmp_path / "bad.srck", per_class=5)
        outdir = tmp_path / "report"
        assert run_cli(["inspect", bad, str(outdir)]) == 2
        assert "data.per_class=5 must be >= 10" in capsys.readouterr().err
        assert not outdir.exists()
        assert run_cli(["eval", bad]) == 0  # the test split is not empty


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

    def test_baseline_past_float_range(self, tmp_path, capsys):
        """The overhead is exact integer division, so a baseline too large
        for a float gives 0.00 rather than an OverflowError."""
        cfg = write_config(tmp_path, {"host": {"sr_insert": 3}})
        baseline = "1" + "0" * 400
        assert run_cli(["params", cfg, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert f"baseline {baseline}\n" in out and "overhead_pct 0.00\n" in out

    # 10**309: the quotient is finite and its rounding overflows; 10**311: the
    # integer division itself is past float range
    @pytest.mark.parametrize("c", [10**309, 10**311], ids=["rounding", "division"])
    def test_sr_count_past_float_range_exit_2(self, tmp_path, capsys, c):
        cfg = write_config(tmp_path, {"host": {"sr_insert": None,
                                               "sr": {"c": c, "h": 1, "w": 1}}})
        assert run_cli(["params", cfg]) == 2
        out, err = capsys.readouterr()
        assert "overhead_pct" not in out
        assert "SR block's parameter count" in err and "past float range" in err

    # counts of more than Python's 4,300 int-to-str digits, from configs whose
    # every value has fewer: the SR block's p*c*h*w, then the host's linear layer
    @pytest.mark.parametrize("host, name", [
        ({"sr_insert": None, "sr": {"c": 10**1500, "h": 10**1500, "w": 10**1500}},
         "sr_params"),
        ({"sr_insert": None, "classes": 10**4000, "stage_channels": [1, 1, 1, 10**1000]},
         "host_params_no_sr"),
    ], ids=["sr_params", "host_params_no_sr"])
    def test_count_past_int_str_digits_exit_2(self, tmp_path, capsys, host, name):
        cfg = write_config(tmp_path, {"host": host})  # json.dumps writes literal integers
        assert run_cli(["params", cfg]) == 2
        out, err = capsys.readouterr()
        assert f"{name} " not in out
        assert err.startswith(f"error: {name} has more than ")

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run_cli(["params", str(path)]) == 2
        assert "cfg.json" in capsys.readouterr().err

    def test_config_nested_too_deep_exit_2(self, tmp_path, capsys):
        """JSON nested past Python's recursion limit is malformed input, not a
        failed check: exit 2 naming the file, not a RecursionError."""
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli(["params", str(path)]) == 2
        assert f"malformed JSON in {path}" in capsys.readouterr().err


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
