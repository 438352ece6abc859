"""Checkpoint binary format and strict JSON config parsing."""

import dataclasses
import json
import os
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srkit.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from srkit.config import load_config, parse_config
from srkit.errors import CheckpointError, ConfigError, SrkitError
from srkit.host import HostConfig, host_init
from srkit.rng import make_rng

README = Path(__file__).resolve().parents[1] / "README.md"


def sample_tensors(rng):
    return {
        "alpha": rng.uniform(-1, 1, (3,)).astype(np.float32),
        "beta.w": rng.uniform(-1, 1, (2, 4)).astype(np.float32),
        "gamma": rng.uniform(-1, 1, (2, 3, 2, 2)).astype(np.float32),
    }


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        path = str(tmp_path / "a.srck")
        tensors = sample_tensors(rng)
        meta = {"config": {"x": 1}, "note": "hello"}
        save_checkpoint(path, meta, tensors)
        meta2, tensors2 = load_checkpoint(path)
        assert meta2 == meta
        for name, t in tensors.items():
            assert t.dtype == tensors2[name].dtype
            assert np.array_equal(t, tensors2[name])

    def test_save_load_save_byte_identical(self, tmp_path, rng):
        p1, p2 = str(tmp_path / "a.srck"), str(tmp_path / "b.srck")
        tensors = sample_tensors(rng)
        save_checkpoint(p1, {"k": [1, 2, {"z": True}]}, tensors)
        meta, loaded = load_checkpoint(p1)
        save_checkpoint(p2, meta, loaded)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.srck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v9.srck"
        path.write_bytes(MAGIC + struct.pack("<I", 9) + struct.pack("<I", 2) + b"{}")
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_truncation_rejected(self, tmp_path, rng):
        path = str(tmp_path / "t.srck")
        save_checkpoint(path, {}, sample_tensors(rng))
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_huge_integer_in_metadata_rejected(self, tmp_path):
        path = tmp_path / "big.srck"
        meta = b'{"n":' + b"1" * 5000 + b"}"  # past Python's int-parsing digit limit
        path.write_bytes(MAGIC + struct.pack("<II", 1, len(meta)) + meta)
        with pytest.raises(CheckpointError, match="metadata"):
            load_checkpoint(str(path))

    def test_rank_beyond_numpy_rejected(self, tmp_path):
        path = tmp_path / "rank.srck"
        path.write_bytes(MAGIC + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<I", 1)
                         + b"t" + struct.pack("<66I", 65, *[0] * 65))  # 65 axes of extent 0
        with pytest.raises(CheckpointError, match="'t' of rank 65"):
            load_checkpoint(str(path))

    def test_little_endian_layout(self, tmp_path):
        path = str(tmp_path / "le.srck")
        save_checkpoint(path, {}, {"t": np.array([1.0], dtype=np.float32)})
        raw = open(path, "rb").read()
        assert raw[:4] == b"SRCK"
        assert struct.unpack("<I", raw[4:8])[0] == 1


class TestConfig:
    def test_empty_config_gets_defaults(self):
        run = parse_config({})
        assert run.host.stage_channels == (16, 32, 64, 64)
        assert run.host.sr_insert == 3
        assert run.host.sr.u == 8 and run.host.sr.p == 4
        assert run.train.lr0 == 0.1 and run.train.momentum == 0.9
        assert run.train.weight_decay == 5e-4
        assert run.data.per_class == 200 and run.data.noise_sigma == 0.25

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({"bogus": 1})
        with pytest.raises(ConfigError, match="host.lr"):
            parse_config({"host": {"lr": 0.1}})
        with pytest.raises(ConfigError, match="host.sr.neurons"):
            parse_config({"host": {"sr": {"neurons": 8}}})
        with pytest.raises(ConfigError, match="train.lr"):
            parse_config({"train": {"lr": 0.1}})
        with pytest.raises(ConfigError, match="data.sigma"):
            parse_config({"data": {"sigma": 0.1}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError, match="lr0"):
            parse_config({"train": {"lr0": 0}})
        with pytest.raises(ConfigError, match="momentum"):
            parse_config({"train": {"momentum": 1.0}})
        with pytest.raises(ConfigError, match="dropout_p"):
            parse_config({"host": {"dropout_p": 1.0}})
        with pytest.raises(ConfigError, match="stage_channels"):
            parse_config({"host": {"stage_channels": [1, 2, 3]}})
        with pytest.raises(ConfigError, match="sr.u"):
            parse_config({"host": {"sr": {"u": 7}}})

    def test_sr_disabled(self):
        for host in ({"sr_insert": None}, {"sr_insert": None, "sr": {}}):
            run = parse_config({"host": host})
            assert run.host.sr is None
            assert run.host.resolved_sr() is None

    @pytest.mark.parametrize("part, change, key", [
        (lambda run: run.train, {"lr0": 0}, "train.lr0"),
        (lambda run: run.data, {"seed": -1}, "data.seed"),
        (lambda run: run.host, {"dropout_p": 1.0}, "host.dropout_p"),
        (lambda run: run.host.sr, {"u": 7}, "sr.u"),
    ], ids=["TrainConfig", "SynthSpec", "HostConfig", "SRConfig"])
    def test_replace_checks_the_new_value(self, part, change, key):
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(part(parse_config({})), **change)

    def test_standalone_sr_for_accounting(self):
        run = parse_config(
            {"host": {"sr_insert": None,
                      "sr": {"c": 1024, "h": 14, "w": 14, "u": 16, "p": 10}}}
        )
        assert run.host.sr.c == 1024
        assert run.host.resolved_sr() is None  # not inserted into the host

    def test_derived_sr_shape(self):
        run = parse_config({"host": {"sr_insert": 4, "sr": {"p": 6}}})
        assert (run.host.sr.c, run.host.sr.h, run.host.sr.w) == (64, 4, 4)
        assert run.host.sr.p == 6

    def test_mismatched_sr_shape_rejected(self):
        with pytest.raises(ConfigError, match="does not match stage"):
            parse_config({"host": {"sr_insert": 3, "sr": {"c": 32, "h": 8, "w": 8}}})

    def test_to_dict_roundtrip(self):
        doc = {
            "host": {"sr_insert": 4, "dropout_kind": "element", "dropout_p": 0.2},
            "train": {"epochs": 7, "decay_epochs": [2, 5], "seed": 3},
            "data": {"per_class": 50, "seed": 1},
        }
        run = parse_config(doc)
        again = parse_config(run.to_dict())
        assert run.to_dict() == again.to_dict()
        assert again.train.decay_epochs == (2, 5)

    def test_load_config_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            load_config(str(path))

    @pytest.mark.parametrize("text, key", [
        ('{"host":{"sr_insert":3},"host":{"sr_insert":null}}', "host"),
        ('{"train":{"epochs":1,"epochs":0}}', "epochs"),
        ('{"host":{"sr":{"u":8,"u":16}}}', "u"),
    ], ids=["section", "train_key", "sr_key"])
    def test_load_config_repeated_key_named(self, tmp_path, text, key):
        """json keeps a repeated key's last value; the config rejects it."""
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"twice.json: repeated key '{key}'"):
            load_config(str(path))

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",  # not UTF-8
        b'{"train":{"epochs":' + b"9" * 5000 + b"}}",  # past int's digit limit
    ], ids=["not_utf8", "past_digit_limit"])
    def test_load_config_undecodable_names_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="bad.json"):
            load_config(str(path))

    @pytest.mark.parametrize("section, key, value", [
        ("train", "flip_augment", "false"),
        ("host.sr", "hidden_relu", 1),
        ("host", "sr_insert", 5),
        ("host", "sr_insert", -4),
        ("host", "sr_insert", 0),
        ("train", "lr0", 10**400),  # an int beyond float range
        ("train", "seed", -1),
        ("train", "seed", 2**64),
        ("data", "seed", -1),
        ("train", "weight_decay", -1e-4),
        ("train", "lr_decay_factor", -1),
        ("train", "lr_decay_factor", 0),
        ("train", "decay_epochs", [-3, 2]),
        ("train", "early_stop_patience", -1),
    ])
    def test_bad_value_named(self, section, key, value):
        doc = {key: value}
        for name in reversed(section.split(".")):
            doc = {name: doc}
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(doc)

    def test_json_false_turns_flips_off(self):
        run = parse_config({"train": {"flip_augment": False}})
        assert run.train.flip_augment is False

    def test_documented_defaults_match_code(self):
        text = README.read_text(encoding="utf-8").split("### Configuration", 1)[1]
        text = re.sub(r"//.*", "", text.split("```jsonc", 1)[1])
        doc, _ = json.JSONDecoder().raw_decode(text, text.index("{"))
        assert parse_config(doc).to_dict() == parse_config({}).to_dict()


def test_host_params_checkpoint_roundtrip(tmp_path):
    cfg = HostConfig(sr_insert=3)
    params = host_init(cfg, make_rng(77))
    params.sr.memory[:] = make_rng(78).uniform(-1, 1, params.sr.memory.shape).astype(np.float32)
    path = str(tmp_path / "host.srck")
    save_checkpoint(path, {"kind": "host"}, dict(params.items()))
    _, tensors = load_checkpoint(path)
    from srkit.host import params_from_tensors

    rebuilt = params_from_tensors(cfg, tensors)
    for (_, a), (_, b) in zip(params.items(), rebuilt.items()):
        assert np.array_equal(a, b)


def _valid_checkpoint() -> bytes:
    cfg = HostConfig(stage_channels=(2, 2, 4, 4), in_h=8, in_w=8, classes=2, sr_insert=3)
    params = host_init(cfg, make_rng(5))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ok.srck")
        save_checkpoint(path, {"config": parse_config({}).to_dict()}, dict(params.items()))
        return Path(path).read_bytes()


_CHECKPOINT = _valid_checkpoint()


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(0, len(_CHECKPOINT)),
       edits=st.lists(st.tuples(st.integers(0, len(_CHECKPOINT) - 1), st.integers(0, 255)),
                      max_size=4))
def test_load_checkpoint_raises_only_srkit_error(cut, edits):
    """A valid checkpoint cut short and with up to four bytes replaced."""
    blob = bytearray(_CHECKPOINT)
    for pos, byte in edits:
        blob[pos] = byte
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.srck")
        Path(path).write_bytes(bytes(blob[:cut]))
        try:
            load_checkpoint(path)
        except SrkitError:
            pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_FULL_DOC = json.loads(json.dumps(parse_config({}).to_dict()))


def _paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


_PATHS = [*_paths(_FULL_DOC), ("bogus",), ("host", "bogus"), ("host", "sr", "bogus")]


@settings(max_examples=200, deadline=None)
@given(content=st.binary())
def test_load_config_raises_only_config_error(content):
    """Any file content either loads or ends in ConfigError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        Path(path).write_bytes(content)
        try:
            load_config(path)
        except ConfigError:
            pass


@settings(max_examples=300, deadline=None)
@given(full=st.booleans(),
       edits=st.lists(st.tuples(st.sampled_from(_PATHS), st.integers(-6, 9) | _JSON),
                      max_size=3))
def test_parse_config_raises_only_config_error(full, edits):
    """{} or the full default document with up to three values, sections
    included, replaced by random JSON; small ints are drawn often so that
    range checks such as the stage index are reached."""
    doc = json.loads(json.dumps(_FULL_DOC)) if full else {}
    for path, value in edits:
        section = doc
        for key in path[:-1]:
            section = section.setdefault(key, {}) if isinstance(section, dict) else None
        if isinstance(section, dict):
            section[path[-1]] = value
    try:
        parse_config(doc)
    except ConfigError:
        pass
