"""Strict JSON run configuration.

One document mirrors the host, SR, training, and data settings, every key
optional with a documented default, and any unknown key rejected by name
(silent hyperparameter typos are worse than strictness). Shape of the
full document:

    {
      "host": {"stage_channels": [16,32,64,64], "in_channels": 3,
               "in_h": 32, "in_w": 32, "classes": 10,
               "sr_insert": 3, "dropout_kind": "channel", "dropout_p": 0.1,
               "sr": {"c": null, "h": null, "w": null, "u": 8, "p": 4,
                      "hidden_relu": false, "allow_off_grid": false}},
      "train": {"lr0": 0.1, "momentum": 0.9, "weight_decay": 5e-4,
                "lr_decay_factor": 0.2, "decay_epochs": null, "epochs": 30,
                "batch": 128, "early_stop_patience": 10,
                "flip_augment": true, "decay_memory": true, "seed": 0},
      "data": {"classes": 10, "per_class": 200, "per_class_test": 50,
               "channels": 3, "h": 32, "w": 32, "noise_sigma": 0.25,
               "seed": 0}
    }

``sr.c/h/w`` normally stay null and are derived from the insertion
stage's output shape; explicit values are honored (and must match the
stage when the config is used for training). The defaults above are the
toy run: SR after stage 3 with channel dropout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .data import SynthSpec
from .errors import ConfigError
from .host import HostConfig
from .sr_block import SRConfig
from .train import TrainConfig

_HOST_DEFAULTS = {
    "stage_channels": [16, 32, 64, 64],
    "in_channels": 3,
    "in_h": 32,
    "in_w": 32,
    "classes": 10,
    "sr_insert": 3,
    "dropout_kind": "channel",
    "dropout_p": 0.1,
    "sr": None,
}
_SR_DEFAULTS = {
    "c": None,
    "h": None,
    "w": None,
    "u": 8,
    "p": 4,
    "hidden_relu": False,
    "allow_off_grid": False,
}
_TRAIN_DEFAULTS = {
    "lr0": 0.1,
    "momentum": 0.9,
    "weight_decay": 5e-4,
    "lr_decay_factor": 0.2,
    "decay_epochs": None,
    "epochs": 30,
    "batch": 128,
    "early_stop_patience": 10,
    "flip_augment": True,
    "decay_memory": True,
    "seed": 0,
}
_DATA_DEFAULTS = {
    "classes": 10,
    "per_class": 200,
    "per_class_test": 50,
    "channels": 3,
    "h": 32,
    "w": 32,
    "noise_sigma": 0.25,
    "seed": 0,
}


@dataclass
class RunConfig:
    host: HostConfig
    train: TrainConfig
    data: SynthSpec

    def to_dict(self) -> dict:
        """Full document with every key explicit (the metadata snapshot)."""
        sr = self.host.sr
        return {
            "host": {
                "stage_channels": list(self.host.stage_channels),
                "in_channels": self.host.in_channels,
                "in_h": self.host.in_h,
                "in_w": self.host.in_w,
                "classes": self.host.classes,
                "sr_insert": self.host.sr_insert,
                "dropout_kind": self.host.dropout_kind,
                "dropout_p": self.host.dropout_p,
                "sr": None
                if sr is None
                else {
                    "c": sr.c,
                    "h": sr.h,
                    "w": sr.w,
                    "u": sr.u,
                    "p": sr.p,
                    "hidden_relu": sr.hidden_relu,
                    "allow_off_grid": sr.allow_off_grid,
                },
            },
            "train": {
                "lr0": self.train.lr0,
                "momentum": self.train.momentum,
                "weight_decay": self.train.weight_decay,
                "lr_decay_factor": self.train.lr_decay_factor,
                "decay_epochs": None
                if self.train.decay_epochs is None
                else list(self.train.decay_epochs),
                "epochs": self.train.epochs,
                "batch": self.train.batch,
                "early_stop_patience": self.train.early_stop_patience,
                "flip_augment": self.train.flip_augment,
                "decay_memory": self.train.decay_memory,
                "seed": self.train.seed,
            },
            "data": {
                "classes": self.data.classes,
                "per_class": self.data.per_class,
                "per_class_test": self.data.per_class_test,
                "channels": self.data.channels,
                "h": self.data.h,
                "w": self.data.w,
                "noise_sigma": self.data.noise_sigma,
                "seed": self.data.seed,
            },
        }


def _merge_section(given: dict, defaults: dict, prefix: str) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"config section {prefix!r} must be an object")
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown config key: {prefix}.{key}")
    return {**defaults, **given}


def _expect(cond: bool, key: str, why: str) -> None:
    if not cond:
        raise ConfigError(f"invalid value for {key}: {why}")


def _number(value, kind: type, key: str):
    """A JSON number as a finite ``kind`` (int or float); a bool, a string or
    a fraction where an int is due raises ConfigError naming the key."""
    ok = type(value) is int or (type(value) is float and (
        value.is_integer() if kind is int else math.isfinite(value)))
    _expect(ok, key, f"expected a finite {kind.__name__}, got {value!r}")
    return kind(value)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document and build the config objects."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for key in doc:
        if key not in ("host", "train", "data"):
            raise ConfigError(f"unknown config key: {key}")

    h = _merge_section(doc.get("host", {}), _HOST_DEFAULTS, "host")
    sr_doc = {} if h["sr"] is None else h["sr"]
    s = _merge_section(sr_doc, _SR_DEFAULTS, "host.sr")

    t = _merge_section(doc.get("train", {}), _TRAIN_DEFAULTS, "train")
    d = _merge_section(doc.get("data", {}), _DATA_DEFAULTS, "data")

    _expect(
        isinstance(h["stage_channels"], (list, tuple))
        and len(h["stage_channels"]) == 4,
        "host.stage_channels",
        "must be a list of 4 counts",
    )
    stage_channels = tuple(
        _number(c, int, "host.stage_channels") for c in h["stage_channels"]
    )

    sr_insert = h["sr_insert"]
    if sr_insert is not None:
        sr_insert = _number(sr_insert, int, "host.sr_insert")

    # Build a provisional host to trace stage shapes for sr.c/h/w defaults.
    base = HostConfig(
        stage_channels=stage_channels,
        in_channels=_number(h["in_channels"], int, "host.in_channels"),
        in_h=_number(h["in_h"], int, "host.in_h"),
        in_w=_number(h["in_w"], int, "host.in_w"),
        classes=_number(h["classes"], int, "host.classes"),
        sr_insert=sr_insert,
        sr=None,
        dropout_kind=str(h["dropout_kind"]),
        dropout_p=_number(h["dropout_p"], float, "host.dropout_p"),
    )
    sr_cfg = None
    explicit_sr = any(s[k] is not None for k in ("c", "h", "w")) or bool(sr_doc)
    if sr_insert is not None or explicit_sr:
        if sr_insert is not None:
            dc, dh, dw = base.stage_output_shape(sr_insert)
        else:
            dc = dh = dw = None
        c = s["c"] if s["c"] is not None else dc
        hh = s["h"] if s["h"] is not None else dh
        ww = s["w"] if s["w"] is not None else dw
        _expect(c is not None, "host.sr.c", "required when sr_insert is null")
        _expect(hh is not None, "host.sr.h", "required when sr_insert is null")
        _expect(ww is not None, "host.sr.w", "required when sr_insert is null")
        sr_cfg = SRConfig(
            c=_number(c, int, "host.sr.c"),
            h=_number(hh, int, "host.sr.h"),
            w=_number(ww, int, "host.sr.w"),
            u=_number(s["u"], int, "host.sr.u"),
            p=_number(s["p"], int, "host.sr.p"),
            hidden_relu=bool(s["hidden_relu"]),
            allow_off_grid=bool(s["allow_off_grid"]),
        ).validate()

    host_cfg = replace(base, sr=sr_cfg).validate()

    decay = t["decay_epochs"]
    if decay is not None:
        _expect(
            isinstance(decay, (list, tuple)),
            "train.decay_epochs",
            "must be a list of epochs or null",
        )
        decay = tuple(_number(e, int, "train.decay_epochs") for e in decay)
    train_cfg = TrainConfig(
        lr0=_number(t["lr0"], float, "train.lr0"),
        momentum=_number(t["momentum"], float, "train.momentum"),
        weight_decay=_number(t["weight_decay"], float, "train.weight_decay"),
        lr_decay_factor=_number(t["lr_decay_factor"], float, "train.lr_decay_factor"),
        decay_epochs=decay,
        epochs=_number(t["epochs"], int, "train.epochs"),
        batch=_number(t["batch"], int, "train.batch"),
        early_stop_patience=_number(
            t["early_stop_patience"], int, "train.early_stop_patience"
        ),
        flip_augment=bool(t["flip_augment"]),
        decay_memory=bool(t["decay_memory"]),
        seed=_number(t["seed"], int, "train.seed"),
    ).validate()

    spec = SynthSpec(
        classes=_number(d["classes"], int, "data.classes"),
        per_class=_number(d["per_class"], int, "data.per_class"),
        per_class_test=_number(d["per_class_test"], int, "data.per_class_test"),
        channels=_number(d["channels"], int, "data.channels"),
        h=_number(d["h"], int, "data.h"),
        w=_number(d["w"], int, "data.w"),
        noise_sigma=_number(d["noise_sigma"], float, "data.noise_sigma"),
        seed=_number(d["seed"], int, "data.seed"),
    ).validate()

    return RunConfig(host=host_cfg, train=train_cfg, data=spec)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON in {path}: {e}") from e
    return parse_config(doc)
