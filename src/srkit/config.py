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

``sr.c/h/w`` normally stay null: ``HostConfig`` derives them from the
insertion stage's output shape, which explicit values must match. Each
config object checks itself when built, also by ``dataclasses.replace``.
The defaults above are the toy run: SR after stage 3 with channel dropout.

Fields and defaults come from the dataclasses themselves; only the toy
run's departures from them (``_TOY_HOST``) are written down here. Each
value is typed from the field's annotation: numbers must be finite JSON
numbers (a fraction is not an int), booleans JSON ``true``/``false``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import get_args, get_origin, get_type_hints

from .data import SynthSpec
from .errors import ConfigError
from .host import HostConfig
from .sr_block import SRConfig
from .train import TrainConfig

_TOY_HOST = {"sr_insert": 3, "dropout_kind": "channel", "dropout_p": 0.1}


@dataclass
class RunConfig:
    host: HostConfig
    train: TrainConfig
    data: SynthSpec

    def to_dict(self) -> dict:
        """Full document with every key explicit (the metadata snapshot)."""
        return asdict(self)


def _expect(cond: bool, key: str, why: str) -> None:
    if not cond:
        raise ConfigError(f"invalid value for {key}: {why}")


def _object(doc, prefix: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"config section {prefix!r} must be an object")
    return doc


def _number(value, kind: type, key: str):
    """A JSON number as a finite ``kind`` (int or float); a bool, a string, a
    fraction where an int is due or an int beyond float range where a float
    is due raises ConfigError naming the key."""
    if type(value) is float:
        ok = math.isfinite(value) and (kind is float or value.is_integer())
    else:
        ok = type(value) is int and (kind is int or abs(value) <= sys.float_info.max)
    _expect(ok, key, f"expected a finite {kind.__name__}, got {value!r}")
    return kind(value)


def _coerce(value, tp, key: str):
    """``value`` as the annotated type ``tp``: int, float, bool, str,
    Optional[...] or tuple[...]."""
    args = get_args(tp)
    if type(None) in args:
        return None if value is None else _coerce(value, args[0], key)
    if get_origin(tp) is tuple:
        _expect(isinstance(value, (list, tuple)), key, f"expected a list, got {value!r}")
        if args[-1] is not Ellipsis:
            _expect(len(value) == len(args), key, f"expected a list of {len(args)}")
        return tuple(_coerce(v, args[0], key) for v in value)
    if tp in (bool, str):
        _expect(type(value) is tp, key, f"expected a {tp.__name__}, got {value!r}")
        return value
    return _number(value, tp, key)


@functools.cache
def _hints(cls) -> dict:
    """Field name -> resolved annotation of a config dataclass."""
    return get_type_hints(cls)


def _section(cls, doc: dict, prefix: str):
    """``cls`` from one config section: given keys typed by the dataclass
    annotations, the rest left at the dataclass defaults."""
    hints = _hints(cls)
    for key in _object(doc, prefix):
        if key not in hints:
            raise ConfigError(f"unknown config key: {prefix}.{key}")
    return cls(**{k: _coerce(v, hints[k], f"{prefix}.{k}") for k, v in doc.items()})


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document and build the config objects."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for key in doc:
        if key not in ("host", "train", "data"):
            raise ConfigError(f"unknown config key: {key}")

    h = {**_TOY_HOST, **_object(doc.get("host", {}), "host")}
    sr_doc = h.pop("sr", None)
    sr_doc = {} if sr_doc is None else dict(_object(sr_doc, "host.sr"))
    host = _section(HostConfig, h, "host")  # with the default block at sr_insert
    if sr_doc:
        for k in "chw":
            if sr_doc.get(k) is None:
                _expect(host.sr is not None, f"host.sr.{k}", "required when sr_insert is null")
                sr_doc[k] = getattr(host.sr, k)
        host = replace(host, sr=_section(SRConfig, sr_doc, "host.sr"))

    return RunConfig(
        host=host,
        train=_section(TrainConfig, doc.get("train", {}), "train"),
        data=_section(SynthSpec, doc.get("data", {}), "data"),
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:  # also bad UTF-8, too deep, int digits
            raise ConfigError(f"malformed JSON in {path}: {e}") from e
    return parse_config(doc)
