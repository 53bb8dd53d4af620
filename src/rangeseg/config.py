"""Plain-text key=value config files and dict round-trips for config types."""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError
from .model import ModelConfig
from .train import TrainConfig


def parse_kv_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def load_kv_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_text(fh.read())


def format_kv(d: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in sorted(d.items()))


def _parse_int_tuple(s: str):
    s = s.strip()
    if not s:
        return ()
    return tuple(int(tok) for tok in s.split(","))


_MODEL_FIELD_PARSERS = {
    "num_classes": int,
    "in_channels": int,
    "base_channels": int,
    "encoder_channels": _parse_int_tuple,
    "decoder_channels": _parse_int_tuple,
    "num_pool_stages": int,
    "dropout_rate": float,
    "leaky_slope": float,
    "bn_eps": float,
    "bn_momentum": float,
}


def model_config_to_dict(cfg: ModelConfig) -> dict:
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(c) for c in v)
        out[f.name] = repr(v) if isinstance(v, float) else str(v)
    return out


def model_config_from_dict(d: dict) -> ModelConfig:
    kwargs = _parse_fields(d, _MODEL_FIELD_PARSERS, "model")
    if "num_classes" not in kwargs:
        raise ConfigError("model config needs num_classes")
    return ModelConfig(**kwargs)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_TRAIN_FIELD_PARSERS = {
    "epochs": int,
    "lr0": float,
    "lr_decay": float,
    "momentum": float,
    "weight_decay": float,
    "batch_size": int,
    "seed": int,
    "augment": _parse_bool,
}


def train_config_from_dict(d: dict) -> TrainConfig:
    return TrainConfig(**_parse_fields(d, _TRAIN_FIELD_PARSERS, "train"))


def _parse_fields(d: dict, parsers: dict, kind: str) -> dict:
    kwargs = {}
    for key, raw in d.items():
        parser = parsers.get(key)
        if parser is None:
            raise ConfigError(f"unknown {kind} config key {key!r}")
        try:
            kwargs[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})")
    return kwargs
