"""Plain-text key=value config files and dict round-trips for config types."""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import get_type_hints

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
    """parse_kv_text of a file; a parse error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_kv_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def format_kv(d: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in sorted(d.items()))


def _parse_int_tuple(s: str):
    s = s.strip()
    if not s:
        return ()
    return tuple(int(tok) for tok in s.split(","))


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_PARSERS = {int: int, float: float, bool: _parse_bool, tuple: _parse_int_tuple}


def model_config_to_dict(cfg: ModelConfig) -> dict:
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(c) for c in v)
        out[f.name] = repr(v) if isinstance(v, float) else str(v)
    return out


def model_config_from_dict(d: dict) -> ModelConfig:
    return _from_dict(ModelConfig, d, "model")


def train_config_from_dict(d: dict) -> TrainConfig:
    return _from_dict(TrainConfig, d, "train")


def _from_dict(cls, d: dict, kind: str):
    """Build a config dataclass from strings, parsing each by its field's annotation."""
    types = get_type_hints(cls)
    kwargs = {}
    for key, raw in d.items():
        if key not in types:
            raise ConfigError(f"unknown {kind} config key {key!r}")
        try:
            kwargs[key] = _PARSERS[types[key]](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})")
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{kind} config needs {f.name}")
    return cls(**kwargs)
