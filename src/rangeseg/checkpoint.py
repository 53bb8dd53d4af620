"""Self-contained binary checkpoint container.

Layout, all integers little-endian:

    8s   magic "RSEGCKPT"
    u32  format version (currently 1)
    u32  config block length, then that many bytes of utf-8 key=value lines
    u32  tensor record count
    per record:
        u16  name length, then the utf-8 name
        u8   dtype tag, u8 rank, rank x u32 extents
        raw little-endian C-order payload

The config block holds the model configuration under `model.` keys; callers
may stash extra strings (projection geometry, class count of the data, ...)
under their own prefixes.
"""

from __future__ import annotations

import struct

import numpy as np

from .config import format_kv, model_config_from_dict, model_config_to_dict, parse_kv_text
from .errors import CorruptCheckpointError, IncompatibleCheckpointError
from .fileio import write_atomic
from .model import Model, ModelConfig, build_model

MAGIC = b"RSEGCKPT"
VERSION = 1

_DTYPE_TAGS = {
    np.dtype("<f4"): 0,
    np.dtype("<f8"): 1,
    np.dtype("<i8"): 2,
    np.dtype("<i4"): 3,
    np.dtype("<u4"): 4,
}
_TAG_DTYPES = {tag: dt for dt, tag in _DTYPE_TAGS.items()}


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    le = arr.dtype.newbyteorder("<")
    tag = _DTYPE_TAGS.get(np.dtype(le))
    if tag is None:
        raise CorruptCheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
    nb = name.encode("utf-8")
    head = struct.pack("<H", len(nb)) + nb + struct.pack("<BB", tag, arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    return head + arr.astype(le, copy=False).tobytes()


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CorruptCheckpointError(
                f"truncated: wanted {n} bytes at offset {self.off}, have {len(self.blob)}"
            )
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def text(self, n: int) -> str:
        """The next n bytes as utf-8 text."""
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpointError(f"{n} bytes before offset {self.off} are not valid utf-8") from exc

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> bool:
        return self.off == len(self.blob)


def _read_tensor(r: _Reader):
    (name_len,) = r.unpack("<H")
    name = r.text(name_len)
    tag, rank = r.unpack("<BB")
    dtype = _TAG_DTYPES.get(tag)
    if dtype is None:
        raise CorruptCheckpointError(f"tensor {name!r} has unknown dtype tag {tag}")
    shape = r.unpack(f"<{rank}I") if rank else ()
    count = int(np.prod(shape, dtype=np.int64)) if rank else 1
    payload = r.take(count * dtype.itemsize)
    return name, np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def save_checkpoint(model: Model, extra_config: dict | None = None, path=None) -> bytes:
    """Serialize the model (weights + buffers + config) to the container; path gets it atomically."""
    config = {f"model.{k}": v for k, v in model_config_to_dict(model.cfg).items()}
    for k, v in (extra_config or {}).items():
        if k.startswith("model."):
            raise ValueError("the model. prefix is reserved for the model config")
        config[k] = str(v)
    cfg_bytes = format_kv(config).encode("utf-8")

    records = [(name, p.value) for name, p in model.named_params()]
    records += list(model.named_buffers())
    body = b"".join(_pack_tensor(name, arr) for name, arr in records)
    blob = (
        MAGIC
        + struct.pack("<I", VERSION)
        + struct.pack("<I", len(cfg_bytes))
        + cfg_bytes
        + struct.pack("<I", len(records))
        + body
    )
    if path is not None:
        write_atomic(path, blob)
    return blob


def load_checkpoint(blob_or_path) -> tuple[Model, ModelConfig, dict]:
    """Rebuild a model from a container; returns (model, config, extras)."""
    if isinstance(blob_or_path, (bytes, bytearray)):
        blob = bytes(blob_or_path)
    else:
        with open(blob_or_path, "rb") as fh:
            blob = fh.read()
    r = _Reader(blob)
    if r.take(len(MAGIC)) != MAGIC:
        raise IncompatibleCheckpointError("bad magic; not a checkpoint of this package")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise IncompatibleCheckpointError(f"format version {version}, supported: {VERSION}")
    (cfg_len,) = r.unpack("<I")
    config = parse_kv_text(r.text(cfg_len))
    model_keys = {k[len("model.") :]: v for k, v in config.items() if k.startswith("model.")}
    extras = {k: v for k, v in config.items() if not k.startswith("model.")}
    cfg = model_config_from_dict(model_keys)
    model = build_model(cfg, seed=0)

    (count,) = r.unpack("<I")
    tensors = {}
    for _ in range(count):
        name, arr = _read_tensor(r)
        tensors[name] = arr
    if not r.done():
        raise CorruptCheckpointError(f"{len(blob) - r.off} trailing bytes after the last record")

    expected = {name: p for name, p in model.named_params()}
    buffers = dict(model.named_buffers())
    for name, arr in tensors.items():
        if name in expected:
            p = expected.pop(name)
            if p.value.shape != arr.shape:
                raise CorruptCheckpointError(
                    f"tensor {name!r} shape {arr.shape} does not match model {p.value.shape}"
                )
            p.value = arr
            p.grad = np.zeros_like(arr)
        elif name in buffers:
            buf = buffers.pop(name)
            if buf.shape != arr.shape:
                raise CorruptCheckpointError(f"buffer {name!r} shape mismatch")
            np.copyto(buf, arr)
        else:
            raise CorruptCheckpointError(f"tensor {name!r} does not exist in this architecture")
    if expected or buffers:
        missing = sorted(list(expected) + list(buffers))[:3]
        raise CorruptCheckpointError(f"checkpoint is missing tensors, e.g. {missing}")
    return model, cfg, extras
