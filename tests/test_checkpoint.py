"""Checkpoint container: round trips, corruption, and version handling."""

import os
import struct
import zlib

import numpy as np
import pytest

from rangeseg.checkpoint import MAGIC, VERSION, _pack_tensor, load_checkpoint, save_checkpoint
from rangeseg.config import (
    ConfigError,
    format_kv,
    load_kv_file,
    model_config_from_dict,
    model_config_to_dict,
    parse_kv_text,
    train_config_from_dict,
)
from rangeseg.model import ModelConfig, build_model, micro_config
from rangeseg.train import TrainConfig


@pytest.fixture()
def model():
    m = build_model(micro_config(num_classes=4), seed=7)
    # move the buffers off their init values so restoring them is observable
    for _, buf in m.named_buffers():
        buf += 0.25
    return m


def splice(blob, new_records):
    """Rebuild a blob around the original header/config with new records."""
    cfg_len = struct.unpack("<I", blob[12:16])[0]
    head = blob[: 16 + cfg_len]
    body = b"".join(_pack_tensor(n, a) for n, a in new_records)
    return head + struct.pack("<I", len(new_records)) + body


def records_of(m):
    recs = [(n, p.value) for n, p in m.named_params()]
    recs += [(n, b) for n, b in m.named_buffers()]
    return recs


class TestRoundTrip:
    def test_forward_is_bit_identical(self, model):
        x = np.random.default_rng(0).normal(size=(1, 5, 32, 64)).astype(np.float32)
        before = model.forward(x)
        loaded, cfg, extras = load_checkpoint(save_checkpoint(model))
        np.testing.assert_array_equal(loaded.forward(x), before)
        assert cfg == model.cfg
        assert extras == {}

    def test_file_round_trip(self, model, tmp_path):
        path = tmp_path / "weights.rseg"
        blob = save_checkpoint(model, path=path)
        assert path.read_bytes() == blob
        loaded, _, _ = load_checkpoint(path)
        for (n0, p0), (n1, p1) in zip(model.named_params(), loaded.named_params()):
            assert n0 == n1
            np.testing.assert_array_equal(p0.value, p1.value)

    def test_buffers_restored(self, model):
        loaded, _, _ = load_checkpoint(save_checkpoint(model))
        for (n0, b0), (n1, b1) in zip(model.named_buffers(), loaded.named_buffers()):
            np.testing.assert_array_equal(b0, b1)

    def test_extras_round_trip(self, model):
        extras = {"proj.w": "512", "proj.h": "64", "note": "smoke"}
        _, _, back = load_checkpoint(save_checkpoint(model, extra_config=extras))
        assert back == extras

    def test_model_prefix_reserved(self, model):
        with pytest.raises(ValueError):
            save_checkpoint(model, extra_config={"model.num_classes": "9"})

    def test_load_ignores_later_weight_edits(self, model):
        blob = save_checkpoint(model)
        first = next(iter(model.named_params()))[1]
        original = first.value.copy()
        first.value += 1.0
        loaded, _, _ = load_checkpoint(blob)
        np.testing.assert_array_equal(
            next(iter(loaded.named_params()))[1].value, original)


class TestRejection:
    def test_bad_magic(self, model):
        blob = save_checkpoint(model)
        from rangeseg.errors import IncompatibleCheckpointError
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(b"NOTACKPT" + blob[8:])

    def test_unsupported_version(self, model):
        blob = save_checkpoint(model)
        from rangeseg.errors import IncompatibleCheckpointError
        tampered = blob[:8] + struct.pack("<I", VERSION + 1) + blob[12:]
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(tampered)

    @pytest.mark.parametrize("cut", [1, 5, 100, 1000])
    def test_truncation(self, model, cut):
        from rangeseg.errors import CorruptCheckpointError
        blob = save_checkpoint(model)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(blob[:-cut])

    def test_trailing_bytes(self, model):
        from rangeseg.errors import CorruptCheckpointError
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(save_checkpoint(model) + b"\x00")

    def test_unknown_tensor_name(self, model):
        from rangeseg.errors import CorruptCheckpointError
        recs = records_of(model) + [("stowaway", np.zeros(3, dtype=np.float32))]
        with pytest.raises(CorruptCheckpointError, match="stowaway"):
            load_checkpoint(splice(save_checkpoint(model), recs))

    def test_missing_tensor(self, model):
        from rangeseg.errors import CorruptCheckpointError
        recs = records_of(model)[:-1]
        with pytest.raises(CorruptCheckpointError, match="missing"):
            load_checkpoint(splice(save_checkpoint(model), recs))

    def test_shape_mismatch(self, model):
        from rangeseg.errors import CorruptCheckpointError
        recs = records_of(model)
        recs[0] = (recs[0][0], np.zeros((1, 2, 3), dtype=np.float32))
        with pytest.raises(CorruptCheckpointError, match="shape"):
            load_checkpoint(splice(save_checkpoint(model), recs))

    def test_unknown_dtype_tag(self, model):
        from rangeseg.errors import CorruptCheckpointError
        blob = save_checkpoint(model)
        cfg_len = struct.unpack("<I", blob[12:16])[0]
        first_rec = 16 + cfg_len + 4
        name_len = struct.unpack("<H", blob[first_rec : first_rec + 2])[0]
        tag_at = first_rec + 2 + name_len
        tampered = blob[:tag_at] + b"\xee" + blob[tag_at + 1 :]
        with pytest.raises(CorruptCheckpointError, match="dtype"):
            load_checkpoint(tampered)

    @pytest.mark.parametrize("where", ["config", "tensor-name"])
    def test_invalid_utf8_is_corrupt(self, model, where):
        from rangeseg.errors import CorruptCheckpointError
        blob = bytearray(save_checkpoint(model))
        cfg_len = struct.unpack("<I", blob[12:16])[0]
        blob[20 if where == "config" else 16 + cfg_len + 4 + 2] = 0xFF  # 0xFF never occurs in utf-8
        with pytest.raises(CorruptCheckpointError, match="utf-8"):
            load_checkpoint(bytes(blob))

    def test_magic_spelled_as_documented(self):
        assert MAGIC == b"RSEGCKPT" and VERSION == 1


class TestLayout:
    """Tensor names fix the file layout; a consistent rename would orphan saved files."""

    def test_committed_checkpoint_loads(self):
        path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "micro.rseg")
        _, cfg, _ = load_checkpoint(path)
        assert cfg == micro_config(num_classes=4)

    def test_micro_tensor_names_pinned(self):
        m = build_model(micro_config(), seed=0)
        names = [n for n, _ in m.named_params()] + [n for n, _ in m.named_buffers()]
        assert len(names) == 158
        assert names[0] == "context0.short.conv.kernel"
        assert names[-1] == "dec1.block.project.bn.running_var"
        assert zlib.crc32("\n".join(names).encode()) == 3509744970


class TestConfigBlock:
    def test_kv_round_trip(self):
        d = {"model.num_classes": "4", "proj.w": "512", "z": "a=b"}
        assert parse_kv_text(format_kv(d)) == d

    def test_comments_and_blanks_skipped(self):
        assert parse_kv_text("# note\n\na=1\n  # more\nb = 2\n") == {"a": "1", "b": "2"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_text("just words\n")

    def test_non_utf8_file_rejected_naming_it(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_bytes(b"num_classes=4\n\xff\n")
        with pytest.raises(ConfigError) as exc:
            load_kv_file(path)
        assert str(path) in str(exc.value)

    def test_parse_error_names_the_file(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("num_classes=4\nbase_channels 8\n")
        with pytest.raises(ConfigError) as exc:
            load_kv_file(path)
        assert str(exc.value).startswith(f"{path}: line 2: expected key=value")

    def test_model_config_round_trip(self):
        cfg = ModelConfig(num_classes=11, dropout_rate=0.35,
                          base_channels=8, encoder_channels=(8, 16, 32),
                          num_pool_stages=2)
        assert model_config_from_dict(model_config_to_dict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            model_config_from_dict({"num_classes": "4", "flux": "9"})

    def test_missing_num_classes_rejected(self):
        with pytest.raises(ConfigError):
            model_config_from_dict({"dropout_rate": "0.2"})

    def test_train_config_parsed_by_field_type(self):
        got = train_config_from_dict({"epochs": "3", "lr0": "0.5", "augment": "off"})
        assert got == TrainConfig(epochs=3, lr0=0.5, augment=False)

    @pytest.mark.parametrize("parse, d", [
        (model_config_from_dict, {"num_classes": "four"}),
        (model_config_from_dict, {"num_classes": "4", "encoder_channels": "8,x"}),
        (train_config_from_dict, {"augment": "maybe"}),
        (train_config_from_dict, {"flux": "9"}),
    ])
    def test_bad_value_or_key_rejected(self, parse, d):
        with pytest.raises(ConfigError):
            parse(d)
