"""Optimizer arithmetic, the seeded training loop and BN re-estimation."""

import copy
import json

import numpy as np
import pytest

from rangeseg.errors import ConfigError, DimensionError, EmptyBatchError, TrainingDivergedError
from rangeseg.layers import Param
from rangeseg.model import build_model, micro_config
from rangeseg.pointcloud import ClassWeights, default_scene_spec, generate_synthetic_scene
from rangeseg.postproc import KnnConfig
from rangeseg.projection import ProjectionConfig, build_range_image
from rangeseg.train import (
    MomentumState,
    TrainConfig,
    evaluate_pointwise,
    normalize_weights,
    reestimate_bn_stats,
    sgd_step,
    train,
)

PROJ = ProjectionConfig(w=64, h=32)


def make_param(value, decay=False):
    return Param("p", np.asarray(value, dtype=np.float64), decay=decay)


def scans(n=2, first=0):
    return [generate_synthetic_scene(seed=100 + first + i,
                                     spec=default_scene_spec(first + i))
            for i in range(n)]


class TestSgdStep:
    def test_single_step_without_momentum_history(self):
        p = make_param([1.0, 2.0])
        cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
        state = MomentumState([p])
        sgd_step([p], [np.array([0.5, -1.0])], state, cfg, lr=0.1)
        np.testing.assert_allclose(p.value, [1.0 - 0.05, 2.0 + 0.1])

    def test_two_steps_accumulate_momentum(self):
        # same gradient g twice at momentum 0.9: displacement lr*(1 + 1.9)*g
        p = make_param([0.0])
        g = np.array([1.0])
        cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
        state = MomentumState([p])
        sgd_step([p], [g], state, cfg, lr=0.1)
        sgd_step([p], [g], state, cfg, lr=0.1)
        np.testing.assert_allclose(p.value, [-0.29])

    def test_zero_gradient_is_noop(self):
        p = make_param([3.0], decay=False)
        state = MomentumState([p])
        sgd_step([p], [np.zeros(1)], state, TrainConfig(weight_decay=0.0), lr=0.1)
        np.testing.assert_array_equal(p.value, [3.0])

    def test_weight_decay_only_touches_decay_params(self):
        kernel = make_param([2.0], decay=True)
        bias = make_param([2.0], decay=False)
        cfg = TrainConfig(momentum=0.0, weight_decay=0.1)
        state = MomentumState([kernel, bias])
        sgd_step([kernel, bias], [np.zeros(1), np.zeros(1)], state, cfg, lr=1.0)
        np.testing.assert_allclose(kernel.value, [2.0 - 0.1 * 2.0])
        np.testing.assert_array_equal(bias.value, [2.0])

    def test_misaligned_lists_rejected(self):
        p = make_param([1.0])
        with pytest.raises(DimensionError):
            sgd_step([p], [], MomentumState([p]), TrainConfig(), lr=0.1)

    def test_shape_mismatch_rejected(self):
        p = make_param([1.0, 2.0])
        with pytest.raises(DimensionError):
            sgd_step([p], [np.zeros(3)], MomentumState([p]), TrainConfig(), lr=0.1)


class TestTrainConfig:
    def test_defaults_follow_schedule(self):
        cfg = TrainConfig()
        assert cfg.lr0 == 0.01 and cfg.lr_decay == 0.99
        assert cfg.momentum == 0.9 and cfg.weight_decay == 1e-4

    @pytest.mark.parametrize("kwargs", [
        dict(lr0=0.0),
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(weight_decay=-1e-4),
        dict(lr_decay=0.0),
        dict(lr_decay=1.0001),
        dict(batch_size=0),
        dict(epochs=-1),
        dict(lr0=float("nan")),
        dict(lr0=float("inf")),
        dict(weight_decay=float("nan")),
        dict(weight_decay=float("inf")),
        dict(epochs=2.5),
        dict(batch_size=2.5),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestNormalizeWeights:
    def test_pixel_mean_becomes_one(self):
        cw = ClassWeights(weights=np.array([1.0, 0.5]),
                          frequencies=np.array([1, 4], dtype=np.int64))
        out = normalize_weights(cw)
        mean = (out.weights * cw.frequencies).sum() / cw.frequencies.sum()
        assert mean == pytest.approx(1.0, rel=1e-12)
        # ratios unchanged
        assert out.weights[0] / out.weights[1] == pytest.approx(2.0, rel=1e-12)

    def test_all_absent_passes_through(self):
        cw = ClassWeights(weights=np.zeros(2), frequencies=np.zeros(2, dtype=np.int64))
        assert normalize_weights(cw) is cw


class TestTrainingLoop:
    def test_lr_decays_per_epoch(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0, augment=False)
        result = train(model, scans(2), PROJ, cfg)
        assert result.final_lr == pytest.approx(0.01 * 0.99, rel=1e-12)
        assert result.history[0]["lr"] == pytest.approx(0.01)

    def test_loss_decreases_early(self):
        model = build_model(micro_config(num_classes=4), seed=1)
        cfg = TrainConfig(epochs=5, batch_size=2, lr0=0.01, seed=3, augment=False)
        result = train(model, scans(2), PROJ, cfg)
        losses = [h["loss_total"] for h in result.history]
        assert losses[-1] < losses[0]

    def test_metrics_log_is_json_lines(self, tmp_path):
        model = build_model(micro_config(num_classes=4), seed=0)
        log = tmp_path / "metrics.jsonl"
        cfg = TrainConfig(epochs=2, batch_size=2, seed=0, augment=False)
        result = train(model, scans(2), PROJ, cfg, log_path=log)
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(lines) == 2
        for rec, hist in zip(lines, result.history):
            assert set(rec) == {"epoch", "lr", "loss_total", "loss_wce",
                                "loss_ls", "train_miou"}
            assert rec["loss_total"] == pytest.approx(hist["loss_total"])

    def test_total_is_sum_of_parts(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0, augment=False)
        h = train(model, scans(2), PROJ, cfg).history[0]
        assert h["loss_total"] == pytest.approx(h["loss_wce"] + h["loss_ls"], rel=1e-12)

    def test_deterministic_per_seed(self):
        cfg = TrainConfig(epochs=2, batch_size=2, seed=5, augment=True)
        outs = []
        for _ in range(2):
            model = build_model(micro_config(num_classes=4), seed=2)
            train(model, scans(2), PROJ, cfg)
            outs.append({n: p.value.copy() for n, p in model.named_params()})
            outs[-1].update({n: b.copy() for n, b in model.named_buffers()})
        for name in outs[0]:
            np.testing.assert_array_equal(outs[0][name], outs[1][name])

    def test_seed_changes_trajectory(self):
        results = []
        for seed in (0, 1):
            model = build_model(micro_config(num_classes=4), seed=2)
            cfg = TrainConfig(epochs=1, batch_size=2, seed=seed, augment=True)
            train(model, scans(2), PROJ, cfg)
            results.append(next(iter(model.named_params()))[1].value.copy())
        assert not np.array_equal(results[0], results[1])

    def test_empty_dataset_rejected(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        with pytest.raises(EmptyBatchError):
            train(model, [], PROJ, TrainConfig(epochs=1))

    def test_explicit_weights_respected(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        w = ClassWeights(weights=np.ones(4), frequencies=np.ones(4, dtype=np.int64))
        cfg = TrainConfig(epochs=0, batch_size=2, seed=0)
        result = train(model, scans(1), PROJ, cfg, weights=w)
        assert result.weights is w

    # lr0 = 1e300 overflows float32: the first step leaves every parameter inf or NaN
    def test_diverged_parameters_raise_at_epoch_end(self):
        # one batch per epoch, so no loss is computed from the overflowed parameters
        model = build_model(micro_config(num_classes=4), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=2, lr0=1e300, seed=0, augment=False)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="parameter after epoch 0"):
            train(model, scans(2), PROJ, cfg)

    def test_diverged_loss_raises(self):
        # the second batch runs forward on the overflowed parameters
        model = build_model(micro_config(num_classes=4), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=1, lr0=1e300, seed=0, augment=False)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="loss at epoch 0"):
            train(model, scans(2), PROJ, cfg)


def reestimate_by_forwards(model, scan_list, passes):
    """The oracle: passes x scans dropout-free train-mode forwards, in scan order."""
    rng = np.random.default_rng(0)
    for _ in range(passes):
        for scan in scan_list:
            img = build_range_image(scan, PROJ)
            model.forward(img.channels, mode="train", rng=rng, rate=0.0)


class TestReestimateBnStats:
    @pytest.fixture(scope="class")
    def trained(self):
        # one epoch moves the running statistics off their defaults
        model = build_model(micro_config(num_classes=4), seed=2)
        train(model, scans(2), PROJ, TrainConfig(epochs=1, batch_size=2, seed=0, augment=True))
        return model

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("passes", [0, 1, 3])
    def test_replay_matches_forward_loop(self, trained, passes, dtype):
        data = scans(3, first=4)
        oracle, model = copy.deepcopy(trained).cast(dtype), copy.deepcopy(trained).cast(dtype)
        params_before = {n: p.value.copy() for n, p in model.named_params()}
        buffers_before = {n: b.copy() for n, b in model.named_buffers()}
        reestimate_by_forwards(oracle, data, passes)

        calls = []
        forward = model.forward
        model.forward = lambda *a, **k: calls.append(1) or forward(*a, **k)
        reestimate_bn_stats(model, data, PROJ, passes=passes)

        assert len(calls) == (len(data) if passes else 0)
        expected = dict(oracle.named_buffers())
        for name, buf in model.named_buffers():
            assert buf.dtype == expected[name].dtype
            np.testing.assert_array_equal(buf, expected[name], err_msg=name)
        moved = any(not np.array_equal(b, buffers_before[n]) for n, b in model.named_buffers())
        assert moved == (passes > 0)
        for name, p in model.named_params():
            np.testing.assert_array_equal(p.value, params_before[name], err_msg=name)

    def test_in_place_route_matches_cached_forwards(self, trained):
        # a cached forward keeps every layer output apart; reestimate's forwards write in place
        data = scans(3, first=4)
        oracle, model = copy.deepcopy(trained), copy.deepcopy(trained)
        for scan in data:
            oracle.forward(build_range_image(scan, PROJ).channels, mode="train", rate=0.0, cache=True)
        reestimate_bn_stats(model, data, PROJ, passes=1)
        expected = dict(oracle.named_buffers())
        for name, buf in model.named_buffers():
            assert buf.dtype == expected[name].dtype and buf.tobytes() == expected[name].tobytes(), name


class TestEvaluatePointwise:
    def test_returns_full_confusion(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        data = scans(1)
        cm = evaluate_pointwise(model, data, PROJ)
        assert cm.counts.sum() == len(data[0])

    def test_knn_path_runs(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        cm = evaluate_pointwise(model, scans(1), PROJ, knn_cfg=KnnConfig(window=3, k=3))
        assert cm.counts.sum() > 0
