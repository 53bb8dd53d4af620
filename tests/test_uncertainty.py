"""MC-dropout and noise-propagation uncertainty maps, and rate calibration."""

import numpy as np
import pytest

import rangeseg.uncertainty as uncertainty
from rangeseg.errors import (
    ConfigError,
    DimensionError,
    InvalidDistributionError,
    InvalidTargetError,
    InvalidTrialsError,
    StaleStateError,
)
from rangeseg.layers import Conv2d
from rangeseg.model import HeldPrefix, ModelConfig, build_model, micro_config
from rangeseg.uncertainty import (
    SensorNoiseModel,
    adf_infer,
    default_rate_grid,
    grid_search_dropout_rate,
    mc_dropout_infer,
    nll_objective,
)


@pytest.fixture(scope="module")
def model():
    return build_model(micro_config(num_classes=4), seed=0)


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(0).normal(size=(5, 16, 32)).astype(np.float32)


class FlipFlopModel:
    """Deterministic 2-class stand-in alternating between two probability maps.

    The rng and a held prefix are accepted and ignored.
    """

    def __init__(self, maps):
        self.maps = maps
        self.calls = 0

    def forward(self, x, mode="eval", rng=None, seed=None, rate=None, cache=False, held=None):
        out = self.maps[self.calls % len(self.maps)]
        self.calls += 1
        return out


class TestSensorNoiseModel:
    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidDistributionError):
            SensorNoiseModel(np.array([0.1, -0.1, 0.1, 0.1, 0.1]))

    def test_matrix_rejected(self):
        with pytest.raises(InvalidDistributionError):
            SensorNoiseModel(np.zeros((2, 2)))

    def test_from_dict_order(self):
        noise = SensorNoiseModel.from_dict(
            {"x": 1, "y": 2, "z": 3, "intensity": 4, "range": 5})
        np.testing.assert_array_equal(noise.variances, [1, 2, 3, 4, 5])

    def test_from_dict_missing_channel(self):
        with pytest.raises(ConfigError):
            SensorNoiseModel.from_dict({"x": 1, "y": 2, "z": 3, "intensity": 4})

    def test_isotropic(self):
        np.testing.assert_array_equal(
            SensorNoiseModel.isotropic(0.25).variances, np.full(5, 0.25))


class TestMcDropout:
    def test_needs_at_least_one_trial(self, model, image):
        with pytest.raises(InvalidTrialsError):
            mc_dropout_infer(model, image, n=0)

    @pytest.mark.parametrize("n", [2.0, True, np.float64(2), "2"], ids=["float", "bool", "np-float", "str"])
    def test_non_integer_trials_rejected(self, model, image, n):
        with pytest.raises(InvalidTrialsError):
            mc_dropout_infer(model, image, n=n)

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "float", "bool"])
    def test_seed_must_be_non_negative_integer(self, model, image, seed):
        with pytest.raises(ConfigError, match="seed"):
            mc_dropout_infer(model, image, n=2, seed=seed)

    def test_numpy_integer_trials_accepted(self, model, image):
        a = mc_dropout_infer(model, image, n=np.int64(2), seed=4)
        b = mc_dropout_infer(model, image, n=2, seed=4)
        np.testing.assert_array_equal(a.epistemic, b.epistemic)

    def test_needs_single_image(self, model, image):
        with pytest.raises(DimensionError):
            mc_dropout_infer(model, image[None], n=2)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, model, image, rate):
        with pytest.raises(ConfigError):
            mc_dropout_infer(model, image, n=2, rate=rate)

    def test_single_trial_has_zero_epistemic(self, model, image):
        out = mc_dropout_infer(model, image, n=1, seed=3)
        assert (out.epistemic == 0.0).all()

    def test_zero_rate_has_zero_epistemic(self, image):
        quiet = build_model(micro_config(num_classes=4, dropout_rate=0.0), seed=0)
        out = mc_dropout_infer(quiet, image, n=5, seed=3)
        assert (out.epistemic == 0.0).all()

    def test_population_variance_of_trials(self):
        a = np.array([[[0.4]], [[0.6]]])
        b = np.array([[[0.6]], [[0.4]]])
        stub = FlipFlopModel([a, b])
        out = mc_dropout_infer(stub, np.zeros((5, 1, 1)), n=2)
        # per class: mean 0.5, population var 0.01; summed over 2 classes
        np.testing.assert_allclose(out.epistemic, 0.02, rtol=1e-12)
        np.testing.assert_allclose(out.mean_prediction, 0.5, rtol=1e-12)

    def test_seed_reproducible(self, model, image):
        a = mc_dropout_infer(model, image, n=4, seed=9)
        b = mc_dropout_infer(model, image, n=4, seed=9)
        np.testing.assert_array_equal(a.epistemic, b.epistemic)
        c = mc_dropout_infer(model, image, n=4, seed=10)
        assert not np.array_equal(a.epistemic, c.epistemic)

    def test_epistemic_grows_with_rate(self, model, image):
        lo = mc_dropout_infer(model, image, n=8, seed=1, rate=0.05)
        hi = mc_dropout_infer(model, image, n=8, seed=1, rate=0.5)
        assert hi.epistemic.mean() > lo.epistemic.mean()

    def test_map_fields(self, model, image):
        out = mc_dropout_infer(model, image, n=3, seed=0)
        assert out.mean_prediction.shape == (4, 16, 32)
        assert out.epistemic.shape == (16, 32)
        assert (out.epistemic >= 0).all()


# (config, spatial size): dropout in enc1 only (micro); in three encoder and
# two decoder stages, with an unpooled bottleneck stage; no dropout layer at all
TRIAL_CONFIGS = {
    "micro": (micro_config(num_classes=4), (16, 32)),
    "deep": (ModelConfig(num_classes=3, base_channels=4, encoder_channels=(4, 8, 8, 16, 16),
                         num_pool_stages=3), (16, 32)),
    "no-dropout": (ModelConfig(num_classes=3, base_channels=4, encoder_channels=(4, 8),
                               num_pool_stages=1), (8, 16)),
}


def spy_batches(monkeypatch, model, name="context0.short.conv"):
    """The batch of every forward of one named layer, in call order."""
    layer = dict(model.named_layers())[name]
    batches = []

    def spy(x, cache=False, forward=layer.forward):
        batches.append(len(x))
        return forward(x, cache=cache)

    monkeypatch.setattr(layer, "forward", spy)
    return batches


def per_trial_forwards(model, x, n, seed, rate):
    """The trials one at a time, each with its own SeedSequence child."""
    children = np.random.SeedSequence(seed).spawn(n)
    return np.stack([model.forward(x, mode="mc", rng=np.random.default_rng(c), rate=rate)
                     for c in children]).astype(np.float64)


class TestBatchedTrials:
    """mc_dropout_infer's n trials, one Model.forward each, against the trials run by hand."""

    @pytest.fixture(scope="class", params=sorted(TRIAL_CONFIGS))
    def case(self, request):
        cfg, shape = TRIAL_CONFIGS[request.param]
        x = np.random.default_rng(4).normal(size=(5,) + shape).astype(np.float32)
        return build_model(cfg, seed=2), x

    @pytest.mark.parametrize("rate", [None, 0.0, 0.3])
    @pytest.mark.parametrize("n, prior", [(1, None), (7, None), (7, 3), (30, None), (30, 1), (30, 3)])
    def test_matches_per_trial_loop(self, case, rate, n, prior, monkeypatch):
        model, x = case
        held = None
        if prior is not None:  # a holder that `prior` earlier calls, at other rates, have filled
            held = HeldPrefix()
            for r in (0.1, 0.0, 0.5)[:prior]:
                mc_dropout_infer(model, x, 1, seed=9, rate=r, held=held)
        calls = []
        forward = model.forward

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward", counted)
        out = mc_dropout_infer(model, x, n, seed=5, rate=rate, held=held)
        monkeypatch.undo()
        assert len(calls) == n
        assert all(isinstance(kw["rng"], np.random.Generator) for kw in calls)
        holders = {id(kw["held"]) for kw in calls}  # one holder per call, the caller's if given
        assert len(holders) == 1 and (held is None or holders == {id(held)})
        trials = per_trial_forwards(model, x, n, seed=5, rate=rate)
        np.testing.assert_array_equal(out.mean_prediction, trials.mean(axis=0))
        np.testing.assert_array_equal(out.epistemic, trials.var(axis=0).sum(axis=0))

    def test_prefix_runs_once_at_batch_one(self, monkeypatch):
        cfg, shape = TRIAL_CONFIGS["deep"]
        model = build_model(cfg, seed=2)
        x = np.random.default_rng(4).normal(size=(5,) + shape).astype(np.float32)
        batches = {}
        for name, layer in model.named_layers():
            if isinstance(layer, Conv2d):
                def spy(x, cache=False, name=name, forward=layer.forward):
                    batches.setdefault(name, []).append(len(x))
                    return forward(x, cache=cache)
                monkeypatch.setattr(layer, "forward", spy)
        out = mc_dropout_infer(model, x, 4, seed=5)
        monkeypatch.undo()
        assert len(batches) == sum(isinstance(layer, Conv2d) for _, layer in model.named_layers())
        prefix = ("context", "enc0.", "enc1.block.")
        for name, seen in batches.items():
            assert seen == [1] * (1 if name.startswith(prefix) else 4), name
        trials = per_trial_forwards(model, x, 4, seed=5, rate=None)
        np.testing.assert_array_equal(out.mean_prediction, trials.mean(axis=0))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_sequence_rng_needs_mc_mode(self, model, image, mode):
        # a sequence of generators is refused in every mode, these included
        with pytest.raises(ConfigError):
            model.forward(image, mode=mode, rng=[np.random.default_rng(0)])

    @pytest.mark.parametrize("mode", ["train", "eval", "mc"])
    def test_mismatched_skip_batch_raises(self, model, image, mode, monkeypatch):
        # no forward broadcasts a skip: in every mode, a skip whose batch
        # differs from the decoder's is a fault
        stage = next(st for st in model.encoder if st.pool is not None)
        run = stage.run

        def one_row_skip(h, rs):
            f, h = run(h, rs)
            return f[:1], h

        monkeypatch.setattr(stage, "run", one_row_skip)
        with pytest.raises(ValueError):
            model.forward(np.stack([image, image]), mode=mode, rng=np.random.default_rng(0))


class TestHeldPrefix:
    @pytest.mark.parametrize("n", [1, 7, 30])
    @pytest.mark.parametrize("m", [1, 3, "n"])
    def test_prefix_runs_once_per_call(self, model, image, n, m, monkeypatch):
        # two calls of n and m trials, each with its own holder
        m = n if m == "n" else m
        first = spy_batches(monkeypatch, model)
        head = spy_batches(monkeypatch, model, "head")
        mc_dropout_infer(model, image, n, seed=1)
        mc_dropout_infer(model, image, m, seed=2, rate=0.0)
        assert first == [1, 1]
        assert head == [1] * (n + m)

    def test_search_runs_prefix_once_per_image(self, model, monkeypatch):
        rng = np.random.default_rng(6)
        cal = [(rng.normal(size=(5, 16, 32)).astype(np.float32), rng.integers(0, 4, size=(16, 32)),
                np.ones((16, 32), dtype=bool), np.full((16, 32), 0.01)) for _ in range(2)]
        batches = spy_batches(monkeypatch, model)
        grid_search_dropout_rate(model, cal, [0.05, 0.2, 0.45], n_trials=3)
        assert batches == [1, 1]

    def test_serves_every_rate_bit_equal(self, model, image):
        held = HeldPrefix()
        for rate in (0.3, 0.0, None, 0.05):
            for c in np.random.SeedSequence(8).spawn(3):
                np.testing.assert_array_equal(
                    model.forward(image, mode="mc", rng=np.random.default_rng(c), rate=rate, held=held),
                    model.forward(image, mode="mc", rng=np.random.default_rng(c), rate=rate))

    def test_refusals_are_typed_and_leave_it_usable(self, model, image):
        held = HeldPrefix()
        first = model.forward(image, mode="mc", rng=np.random.default_rng(0), held=held)
        for other in (image + 1, image.astype(np.float64), image[:, :, :16]):
            with pytest.raises(StaleStateError):
                model.forward(other, mode="mc", rng=np.random.default_rng(0), held=held)
        for mode in ("train", "eval"):
            with pytest.raises(ConfigError):
                model.forward(image, mode=mode, rng=np.random.default_rng(0), held=held)
        with pytest.raises(ConfigError):
            model.forward(image, mode="mc", rng=np.random.default_rng(0), cache=True, held=held)
        again = model.forward(image, mode="mc", rng=np.random.default_rng(0), held=held)
        np.testing.assert_array_equal(again, first)

    def test_nan_image_matches_itself(self, model, image):
        # NaN != NaN, but a NaN image is still its own image: held trials equal unheld ones
        x = image.copy()
        x[2, 5, 7] = np.nan
        out = mc_dropout_infer(model, x, 2, seed=4)
        trials = per_trial_forwards(model, x, 2, seed=4, rate=None)
        assert np.isnan(trials).any()
        assert out.mean_prediction.tobytes() == trials.mean(axis=0).tobytes()
        assert out.epistemic.tobytes() == trials.var(axis=0).sum(axis=0).tobytes()

    def test_signed_zero_is_another_image(self, model, image):
        x = image.copy()
        x[1, 3, 4] = 0.0
        held = HeldPrefix()
        model.forward(x, mode="mc", rng=np.random.default_rng(0), held=held)
        flipped = x.copy()
        flipped[1, 3, 4] = -0.0
        assert np.array_equal(flipped, x)
        with pytest.raises(StaleStateError):
            model.forward(flipped, mode="mc", rng=np.random.default_rng(0), held=held)


class TestAdfInfer:
    def test_needs_single_image(self, model, image):
        with pytest.raises(DimensionError):
            adf_infer(model, image[None], SensorNoiseModel.isotropic(0.1))

    def test_channel_count_must_match(self, model, image):
        with pytest.raises(DimensionError):
            adf_infer(model, image, SensorNoiseModel(np.ones(3)))

    def test_zero_noise_collapses_to_numerical_zero(self, model, image):
        out = adf_infer(model, image, SensorNoiseModel.isotropic(0.0))
        # nothing but the numerical floor should survive the propagation
        assert (out.aleatoric < 1e-12).all()

    def test_zero_noise_mean_tracks_eval_forward(self, model, image):
        out = adf_infer(model, image, SensorNoiseModel.isotropic(0.0))
        np.testing.assert_allclose(
            out.mean_prediction, model.forward(image, mode="eval"), atol=1e-3)

    def test_more_noise_more_aleatoric(self, model, image):
        lo = adf_infer(model, image, SensorNoiseModel.isotropic(1e-4))
        hi = adf_infer(model, image, SensorNoiseModel.isotropic(0.25))
        assert hi.aleatoric.mean() > lo.aleatoric.mean()

    @pytest.mark.parametrize("shape", [(32,), (1, 32), (32, 16)])
    def test_valid_mask_must_match_image(self, model, image, shape):
        with pytest.raises(DimensionError):
            adf_infer(model, image, SensorNoiseModel.isotropic(0.1), valid=np.ones(shape, dtype=bool))

    def test_valid_mask_silences_empty_pixels(self, model, image):
        valid = np.zeros((16, 32), dtype=bool)
        masked = adf_infer(model, image, SensorNoiseModel.isotropic(0.5), valid=valid)
        unmasked = adf_infer(model, image, SensorNoiseModel.isotropic(0.5))
        # masking all pixels removes all injected noise
        assert (masked.aleatoric < 1e-12).all()
        assert unmasked.aleatoric.mean() > masked.aleatoric.mean()


class TestObjectiveAndGrid:
    def test_default_grid_shape(self):
        grid = default_rate_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.01) and grid[-1] == pytest.approx(0.5)
        assert (np.diff(grid) > 0).all()
        # log-spaced: constant ratio between neighbors
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_nll_perfect_prediction_unit_sigma(self):
        pred = np.zeros((2, 1, 1))
        pred[0] = 1.0
        value = nll_objective(pred, np.ones((1, 1)), np.zeros((1, 1), dtype=int),
                              np.ones((1, 1), dtype=bool))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_nll_hand_value(self):
        pred = np.full((2, 1, 1), 0.5)
        sigma = np.full((1, 1), 0.5)
        value = nll_objective(pred, sigma, np.zeros((1, 1), dtype=int),
                              np.ones((1, 1), dtype=bool))
        assert value == pytest.approx(0.5 * np.log(0.5) + 0.5 / 1.0, rel=1e-12)

    def test_nll_ignores_invalid_pixels(self):
        pred = np.full((2, 1, 2), 0.5)
        valid = np.array([[True, False]])
        v1 = nll_objective(pred, np.ones((1, 2)), np.zeros((1, 2), dtype=int), valid)
        v2 = nll_objective(pred[:, :, :1], np.ones((1, 1)),
                           np.zeros((1, 1), dtype=int), np.ones((1, 1), dtype=bool))
        assert v1 == pytest.approx(v2, rel=1e-12)

    @pytest.mark.parametrize("target", [-1, 4])
    def test_nll_target_outside_classes_on_valid_pixel_rejected(self, target):
        # -1 would otherwise index the last one-hot row and score as class 3
        with pytest.raises(InvalidTargetError):
            nll_objective(np.full((4, 1, 1), 0.25), np.ones((1, 1)), np.full((1, 1), target),
                          np.ones((1, 1), dtype=bool))

    @pytest.mark.parametrize("target", [-1, 4, 255])
    def test_nll_ignores_targets_on_invalid_pixels(self, target):
        pred = np.random.default_rng(1).dirichlet(np.ones(4), size=(1, 2)).transpose(2, 0, 1)
        sigma = np.full((1, 2), 0.3)
        valid = np.array([[True, False]])
        v = nll_objective(pred, sigma, np.array([[2, target]]), valid)
        assert v == nll_objective(pred, sigma, np.array([[2, 0]]), valid)

    def test_nll_in_range_targets_match_whole_image_one_hot(self):
        rng = np.random.default_rng(2)
        pred = rng.dirichlet(np.ones(4), size=(16, 32)).transpose(2, 0, 1)
        sigma = rng.uniform(0.0, 0.5, size=(16, 32))
        targets = rng.integers(0, 4, size=(16, 32))
        valid = rng.random((16, 32)) < 0.7
        # the formula over every pixel, one-hot by indexing, then summed over the valid ones
        onehot = np.eye(4)[targets].transpose(2, 0, 1)
        s = np.maximum(sigma, uncertainty.SIGMA_FLOOR)
        per_pixel = 0.5 * np.log(s) + ((onehot - pred) ** 2).sum(axis=0) / (2.0 * s)
        assert nll_objective(pred, sigma, targets, valid) == float(per_pixel[valid].sum())

    @pytest.mark.parametrize("arg", ["sigma_tot", "targets", "valid"])
    @pytest.mark.parametrize("shape", [(1, 32), (32,), (32, 16)])
    def test_nll_per_pixel_args_must_match_image(self, arg, shape):
        args = {"sigma_tot": np.ones((16, 32)), "targets": np.zeros((16, 32), dtype=int),
                "valid": np.ones((16, 32), dtype=bool)}
        args[arg] = np.ones(shape, dtype=args[arg].dtype)
        with pytest.raises(DimensionError):
            nll_objective(np.full((2, 16, 32), 0.5), **args)


class TestGridSearch:
    def calibration(self, model, rng, shape=(16, 32)):
        x = rng.normal(size=(5,) + shape).astype(np.float32)
        targets = rng.integers(0, 4, size=shape)
        valid = np.ones(shape, dtype=bool)
        aleatoric = adf_infer(model, x, SensorNoiseModel.isotropic(0.01), valid).aleatoric
        return [(x, targets, valid, aleatoric)]

    def test_empty_grid_rejected(self, model):
        with pytest.raises(ConfigError):
            grid_search_dropout_rate(model, [], [])

    def test_out_of_range_rate_rejected(self, model):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            grid_search_dropout_rate(model, self.calibration(model, rng), [0.5, 1.0])

    def test_empty_calibration_rejected(self, model):
        with pytest.raises(ConfigError):
            grid_search_dropout_rate(model, [], [0.1])

    def test_singleton_grid(self, model):
        rng = np.random.default_rng(1)
        best, objectives = grid_search_dropout_rate(model, self.calibration(model, rng), [0.2], n_trials=2)
        assert best == 0.2
        assert set(objectives) == {0.2}

    def test_best_is_argmin(self, model):
        rng = np.random.default_rng(2)
        rates = [0.05, 0.2, 0.45]
        best, objectives = grid_search_dropout_rate(
            model, self.calibration(model, rng), rates, n_trials=3, seed=4)
        assert set(objectives) == set(rates)
        assert best == min(objectives, key=lambda r: (objectives[r], r))

    def test_objectives_bit_equal_to_one_call_per_rate(self, model, monkeypatch):
        rng = np.random.default_rng(5)
        cal = self.calibration(model, rng) + self.calibration(model, rng)
        rates = [0.2, 0.05, 0.2, 0.45]  # a duplicate rate runs, and counts, once
        calls = []
        infer = uncertainty.mc_dropout_infer

        def counted(*args, **kwargs):
            calls.append(kwargs["rate"])
            return infer(*args, **kwargs)

        monkeypatch.setattr(uncertainty, "mc_dropout_infer", counted)
        best, objectives = grid_search_dropout_rate(model, cal, rates, n_trials=4, seed=2)
        monkeypatch.undo()
        assert calls == [0.05, 0.2, 0.45] * len(cal)
        expected = {}
        for rate in (0.05, 0.2, 0.45):
            total = 0.0
            for x, targets, valid, aleatoric in cal:
                mc = mc_dropout_infer(model, x, 4, seed=2, rate=rate)
                total += nll_objective(mc.mean_prediction, mc.epistemic + aleatoric, targets, valid)
            expected[rate] = total
        assert objectives == expected
        assert best == min(expected, key=lambda r: (expected[r], r))

    def test_ties_go_to_smaller_rate(self):
        # the stub ignores the rate entirely, so every objective ties
        probs = np.zeros((2, 4, 4))
        probs[0] = 1.0
        stub = FlipFlopModel([probs])
        rng = np.random.default_rng(3)
        targets = rng.integers(0, 2, size=(4, 4))
        cal = [(np.zeros((5, 4, 4)), targets, np.ones((4, 4), dtype=bool), np.full((4, 4), 0.02))]
        best, objectives = grid_search_dropout_rate(stub, cal, [0.4, 0.1, 0.25], n_trials=2)
        assert best == 0.1
        assert len(set(objectives.values())) == 1

