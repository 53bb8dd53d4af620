"""Moment propagation rules versus Monte Carlo and hand-derived oracles."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from rangeseg import adf, layers, model as model_mod
from rangeseg.adf import (
    VARIANCE_FLOOR,
    GaussianTensor,
    adf_forward,
    batch_norm_adf,
    channel_dropout_adf,
    conv2d_adf,
    leaky_relu_adf,
    softmax_adf,
)
from rangeseg.errors import InvalidDistributionError
from rangeseg.model import build_model, micro_config
from rangeseg.layers import (
    AvgPool2x2,
    BatchNorm2d,
    ChannelDropout,
    Conv2d,
    LeakyReLU,
    PixelShuffle,
    Softmax,
)


def gauss(mean, var):
    mean = np.asarray(mean, dtype=np.float64)
    return GaussianTensor(mean, np.broadcast_to(np.asarray(var, dtype=np.float64),
                                                mean.shape).copy())


class TestGaussianTensor:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidDistributionError):
            GaussianTensor(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidDistributionError):
            GaussianTensor(np.zeros(3), np.array([1.0, -0.1, 1.0]))

    def test_nan_variance_rejected(self):
        with pytest.raises(InvalidDistributionError):
            GaussianTensor(np.zeros(3), np.array([np.nan, 1.0, 2.0]))

    def test_variance_floor_applied(self):
        g = GaussianTensor(np.zeros(3), np.zeros(3))
        assert (g.variance == VARIANCE_FLOOR).all()


class TestLeakyReluRule:
    def test_standard_normal_relu_moments(self):
        # x ~ N(0,1), slope 0: E[max(x,0)] = 1/sqrt(2 pi), Var = 1/2 - 1/(2 pi)
        out = leaky_relu_adf(LeakyReLU(0.0), gauss([[0.0]], 1.0))
        assert out.mean[0, 0] == pytest.approx(0.3989422804, abs=1e-9)
        assert out.variance[0, 0] == pytest.approx(0.3408450569, abs=1e-9)

    def test_deep_positive_regime_is_identity(self):
        out = leaky_relu_adf(LeakyReLU(0.1), gauss([[50.0]], 1.0))
        assert out.mean[0, 0] == pytest.approx(50.0, rel=1e-9)
        assert out.variance[0, 0] == pytest.approx(1.0, rel=1e-6)

    def test_deep_negative_regime_scales_by_slope(self):
        out = leaky_relu_adf(LeakyReLU(0.1), gauss([[-50.0]], 1.0))
        assert out.mean[0, 0] == pytest.approx(-5.0, rel=1e-9)
        assert out.variance[0, 0] == pytest.approx(0.01, rel=1e-5)

    @pytest.mark.parametrize("mu,var,slope", [
        (0.0, 1.0, 0.01),
        (1.5, 0.25, 0.01),
        (-0.7, 2.0, 0.1),
        (0.3, 0.04, 0.3),
    ])
    def test_monte_carlo_agreement(self, mu, var, slope):
        rng = np.random.default_rng(17)
        x = rng.normal(mu, np.sqrt(var), size=500_000)
        y = np.where(x >= 0, x, slope * x)
        out = leaky_relu_adf(LeakyReLU(slope), gauss([[mu]], var))
        se_mean = y.std() / np.sqrt(len(y))
        assert out.mean[0, 0] == pytest.approx(y.mean(), abs=5 * se_mean)
        assert out.variance[0, 0] == pytest.approx(y.var(), rel=0.02)


class TestConvRule:
    def test_matches_linearity_probe(self):
        # recover the conv as a matrix column by column, then apply the
        # independent-Gaussian identity: var_out = (A^2) var_in
        rng = np.random.default_rng(5)
        conv = Conv2d(2, 3, k=3, rng=rng).cast(np.float64)
        shape = (1, 2, 4, 5)
        size = int(np.prod(shape))
        cols = []
        zero = np.zeros(shape)
        bias_term = conv.forward(zero)
        for j in range(size):
            e = np.zeros(size)
            e[j] = 1.0
            cols.append((conv.forward(e.reshape(shape)) - bias_term).ravel())
        a = np.stack(cols, axis=1)
        mean_in = rng.normal(size=size)
        var_in = rng.uniform(0.1, 2.0, size=size)
        out = conv2d_adf(conv, GaussianTensor(mean_in.reshape(shape),
                                              var_in.reshape(shape)))
        np.testing.assert_allclose(out.mean.ravel(),
                                   a @ mean_in + bias_term.ravel(), rtol=1e-9)
        np.testing.assert_allclose(out.variance.ravel(), (a**2) @ var_in, rtol=1e-9)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(8)
        conv = Conv2d(1, 2, k=3, rng=rng).cast(np.float64)
        mean = rng.normal(size=(1, 1, 4, 4))
        var = rng.uniform(0.2, 1.0, size=(1, 1, 4, 4))
        n = 200_000
        draws = rng.normal(mean, np.sqrt(var), size=(n, 1, 4, 4)).reshape(n, 1, 4, 4)
        ys = conv.forward(draws)
        out = conv2d_adf(conv, GaussianTensor(mean, var))
        np.testing.assert_allclose(out.mean[0], ys.mean(axis=0), rtol=0, atol=0.02)
        np.testing.assert_allclose(out.variance[0], ys.var(axis=0), rtol=0.03)


class TestBatchNormRule:
    def test_affine_moments(self):
        bn = BatchNorm2d(1, eps=1e-5).cast(np.float64)
        bn.running_mean[:] = 4.0
        bn.running_var[:] = 3.0
        bn.gamma.value[:] = 2.0
        bn.beta.value[:] = 1.0
        out = batch_norm_adf(bn, gauss(np.full((1, 1, 1, 1), 6.0), 0.5))
        scale = 2.0 / np.sqrt(3.0 + 1e-5)
        assert out.mean[0, 0, 0, 0] == pytest.approx((6.0 - 4.0) * scale + 1.0, rel=1e-12)
        assert out.variance[0, 0, 0, 0] == pytest.approx(0.5 * scale**2, rel=1e-12)

    def test_matches_forward_on_mean(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm2d(3).cast(np.float64)
        bn.running_mean[:] = rng.normal(size=3)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=3)
        mean = rng.normal(size=(1, 3, 2, 2))
        out = batch_norm_adf(bn, gauss(mean, 0.1))
        np.testing.assert_allclose(out.mean, bn.forward(mean, train=False), rtol=1e-12)


class TestPoolingAndShuffleRules:
    def test_avg_pool_variance_quartered(self):
        g = gauss(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4), 0.8)
        out = adf_forward(AvgPool2x2(), g)
        np.testing.assert_allclose(out.mean, AvgPool2x2().forward(g.mean))
        np.testing.assert_allclose(out.variance, 0.2)

    def test_pixel_shuffle_permutes_pairs(self):
        rng = np.random.default_rng(3)
        g = GaussianTensor(rng.normal(size=(1, 4, 2, 3)),
                           rng.uniform(0.1, 1.0, size=(1, 4, 2, 3)))
        out = adf_forward(PixelShuffle(2), g)
        pairs_in = set(zip(g.mean.ravel(), g.variance.ravel()))
        pairs_out = set(zip(out.mean.ravel(), out.variance.ravel()))
        assert pairs_in == pairs_out


class TestDropoutRule:
    def test_identity_without_analysis(self):
        g = gauss(np.full((1, 2, 1, 1), 3.0), 0.5)
        out = channel_dropout_adf(ChannelDropout(0.4), g)
        np.testing.assert_array_equal(out.mean, g.mean)
        np.testing.assert_array_equal(out.variance, g.variance)


class TestSoftmaxRule:
    def test_matches_explicit_jacobian(self):
        rng = np.random.default_rng(9)
        mu = rng.normal(size=(1, 4, 2, 2))
        v = rng.uniform(0.01, 0.1, size=mu.shape)
        out = softmax_adf(Softmax(), GaussianTensor(mu.copy(), v.copy()))
        s = Softmax().forward(mu)
        expected = np.zeros_like(v)
        for n in range(1):
            for y in range(2):
                for x in range(2):
                    sv = s[n, :, y, x]
                    jac = np.diag(sv) - np.outer(sv, sv)
                    expected[n, :, y, x] = (jac**2) @ v[n, :, y, x]
        np.testing.assert_allclose(out.mean, s, rtol=1e-12)
        np.testing.assert_allclose(out.variance, np.maximum(expected, VARIANCE_FLOOR),
                                   rtol=1e-9)

    def test_monte_carlo_agreement_small_variance(self):
        # the delta method is first order, so hold input variances small
        rng = np.random.default_rng(31)
        mu = np.array([0.5, -0.2, 1.0])
        v = np.full(3, 0.02)
        n = 300_000
        draws = rng.normal(mu, np.sqrt(v), size=(n, 3))
        e = np.exp(draws - draws.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        out = softmax_adf(Softmax(), GaussianTensor(mu.reshape(1, 3, 1, 1),
                                                    v.reshape(1, 3, 1, 1)))
        np.testing.assert_allclose(out.mean[0, :, 0, 0], probs.mean(axis=0), atol=0.002)
        np.testing.assert_allclose(out.variance[0, :, 0, 0], probs.var(axis=0), rtol=0.05)


class TestDispatch:
    def test_known_layers_route(self):
        g = gauss(np.zeros((1, 4, 2, 2)), 1.0)
        assert adf_forward(Softmax(), g).mean.shape == (1, 4, 2, 2)

    def test_unknown_layer_rejected(self):
        class Mystery:
            pass

        with pytest.raises(TypeError):
            adf_forward(Mystery(), gauss(np.zeros((1, 1, 1, 1)), 1.0))

    def test_all_outputs_respect_floor(self):
        g = gauss(np.zeros((1, 4, 4, 4)), 0.0)
        for layer in (LeakyReLU(0.01), AvgPool2x2(), PixelShuffle(2), Softmax()):
            out = adf_forward(layer, g)
            assert (out.variance >= VARIANCE_FLOOR).all()


# ---- the rules in whole-array form, kept as oracles for the row-block rules ----


def oracle_floored(mean, var):
    return GaussianTensor.trusted(mean, np.maximum(var, VARIANCE_FLOOR).astype(mean.dtype, copy=False))


def oracle_conv(layer, g):
    kernel = layer.kernel.value.astype(g.mean.dtype, copy=False)
    mean = layer._correlate(g.mean, kernel, layer.bias.value.astype(kernel.dtype, copy=False))
    return oracle_floored(mean, layer._correlate(g.variance, kernel**2))


def oracle_batch_norm(layer, g):
    dt = g.mean.dtype  # each op's result is stored in the mean's dtype
    inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
    scale = (layer.gamma.value * inv_std).astype(dt)
    mean = (g.mean - layer.running_mean[None, :, None, None]).astype(dt) * scale[None, :, None, None]
    mean = (mean + layer.beta.value[None, :, None, None]).astype(dt)
    return oracle_floored(mean, g.variance * (scale**2)[None, :, None, None])


def oracle_leaky(layer, g):
    a = layer.slope
    mu, v = g.mean, g.variance
    sigma = np.sqrt(v)
    t = mu / sigma
    cdf = ndtr(t)
    pdf = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    second = mu * mu + v
    cross = mu * sigma * pdf
    mean = (mu * cdf + sigma * pdf) * (1.0 - a) + a * mu
    var = second * cdf + cross + (((1.0 - cdf) * second - cross) * (a * a))
    var -= mean * mean
    return oracle_floored(mean, var)


ORACLES = {**adf._RULES, Conv2d: oracle_conv, BatchNorm2d: oracle_batch_norm, LeakyReLU: oracle_leaky}
ORACLES[AvgPool2x2] = lambda layer, g: oracle_floored(layer.forward(g.mean), layer.forward(g.variance) / 4.0)
ORACLES[PixelShuffle] = lambda layer, g: oracle_floored(layer.forward(g.mean), layer.forward(g.variance))


def pitched(values, pad=16):
    """values (n, c, h, w) copied into channel rows h*w + pad apart, like a conv output."""
    n, c, h, w = values.shape
    buf = np.full((n, c, h * w + pad), -7.0, dtype=values.dtype)
    buf[..., : h * w] = values.reshape(n, c, h * w)
    return buf[..., : h * w].reshape(values.shape)


def saturating_input(dtype, seed=0):
    """A pitched (mean, variance) pair over several row blocks: |t| on both sides of the bound, and edge values.

    The specials sit at the start of the first, a middle and the last channel row.
    """
    rng = np.random.default_rng(seed)
    shape = (5, 8, 32, 64)
    t = rng.normal(scale=30.0, size=shape)
    var = rng.uniform(1e-4, 4.0, size=shape)
    mean = t * np.sqrt(var)
    sat = adf._SATURATED
    specials = [  # (mean, variance)
        *[(s * u, 1.0) for s in (1, -1) for u in (sat - 1e-3, sat, sat + 1e-3, 38.5, 38.6, 37.5, 9.0, 0.5)],
        (0.0, 1.0), (-0.0, 1.0), (0.0, 0.0), (-0.0, 0.0),
        (np.inf, 1.0), (-np.inf, 1.0), (np.inf, 0.0), (1.0, np.inf), (0.0, np.inf),
        (np.nan, 1.0), (1.0, np.nan),
        (1e-3, VARIANCE_FLOOR), (-1e-3, VARIANCE_FLOOR), (1e-20, VARIANCE_FLOOR), (-1e-20, 0.0),
    ]
    rows_m, rows_v = mean.reshape(-1, 32 * 64), var.reshape(-1, 32 * 64)
    for r in (0, len(rows_m) // 2, len(rows_m) - 1):
        rows_m[r, : len(specials)], rows_v[r, : len(specials)] = zip(*specials)
    var = np.maximum(var, VARIANCE_FLOOR)  # NaN stays: the trusted wrap takes it as it is
    return pitched(mean.astype(dtype)), pitched(var.astype(dtype))


def assert_bit_equal(got, want):
    assert got.mean.dtype == want.mean.dtype and got.variance.dtype == want.variance.dtype
    assert got.mean.shape == want.mean.shape and got.variance.shape == want.variance.shape
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.variance.tobytes() == want.variance.tobytes()


def rule_outputs(rule, layer, mean, var):
    """(oracle, fresh, owned) results; checks that only the owned call wrote into its input."""
    want = ORACLES[type(layer)](layer, GaussianTensor.trusted(mean.copy(), var.copy()))
    m, v = mean.copy(), var.copy()
    fresh = rule(layer, GaussianTensor.trusted(mean, var))
    assert mean.tobytes() == m.tobytes() and var.tobytes() == v.tobytes()
    owned = rule(layer, GaussianTensor.trusted(m, v), own=True)
    return want, fresh, owned, (m, v)


def batch_norm_layer(dtype, c=8, seed=4):
    bn = BatchNorm2d(c).cast(dtype)
    rng = np.random.default_rng(seed)
    bn.gamma.value[:] = rng.normal(size=c)
    bn.beta.value[:] = rng.normal(size=c)
    bn.running_mean[:] = rng.normal(size=c)
    bn.running_var[:] = rng.uniform(0.5, 2.0, size=c)
    return bn


class TestRowBlockRules:
    """The row-block rules equal their whole-array oracles bit for bit, fresh or own."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    def test_leaky_matches_whole_array_rule(self, dtype, slope):
        mean, var = saturating_input(dtype)
        assert mean.nbytes > layers._BLOCK_BYTES
        with np.errstate(all="ignore"):  # inf * 0, inf - inf
            want, fresh, owned, (m, v) = rule_outputs(leaky_relu_adf, LeakyReLU(slope), mean, var)
        assert_bit_equal(fresh, want)
        assert_bit_equal(owned, want)
        assert np.shares_memory(owned.mean, m) and np.shares_memory(owned.variance, v)

    def test_saturation_skip_is_exact_at_the_bound(self):
        t = np.array([adf._SATURATED, np.nextafter(adf._SATURATED, np.inf), 1e300, np.inf])
        for s in (t, -t):
            assert (ndtr(s) == (s > 0)).all()
            with np.errstate(over="ignore"):
                assert (np.exp(-0.5 * s * s) == 0).all()

    @pytest.mark.parametrize("dtype, param_dtype", [
        (np.float32, np.float32), (np.float64, np.float32), (np.float64, np.float64), (np.float32, np.float64),
    ])
    def test_batch_norm_matches_whole_array_rule(self, dtype, param_dtype):
        mean, var = saturating_input(dtype, seed=1)
        with np.errstate(all="ignore"):
            want, fresh, owned, (m, v) = rule_outputs(batch_norm_adf, batch_norm_layer(param_dtype), mean, var)
        assert_bit_equal(fresh, want)
        assert_bit_equal(owned, want)
        assert np.shares_memory(owned.mean, m) and np.shares_memory(owned.variance, v)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_floors_its_own_fresh_variance(self, dtype):
        rng = np.random.default_rng(3)
        conv = Conv2d(4, 6, k=3, dilation=2, rng=rng)
        mean = rng.normal(size=(2, 4, 32, 64)).astype(dtype)
        var = rng.uniform(0.0, 1.0, size=mean.shape).astype(dtype)
        var[0, :, :8] = VARIANCE_FLOOR  # input rows at the floor: their propagated variance falls below it
        var = np.maximum(var, VARIANCE_FLOOR)
        want = oracle_conv(conv, GaussianTensor.trusted(mean, var))
        assert (want.variance == VARIANCE_FLOOR).any()
        got = conv2d_adf(conv, GaussianTensor.trusted(mean, var))
        assert_bit_equal(got, want)


class TestModelAdf:
    @staticmethod
    def micro_input(dtype):
        rng = np.random.default_rng(12)
        mean = rng.normal(size=(1, 5, 32, 64)).astype(dtype)
        var = rng.uniform(0.0, 2e-3, size=mean.shape).astype(dtype)
        var[:, :, :4] = 0.0  # empty pixels carry no noise
        return GaussianTensor(mean, var)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_whole_array_rules_and_leaves_input(self, monkeypatch, dtype):
        model = build_model(micro_config(), seed=3)
        g = self.micro_input(dtype)
        before = g.mean.copy(), g.variance.copy()
        got = model.adf(g)
        assert g.mean.tobytes() == before[0].tobytes() and g.variance.tobytes() == before[1].tobytes()
        monkeypatch.setattr(model_mod, "adf_forward", lambda layer, g, own=False: ORACLES[type(layer)](layer, g))
        assert_bit_equal(got, model.adf(g))

    def test_own_and_fresh_rule_calls_agree(self, monkeypatch):
        model = build_model(micro_config(), seed=3)
        g = self.micro_input(np.float64)
        owned = model.adf(g)
        owns = []

        def never_own(layer, g, own=False):
            owns.append(own)
            return adf_forward(layer, g)

        monkeypatch.setattr(model_mod, "adf_forward", never_own)
        assert_bit_equal(owned, model.adf(g))
        assert any(owns)
